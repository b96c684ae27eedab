(* The committed golden of simulated outputs: per spec, cycles, committed
   instructions, squashed instructions and the MD5 of its Stats record
   with the host-side fields (wall_ns, cache_hits, cache_misses) zeroed;
   plus the MD5 of the assembled table text of the full and quick plans.
   It pins today's model.  Only `main.exe bless` rewrites it. *)

module Stats = Xloops.Sim.Stats
module Run_spec = Xloops.Run_spec

type entry = { cycles : int; insns : int; squashed : int; stats_md5 : string }

type t = {
  specs : (string, entry) Hashtbl.t;   (* keyed by [Plan.label] *)
  tables : (string, string) Hashtbl.t; (* "full" / "quick" -> MD5 hex *)
}

let path = "perfbench/golden.tsv"

let stats_md5 (s : Stats.t) =
  let host_free = { s with Stats.wall_ns = 0; cache_hits = 0; cache_misses = 0 } in
  Digest.to_hex (Digest.string (Marshal.to_string host_free [ Marshal.No_sharing ]))

let entry_of (rd : Run_spec.run_data) =
  { cycles = rd.cycles; insns = rd.insns;
    squashed = rd.stats.Stats.squashed_insns; stats_md5 = stats_md5 rd.stats }

let table_md5 text = Digest.to_hex (Digest.string text)

let load () =
  let t = { specs = Hashtbl.create 512; tables = Hashtbl.create 2 } in
  let ic =
    try open_in path
    with Sys_error m -> failwith ("golden: " ^ m ^ " (run `main.exe bless`)")
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ "table"; plan; md5 ] -> Hashtbl.replace t.tables plan md5
          | [ "spec"; label; c; i; s; md5 ] ->
            Hashtbl.replace t.specs label
              { cycles = int_of_string c; insns = int_of_string i;
                squashed = int_of_string s; stats_md5 = md5 }
          | _ -> ()
        done
      with End_of_file -> ());
  t

let save ~tables (specs : (string * entry) list) =
  let oc = open_out path in
  output_string oc
    "# perfbench golden: rewrite only with `main.exe bless` and name the \
     cause in the commit\n";
  List.iter (fun (plan, md5) -> Printf.fprintf oc "table\t%s\t%s\n" plan md5)
    tables;
  List.iter
    (fun (label, e) ->
       Printf.fprintf oc "spec\t%s\t%d\t%d\t%d\t%s\n" label e.cycles e.insns
         e.squashed e.stats_md5)
    (List.sort compare specs);
  close_out oc

let matches t ~label rd =
  match Hashtbl.find_opt t.specs label with
  | Some e -> e = entry_of rd
  | None -> false

let table_matches t ~plan text =
  Hashtbl.find_opt t.tables plan = Some (table_md5 text)
