(* perfbench: the repository's benchmark — the paper sweep end to end,
   cold, warm and through the sharded fleet, with a traced run that
   splits it into layers.  See perfbench/README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--quick]
     main.exe schema       # print BENCHMARK.json
     main.exe bless        # rewrite perfbench/golden.tsv

   Run it through perfbench/run.py, which builds it first.  The last
   line of stdout is the JSON result; everything else goes to stderr. *)

module E = Xloops.Experiments
module Pool = Xloops.Pool
module P = Xloops_service.Protocol

(* -- The schema --------------------------------------------------------- *)

let workloads =
  [ ("paper-cold",
     "the full paper plan in process on 2 pool domains into an empty cache \
      and journal: simulation, cache and journal writes");
    ("paper-warm",
     "the same plan against the cache set-up filled: zero simulations; \
      cache keys, blob reads, journal fsyncs and table assembly");
    ("fleet-cold",
     "the plan through xloops_proxy and two 1-worker xloops_serve shards \
      on a fresh shared index: protocol, routing, merge, cross-process \
      scaling") ]

(* name, unit, better, bound *)
let end_to_end =
  [ ("sweep_s", "s", "lower", 0.25);
    ("host_mips", "MIPS", "higher", 0.25);
    ("spec_p50_ms", "ms", "lower", 0.25);
    ("spec_p99_ms", "ms", "lower", 0.25);
    ("peak_rss_mb", "MB", "lower", 0.1);
    ("setup_s", "s", "lower", 0.25) ]

let per_layer =
  [ ("compiler.calls", "count", "lower"); ("compiler.ms", "ms", "lower");
    ("run_spec.cache_key.calls", "count", "lower");
    ("run_spec.cache_key.ms", "ms", "lower");
    ("run_cache.find.calls", "count", "lower");
    ("run_cache.find.ms", "ms", "lower");
    ("run_cache.store.calls", "count", "lower");
    ("run_cache.store.ms", "ms", "lower");
    ("run_cache.store.bytes", "bytes", "lower");
    ("run_cache.hit_ratio", "ratio", "higher");
    ("journal.records", "count", "lower"); ("journal.ms", "ms", "lower");
    ("kernels.init.ms", "ms", "lower"); ("kernels.check.ms", "ms", "lower");
    ("exec.mips", "MIPS", "higher");
    ("exec.bytes_per_insn", "B/insn", "lower") ]
  @ List.concat_map
    (fun (m, _) ->
       [ (Fmt.str "gpp_timing.%s.ns_per_insn" m, "ns/insn", "lower");
         (Fmt.str "gpp_timing.%s.bytes_per_insn" m, "B/insn", "lower") ])
    Layers.models
  @ List.concat_map
    (fun r ->
       [ (r ^ ".ms", "ms", "lower"); (r ^ ".mips", "MIPS", "higher");
         (r ^ ".bytes_per_insn", "B/insn", "lower") ])
    Layers.machine_rows
  @ [ ("lpsu.squash_ratio", "ratio", "lower");
      ("experiments.meta_ms", "ms", "lower");
      ("experiments.assemble_ms", "ms", "lower");
      ("pool.efficiency", "ratio", "higher");
      ("fleet.queue_wait_p50_ms", "ms", "lower");
      ("fleet.exec_p50_ms", "ms", "lower");
      ("fleet.shard.0.jobs", "count", "higher");
      ("fleet.shard.0.busy_ms", "ms", "lower");
      ("fleet.shard.1.jobs", "count", "higher");
      ("fleet.shard.1.busy_ms", "ms", "lower");
      ("fleet.imbalance", "ratio", "lower");
      ("fleet.overhead_ms", "ms", "lower");
      ("gc.minor", "count", "lower"); ("gc.major", "count", "lower");
      ("trace.coverage", "ratio", "higher");
      ("trace.overhead_pct", "%", "lower");
      ("failed_frac", "ratio", "lower") ]

let run_seconds = 30

let schema () =
  let b = Buffer.create 8192 in
  let pf fmt = Printf.bprintf b fmt in
  let list items f =
    List.iteri
      (fun i x -> f x; pf "%s\n" (if i = List.length items - 1 then "" else ","))
      items
  in
  pf "{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n";
  pf "  \"paths\": [\"perfbench\"],\n";
  pf "  \"run_seconds\": %d,\n" run_seconds;
  pf "  \"workloads\": [\n";
  list workloads (fun (n, why) ->
      pf "    {\"name\": %S, \"why\": %S}" n why);
  pf "  ],\n  \"end_to_end\": [\n";
  list end_to_end (fun (n, u, better, bound) ->
      pf "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}"
        n u better bound);
  pf "  ],\n  \"per_layer\": [\n";
  list per_layer (fun (n, u, better) ->
      pf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" n u better);
  pf "  ]\n}\n";
  print_string (Buffer.contents b)

(* -- Small helpers ------------------------------------------------------ *)

let now = Unix.gettimeofday
let die fmt = Fmt.kstr (fun m -> Fmt.epr "perfbench: %s@." m; exit 2) fmt

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.(n / 2 - 1) +. a.(n / 2)) /. 2.

(* linear interpolation between closest ranks *)
let percentile p = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let x = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float x in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (x -. float_of_int i) *. (a.(i + 1) -. a.(i))

let rec rm_rf p =
  match Unix.lstat p with
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

(* bytes of the result blobs (".run" files) under [dir]: a sweep's
   store bytes are the growth across it *)
let rec run_blob_bytes dir =
  Array.fold_left
    (fun acc n ->
       let p = Filename.concat dir n in
       match Unix.lstat p with
       | { st_kind = S_DIR; _ } -> acc + run_blob_bytes p
       | { st_size; _ } when Filename.check_suffix n ".run" -> acc + st_size
       | _ -> acc)
    0 (Sys.readdir dir)

(* -- Child reports ------------------------------------------------------ *)

type report = (string, string list) Hashtbl.t

let read_report path : report =
  let r = Hashtbl.create 32 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun l ->
      match String.split_on_char ' ' l with
      | "span" :: name :: rest -> Hashtbl.replace r ("span " ^ name) rest
      | k :: rest when k <> "" -> Hashtbl.replace r k rest
      | _ -> ());
  r

let fields r k =
  match Hashtbl.find_opt r k with
  | Some l -> List.filter (( <> ) "") l
  | None -> []

let num r k = match fields r k with x :: _ -> float_of_string x | [] -> 0.
let nth r k i =
  match List.nth_opt (fields r k) i with
  | Some x -> float_of_string x
  | None -> 0.
let floats r k = List.map float_of_string (fields r k)

(* span totals: calls, total seconds, self seconds *)
let span_of r name =
  match fields r ("span " ^ name) with
  | [ c; t; s ] -> (float_of_string c, float_of_string t, float_of_string s)
  | _ -> (0., 0., 0.)

(* -- Workload iterations ------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  quick : bool;
}

let work = Sweep.work
let jobs = Sweep.jobs
let bin_dir = "_build/default/bin"

type iter = {
  kind : string;                      (* cold | warm | fleet *)
  traced : bool;
  setup : float;
  r : report;
  rss_kb : int;                       (* child plus fleet processes *)
  store_bytes : int;
  fleet : (P.stats * P.stats) list;   (* per shard: before, after *)
}

(* A sweep child has 120 s; its stdout goes to our stderr. *)
let run_child args =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "child" :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  Fleet.live := pid :: !Fleet.live;
  match Fleet.wait_exit pid ~timeout:120. with
  | Some (WEXITED 0) -> Fleet.live := List.filter (( <> ) pid) !Fleet.live
  | _ -> die "sweep child failed: %s" (String.concat " " args)

let child_args o ~kind ~dir ~seed ~traced ?addr () =
  [ "--kind"; kind; "--dir"; dir; "--seed"; string_of_int seed ]
  @ (if o.quick then [ "--quick" ] else [])
  @ (if traced then [ "--traced" ] else [])
  @ (match addr with Some a -> [ "--addr"; a ] | None -> [])

let sweep_iter o ~kind ~dir ~seed ~traced ~t0 ?addr () =
  run_child (child_args o ~kind ~dir ~seed ~traced ?addr ());
  let r = read_report Sweep.report in
  { kind; traced; setup = num r "t_plan" -. t0; r;
    rss_kb = int_of_float (num r "rss_kb"); store_bytes = 0; fleet = [] }

(* A cold sweep gets a directory of its own, removed after the sweep so
   that deleting the last one's blobs is not timed as set-up. *)
let paper_iter o ~kind ~dir ~seed ~traced =
  let bytes0 = if kind = "cold" then 0 else run_blob_bytes dir in
  let t0 = now () in
  if kind = "cold" then Unix.mkdir dir 0o755;
  let it = sweep_iter o ~kind ~dir ~seed ~traced ~t0 () in
  let it = { it with store_bytes = run_blob_bytes dir - bytes0 } in
  if kind = "cold" && o.workload = "paper-cold" then rm_rf dir;
  it

let fleet_iter o ~seed ~traced =
  let dir = Filename.concat work "fleet" in
  rm_rf dir;
  let t0 = now () in
  Unix.mkdir dir 0o755;
  let fl = Fleet.start ~bin_dir ~dir in
  Fun.protect ~finally:(fun () -> Fleet.stop fl) (fun () ->
      let setup = now () -. t0 in
      let before = List.map Fleet.stats fl.shards in
      let bytes0 = run_blob_bytes dir in
      let client = Filename.concat dir "client" in
      Unix.mkdir client 0o755;
      let it =
        sweep_iter o ~kind:"fleet" ~dir:client ~seed ~traced ~t0
          ~addr:fl.proxy.addr ()
      in
      let after = List.map Fleet.stats fl.shards in
      let fleet_rss =
        List.fold_left (fun acc (p : Fleet.proc) -> acc + Fleet.peak_rss_kb p.pid)
          0 (fl.proxy :: fl.shards)
      in
      { it with setup; rss_kb = it.rss_kb + fleet_rss;
                store_bytes = run_blob_bytes dir - bytes0;
                fleet = List.combine before after })

(* -- Checks -------------------------------------------------------------- *)

(* growth of a fleet-wide STATS counter across the measured sweep *)
let fleet_delta (it : iter) f =
  List.fold_left (fun acc (a, b) -> acc + f b - f a) 0 it.fleet

(* Exact counters, checked on every iteration. *)
let exact_checks (it : iter) =
  let n = int_of_float (num it.r "attempted") in
  let hits = num it.r "cache" and misses = nth it.r "cache" 1 in
  let journal = int_of_float (num it.r "journal") in
  List.filter_map Fun.id
    [ (if journal <> n then Some (Fmt.str "journal %d records, plan %d" journal n)
       else None);
      (match it.kind with
       | "cold" when hits <> 0. ->
         Some (Fmt.str "cold sweep hit the cache %.0f times" hits)
       | "warm" when misses <> 0. || hits = 0. ->
         Some (Fmt.str "warm sweep: %.0f hits, %.0f misses" hits misses)
       | "fleet" ->
         let m = fleet_delta it (fun s -> s.P.cache_misses)
         and h = fleet_delta it (fun s -> s.P.cache_hits) in
         if m <> n || h <> 0 then
           Some (Fmt.str "fleet STATS: %d misses, %d hits for %d specs" m h n)
         else None
       | _ -> None) ]

(* -- One run of a workload ------------------------------------------------ *)

let cov_bounds = (0.9, 1.02)

let run_workload o =
  rm_rf work;
  Unix.mkdir work 0o755;
  let cache = Filename.concat work "cache" in
  let problems = ref [] and attempted = ref 0 and failed = ref 0 in
  let account (it : iter) =
    attempted := !attempted + int_of_float (num it.r "attempted");
    failed := !failed + int_of_float (num it.r "failed");
    if fields it.r "table_ok" <> [ "true" ] then
      problems := "assembled tables differ from the golden" :: !problems;
    problems := exact_checks it @ !problems
  in
  (* paper-warm's set-up fills the cache with a cold sweep.  It fills
     three times and times the median; the warm sweeps use the last. *)
  let fill_setup =
    if o.workload <> "paper-warm" then None
    else begin
      let fill i =
        let dir = if i = 2 then cache else Fmt.str "%s-fill%d" cache i in
        let t0 = now () in
        account
          (paper_iter o ~kind:"cold" ~dir ~seed:((o.seed * 1000) - 3 + i)
             ~traced:false);
        let t = now () -. t0 in
        if i < 2 then rm_rf dir;
        t
      in
      Some (median (List.init 3 fill))
    end
  in
  let one i =
    let seed = (o.seed * 1000) + i in
    (* a traced run alternates untraced and traced sweeps *)
    let traced = o.trace && i mod 2 = 1 in
    let it =
      match o.workload with
      | "paper-cold" ->
        paper_iter o ~kind:"cold" ~dir:(Fmt.str "%s-%d" cache i) ~seed ~traced
      | "paper-warm" -> paper_iter o ~kind:"warm" ~dir:cache ~seed ~traced
      | _ -> fleet_iter o ~seed ~traced
    in
    account it;
    Fmt.epr "perfbench: %s sweep %d%s: %.3f s (set-up %.3f s)@." o.workload i
      (if traced then " traced" else "") (num it.r "sweep_s") it.setup;
    it
  in
  (* The first sweep of a run is slower (page cache, allocator and
     frequency ramp); paper-warm's fill sweep absorbs that, the other
     workloads run one unmeasured sweep. *)
  if fill_setup = None then ignore (one (-1));
  let deadline = now () +. float_of_int o.seconds in
  let min_iters = if o.trace then 2 else 1 in
  let rec loop i acc =
    if i < min_iters || now () < deadline then loop (i + 1) (one i :: acc)
    else List.rev acc
  in
  let iters = loop 0 [] in
  rm_rf work;
  let plain = List.filter (fun it -> not it.traced) iters in
  let traced = List.filter (fun it -> it.traced) iters in
  let med f l = median (List.map f l) in
  let sweep_s it = num it.r "sweep_s" in
  let samples = List.concat_map (fun it -> floats it.r "lat") plain in
  (* A percentile is taken within each sweep, then the median over the
     sweeps: pooled, the tail of a run is the few sweeps the host
     preempted most. *)
  let spec_pct p = med (fun it -> percentile p (floats it.r "lat")) plain in
  let metrics =
    if not o.trace then
      [ ("sweep_s", med sweep_s plain);
        ("host_mips", med (fun it -> num it.r "insns" /. sweep_s it /. 1e6) plain);
        ("spec_p50_ms", spec_pct 0.5);
        ("spec_p99_ms", spec_pct 0.99);
        ("peak_rss_mb", med (fun it -> float_of_int it.rss_kb /. 1024.) plain);
        ("setup_s",
         match fill_setup with
         | Some s -> s
         | None -> med (fun it -> it.setup) iters) ]
    else begin
      let fleet = o.workload = "fleet-cold" in
      let calls n it = let c, _, _ = span_of it.r n in c in
      let ms n it = let _, t, _ = span_of it.r n in 1000. *. t in
      let warm_s it = num it.r "warm_s" in
      let coverage it =
        let self =
          Hashtbl.fold
            (fun k v acc ->
               if String.length k > 5 && String.sub k 0 5 = "span " then
                 acc +. float_of_string (List.nth v 2)
               else acc)
            it.r 0.
        in
        let extra_domains = if fleet then 0 else jobs - 1 in
        self /. (sweep_s it +. float_of_int extra_domains *. warm_s it)
      in
      (* per shard: (jobs, busy ms) over the measured sweep *)
      let shard i it =
        let a, b = List.nth it.fleet i in
        let delta f =
          let sum (s : P.stats) = List.fold_left (fun acc w -> acc + f w) 0 s.per_worker in
          float_of_int (sum b - sum a)
        in
        (delta (fun w -> w.P.w_jobs), delta (fun w -> w.P.w_busy_ms))
      in
      let busy it = List.init 2 (fun i -> snd (shard i it)) in
      let fleet_metric f = if fleet then med f plain else 0. in
      let hit_ratio it =
        let h, m =
          if fleet then
            ( float_of_int (fleet_delta it (fun s -> s.P.cache_hits)),
              float_of_int (fleet_delta it (fun s -> s.P.cache_misses)) )
          else (num it.r "cache", nth it.r "cache" 1)
        in
        if h +. m = 0. then 0. else h /. (h +. m)
      in
      let coverages = List.map coverage traced in
      Fmt.epr "perfbench: sweep_s %.4f s untraced, %.4f s traced; \
               trace.coverage %.4f@."
        (med sweep_s plain) (med sweep_s traced) (median coverages);
      List.iter
        (fun c ->
           let lo, hi = cov_bounds in
           if c < lo || c > hi then
             problems :=
               Fmt.str "trace.coverage %.3f outside [%g, %g]" c lo hi :: !problems)
        coverages;
      let layers = Layers.run ~quick:o.quick in
      attempted := !attempted + layers.attempted;
      failed := !failed + layers.failed;
      problems := layers.problems @ !problems;
      [ ("compiler.calls", med (calls "compiler") traced);
        ("compiler.ms", med (ms "compiler") traced);
        ("run_spec.cache_key.calls", med (calls "run_spec.cache_key") traced);
        ("run_spec.cache_key.ms", med (ms "run_spec.cache_key") traced);
        ("run_cache.find.calls", med (calls "run_cache.find") traced);
        ("run_cache.find.ms", med (ms "run_cache.find") traced);
        ("run_cache.store.calls", med (calls "run_cache.store") traced);
        ("run_cache.store.ms", med (ms "run_cache.store") traced);
        ("run_cache.store.bytes",
         med (fun it -> float_of_int it.store_bytes) traced);
        ("run_cache.hit_ratio", med hit_ratio traced);
        ("journal.records", med (calls "journal") traced);
        ("journal.ms", med (ms "journal") traced);
        ("kernels.init.ms", med (ms "kernels.init") traced);
        ("kernels.check.ms", med (ms "kernels.check") traced) ]
      @ layers.metrics
      @ [ ("experiments.meta_ms", med (ms "experiments.meta") traced);
          ("experiments.assemble_ms", med (ms "experiments.assemble") traced);
          ("pool.efficiency",
           if fleet then
             med (fun it ->
                 List.fold_left ( +. ) 0. (busy it) /. (2000. *. warm_s it))
               plain
           else
             med (fun it ->
                 ms "pool.item" it /. (1000. *. float_of_int jobs *. warm_s it))
               traced);
          ("fleet.queue_wait_p50_ms",
           percentile 0.5 (List.concat_map (fun it -> floats it.r "qwait") plain));
          ("fleet.exec_p50_ms",
           percentile 0.5 (List.concat_map (fun it -> floats it.r "exec") plain));
          ("fleet.shard.0.jobs", fleet_metric (fun it -> fst (shard 0 it)));
          ("fleet.shard.0.busy_ms", fleet_metric (fun it -> snd (shard 0 it)));
          ("fleet.shard.1.jobs", fleet_metric (fun it -> fst (shard 1 it)));
          ("fleet.shard.1.busy_ms", fleet_metric (fun it -> snd (shard 1 it)));
          ("fleet.imbalance",
           fleet_metric (fun it ->
               let b = busy it in
               List.fold_left max 0. b /. (List.fold_left ( +. ) 0. b /. 2.) -. 1.));
          ("fleet.overhead_ms",
           fleet_metric (fun it ->
               (1000. *. warm_s it) -. List.fold_left max 0. (busy it)));
          ("gc.minor", med (fun it -> num it.r "gc") plain);
          ("gc.major", med (fun it -> nth it.r "gc" 1) plain);
          ("trace.coverage", median coverages);
          ("trace.overhead_pct",
           100. *. ((med sweep_s traced /. med sweep_s plain) -. 1.));
          ("failed_frac",
           float_of_int !failed /. float_of_int (max 1 !attempted)) ]
    end
  in
  (metrics, !attempted, !failed, List.rev !problems, List.length samples)

(* -- Output ---------------------------------------------------------------- *)

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) end_to_end with
  | Some (_, u, _, _) -> u
  | None ->
    (match List.find_opt (fun (n, _, _) -> n = name) per_layer with
     | Some (_, u, _) -> u
     | None -> invalid_arg ("unknown metric " ^ name))

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let run_and_report o =
  let metrics, attempted, failed, problems, samples = run_workload o in
  let expected =
    if o.trace then List.map (fun (n, _, _) -> n) per_layer
    else List.map (fun (n, _, _, _) -> n) end_to_end
  in
  assert (List.map fst metrics = expected);
  Fmt.epr "perfbench %s seed=%d trace=%b%s:@." o.workload o.seed o.trace
    (if o.quick then " quick" else "");
  List.iter
    (fun (n, v) -> Fmt.epr "  %-36s %14.4f %s@." n v (unit_of n))
    metrics;
  if not o.trace then Fmt.epr "  (%d per-spec latency samples)@." samples;
  List.iter (fun p -> Fmt.epr "  CHECK FAILED: %s@." p) problems;
  let correct = failed = 0 && problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v)
               (unit_of n))
          metrics));
  exit (if correct then 0 else 1)

(* -- Golden bless ------------------------------------------------------------ *)

let bless () =
  let engine = E.caching_engine () in
  let plan = Plan.specs ~quick:false in
  let labels = List.map Plan.label plan in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    die "plan labels are not unique";
  let results = Pool.map ~jobs engine.run plan in
  let full = Plan.assemble ~quick:false engine in
  let quick = Plan.assemble ~quick:true engine in
  Golden.save
    ~tables:[ ("full", Golden.table_md5 full); ("quick", Golden.table_md5 quick) ]
    (List.map2 (fun l rd -> (l, Golden.entry_of rd)) labels results);
  print_string full;
  Fmt.epr "perfbench: blessed %d specs into %s@." (List.length plan) Golden.path

(* -- Command line ------------------------------------------------------------ *)

let int_flag flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> die "bad %s %S" flag v

let child args =
  let rec go (a : Sweep.args) = function
    | [] -> a
    | "--kind" :: k :: tl -> go { a with kind = k } tl
    | "--quick" :: tl -> go { a with quick = true } tl
    | "--seed" :: n :: tl when int_of_string_opt n <> None ->
      go { a with seed = int_of_string n } tl
    | "--dir" :: d :: tl -> go { a with dir = d } tl
    | "--addr" :: s :: tl -> go { a with addr = Some s } tl
    | "--traced" :: tl -> go { a with traced = true } tl
    | x :: _ -> die "child: unexpected argument %S" x
  in
  Sweep.run
    (go { kind = "cold"; quick = false; seed = 0; dir = "."; addr = None;
          traced = false } args)

let usage =
  "usage: main.exe --workload paper-cold|paper-warm|fleet-cold --seed N \
   --seconds S --trace 0|1 [--quick]\n\
  \       main.exe schema | bless"

let parse_args args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: tl when List.mem_assoc w workloads ->
      go { o with workload = w } tl
    | "--seed" :: n :: tl when int_of_string_opt n <> None ->
      go { o with seed = int_of_string n } tl
    | "--seconds" :: n :: tl -> go { o with seconds = int_flag "--seconds" n } tl
    | "--trace" :: ("0" | "1" as t) :: tl -> go { o with trace = t = "1" } tl
    | "--quick" :: tl -> go { o with quick = true } tl
    | _ -> prerr_endline usage; exit 2
  in
  let o =
    go { workload = ""; seed = 0; seconds = run_seconds; trace = false;
         quick = false } args
  in
  if o.workload = "" then (prerr_endline usage; exit 2);
  o

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: rest -> child rest
  | [ "schema" ] -> schema ()
  | [ "bless" ] -> bless ()
  | args ->
    let o = parse_args args in
    (* every process this one started (sweeps, shards, proxy) is reaped on
       the way out *)
    at_exit Fleet.stop_all;
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
      [ Sys.sigint; Sys.sigterm ];
    run_and_report o
