(* The paper sweep as bench/main.exe runs it with no section flags: the
   deduplicated run-spec plan, and the stdout its table assembly prints.
   The assembly below prints the same bytes as bench/main.exe (the
   golden pins their digest); it writes into a buffer so the benchmark
   can hash it. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine
module Compile = Xloops.Compiler.Compile

let quick_kernels =
  [ "sgemm-uc"; "war-uc"; "kmeans-or"; "adpcm-or"; "ksack-sm-om";
    "bfs-uc-db" ]

let kernels ~quick =
  if quick then List.map Registry.find quick_kernels else Registry.table2

let extension_runs =
  [ ("serial (general, io)",
     Run_spec.make ~target:Compile.general ~cfg:Config.io
       ~mode:Machine.Traditional "find-de");
    ("traditional (io)",
     Run_spec.make ~cfg:Config.io ~mode:Machine.Traditional "find-de");
    ("specialized (io+x)",
     Run_spec.make ~cfg:Config.io_x ~mode:Machine.Specialized "find-de");
    ("specialized (ooo/4+x)",
     Run_spec.make ~cfg:Config.ooo4_x ~mode:Machine.Specialized "find-de") ]

(* A readable spec identity for the golden file: stable across changes
   to the canonical encoding, unique within the plan. *)
let label (s : Run_spec.t) =
  let target =
    match s.target with
    | { Compile.xloops = false; _ } -> "gen"
    | { use_xi = true; _ } -> "xl"
    | { use_xi = false; _ } -> "xl-noxi"
  in
  Fmt.str "%s %s %s" s.kernel (Run_spec.what s) target

(* bench/main.exe's plan order, deduplicated by spec digest. *)
let specs ~quick =
  let all =
    List.concat
      [ List.concat_map E.specs_for (kernels ~quick);
        E.fig9_specs (); E.table4_specs (); E.fig10_specs ();
        List.map snd extension_runs ]
  in
  let seen = Hashtbl.create 512 in
  List.filter
    (fun s ->
       let d = Run_spec.digest s in
       if Hashtbl.mem seen d then false
       else (Hashtbl.add seen d (); true))
    all

(* The order the plan is handed to the pool or the proxy: a seeded
   Fisher-Yates shuffle.  Assembly order never changes, so the tables
   are byte-identical for every seed. *)
let permute ~seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- Table assembly (bench/main.ml's sections, same order and text) --- *)

let assemble ~quick (engine : E.engine) =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let evaluate k = E.evaluate ~engine k in
  let ks = kernels ~quick in
  let section title = Fmt.pf ppf "@.=== %s ===@.@." title in
  section "Table II: application kernels and cycle-level results";
  Fmt.pf ppf "%a" E.pp_table2_header ();
  List.iter
    (fun k -> Fmt.pf ppf "%a" E.pp_table2_row (E.table2_row (evaluate k)))
    ks;
  section "Figure 5: speedup summary (normalized to serial on io)";
  Fmt.pf ppf "%-14s %8s %8s %8s %8s@." "kernel" "io" "ooo2" "ooo4"
    "ooo2+x:S";
  List.iter
    (fun k ->
       let ev = evaluate k in
       let io = (E.host ev "io").base.cycles in
       let rel (r : E.run_data) = float_of_int io /. float_of_int r.cycles in
       Fmt.pf ppf "%-14s %8.2f %8.2f %8.2f %8.2f@." k.Kernel.name 1.0
         (rel (E.host ev "ooo/2").base)
         (rel (E.host ev "ooo/4").base)
         (rel (E.host ev "ooo/2").spec))
    ks;
  section "Figure 6: LPSU lane-cycle breakdown (specialized on io+x)";
  Fmt.pf ppf "%a" E.pp_fig6
    (List.map (fun k -> E.fig6_row (evaluate k)) ks);
  section "Figure 7: specialized vs adaptive on ooo/4+x";
  Fmt.pf ppf "%-14s %8s %8s@." "kernel" "S" "A";
  List.iter
    (fun k ->
       let ev = evaluate k in
       let h = E.host ev "ooo/4" in
       Fmt.pf ppf "%-14s %8.2f %8.2f@." k.Kernel.name
         (E.speedup h h.spec) (E.speedup h h.adapt))
    ks;
  section "Figure 8: energy efficiency vs performance (S and A per host)";
  Fmt.pf ppf "%a" E.pp_fig8
    (List.concat_map (fun k -> E.fig8_points (evaluate k)) ks);
  section "Figure 9: LPSU design-space exploration (vs serial on ooo/4)";
  Fmt.pf ppf "%a" E.pp_fig9 (E.fig9 ~engine ());
  section "Table IV: case studies (hand-scheduled or / transformed uc)";
  Fmt.pf ppf "%a" E.pp_table4 (E.table4 ~engine ());
  section "Table V: VLSI area and cycle time";
  Fmt.pf ppf "%a" Xloops.Vlsi.Area.pp_table_v (Xloops.Vlsi.Area.table_v ());
  section "Figure 10: VLSI-mode energy efficiency vs performance \
           (uc kernels, no .xi, uc-only LPSU on io)";
  Fmt.pf ppf "%a" E.pp_fig10 (E.fig10 ~engine ());
  section "Extension: data-dependent exit (xloop.uc.de, paper future work)";
  Fmt.pf ppf "%-28s %10s %12s@." "run" "cycles" "squashed";
  List.iter
    (fun (what, spec) ->
       let r = engine.E.run spec in
       Fmt.pf ppf "%-28s %10d %12d@." what r.E.cycles
         r.E.stats.squashed_insns)
    extension_runs;
  Fmt.pf ppf "@.(iterations past the exit run control-speculatively on the \
              lanes@.and are discarded — the squashed-instruction column)@.";
  Format.pp_print_flush ppf ();
  Buffer.contents buf
