(* Serial layer probes, the same on every workload's traced run:

   - the benchmark's own Exec.step loop over the 25 Table II kernels'
     serial programs, alone and feeding each Gpp_timing model;
   - Machine.create + Machine.run for every spec of the full plan,
     through Sweep.execute's "machine" span, grouped by Table II
     (config, mode) pair, with the rest of the plan (Figure 9, Table IV,
     Figure 10, extensions) as machine.other.

   Times are wall clock on one domain; bytes are minor-heap words
   allocated (Gc.minor_words, exact) times the word size.  Every
   simulated result is checked against the golden, and so is the LPSU
   squash ratio. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel
module Machine = Xloops.Sim.Machine
module Config = Xloops.Sim.Config
module Stats = Xloops.Sim.Stats
module Exec = Xloops.Sim.Exec
module Gpp_timing = Xloops.Sim.Gpp_timing
module Compile = Xloops.Compiler.Compile
module Memory = Xloops.Mem.Memory
module Program = Xloops.Asm.Program

let now = Unix.gettimeofday
let word = float_of_int (Sys.word_size / 8)

(* "ooo/4+x" -> "ooo4-x" *)
let cfg_name s =
  String.concat "" (String.split_on_char '/' s)
  |> String.map (function '+' -> '-' | c -> c)

let modes = [ Machine.Traditional; Specialized; Adaptive ]

(* The 12 Table II (config, mode) rows, in host order. *)
let machine_rows =
  List.concat_map
    (fun ((gpp : Config.t), (gpp_x : Config.t)) ->
       Fmt.str "machine.%s.T" (cfg_name gpp.name)
       :: List.map
         (fun m ->
            Fmt.str "machine.%s.%s" (cfg_name gpp_x.name) (Machine.mode_name m))
         modes)
    E.hosts
  @ [ "machine.other" ]

let row_of (spec : Run_spec.t) =
  let name =
    Fmt.str "machine.%s.%s" (cfg_name spec.cfg.name) (Machine.mode_name spec.mode)
  in
  if List.mem name machine_rows
  && List.exists (fun (k : Kernel.t) -> k.name = spec.kernel) Registry.table2
  then name
  else "machine.other"

type acc = { mutable ms : float; mutable insns : int; mutable words : float }

type result = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;   (* failed exact checks *)
}

(* -- Exec.step and Gpp_timing.consume --------------------------------- *)

let models = [ ("io", Config.io.gpp); ("ooo2", Config.ooo2.gpp);
               ("ooo4", Config.ooo4.gpp) ]

let step_loop pre mem consume =
  let h = Exec.create_hart () in
  let mi = Exec.direct_mem mem in
  let ev = Exec.create_event () in
  let n = ref 0 in
  (try
     while true do
       Exec.step pre h mi ev;
       consume ev;
       incr n
     done
   with Exec.Halted -> ());
  !n

(* One pass of one variant over every kernel: (seconds, insns, words). *)
let exec_pass progs model =
  List.fold_left
    (fun (t, n, w) ((k : Kernel.t), (c : Compile.compiled)) ->
       let mem = Memory.create () in
       k.init c.array_base mem;
       let pre = Program.predecode c.program in
       let consume =
         match model with
         | None -> ignore
         | Some gpp -> Gpp_timing.consume (Gpp_timing.create gpp (Stats.create ()))
       in
       let w0 = Gc.minor_words () in
       let t0 = now () in
       let i = step_loop pre mem consume in
       let t1 = now () in
       let w1 = Gc.minor_words () in
       (t +. (t1 -. t0), n + i, w +. (w1 -. w0)))
    (0., 0, 0.) progs

let passes = 3

let exec_probe () =
  let progs =
    List.map
      (fun (k : Kernel.t) -> (k, Compile.compile ~target:Compile.general k.kernel))
      Registry.table2
  in
  let variants = ("exec", None) :: List.map (fun (n, g) -> (n, Some g)) models in
  (* interleave variants within a pass; keep each variant's fastest pass *)
  let runs =
    List.init passes (fun _ ->
        List.map (fun (name, m) -> (name, exec_pass progs m)) variants)
  in
  let best name =
    List.fold_left
      (fun acc pass ->
         let (t, n, w) = List.assoc name pass in
         match acc with
         | Some (t', _, _) when t' <= t -> acc
         | _ -> Some (t, n, w))
      None runs
    |> Option.get
  in
  (* allocation must repeat exactly from pass to pass *)
  let problems =
    List.filter_map
      (fun (name, _) ->
         let (_, _, w1) = List.assoc name (List.nth runs 0)
         and (_, _, w2) = List.assoc name (List.nth runs 1) in
         if w1 = w2 then None
         else Some (Fmt.str "%s allocation differs between passes: %.0f vs %.0f \
                              words" name w1 w2))
      variants
  in
  let (te, ne, we) = best "exec" in
  let per_insn x n = x /. float_of_int n in
  let metrics =
    [ ("exec.mips", float_of_int ne /. te /. 1e6);
      ("exec.bytes_per_insn", per_insn (we *. word) ne) ]
    @ List.concat_map
      (fun (name, _) ->
         let (t, n, w) = best name in
         [ (Fmt.str "gpp_timing.%s.ns_per_insn" name, per_insn ((t -. te) *. 1e9) n);
           (Fmt.str "gpp_timing.%s.bytes_per_insn" name,
            per_insn ((w -. we) *. word) n) ])
      models
  in
  (metrics, problems)

(* -- Machine.create + Machine.run -------------------------------------- *)

(* One spec through the traced mirror of Run_spec.execute: the result
   (None if it failed), and the time and words of its "machine" span. *)
let machine_run spec =
  let m0 = Spans.find "machine" in
  let rd =
    try Some (Sweep.execute spec)
    with Xloops.Failure.Sim_failed _ | Xloops.Failure.Check_failed _ -> None
  in
  let m1 = Spans.find "machine" in
  (rd, m1.total -. m0.total, m1.words -. m0.words)

let machine_probe golden plan =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace rows r { ms = 0.; insns = 0; words = 0. })
    machine_rows;
  let failed = ref 0 and squashed = ref 0 and committed = ref 0 in
  let words_of = Hashtbl.create 512 in
  List.iter
    (fun spec ->
       let rd, dt, w = machine_run spec in
       Hashtbl.replace words_of (Plan.label spec) w;
       match rd with
       | Some rd when Golden.matches golden ~label:(Plan.label spec) rd ->
         let a = Hashtbl.find rows (row_of spec) in
         a.ms <- a.ms +. 1000. *. dt;
         a.insns <- a.insns + rd.insns;
         a.words <- a.words +. w;
         if spec.mode = Specialized then begin
           squashed := !squashed + rd.stats.squashed_insns;
           committed := !committed + rd.insns
         end
       | _ ->
         Fmt.epr "perfbench: layer probe: %s differs from the golden@."
           (Plan.label spec);
         incr failed)
    plan;
  (* exact counts: the squash ratio the golden implies, and allocation
     that repeats on a second run *)
  let g_sq, g_all =
    List.fold_left
      (fun (s, a) (spec : Run_spec.t) ->
         match Hashtbl.find_opt golden.Golden.specs (Plan.label spec) with
         | Some e when spec.mode = Specialized ->
           (s + e.squashed, a + e.insns + e.squashed)
         | _ -> (s, a))
      (0, 0) plan
  in
  let ratio s a = if a = 0 then 0. else float_of_int s /. float_of_int a in
  let squash_ratio = ratio !squashed (!squashed + !committed) in
  let problems =
    (if squash_ratio <> ratio g_sq g_all then
       [ Fmt.str "lpsu.squash_ratio %.6f, golden %.6f" squash_ratio
           (ratio g_sq g_all) ]
     else [])
    @ List.filter_map
      (fun spec ->
         let _, _, w = machine_run spec in
         let w0 = Hashtbl.find words_of (Plan.label spec) in
         if Float.abs (w -. w0) <= 0.01 *. w0 then None
         else Some (Fmt.str "%s allocation differs between runs: %.0f vs %.0f \
                             words" (Plan.label spec) w0 w))
      (List.filter (fun (s : Run_spec.t) -> s.kernel = "sgemm-uc") plan)
  in
  let metrics =
    List.concat_map
      (fun r ->
         let a = Hashtbl.find rows r in
         let n = float_of_int (max 1 a.insns) in
         [ (r ^ ".ms", a.ms);
           (r ^ ".mips", n /. a.ms /. 1000.);
           (r ^ ".bytes_per_insn", a.words *. word /. n) ])
      machine_rows
    @ [ ("lpsu.squash_ratio", squash_ratio) ]
  in
  (metrics, List.length plan, !failed, problems)

let run ~quick =
  Spans.on := true;
  let golden = Golden.load () in
  let exec_metrics, p1 = exec_probe () in
  let m_metrics, attempted, failed, p2 =
    machine_probe golden (Plan.specs ~quick)
  in
  { metrics = exec_metrics @ m_metrics; attempted; failed; problems = p1 @ p2 }
