(* Timing-layer fast path: the per-pc timing table and the cache model
   must be exact replacements for what they replaced, and the timing
   models must not allocate per instruction.

   - table equivalence: for random programs over every instruction
     constructor, each per-pc fact (registers, branch kind, latency
     class under every preset's latencies, Stats counter class, divider
     and LLFU use, sync) equals what the per-instruction matching on
     [Insn.t] derives;
   - cache differential: the shift-and-mask set-associative cache agrees
     access by access with a list-walk LRU reference, on random
     geometries including non-power-of-two set counts and line sizes;
   - allocation regression: Machine.run on registry kernels, GPP-only
     and specialized, stays under a stated bytes-per-instruction
     bound. *)

open Xloops_isa
module Program = Xloops_asm.Program
module Cache = Xloops_mem.Cache
module Memory = Xloops_mem.Memory
module Config = Xloops_sim.Config
module Stats = Xloops_sim.Stats
module Gpp_timing = Xloops_sim.Gpp_timing
module Machine = Xloops_sim.Machine
module Registry = Xloops_kernels.Registry
module Kernel = Xloops_kernels.Kernel
module Compile = Xloops_compiler.Compile

(* -- table equivalence ------------------------------------------------- *)

let all_alu_ops =
  [ Insn.Add; Sub; And; Or_; Xor; Nor; Sll; Srl; Sra; Slt; Sltu;
    Mul; Mulh; Div; Rem ]

let all_fpu_ops =
  [ Insn.Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Feq; Flt; Fle; Fcvt_sw;
    Fcvt_ws ]

(* Every constructor, registers including r0 (never a destination) and
   ra (the jal link). *)
let gen_insn ~len =
  let open QCheck.Gen in
  let reg = int_range 0 (Reg.num_regs - 1) in
  let lbl = int_range 0 (len - 1) in
  let imm = int_range (-40000) 40000 in
  let width = oneofl [ Insn.B; Bu; H; Hu; W ] in
  oneof
    [ map3 (fun op (rd, rs) rt -> Insn.Alu (op, rd, rs, rt))
        (oneofl all_alu_ops) (pair reg reg) reg;
      map3 (fun op (rd, rs) i -> Insn.Alui (op, rd, rs, i))
        (oneofl all_alu_ops) (pair reg reg) imm;
      map3 (fun op (rd, rs) rt -> Insn.Fpu (op, rd, rs, rt))
        (oneofl all_fpu_ops) (pair reg reg) reg;
      map2 (fun rd i -> Insn.Lui (rd, i)) reg (int_range 0 0xFFFF);
      map3 (fun w (rd, rs) i -> Insn.Load (w, rd, rs, i)) width
        (pair reg reg) imm;
      map3 (fun w (rt, rs) i -> Insn.Store (w, rt, rs, i)) width
        (pair reg reg) imm;
      map3 (fun op (rd, rs) rt -> Insn.Amo (op, rd, rs, rt))
        (oneofl [ Insn.Amo_add; Amo_and; Amo_or; Amo_xchg; Amo_min;
                  Amo_max ])
        (pair reg reg) reg;
      map3 (fun c (rs, rt) l -> Insn.Branch (c, rs, rt, l))
        (oneofl [ Insn.Beq; Bne; Blt; Bge; Bltu; Bgeu ]) (pair reg reg) lbl;
      map (fun l -> Insn.Jump l) lbl;
      map (fun l -> Insn.Jal l) lbl;
      map (fun rs -> Insn.Jr rs) reg;
      map3 (fun (dp, cp) (rs, rt) l -> Insn.Xloop ({ dp; cp }, rs, rt, l))
        (pair (oneofl [ Insn.Uc; Or; Om; Orm; Ua ])
           (oneofl [ Insn.Fixed; Dyn; De ]))
        (pair reg reg) lbl;
      map3 (fun rd rs i -> Insn.Xi_addi (rd, rs, i)) reg reg imm;
      map3 (fun rd rs rt -> Insn.Xi_add (rd, rs, rt)) reg reg reg;
      oneofl [ Insn.Sync; Halt; Nop ] ]

let arb_program =
  let gen =
    let open QCheck.Gen in
    let* len = int_range 1 80 in
    let* insns = array_repeat len (gen_insn ~len) in
    return { Program.insns; symbols = [] }
  in
  QCheck.make gen ~print:(fun p -> Fmt.str "%a" Program.pp p)

(* The per-instruction matching the timing models used to do on every
   dynamic instruction, kept here as the reference; register slots come
   from the list-valued [Insn.sources]/[Insn.dest]. *)

let src1 i = match Insn.sources i with r :: _ -> r | [] -> -1
let src2 i = match Insn.sources i with [ _; r ] -> r | _ -> -1
let dest_reg i = match Insn.dest i with Some r -> r | None -> -1

let insn_class_latency (lat : Gpp_timing.latencies) (i : int Insn.t) =
  match i with
  | Alu ((Mul | Mulh), _, _, _) | Alui ((Mul | Mulh), _, _, _) -> lat.mul
  | Alu ((Div | Rem), _, _, _) | Alui ((Div | Rem), _, _, _) -> lat.div
  | Fpu (Fdiv, _, _, _) -> lat.div
  | Fpu (_, _, _, _) -> lat.fpu
  | _ -> lat.alu

let uses_divider (i : int Insn.t) =
  match i with
  | Alu ((Div | Rem), _, _, _) | Alui ((Div | Rem), _, _, _)
  | Fpu (Fdiv, _, _, _) -> true
  | _ -> false

let count_exec_events (s : Stats.t) (i : int Insn.t) =
  s.decodes <- s.decodes + 1;
  s.rf_reads <- s.rf_reads
                + (if src1 i >= 0 then 1 else 0)
                + (if src2 i >= 0 then 1 else 0);
  if dest_reg i >= 0 then s.rf_writes <- s.rf_writes + 1;
  (match i with
   | Alu ((Mul | Mulh), _, _, _) | Alui ((Mul | Mulh), _, _, _) ->
     s.mul_ops <- s.mul_ops + 1
   | Alu ((Div | Rem), _, _, _) | Alui ((Div | Rem), _, _, _) ->
     s.div_ops <- s.div_ops + 1
   | Fpu _ -> s.fpu_ops <- s.fpu_ops + 1
   | Xi_addi _ | Xi_add _ -> s.xi_ops <- s.xi_ops + 1
   | Amo _ -> s.amo_ops <- s.amo_ops + 1
   | _ -> s.alu_ops <- s.alu_ops + 1);
  if Insn.is_branch i then s.branches <- s.branches + 1

let presets =
  Config.baselines @ Config.specialized @ Config.design_space
  @ Config.extensions

let facts_match (tm : Program.timing) pc (i : int Insn.t) =
  let cond = match i with Branch _ | Xloop _ -> true | _ -> false in
  let s_tab = Stats.create () and s_ref = Stats.create () in
  Stats.count_decode s_tab tm pc;
  count_exec_events s_ref i;
  tm.src1.(pc) = src1 i
  && tm.src2.(pc) = src2 i
  && tm.dst.(pc) = dest_reg i
  && (tm.branch.(pc) <> Br_none) = Insn.is_branch i
  && (tm.branch.(pc) = Br_cond) = cond
  && List.for_all
    (fun (c : Config.t) ->
       let lat = Gpp_timing.latencies_of c.gpp in
       Gpp_timing.class_latency lat tm.lat.(pc) = insn_class_latency lat i)
    presets
  && s_tab = s_ref
  && (tm.lat.(pc) = Lat_div) = uses_divider i
  && (tm.lat.(pc) <> Lat_alu) = Insn.is_llfu i
  && tm.sync.(pc) = (i = Sync)

let prop_table_matches_insn =
  QCheck.Test.make ~name:"per-pc timing table == Insn-derived facts"
    ~count:500 arb_program
    (fun p ->
       let tm = (Program.predecode_fresh p).timing in
       Array.length tm.src1 = Array.length p.insns
       && Array.for_all Fun.id
         (Array.mapi (fun pc i -> facts_match tm pc i) p.insns))

(* -- cache differential ------------------------------------------------ *)

(* Reference: each set an MRU-first list of at most [ways] tags. *)
let ref_cache ~sets ~ways ~line_bytes =
  let lines = Array.make sets [] in
  fun addr ->
    let line = addr / line_bytes in
    let set = line mod sets and tag = line / sets in
    let l = lines.(set) in
    let hit = List.mem tag l in
    let rest = List.filter (fun t -> t <> tag) l in
    lines.(set) <- List.filteri (fun i _ -> i < ways) (tag :: rest);
    hit

let arb_cache_case =
  let gen =
    let open QCheck.Gen in
    let* line_bytes = oneofl [ 1; 4; 8; 12; 16; 24; 32; 48; 64; 100 ] in
    let* ways = int_range 1 8 in
    let* sets = oneof [ oneofl [ 1; 2; 4; 8; 16; 32; 64 ]; int_range 1 70 ] in
    (* sizes that are not an exact multiple of a line exercise the
       truncating geometry arithmetic too *)
    let* slack = int_range 0 (line_bytes - 1) in
    let span = 4 * sets * ways * line_bytes in
    let* addrs =
      list_size (int_range 1 400)
        (frequency [ 3, int_bound span; 1, int_bound (1 lsl 20) ])
    in
    return (sets * ways * line_bytes + slack, ways, line_bytes, addrs)
  in
  QCheck.make gen
    ~print:(fun (size, ways, line, addrs) ->
        Fmt.str "size=%d ways=%d line=%d addrs=[%a]" size ways line
          Fmt.(list ~sep:comma int) addrs)

let prop_cache_matches_lru =
  QCheck.Test.make ~name:"Cache.access == list-walk LRU" ~count:500
    arb_cache_case
    (fun (size_bytes, ways, line_bytes, addrs) ->
       let c = Cache.create ~size_bytes ~ways ~line_bytes () in
       let sets = size_bytes / line_bytes / ways in
       let reference = ref_cache ~sets ~ways ~line_bytes in
       let misses = ref 0 in
       List.for_all
         (fun a ->
            let h = reference a in
            if not h then incr misses;
            Cache.access c a = h)
         addrs
       && Cache.accesses c = List.length addrs
       && Cache.misses c = !misses)

(* -- allocation regression --------------------------------------------- *)

(* Bytes allocated on the minor heap per committed instruction over one
   Machine.run (creation excluded), on a program that already ran once
   in this domain so its predecode and compiled closures are memoized. *)
let run_bytes_per_insn (k : Kernel.t) ~cfg ~mode =
  let target =
    if mode = Machine.Traditional then Compile.general else Compile.xloops in
  let c = Compile.compile ~target k.kernel in
  let once () =
    let mem = Memory.create () in
    k.init c.array_base mem;
    let m = Machine.create ~cfg ~mode ~prog:c.program ~mem () in
    let w0 = Gc.minor_words () in
    let r = Machine.ok_exn (Machine.run m) in
    let w1 = Gc.minor_words () in
    (w1 -. w0) *. float_of_int (Sys.word_size / 8)
    /. float_of_int r.Machine.insns
  in
  ignore (once ());
  once ()

let check_bound ~bound k cfg mode =
  let per = run_bytes_per_insn (Registry.find k) ~cfg ~mode in
  Alcotest.(check bool)
    (Fmt.str "%s %s/%s: %.3f B/insn <= %.1f" k cfg.Config.name
       (Machine.mode_name mode) per bound)
    true (per <= bound)

let kernels = [ "sgemm-uc"; "adpcm-or" ]

(* GPP-only runs: the step and both timing models allocate nothing per
   instruction; what remains is one-time growth (the OOO store table). *)
let test_gpp_allocation () =
  List.iter
    (fun k ->
       check_bound ~bound:1.0 k Config.io Machine.Traditional;
       check_bound ~bound:1.0 k Config.ooo4 Machine.Traditional)
    kernels

(* Specialized runs allocate per LPSU instance (scan, lane contexts,
   checkpoint), not per lane-cycle.  The seed's closures, boxed indices
   and list-based CIB history cost 263 B/insn over the Table II
   specialized specs and 623 B/insn on adpcm-or. *)
let test_lpsu_allocation () =
  List.iter (fun k -> check_bound ~bound:12.0 k Config.io_x Machine.Specialized)
    kernels

let () =
  Alcotest.run "timing"
    [ ("table",
       [ QCheck_alcotest.to_alcotest prop_table_matches_insn ]);
      ("cache",
       [ QCheck_alcotest.to_alcotest prop_cache_matches_lru ]);
      ("allocation",
       [ Alcotest.test_case "gpp models" `Quick test_gpp_allocation;
         Alcotest.test_case "lpsu lanes" `Quick test_lpsu_allocation ]);
    ]
