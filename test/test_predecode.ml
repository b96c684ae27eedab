(* Predecoded executor: the fast path (Program.predecode + Exec.step
   over native-int registers) must be observationally identical to the
   reference decoder (Exec.step_ref over the raw instruction stream),
   and must not allocate on straight-line code.

   Three layers:
   - operator equivalence: the unboxed ALU/branch evaluators agree with
     the int32 semantic spec on corner-heavy random operands;
   - whole-program differential: random ISA programs (forward control
     flow only, so termination is structural) and every registry kernel
     run to identical registers, memory and instruction counts through
     both executors, which also agree on out-of-fuel payloads and trap
     messages;
   - allocation regression: a multi-million-instruction straight-line
     run must stay under a small constant of bytes per instruction, per
     step and through the whole-program [run_serial] loop. *)

open Xloops_isa
module B = Xloops_asm.Builder
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module Exec = Xloops_sim.Exec
module Registry = Xloops_kernels.Registry
module Kernel = Xloops_kernels.Kernel
module Compile = Xloops_compiler.Compile

(* -- operator equivalence --------------------------------------------- *)

let gen_int32 =
  let open QCheck.Gen in
  frequency
    [ 4, map Int32.of_int (int_range (-1000) 1000);
      2, map (fun i -> Int32.of_int i) (int_bound 0x7FFFFFFF);
      1, oneofl [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 31l; 32l;
                  0x80000000l; 0x7FFFFFFFl ] ]

let all_alu_ops =
  [ Insn.Add; Sub; And; Or_; Xor; Nor; Sll; Srl; Sra; Slt; Sltu;
    Mul; Mulh; Div; Rem ]

let all_branch_conds = [ Insn.Beq; Bne; Blt; Bge; Bltu; Bgeu ]

let arb_alu_case =
  QCheck.make
    ~print:(fun (op, a, b) ->
        Fmt.str "%s %ld %ld" (Insn.show_alu_op op) a b)
    QCheck.Gen.(triple (oneofl all_alu_ops) gen_int32 gen_int32)

let prop_alu_int_matches =
  QCheck.Test.make ~name:"alu_eval_int matches alu_eval" ~count:2000
    arb_alu_case
    (fun (op, a, b) ->
       Int32.of_int
         (Exec.alu_eval_int op (Int32.to_int a) (Int32.to_int b))
       = Exec.alu_eval op a b)

let prop_branch_int_matches =
  QCheck.Test.make ~name:"branch_eval_int matches branch_eval" ~count:2000
    (QCheck.make
       QCheck.Gen.(triple (oneofl all_branch_conds) gen_int32 gen_int32))
    (fun (c, a, b) ->
       Exec.branch_eval_int c (Int32.to_int a) (Int32.to_int b)
       = Exec.branch_eval c a b)

(* -- whole-program differential --------------------------------------- *)

(* Random programs with forward-only control flow: every branch or jump
   targets a strictly larger pc, so any path reaches the final Halt and
   fuel is never a factor.  Memory traffic stays inside a scratch window
   based at the (never-overwritten) register 20. *)

let scratch_base = 512

let gen_insn ~pc ~len =
  let open QCheck.Gen in
  let reg = int_range 1 15 in
  let fwd = int_range (pc + 1) len in   (* the Halt sits at [len] *)
  frequency
    [ 6, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Alu (op, rd, rs, rt)));
      4, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* imm = int_range (-40000) 40000 in
          return (Insn.Alui (op, rd, rs, imm)));
      1, (let* rd = reg in
          let* imm = int_range 0 0xFFFF in
          return (Insn.Lui (rd, imm)));
      2, (let* rd = reg in
          let* off = int_range 0 15 in
          let* w = oneofl [ Insn.B; Bu; H; Hu; W ] in
          let off = match w with
            | B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Load (w, rd, 20, off)));
      2, (let* rt = reg in
          let* off = int_range 0 15 in
          let* w = oneofl [ Insn.B; Bu; H; Hu; W ] in
          let off = match w with
            | B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Store (w, rt, 20, off)));
      1, (let* op = oneofl [ Insn.Amo_add; Amo_and; Amo_or; Amo_xchg;
                             Amo_min; Amo_max ] in
          let* rd = reg in
          let* rt = reg in
          return (Insn.Amo (op, rd, 21, rt)));
      2, (let* c = oneofl all_branch_conds in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Branch (c, rs, rt, l)));
      1, (let* l = fwd in return (Insn.Jump l));
      1, (let* dp = oneofl [ Insn.Uc; Or; Om; Orm; Ua ] in
          let* cp = oneofl [ Insn.Fixed; Dyn; De ] in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Xloop ({ dp; cp }, rs, rt, l)));
      1, (let* rd = reg in
          let* rs = reg in
          let* imm = int_range (-100) 100 in
          return (Insn.Xi_addi (rd, rs, imm)));
      1, (let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Xi_add (rd, rs, rt)));
      1, oneofl [ Insn.Sync; Nop ] ]

let gen_program =
  let open QCheck.Gen in
  let* len = int_range 5 60 in
  let* body =
    (* dependent generation: each insn knows its own pc for forward
       targets *)
    let rec go pc acc =
      if pc = len then return (List.rev acc)
      else
        let* i = gen_insn ~pc ~len in
        go (pc + 1) (i :: acc)
    in
    go 0 []
  in
  (* Seed registers 1..15 with varied immediates, park the scratch
     bases, then the random body, then Halt. *)
  let* seeds =
    let rec go r acc =
      if r > 15 then return (List.rev acc)
      else
        let* imm = int_range (-32768) 32767 in
        go (r + 1) (Insn.Alui (Add, r, 0, imm) :: acc)
    in
    go 1 []
  in
  let prologue =
    seeds
    @ [ Insn.Alui (Add, 20, 0, scratch_base);
        Insn.Alui (Add, 21, 0, scratch_base + 128) ]
  in
  let npro = List.length prologue in
  let shift = Insn.map_label (fun l -> l + npro) in
  return
    { Program.insns =
        Array.of_list (List.map shift prologue
                       @ List.map shift body @ [ Insn.Halt ]);
      symbols = [] }

(* [map_label] on the prologue is a no-op (no labels there) but keeps
   the shift uniform; body targets move past the prologue and [len]
   lands exactly on the Halt. *)

let arb_program =
  QCheck.make gen_program
    ~print:(fun p -> Fmt.str "%a" Program.pp p)

let snapshot (r : Exec.run) mem =
  (r.Exec.dynamic_insns, r.Exec.final.Exec.pc,
   Array.to_list r.Exec.final.Exec.regs,
   Bytes.to_string mem.Memory.data)

let prop_predecode_differential =
  QCheck.Test.make ~name:"predecoded run == reference run" ~count:300
    arb_program
    (fun p ->
       let m1 = Memory.create ~size:4096 () in
       let m2 = Memory.create ~size:4096 () in
       match Exec.run_serial p m1, Exec.run_serial_ref p m2 with
       | Ok r1, Ok r2 -> snapshot r1 m1 = snapshot r2 m2
       | Error _, Error _ -> true
       | _ -> false)

(* Compiled kernels: richer register pressure and real loop structure
   than the random programs, and deterministic. *)
let test_registry_differential () =
  List.iter
    (fun (k : Kernel.t) ->
       let c = Compile.compile k.Kernel.kernel in
       let run exec mem =
         k.Kernel.init c.Compile.array_base mem;
         match exec c.Compile.program mem with
         | Ok r -> r
         | Error stop ->
           Alcotest.failf "%s: %a" k.Kernel.name Exec.pp_stop stop
       in
       let m1 = Memory.create () and m2 = Memory.create () in
       let r1 = run (fun p m -> Exec.run_serial p m) m1 in
       let r2 = run (fun p m -> Exec.run_serial_ref p m) m2 in
       if snapshot r1 m1 <> snapshot r2 m2 then
         Alcotest.failf "%s: predecoded and reference runs differ"
           k.Kernel.name)
    Registry.table2

(* Out-of-fuel payloads at exact exhaustion boundaries, inside and
   around the loop body: the random-program property only checks that
   both executors stop, this checks where. *)
let test_fuel_edges () =
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 50;
  B.li b 10 0;
  B.label b "top";
  for _ = 0 to 15 do B.add b 10 10 8 done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  let p = B.assemble b in
  List.iter
    (fun fuel ->
       let m1 = Memory.create () and m2 = Memory.create () in
       match Exec.run_serial ~fuel p m1, Exec.run_serial_ref ~fuel p m2 with
       | Error s1, Error s2 ->
         if s1 <> s2 then
           Alcotest.failf "fuel %d: %a vs %a" fuel
             Exec.pp_stop s1 Exec.pp_stop s2
       | Ok r1, Ok r2 ->
         Alcotest.(check int) (Fmt.str "fuel %d insns" fuel)
           r2.Exec.dynamic_insns r1.Exec.dynamic_insns
       | _ ->
         Alcotest.failf "fuel %d: executors disagree on termination" fuel)
    [ 0; 1; 2; 3; 4; 5; 17; 18; 19; 20; 21; 37; 38; 39; 1000 ]

let test_trap_parity () =
  (* no halt: running off the end must trap identically *)
  let p = { Program.insns = [| Insn.Alu (Add, 1, 1, 1) |]; symbols = [] } in
  let msg run =
    let m = Memory.create () in
    try ignore (run p m); "no-trap" with Exec.Trap m -> m
  in
  Alcotest.(check string) "trap message"
    (msg (fun p m -> Exec.run_serial_ref p m))
    (msg (fun p m -> Exec.run_serial p m))

(* -- concurrent predecode (Domains) ------------------------------------ *)

(* Predecode is called from the sweep worker pool: several domains hit
   the same physically-shared [Program.t] values concurrently.  Each
   domain's memo is DLS-private, but the programs themselves are shared,
   so every domain must observe complete, identical uop arrays — no
   partially-built entries — and repeated calls within a domain must hit
   its memo. *)

let prop_concurrent_predecode =
  QCheck.Test.make ~name:"concurrent predecode agrees across domains"
    ~count:50 arb_program
    (fun p ->
       let want = (Program.predecode_fresh p).Program.uops in
       let domains =
         List.init 4 (fun _ ->
             Domain.spawn (fun () ->
                 let pre1 = Program.predecode p in
                 let pre2 = Program.predecode p in
                 (pre1 == pre2, pre1.Program.uops)))
       in
       List.for_all
         (fun d ->
            let memo_hit, uops = Domain.join d in
            memo_hit && uops = want)
         domains)

let test_concurrent_predecode_registry () =
  let progs =
    List.map
      (fun (k : Kernel.t) ->
         (Compile.compile k.Kernel.kernel).Compile.program)
      Registry.table2
  in
  let expect =
    List.map (fun p -> (Program.predecode_fresh p).Program.uops) progs in
  let results =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.map (fun p -> (Program.predecode p).Program.uops) progs))
    |> List.map Domain.join
  in
  List.iter
    (fun got ->
       List.iter2
         (fun g w ->
            if g <> w then
              Alcotest.fail "a domain observed different uop arrays")
         got expect)
    results

(* -- allocation regression -------------------------------------------- *)

let straightline ~iters =
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 iters;
  B.li b 10 0;
  B.label b "top";
  for _ = 0 to 15 do B.add b 10 10 8 done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  B.assemble b

let test_step_allocation () =
  let p = straightline ~iters:100_000 in
  let pre = Program.predecode p in
  let mem = Memory.create () in
  let iface = Exec.direct_mem mem in
  let h = Exec.create_hart () in
  let ev = Exec.create_event () in
  let insns = ref 0 in
  let a0 = Gc.allocated_bytes () in
  (try
     while true do
       Exec.step pre h iface ev;
       incr insns
     done
   with Exec.Halted -> ());
  let per = (Gc.allocated_bytes () -. a0) /. float_of_int !insns in
  Alcotest.(check bool)
    (Fmt.str "%.4f bytes/insn within budget" per) true (per <= 2.0)

let test_run_allocation () =
  let p = straightline ~iters:100_000 in
  (* warm-up fills the predecode memo *)
  ignore (Exec.run_serial p (Memory.create ()));
  let mem = Memory.create () in
  let a0 = Gc.allocated_bytes () in
  let insns =
    match Exec.run_serial p mem with
    | Ok r -> r.Exec.dynamic_insns
    | Error stop -> Alcotest.failf "run: %a" Exec.pp_stop stop
  in
  let per = (Gc.allocated_bytes () -. a0) /. float_of_int insns in
  Alcotest.(check bool)
    (Fmt.str "%.5f bytes/insn within budget" per) true (per <= 0.05)

let () =
  Alcotest.run "predecode"
    [ ("operators",
       [ QCheck_alcotest.to_alcotest prop_alu_int_matches;
         QCheck_alcotest.to_alcotest prop_branch_int_matches ]);
      ("differential",
       [ QCheck_alcotest.to_alcotest prop_predecode_differential;
         Alcotest.test_case "registry kernels" `Quick
           test_registry_differential;
         Alcotest.test_case "fuel edges" `Quick test_fuel_edges;
         Alcotest.test_case "trap parity" `Quick test_trap_parity ]);
      ("concurrency",
       [ QCheck_alcotest.to_alcotest prop_concurrent_predecode;
         Alcotest.test_case "registry programs, 4 domains" `Quick
           test_concurrent_predecode_registry ]);
      ("allocation",
       [ Alcotest.test_case "straight-line steps" `Quick
           test_step_allocation;
         Alcotest.test_case "straight-line run" `Quick
           test_run_allocation ]);
    ]
