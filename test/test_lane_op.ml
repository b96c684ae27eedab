(* LPSU lane closures: every pc {!Lane_op.lane_meta} marks [L_plain]
   must execute exactly like {!Exec.step} — same registers (including
   dropped writes to r0) and the same outgoing pc, taken or not.  The
   lanes run these closures in place of [Exec.step], so this is the
   whole exactness contract of the lane fast path at the instruction
   level; test_lpsu checks it end to end (cycles and Stats).

   Layers:
   - operator/accessor equivalence: the unboxed FPU evaluator and the
     native-int memory accessors agree with their int32 semantic specs;
   - closure differential: random ISA programs and every registry
     kernel, stepped through [Exec.step], with each plain pc's closure
     applied to a copy of the pre-step state and compared. *)

open Xloops_isa
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module Exec = Xloops_sim.Exec
module Lane_op = Xloops_sim.Lane_op
module Registry = Xloops_kernels.Registry
module Kernel = Xloops_kernels.Kernel
module Compile = Xloops_compiler.Compile

(* -- operator / accessor equivalence ----------------------------------- *)

let gen_int32 =
  let open QCheck.Gen in
  frequency
    [ 4, map Int32.of_int (int_range (-1000) 1000);
      2, map Int32.of_int (int_bound 0x7FFFFFFF);
      2, map Int32.bits_of_float
           (map (fun f -> f *. 1000.0) (float_range (-1.0) 1.0));
      1, oneofl [ Int32.min_int; Int32.max_int; -1l; 0l; 1l;
                  0x7F800000l (* +inf *); 0xFF800000l (* -inf *);
                  0x7FC00000l (* nan *) ] ]

let all_fpu_ops =
  [ Insn.Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Feq; Flt; Fle;
    Fcvt_sw; Fcvt_ws ]

let prop_fpu_int_matches =
  QCheck.Test.make ~name:"fpu_eval_int matches fpu_eval" ~count:4000
    (QCheck.make
       ~print:(fun (op, a, b) ->
           Fmt.str "%s %ld %ld" (Insn.show_fpu_op op) a b)
       QCheck.Gen.(triple (oneofl all_fpu_ops) gen_int32 gen_int32))
    (fun (op, a, b) ->
       Int32.of_int
         (Exec.fpu_eval_int op (Int32.to_int a) (Int32.to_int b))
       = Exec.fpu_eval op a b)

let all_widths = [ Insn.B; Bu; H; Hu; W ]
let all_amo_ops =
  [ Insn.Amo_add; Amo_and; Amo_or; Amo_xchg; Amo_min; Amo_max ]

(* The native-int accessors must behave exactly like the int32 ones:
   same result (as a sign-extended int), same memory bytes, same event
   counters — including on the journal path. *)
let prop_mem_int_accessors =
  let gen =
    let open QCheck.Gen in
    let* w = oneofl all_widths in
    let* addr = map (fun a -> a * 4) (int_bound 60) in
    let* v = gen_int32 in
    let* op = oneofl all_amo_ops in
    let* journal = bool in
    return (w, addr, v, op, journal)
  in
  QCheck.Test.make ~name:"load_int/store_int/amo_int match int32 forms"
    ~count:2000 (QCheck.make gen)
    (fun (w, addr, v, op, journal) ->
       let m1 = Memory.create ~size:512 () in
       let m2 = Memory.create ~size:512 () in
       for i = 0 to 511 do
         Memory.set_u8 m1 i ((i * 37 + 11) land 0xFF);
         Memory.set_u8 m2 i ((i * 37 + 11) land 0xFF)
       done;
       if journal then begin
         Memory.journal_begin m1; Memory.journal_begin m2
       end;
       Memory.store m1 w addr v;
       Memory.store_int m2 w addr (Int32.to_int v);
       let l1 = Memory.load m1 w addr in
       let l2 = Memory.load_int m2 w addr in
       let a1 = Memory.amo m1 op 256 v in
       let a2 = Memory.amo_int m2 op 256 (Int32.to_int v) in
       if journal then begin
         Memory.journal_abort m1; Memory.journal_abort m2
       end;
       Int32.to_int l1 = l2
       && Int32.to_int a1 = a2
       && Bytes.equal m1.Memory.data m2.Memory.data
       && m1.Memory.loads = m2.Memory.loads
       && m1.Memory.stores = m2.Memory.stores
       && m1.Memory.amos = m2.Memory.amos)

(* -- whole-program differential ---------------------------------------- *)

(* Same shape as the test_predecode generator — forward-only control
   flow over seeded registers with a scratch memory window — plus FPU
   ops, writes to r0 (which a closure must drop), [jal], and branches
   that may target their own fall-through (which must stay slow). *)

let scratch_base = 512

let all_alu_ops =
  [ Insn.Add; Sub; And; Or_; Xor; Nor; Sll; Srl; Sra; Slt; Sltu;
    Mul; Mulh; Div; Rem ]

let all_branch_conds = [ Insn.Beq; Bne; Blt; Bge; Bltu; Bgeu ]

let gen_insn ~pc ~len =
  let open QCheck.Gen in
  let reg = int_range 1 15 in
  let dst = frequency [ 1, return 0; 7, reg ] in
  let fwd = int_range (pc + 1) len in   (* the Halt sits at [len] *)
  frequency
    [ 8, (let* op = oneofl all_alu_ops in
          let* rd = dst in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Alu (op, rd, rs, rt)));
      6, (let* op = oneofl all_alu_ops in
          let* rd = dst in
          let* rs = reg in
          let* imm = int_range (-40000) 40000 in
          return (Insn.Alui (op, rd, rs, imm)));
      2, (let* op = oneofl all_fpu_ops in
          let* rd = dst in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Fpu (op, rd, rs, rt)));
      1, (let* rd = dst in
          let* imm = int_range 0 0xFFFF in
          return (Insn.Lui (rd, imm)));
      3, (let* rd = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          let off = match w with
            | Insn.B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Load (w, rd, 20, off)));
      3, (let* rt = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          let off = match w with
            | Insn.B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Store (w, rt, 20, off)));
      1, (let* op = oneofl all_amo_ops in
          let* rd = dst in
          let* rt = reg in
          return (Insn.Amo (op, rd, 21, rt)));
      3, (let* c = oneofl all_branch_conds in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Branch (c, rs, rt, l)));
      1, (let* l = fwd in return (Insn.Jump l));
      1, (let* l = fwd in return (Insn.Jal l));
      1, (let* dp = oneofl [ Insn.Uc; Or; Om; Orm; Ua ] in
          let* cp = oneofl [ Insn.Fixed; Dyn; De ] in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Xloop ({ dp; cp }, rs, rt, l)));
      1, (let* rd = dst in
          let* rs = reg in
          let* imm = int_range (-100) 100 in
          return (Insn.Xi_addi (rd, rs, imm)));
      1, (let* rd = dst in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Xi_add (rd, rs, rt)));
      1, oneofl [ Insn.Sync; Nop ] ]

let gen_program =
  let open QCheck.Gen in
  let* len = int_range 5 60 in
  let* body =
    let rec go pc acc =
      if pc = len then return (List.rev acc)
      else
        let* i = gen_insn ~pc ~len in
        go (pc + 1) (i :: acc)
    in
    go 0 []
  in
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

let arb_program =
  QCheck.make gen_program
    ~print:(fun p -> Fmt.str "%a" Program.pp p)

(* Step [prog] through [Exec.step]; before each step at an [L_plain]
   pc, apply its closure to a copy of the registers and compare with
   what [step] leaves.  Returns the number of closures checked, or the
   first mismatch. *)
let check_closures ?(fuel = 1_000_000) prog mem : (int, string) result =
  let pre = Program.predecode prog in
  let meta = Lane_op.lane_meta pre in
  let h = Exec.create_hart () in
  let iface = Exec.direct_mem mem in
  let ev = Exec.create_event () in
  let checked = ref 0 in
  let rec go n =
    if n = 0 then Ok !checked
    else
      let pc = h.Exec.pc in
      match
        if pc >= 0 && pc < Array.length meta then meta.(pc)
        else Lane_op.L_slow
      with
      | Lane_op.L_plain op ->
        let regs = Array.copy h.Exec.regs in
        let npc = op regs in
        Exec.step pre h iface ev;
        incr checked;
        if npc <> h.Exec.pc then
          Error (Fmt.str "pc %d: closure goes to %d, step to %d"
                   pc npc h.Exec.pc)
        else if regs <> h.Exec.regs then
          Error (Fmt.str "pc %d: registers differ after %a" pc
                   (Insn.pp Fmt.int) prog.Program.insns.(pc))
        else go (n - 1)
      | Lane_op.L_slow ->
        Exec.step pre h iface ev;
        go (n - 1)
  in
  try go fuel with Exec.Halted | Exec.Trap _ -> Ok !checked

let prop_lane_closures =
  QCheck.Test.make ~name:"lane closures == Exec.step" ~count:400
    arb_program
    (fun p ->
       match check_closures p (Memory.create ~size:4096 ()) with
       | Ok _ -> true
       | Error msg -> QCheck.Test.fail_report msg)

(* Compiled kernels: the code shapes the lanes actually run. *)
let test_registry_closures () =
  List.iter
    (fun (k : Kernel.t) ->
       let c = Compile.compile k.Kernel.kernel in
       let mem = Memory.create () in
       k.Kernel.init c.Compile.array_base mem;
       match check_closures ~fuel:50_000_000 c.Compile.program mem with
       | Ok 0 -> Alcotest.failf "%s: no plain instruction executed"
                   k.Kernel.name
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "%s: %s" k.Kernel.name msg)
    Registry.all

let () =
  Alcotest.run "lane_op"
    [ ("operators",
       [ QCheck_alcotest.to_alcotest prop_fpu_int_matches;
         QCheck_alcotest.to_alcotest prop_mem_int_accessors ]);
      ("differential",
       [ QCheck_alcotest.to_alcotest prop_lane_closures;
         Alcotest.test_case "registry kernels" `Quick
           test_registry_closures ]);
    ]
