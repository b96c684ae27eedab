(** LPSU lane fast path: per-pc compiled closures for the instructions a
    lane may execute without {!Exec.step}'s event record.

    Each closure is specialized at compile time to its operands and
    replays exactly [Exec.step]'s architectural effect on a register
    file, returning the outgoing pc.  Only *plain* instructions get one:
    single-cycle, portless, trapless, and observationally silent at the
    lane level — no memory traffic (ports, LSQ, store broadcasts), no
    long-latency unit, no loop bookkeeping, and a control transfer only
    when "taken" is recoverable from the outgoing pc.  A conditional
    branch targeting its own fall-through is indistinguishable either
    way, so it stays slow.  The LPSU demotes further pcs it observes (CIR
    registers, last-CIR-write pcs, dynamic-bound writes) and bypasses the
    whole array under any attached observer. *)

open Xloops_isa
module P = Xloops_asm.Program

type op = int array -> int

type lane_meta =
  | L_slow
  | L_plain of op

let sext_shift = Sys.int_size - 32
let[@inline] norm v = (v lsl sext_shift) asr sext_shift
let[@inline] g (r : int array) i = Array.unsafe_get r i
let[@inline] s (r : int array) i v = Array.unsafe_set r i v

(* One closure per plain instruction, all operand decisions folded at
   compile time: the common ALU/branch operators get a dedicated body,
   the rest capture the operator and call the shared evaluator.  Writes
   to r0 compile to an advance-only closure, matching [step]'s
   dropped-write semantics.  Closures index the register file unsafely,
   so every register specifier must be proven in range first; a
   micro-op that fails (only reachable through a hand-built [Program.t]
   with corrupt specifiers) stays on [Exec.step], which raises on it.
   [None] for everything that is not plain regardless of latency
   class. *)
let plain_op (u : P.uop) pc : op option =
  let ok r = r >= 0 && r < Reg.num_regs in
  let nx = pc + 1 in
  let advance : op = fun _ -> nx in
  match u with
  | P.U_alu (op, rd, rs, rt) when ok rd && ok rs && ok rt ->
    Some
      (if rd = 0 then advance
       else
         match op with
         | Insn.Add -> fun r -> s r rd (norm (g r rs + g r rt)); nx
         | Sub -> fun r -> s r rd (norm (g r rs - g r rt)); nx
         | And -> fun r -> s r rd (g r rs land g r rt); nx
         | Or_ -> fun r -> s r rd (g r rs lor g r rt); nx
         | Xor -> fun r -> s r rd (g r rs lxor g r rt); nx
         | Slt -> fun r -> s r rd (if g r rs < g r rt then 1 else 0); nx
         | Nor | Sll | Srl | Sra | Sltu | Mul | Mulh | Div | Rem -> fun r ->
           s r rd (Exec.alu_eval_int op (g r rs) (g r rt)); nx)
  | U_alui (op, rd, rs, imm) when ok rd && ok rs ->
    Some
      (if rd = 0 then advance
       else
         match op with
         | Insn.Add -> fun r -> s r rd (norm (g r rs + imm)); nx
         | And -> fun r -> s r rd (g r rs land imm); nx
         | Or_ -> fun r -> s r rd (g r rs lor imm); nx
         | Xor -> fun r -> s r rd (g r rs lxor imm); nx
         | Slt -> fun r -> s r rd (if g r rs < imm then 1 else 0); nx
         | Sub | Nor | Sll | Srl | Sra | Sltu | Mul | Mulh | Div | Rem ->
           fun r -> s r rd (Exec.alu_eval_int op (g r rs) imm); nx)
  | U_lui (rd, v) when ok rd ->
    Some (if rd = 0 then advance else fun r -> s r rd v; nx)
  | U_xi_addi (rd, rs, imm) when ok rd && ok rs ->
    Some
      (if rd = 0 then advance
       else fun r -> s r rd (norm (g r rs + imm)); nx)
  | U_xi_add (rd, rs, rt) when ok rd && ok rs && ok rt ->
    Some
      (if rd = 0 then advance
       else fun r -> s r rd (norm (g r rs + g r rt)); nx)
  | U_branch (c, rs, rt, l) when l <> nx && ok rs && ok rt ->
    Some
      (match c with
       | Insn.Beq -> fun r -> if g r rs = g r rt then l else nx
       | Bne -> fun r -> if g r rs <> g r rt then l else nx
       | Blt -> fun r -> if g r rs < g r rt then l else nx
       | Bge -> fun r -> if g r rs >= g r rt then l else nx
       | Bltu -> fun r ->
         if g r rs land 0xFFFFFFFF < g r rt land 0xFFFFFFFF then l else nx
       | Bgeu -> fun r ->
         if g r rs land 0xFFFFFFFF >= g r rt land 0xFFFFFFFF then l else nx)
  | U_jump l -> Some (fun _ -> l)
  | U_jal (link, l) -> Some (fun r -> s r Reg.ra link; l)
  | U_jr rs when ok rs -> Some (fun r -> g r rs)
  | U_sync | U_nop -> Some advance
  | _ -> None

let lane_meta_fresh (pre : P.predecoded) : lane_meta array =
  let lat = pre.P.timing.P.lat in
  Array.mapi
    (fun pc u ->
       match if lat.(pc) = P.Lat_alu then plain_op u pc else None with
       | Some f -> L_plain f
       | None -> L_slow)
    pre.P.uops

(* Per-domain memo keyed by physical equality, same shape as the
   predecode memo: a sweep creates an LPSU per xloop instance on the
   same few programs, so the closures are built once per program per
   domain. *)

let memo : (P.predecoded * lane_meta array) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let memo_cap = 8

let lane_meta (pre : P.predecoded) : lane_meta array =
  let cache = Domain.DLS.get memo in
  match List.find_opt (fun (p, _) -> p == pre) !cache with
  | Some (_, m) -> m
  | None ->
    let m = lane_meta_fresh pre in
    let rest =
      if List.length !cache >= memo_cap
      then List.filteri (fun i _ -> i < memo_cap - 1) !cache
      else !cache
    in
    cache := (pre, m) :: rest;
    m
