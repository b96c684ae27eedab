(** LPSU lane fast path: per-pc compiled closures for the instructions an
    LPSU lane may execute without {!Exec.step}'s event record.

    {b Exactness contract.}  For every pc marked [L_plain op], applying
    [op] to a register file has exactly [Exec.step]'s effect on the
    registers (including dropped writes to r0) and returns the pc
    [Exec.step] would leave in [hart.pc] — property-tested against
    [Exec.step] in [test_lane_op]. *)

type op = int array -> int
(** Execute one instruction on a sign-extended native-int register file
    (the layout of {!Exec.hart.regs}) and return the outgoing pc. *)

(** Per-pc lane metadata: [L_plain] marks instructions a lane may
    execute through the closure — single-cycle ([Lat_alu]), portless,
    trapless, no memory traffic, no loop bookkeeping, and any control
    transfer recoverable from the outgoing pc (a conditional branch is
    taken iff the outgoing pc differs from pc+1, so a branch to its own
    fall-through stays slow).  The lane reads the instruction's
    registers and branch kind from the program's per-pc timing table
    ({!Xloops_asm.Program.timing}). *)
type lane_meta =
  | L_slow
  | L_plain of op

val lane_meta : Xloops_asm.Program.predecoded -> lane_meta array
(** Memoized per domain (bounded, keyed by physical equality); callers
    must not mutate the array — copy before demoting. *)
