(** Microarchitectural event counters.

    Every timing model (in-order GPP, out-of-order GPP, LPSU) accumulates
    events into one of these records.  The energy model
    ({!Xloops_energy.Model}) turns event counts into joules the way McPAT
    does — this is the interface between performance and energy modelling
    that Section IV-A of the paper describes. *)

type t = {
  (* Work *)
  mutable committed_insns : int;   (** architecturally committed *)
  mutable squashed_insns : int;    (** executed then thrown away *)
  mutable iterations : int;        (** xloop iterations executed *)
  (* Front end *)
  mutable icache_fetches : int;    (** instruction fetches from the L1I *)
  mutable ib_fetches : int;        (** fetches from an LPSU instr buffer *)
  mutable decodes : int;
  mutable renames : int;           (** OOO rename events; LPSU scan renames *)
  mutable rob_ops : int;           (** ROB allocate+commit pairs *)
  mutable iq_ops : int;            (** issue-queue wakeup/select events *)
  (* Register file *)
  mutable rf_reads : int;
  mutable rf_writes : int;
  (* Execute *)
  mutable alu_ops : int;
  mutable mul_ops : int;
  mutable div_ops : int;
  mutable fpu_ops : int;
  mutable xi_ops : int;            (** MIV computations via the MIVT *)
  mutable branches : int;
  mutable mispredicts : int;
  (* Memory *)
  mutable dcache_accesses : int;
  mutable dcache_misses : int;
  mutable icache_misses : int;
  mutable amo_ops : int;
  mutable lsq_searches : int;      (** LSQ CAM searches *)
  mutable lsq_writes : int;        (** LSQ entry allocations *)
  mutable store_broadcasts : int;  (** violation-check broadcasts *)
  mutable lsq_forwards : int;      (** inter-lane store-to-load forwards *)
  mutable violations : int;        (** memory dependence violations *)
  (* LPSU specific *)
  mutable scan_insns : int;        (** instructions written to instr buffers *)
  mutable cib_reads : int;
  mutable cib_writes : int;
  mutable idq_ops : int;
  mutable xloops_specialized : int;(** dynamic xloops run on the LPSU *)
  mutable xloops_traditional : int;(** dynamic xloops run on the GPP *)
  mutable migrations : int;        (** adaptive GPP<->LPSU migrations *)
  (* Robustness: fault injection, watchdog, graceful degradation *)
  mutable faults_injected : int;   (** transient faults applied by a plan *)
  mutable watchdog_hangs : int;    (** structured hangs the watchdog caught *)
  mutable degradations : int;      (** specialized loops rolled back and
                                       re-executed traditionally *)
  (* Evaluation-engine bookkeeping: how this run was obtained *)
  mutable wall_ns : int;           (** wall-clock of the producing simulation *)
  mutable cache_hits : int;        (** 1 if served from the result cache *)
  mutable cache_misses : int;      (** 1 if simulated because of a cache miss *)
  (* LPSU per-lane cycle breakdown (Figure 6) *)
  mutable cyc_exec : int;
  mutable cyc_stall_raw : int;
  mutable cyc_stall_mem : int;
  mutable cyc_stall_llfu : int;
  mutable cyc_stall_cir : int;
  mutable cyc_stall_lsq : int;
  mutable cyc_squash : int;
  mutable cyc_idle : int;
}

let create () = {
  committed_insns = 0; squashed_insns = 0; iterations = 0;
  icache_fetches = 0; ib_fetches = 0; decodes = 0; renames = 0;
  rob_ops = 0; iq_ops = 0;
  rf_reads = 0; rf_writes = 0;
  alu_ops = 0; mul_ops = 0; div_ops = 0; fpu_ops = 0; xi_ops = 0;
  branches = 0; mispredicts = 0;
  dcache_accesses = 0; dcache_misses = 0; icache_misses = 0;
  amo_ops = 0; lsq_searches = 0; lsq_writes = 0;
  store_broadcasts = 0; lsq_forwards = 0; violations = 0;
  scan_insns = 0; cib_reads = 0; cib_writes = 0; idq_ops = 0;
  xloops_specialized = 0; xloops_traditional = 0; migrations = 0;
  faults_injected = 0; watchdog_hangs = 0; degradations = 0;
  wall_ns = 0; cache_hits = 0; cache_misses = 0;
  cyc_exec = 0; cyc_stall_raw = 0; cyc_stall_mem = 0; cyc_stall_llfu = 0;
  cyc_stall_cir = 0; cyc_stall_lsq = 0; cyc_squash = 0; cyc_idle = 0;
}

(** Decode-side counters of the instruction at [pc], read from the
    program's per-pc timing table: one decode, its register-file reads
    and write, its operation class and whether it is a branch. *)
let count_decode s (tm : Xloops_asm.Program.timing) pc =
  s.decodes <- s.decodes + 1;
  s.rf_reads <- s.rf_reads
                + (if tm.src1.(pc) >= 0 then 1 else 0)
                + (if tm.src2.(pc) >= 0 then 1 else 0);
  if tm.dst.(pc) >= 0 then s.rf_writes <- s.rf_writes + 1;
  (match tm.op.(pc) with
   | Op_alu -> s.alu_ops <- s.alu_ops + 1
   | Op_mul -> s.mul_ops <- s.mul_ops + 1
   | Op_div -> s.div_ops <- s.div_ops + 1
   | Op_fpu -> s.fpu_ops <- s.fpu_ops + 1
   | Op_xi -> s.xi_ops <- s.xi_ops + 1
   | Op_amo -> s.amo_ops <- s.amo_ops + 1);
  match tm.branch.(pc) with
  | Br_none -> ()
  | Br_cond | Br_other -> s.branches <- s.branches + 1

(** [merge ~into src] adds every counter of [src] into [into]. *)
let merge ~into (s : t) =
  into.committed_insns <- into.committed_insns + s.committed_insns;
  into.squashed_insns <- into.squashed_insns + s.squashed_insns;
  into.iterations <- into.iterations + s.iterations;
  into.icache_fetches <- into.icache_fetches + s.icache_fetches;
  into.ib_fetches <- into.ib_fetches + s.ib_fetches;
  into.decodes <- into.decodes + s.decodes;
  into.renames <- into.renames + s.renames;
  into.rob_ops <- into.rob_ops + s.rob_ops;
  into.iq_ops <- into.iq_ops + s.iq_ops;
  into.rf_reads <- into.rf_reads + s.rf_reads;
  into.rf_writes <- into.rf_writes + s.rf_writes;
  into.alu_ops <- into.alu_ops + s.alu_ops;
  into.mul_ops <- into.mul_ops + s.mul_ops;
  into.div_ops <- into.div_ops + s.div_ops;
  into.fpu_ops <- into.fpu_ops + s.fpu_ops;
  into.xi_ops <- into.xi_ops + s.xi_ops;
  into.branches <- into.branches + s.branches;
  into.mispredicts <- into.mispredicts + s.mispredicts;
  into.dcache_accesses <- into.dcache_accesses + s.dcache_accesses;
  into.dcache_misses <- into.dcache_misses + s.dcache_misses;
  into.icache_misses <- into.icache_misses + s.icache_misses;
  into.amo_ops <- into.amo_ops + s.amo_ops;
  into.lsq_searches <- into.lsq_searches + s.lsq_searches;
  into.lsq_writes <- into.lsq_writes + s.lsq_writes;
  into.store_broadcasts <- into.store_broadcasts + s.store_broadcasts;
  into.lsq_forwards <- into.lsq_forwards + s.lsq_forwards;
  into.violations <- into.violations + s.violations;
  into.scan_insns <- into.scan_insns + s.scan_insns;
  into.cib_reads <- into.cib_reads + s.cib_reads;
  into.cib_writes <- into.cib_writes + s.cib_writes;
  into.idq_ops <- into.idq_ops + s.idq_ops;
  into.xloops_specialized <- into.xloops_specialized + s.xloops_specialized;
  into.xloops_traditional <- into.xloops_traditional + s.xloops_traditional;
  into.migrations <- into.migrations + s.migrations;
  into.faults_injected <- into.faults_injected + s.faults_injected;
  into.watchdog_hangs <- into.watchdog_hangs + s.watchdog_hangs;
  into.degradations <- into.degradations + s.degradations;
  into.wall_ns <- into.wall_ns + s.wall_ns;
  into.cache_hits <- into.cache_hits + s.cache_hits;
  into.cache_misses <- into.cache_misses + s.cache_misses;
  into.cyc_exec <- into.cyc_exec + s.cyc_exec;
  into.cyc_stall_raw <- into.cyc_stall_raw + s.cyc_stall_raw;
  into.cyc_stall_mem <- into.cyc_stall_mem + s.cyc_stall_mem;
  into.cyc_stall_llfu <- into.cyc_stall_llfu + s.cyc_stall_llfu;
  into.cyc_stall_cir <- into.cyc_stall_cir + s.cyc_stall_cir;
  into.cyc_stall_lsq <- into.cyc_stall_lsq + s.cyc_stall_lsq;
  into.cyc_squash <- into.cyc_squash + s.cyc_squash;
  into.cyc_idle <- into.cyc_idle + s.cyc_idle

(** Lane-cycle breakdown as fractions of total lane cycles, in the order
    the paper's Figure 6 stacks them. *)
let lane_breakdown (s : t) =
  let total =
    s.cyc_exec + s.cyc_stall_raw + s.cyc_stall_mem + s.cyc_stall_llfu
    + s.cyc_stall_cir + s.cyc_stall_lsq + s.cyc_squash + s.cyc_idle
  in
  let f v = if total = 0 then 0.0 else float_of_int v /. float_of_int total in
  [ ("exec", f s.cyc_exec);
    ("raw", f s.cyc_stall_raw);
    ("mem", f s.cyc_stall_mem);
    ("llfu", f s.cyc_stall_llfu);
    ("cir", f s.cyc_stall_cir);
    ("lsq", f s.cyc_stall_lsq);
    ("squash", f s.cyc_squash);
    ("idle", f s.cyc_idle) ]

let pp ppf s =
  Fmt.pf ppf
    "@[<v>insns: %d (+%d squashed)  iters: %d@,\
     fetch: ic=%d ib=%d  rf: %dr/%dw@,\
     exec: alu=%d mul=%d div=%d fpu=%d xi=%d br=%d (misp=%d)@,\
     mem: d$=%d (miss=%d) amo=%d lsq=%ds/%dw viol=%d@,\
     lpsu: scan=%d cib=%dr/%dw idq=%d spec=%d trad=%d migr=%d@,\
     robust: faults=%d hangs=%d degraded=%d@]"
    s.committed_insns s.squashed_insns s.iterations
    s.icache_fetches s.ib_fetches s.rf_reads s.rf_writes
    s.alu_ops s.mul_ops s.div_ops s.fpu_ops s.xi_ops s.branches
    s.mispredicts s.dcache_accesses s.dcache_misses s.amo_ops
    s.lsq_searches s.lsq_writes s.violations
    s.scan_insns s.cib_reads s.cib_writes s.idq_ops
    s.xloops_specialized s.xloops_traditional s.migrations
    s.faults_injected s.watchdog_hangs s.degradations
