(** Microarchitectural event counters, accumulated by every timing model
    and priced by the energy model ({!Xloops_energy.Model}) the way
    McPAT prices gem5 events (Section IV-A). *)

type t = {
  mutable committed_insns : int;
  mutable squashed_insns : int;
  mutable iterations : int;
  mutable icache_fetches : int;
  mutable ib_fetches : int;    (** fetches from an LPSU instr buffer *)
  mutable decodes : int;
  mutable renames : int;
  mutable rob_ops : int;
  mutable iq_ops : int;
  mutable rf_reads : int;
  mutable rf_writes : int;
  mutable alu_ops : int;
  mutable mul_ops : int;
  mutable div_ops : int;
  mutable fpu_ops : int;
  mutable xi_ops : int;        (** MIV computations via the MIVT *)
  mutable branches : int;
  mutable mispredicts : int;
  mutable dcache_accesses : int;
  mutable dcache_misses : int;
  mutable icache_misses : int;
  mutable amo_ops : int;
  mutable lsq_searches : int;
  mutable lsq_writes : int;
  mutable store_broadcasts : int;
  mutable lsq_forwards : int;
  mutable violations : int;    (** memory dependence violations *)
  mutable scan_insns : int;
  mutable cib_reads : int;
  mutable cib_writes : int;
  mutable idq_ops : int;
  mutable xloops_specialized : int;
  mutable xloops_traditional : int;
  mutable migrations : int;    (** adaptive LPSU->GPP migrations *)
  mutable faults_injected : int; (** transient faults applied by a plan *)
  mutable watchdog_hangs : int;  (** structured hangs the watchdog caught *)
  mutable degradations : int;    (** specialized loops rolled back and
                                     re-executed traditionally *)
  mutable wall_ns : int;         (** wall-clock nanoseconds of the producing
                                     simulation (set by the run engine) *)
  mutable cache_hits : int;      (** 1 if this run was served from the
                                     result cache instead of simulated *)
  mutable cache_misses : int;    (** 1 if this run was simulated because of
                                     a cache miss *)
  (* Per-lane cycle breakdown (Figure 6). *)
  mutable cyc_exec : int;
  mutable cyc_stall_raw : int;
  mutable cyc_stall_mem : int;
  mutable cyc_stall_llfu : int;
  mutable cyc_stall_cir : int;
  mutable cyc_stall_lsq : int;
  mutable cyc_squash : int;
  mutable cyc_idle : int;
}

val create : unit -> t

val count_decode : t -> Xloops_asm.Program.timing -> int -> unit
(** [count_decode s tm pc] accounts one decode of the instruction at
    [pc]: register-file reads and writes, its operation-class counter
    and [branches] — the per-instruction events every timing model
    (GPP and LPSU lanes) charges. *)

val merge : into:t -> t -> unit
(** Add every counter of the second argument into [into]. *)

val lane_breakdown : t -> (string * float) list
(** Lane-cycle categories as fractions, in Figure 6's stacking order:
    exec, raw, mem, llfu, cir, lsq, squash, idle. *)

val pp : Format.formatter -> t -> unit
