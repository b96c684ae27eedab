(** Cycle-level, execution-driven model of the loop-pattern specialization
    unit (Section II-D, Figure 4).

    The LPSU contains [lanes] decoupled in-order lanes and a lane
    management unit (LMU).  Iteration indices are dispensed in order (for
    [xloop.uc] this degenerates into dynamic load balancing because any
    idle lane takes the next index).  Each lane executes one iteration at a
    time through the shared functional executor {!Exec.step}:

    - {b MIVT}: at dispatch of iteration [k] the lane seeds the index
      register and every mutual induction variable with
      [base + k * increment] (the narrow-multiplier computation of the
      paper), so [.xi] instructions execute as cheap single-cycle adds;
    - {b CIB}: for [xloop.{or,orm}], the first read of a cross-iteration
      register stalls until the previous iteration has produced its value;
      the instruction whose PC carries the last-CIR-write bit forwards its
      result, and iterations that skip it copy the register at loop end;
    - {b LSQ}: for [xloop.{om,orm,ua}], speculative lanes buffer stores
      and record load addresses; stores by the non-speculative lane (and
      drained stores at promotion) are broadcast, and any speculative lane
      that already loaded from an overlapping address squashes and restarts
      its iteration;
    - {b dynamic bounds}: for [xloop.*.db], writes to the bound register
      are reported to the LMU, which monotonically raises the bound and
      keeps dispensing indices;
    - the data-memory port and the long-latency functional unit are shared
      and arbitrated per cycle ({!Xloops_mem.Port}).

    Squashed iterations really re-execute, so the model is honest about
    data-dependent violation behaviour (e.g. the paper's ksack-sm vs
    ksack-lg contrast). *)

open Xloops_isa
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module Cache = Xloops_mem.Cache
module Port = Xloops_mem.Port

exception Lane_trap of string

type ctx_state =
  | Idle
  | Run           (** executing the iteration body *)
  | Wait_commit   (** finished, speculative, waiting for promotion *)
  | Drain_commit  (** finished, promoted, draining buffered stores *)

type ctx = {
  lane : int;
  tid : int;
  hart : Exec.hart;
  reg_ready : int array;
  mutable st : ctx_state;
  mutable iter : int;            (** local iteration number; -1 when idle *)
  lsq : Lsq.t;
  mutable drain_q : Lsq.store_entry list;
  got_cir : bool array;        (** per CIB slot: chain value consumed *)
  mutable insns_iter : int;
  mutable next_issue : int;
  mutable exit_flag : int;     (** .de: exit-register value at loop end *)
  mutable frozen_until : int;  (** injected lane freeze; [max_int] = dead *)
  (* Per-context memory interfaces, built once at LPSU creation instead
     of once per memory instruction. *)
  mutable spec_if : Exec.mem_iface;   (** LSQ overlay for this context *)
  mutable fwd_if : Exec.mem_iface;    (** inter-lane forward; reads fwd_* *)
  mutable fwd_src : int;              (** forwarding source iteration *)
  mutable fwd_raw : int32;            (** forwarded raw store bytes *)
  mutable fwd_addr : int;
  mutable fwd_bytes : int;
  (* The slow-path issue's resource decision: the memory interface the
     step uses and the result latency. *)
  mutable step_if : Exec.mem_iface;
  mutable step_lat : int;
}

(* A CIB chain's history of (consumer iteration, value, ready cycle)
   entries in parallel arrays, oldest first: [len] live entries.
   History is kept (not popped on read) so that orm squashes can roll
   back.  [hi] is the largest consumer iteration present ([min_int]
   when empty), so a lane stalled on a value not yet produced — the
   common CIR-stall case — finds out without a scan. *)
type cib = {
  cir : Scan.cir;
  slot : int;
  mutable h_iter : int array;
  mutable h_val : int array;
  mutable h_ready : int array;
  mutable len : int;
  mutable hi : int;
}

type stall = [ `Raw | `Mem | `Llfu | `Cir | `Lsq | `Idle | `Frozen ]

type result = {
  cycles : int;             (** specialized-execution cycles *)
  iterations : int;         (** iterations committed *)
  finished : bool;          (** loop ran to its (final) bound *)
  next_idx : int32;         (** index value of the next iteration *)
  bound : int32;            (** final (possibly dynamically-raised) bound *)
  cir_finals : (Reg.t * int32) list;
  miv_finals : (Reg.t * int32) list;
}

type t = {
  pre : Program.predecoded;      (* the program, predecoded once *)
  mem : Memory.t;
  direct_if : Exec.mem_iface;    (* architectural memory, built once *)
  ev : Exec.event;               (* shared reusable step scratch *)
  dcache : Cache.t;
  lat : Gpp_timing.latencies;
  div_occupancy : int option;    (* [Some lat.div], built once: passing it
                                    as [?occupancy] allocates nothing *)
  lpsu : Config.lpsu;
  stats : Stats.t;
  info : Scan.t;
  tm : Program.timing;           (* pre's per-pc timing table *)
  base_regs : int array;         (* GPP register snapshot at scan *)
  (* Index, bound and MIV values are sign-extended 32-bit values in
     native ints, like the register file. *)
  idx0 : int;
  idx_step : int;
  miv_regs : int array;
  miv_base : int array;
  miv_inc : int array;
  ctxs : ctx array;              (* lane-major, then thread *)
  cibs : cib array;
  mem_port : Port.t;
  llfu_port : Port.t;
  mutable bound : int;
  mutable next_k : int;          (* next iteration to dispense *)
  mutable commit_iter : int;     (* lowest uncommitted iteration *)
  mutable committed : int;
  mutable exit_at : int option;  (* .de: iteration that took the exit *)
  mutable cycle : int;
  stop_after : int option;
  spec_pattern : bool;
  has_cirs : bool;
  mt_enabled : bool;
  trace : Trace.t option;
  (* Robustness machinery *)
  faults : Fault.t option;
  (* Lane fast path: per-pc compiled-closure dispatch for instructions
     whose lane-level effects are fully recoverable without the event
     record ({!Lane_op.lane_meta}, further demoted below for CIR and
     dynamic-bound bookkeeping).  [fast_ok] gates the whole array off
     whenever an observer is attached. *)
  lane_fast : Lane_op.lane_meta array;
  fast_ok : bool;
  watchdog : int;                (* no-progress cycles before a hang; 0=off *)
  mutable last_progress : int;   (* cycle of the last dispatch or commit *)
  mutable drop_broadcasts : int; (* injected: swallow this many broadcasts *)
  lane_reason : stall array;     (* last cycle's stall reason per lane *)
}

let sext_shift = Sys.int_size - 32
let[@inline] norm v = (v lsl sext_shift) asr sext_shift

(* Int-specialized: [Stdlib.max] compiles to a C comparison call. *)
let[@inline] imax (a : int) b = if a >= b then a else b

let idx_of t k = norm (t.idx0 + k * t.idx_step)

(* -- Memory interfaces ------------------------------------------------ *)

(* Each context's interfaces are built once at LPSU creation; the
   speculative path closes over the context's LSQ, and the forwarding
   path reads the context's [fwd_*] scratch fields, so no closure is
   allocated per memory instruction. *)

let spec_iface t (c : ctx) : Exec.mem_iface = {
  load = (fun w a ->
      Lsq.record_load c.lsq ~addr:a ~bytes:(Insn.width_bytes w);
      t.stats.lsq_writes <- t.stats.lsq_writes + 1;
      Int32.to_int (Lsq.read c.lsq t.mem w a));
  store = (fun w a v ->
      Lsq.record_store c.lsq ~addr:a ~bytes:(Insn.width_bytes w)
        ~value:(Int32.of_int v);
      t.stats.lsq_writes <- t.stats.lsq_writes + 1);
  amo = (fun op a v ->
      let v = Int32.of_int v in
      let old = Lsq.read c.lsq t.mem Insn.W a in
      Lsq.record_load c.lsq ~addr:a ~bytes:4;
      let nv = match op with
        | Insn.Amo_add -> Int32.add old v
        | Amo_and -> Int32.logand old v
        | Amo_or -> Int32.logor old v
        | Amo_xchg -> v
        | Amo_min -> if Int32.compare old v <= 0 then old else v
        | Amo_max -> if Int32.compare old v >= 0 then old else v
      in
      Lsq.record_store c.lsq ~addr:a ~bytes:4 ~value:nv;
      t.stats.lsq_writes <- t.stats.lsq_writes + 2;
      Int32.to_int old);
}

(* Sign/zero-extend raw little-endian bytes per access width. *)
let extend_raw (w : Insn.width) (raw : int32) : int32 =
  let v = Int32.to_int raw in
  match w with
  | B -> Int32.of_int (if v land 0x80 <> 0 then v - 0x100 else v)
  | H -> Int32.of_int (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | Bu | Hu -> raw
  | W -> raw

(* One-load interface delivering an inter-lane forwarded value; the
   source iteration, raw value and address live in the context's [fwd_*]
   fields, set by [inter_lane_forward] just before the step. *)
let fwd_iface t (c : ctx) : Exec.mem_iface = {
  Exec.load = (fun w a ->
      assert (a = c.fwd_addr);
      Lsq.record_load c.lsq ~addr:c.fwd_addr ~bytes:c.fwd_bytes
        ~fwd:{ Lsq.f_iter = c.fwd_src; f_value = c.fwd_raw };
      t.stats.lsq_writes <- t.stats.lsq_writes + 1;
      Int32.to_int (extend_raw w c.fwd_raw));
  store = (fun _ _ _ -> assert false);
  amo = (fun _ _ _ -> assert false);
}

let create ~prog ~mem ~dcache ~(cfg : Config.t) ~stats ~(info : Scan.t)
    ~(regs : int array) ~start_cycle ?stop_after ?trace ?faults
    ?(watchdog = 0) () =
  let lpsu = match cfg.lpsu with
    | Some l -> l
    | None -> invalid_arg "Lpsu.create: config has no LPSU"
  in
  let spec_pattern = Scan.is_speculative_pattern info.pat in
  let has_cirs = Scan.has_cirs info.pat in
  let mt_enabled =
    lpsu.threads_per_lane > 1 && info.pat.dp = Insn.Uc in
  let threads = if mt_enabled then lpsu.threads_per_lane else 1 in
  let direct_if = Exec.direct_mem mem in
  let ctxs =
    Array.init (lpsu.lanes * threads) (fun i ->
        let hart = Exec.create_hart () in
        { lane = i / threads; tid = i mod threads;
          hart;
          reg_ready = Array.make Reg.num_regs 0;
          st = Idle; iter = -1;
          lsq = Lsq.create ~max_loads:lpsu.lsq_loads
              ~max_stores:lpsu.lsq_stores;
          drain_q = [];
          got_cir = Array.make (List.length info.cirs) false;
          insns_iter = 0; next_issue = 0;
          exit_flag = 0; frozen_until = 0;
          (* real interfaces are installed after [t] exists *)
          spec_if = direct_if; fwd_if = direct_if;
          fwd_src = -1; fwd_raw = 0l; fwd_addr = -1; fwd_bytes = 0;
          step_if = direct_if; step_lat = 1 })
  in
  let cib_cap = 2 * Array.length ctxs + 8 in
  let cibs =
    Array.of_list
      (List.mapi
         (fun slot (c : Scan.cir) ->
            { cir = c; slot;
              h_iter = Array.make cib_cap 0;
              h_val = Array.make cib_cap regs.(c.c_reg);
              h_ready = Array.make cib_cap start_cycle;
              len = 1; hi = 0 })
         info.cirs)
  in
  let mivs = Array.of_list info.mivs in
  let pre = Program.predecode prog in
  let tm = pre.timing in
  (* Start from the lane closures' per-pc metadata, then demote the
     pcs whose execution the LPSU must see one at a time: anything
     reading a CIR (first-read stall and got_cir bookkeeping), anything
     writing one (got_cir), the last-CIR-write pc (CIB forwarding), and
     dynamic-bound writes (LMU bound raising). *)
  let lane_fast = Array.copy (Lane_op.lane_meta pre) in
  let demote pc =
    if pc >= 0 && pc < Array.length lane_fast then
      lane_fast.(pc) <- Lane_op.L_slow
  in
  Array.iteri
    (fun pc m ->
       match m with
       | Lane_op.L_plain _ ->
         let cir r =
           r >= 0
           && List.exists (fun (c : Scan.cir) -> c.c_reg = r) info.cirs
         in
         let rd = tm.dst.(pc) in
         if cir rd || cir tm.src1.(pc) || cir tm.src2.(pc) then demote pc;
         if info.pat.cp = Insn.Dyn && rd = info.r_bound then demote pc
       | Lane_op.L_slow -> ())
    lane_fast;
  List.iter (fun (c : Scan.cir) -> demote c.c_last_write_pc) info.cirs;
  let fast_ok = trace = None && faults = None in
  let lat = Gpp_timing.latencies_of cfg.gpp in
  let t =
    { pre; mem; direct_if;
      ev = Exec.create_event ();
      dcache; lat; div_occupancy = Some lat.div; lpsu; stats;
      info; tm; base_regs = Array.copy regs;
      idx0 = regs.(info.r_idx); idx_step = Int32.to_int info.idx_step;
      miv_regs = Array.map (fun (m : Scan.miv) -> m.m_reg) mivs;
      miv_base = Array.map (fun (m : Scan.miv) -> regs.(m.m_reg)) mivs;
      miv_inc = Array.map (fun (m : Scan.miv) -> Int32.to_int m.m_inc) mivs;
      ctxs; cibs;
      mem_port = Port.create ~width:lpsu.mem_ports "dmem";
      llfu_port = Port.create ~width:lpsu.llfu_ports "llfu";
      bound = regs.(info.r_bound);
      next_k = 0; commit_iter = 0; committed = 0; exit_at = None;
      cycle = start_cycle;
      stop_after; spec_pattern; has_cirs; mt_enabled; trace;
      faults; lane_fast; fast_ok;
      watchdog; last_progress = start_cycle; drop_broadcasts = 0;
      lane_reason = Array.make lpsu.lanes (`Idle : stall) }
  in
  Array.iter
    (fun c ->
       c.spec_if <- spec_iface t c;
       c.fwd_if <- fwd_iface t c)
    t.ctxs;
  t

(* -- Dispatch -------------------------------------------------------- *)

let can_dispense t =
  (match t.stop_after with Some m -> t.next_k < m | None -> true)
  && (match t.info.pat.cp with
      | De -> t.exit_at = None
      | Fixed | Dyn -> idx_of t t.next_k < t.bound)

(** Seed a context's register file for iteration [k]: live-ins from the
    scan snapshot, index and MIVs from the MIVT computation. *)
let seed_ctx t (c : ctx) k =
  Array.blit t.base_regs 0 c.hart.regs 0 Reg.num_regs;
  Exec.set_int c.hart t.info.r_idx (idx_of t k);
  for i = 0 to Array.length t.miv_regs - 1 do
    Exec.set_int c.hart t.miv_regs.(i) (t.miv_base.(i) + k * t.miv_inc.(i));
    t.stats.xi_ops <- t.stats.xi_ops + 1
  done;
  Array.fill c.reg_ready 0 Reg.num_regs t.cycle;
  c.hart.pc <- t.info.body_start;
  Array.fill c.got_cir 0 (Array.length c.got_cir) false;
  c.insns_iter <- 0

let frozen (t : t) (c : ctx) = t.cycle < c.frozen_until

let dispatch t (c : ctx) =
  let k = t.next_k in
  t.next_k <- k + 1;
  c.iter <- k;
  c.st <- Run;
  t.last_progress <- t.cycle;
  seed_ctx t c k;
  Lsq.clear c.lsq;
  c.drain_q <- [];
  c.next_issue <- t.cycle + 1;  (* IDQ dequeue costs a cycle *)
  t.stats.idq_ops <- t.stats.idq_ops + 1;
  if Trace.enabled t.trace Lanes then
    Trace.event t.trace Lanes "[%7d] lane%d.%d dispatch iter=%d idx=%d"
      t.cycle c.lane c.tid k (idx_of t k)

(* -- CIB ------------------------------------------------------------- *)

(* Newest entry for consumer iteration [k], or -1. *)
let cib_find (cb : cib) k =
  if k > cb.hi then -1
  else begin
    let i = ref (cb.len - 1) in
    while !i >= 0 && cb.h_iter.(!i) <> k do decr i done;
    !i
  end

let cib_push (cb : cib) ~iter ~value ~ready =
  if cb.len = Array.length cb.h_iter then begin
    let grow a = Array.append a a in
    cb.h_iter <- grow cb.h_iter;
    cb.h_val <- grow cb.h_val;
    cb.h_ready <- grow cb.h_ready
  end;
  cb.h_iter.(cb.len) <- iter;
  cb.h_val.(cb.len) <- value;
  cb.h_ready.(cb.len) <- ready;
  cb.len <- cb.len + 1;
  if iter > cb.hi then cb.hi <- iter

(* Keep only the entries whose consumer iteration lies in [lo, hi],
   preserving their order. *)
let cib_retain (cb : cib) ~lo ~hi =
  let n = ref 0 in
  cb.hi <- min_int;
  for i = 0 to cb.len - 1 do
    let k = cb.h_iter.(i) in
    if lo <= k && k <= hi then begin
      cb.h_iter.(!n) <- k;
      cb.h_val.(!n) <- cb.h_val.(i);
      cb.h_ready.(!n) <- cb.h_ready.(i);
      incr n;
      if k > cb.hi then cb.hi <- k
    end
  done;
  cb.len <- !n

(* Oldest history entry any future lookup can need: speculative patterns
   may roll back to the commit point; non-speculative ones only ever look
   up an active context's iteration or (for [finals]) the commit count.
   Without the non-speculative bound a long register-carried loop (the
   [or] kernels run thousands of iterations in one LPSU instance, and
   [commit_iter] never moves) grows each chain without limit and turns
   every lookup into an O(iterations) walk. *)
let cib_keep_from t =
  if t.spec_pattern then t.commit_iter - 1
  else begin
    let acc = ref t.committed in
    for i = 0 to Array.length t.ctxs - 1 do
      let c = t.ctxs.(i) in
      if c.st <> Idle && c.iter >= 0 && c.iter < !acc then acc := c.iter
    done;
    !acc - 1
  end

let cib_write t (cb : cib) ~producer_iter ~value =
  cib_push cb ~iter:(producer_iter + 1) ~value ~ready:(t.cycle + 1);
  t.stats.cib_writes <- t.stats.cib_writes + 1;
  (* Prune entries no consumer can ever need again. *)
  if cb.len > Array.length t.ctxs * 2 + 4 then
    cib_retain cb ~lo:(cib_keep_from t) ~hi:max_int

let cib_rollback t k_min =
  Array.iter (fun cb -> cib_retain cb ~lo:min_int ~hi:k_min) t.cibs

(* -- Squash ---------------------------------------------------------- *)

let squash_ctx t (c : ctx) =
  if Trace.enabled t.trace Lanes then
    Trace.event t.trace Lanes
      "[%7d] lane%d.%d SQUASH iter=%d (%d insns thrown away)"
      t.cycle c.lane c.tid c.iter c.insns_iter;
  t.stats.violations <- t.stats.violations + 1;
  t.stats.squashed_insns <- t.stats.squashed_insns + c.insns_iter;
  (* Transfer this iteration's execute cycles to the squash bucket. *)
  t.stats.cyc_exec <- t.stats.cyc_exec - c.insns_iter;
  t.stats.cyc_squash <-
    t.stats.cyc_squash + c.insns_iter + t.lpsu.squash_penalty;
  Lsq.clear c.lsq;
  c.drain_q <- [];
  seed_ctx t c c.iter;
  c.st <- Run;
  c.next_issue <- t.cycle + t.lpsu.squash_penalty

(** Squash [c], plus (recursively) every younger context that forwarded a
    value from [c]'s iteration — its buffered stores are gone, so any
    forwarded value is unsubstantiated. *)
let rec squash_with_forward_cascade t (c : ctx) =
  let k = c.iter in
  squash_ctx t c;
  Array.iter
    (fun o ->
       if (o.st = Run || o.st = Wait_commit) && o.iter > k
       && Lsq.has_forward_from o.lsq k then
         squash_with_forward_cascade t o)
    t.ctxs

(** Violation check for a committed [store] by iteration [from_iter].
    Squashes any speculative context that already loaded from an
    overlapping address — except loads whose value was forwarded from
    this very store and is byte-identical.  With CIRs present (orm) the
    register chain makes every younger iteration dependent, so squashes
    cascade; with inter-lane forwarding, consumers of a squashed
    iteration's buffers cascade too. *)
let broadcast_store t ~from_iter ~(store : Lsq.store_entry) =
  if t.drop_broadcasts > 0 then begin
    (* Injected fault: the broadcast is swallowed — speculative lanes
       that already loaded from the range never hear about the store. *)
    t.drop_broadcasts <- t.drop_broadcasts - 1;
    if Trace.enabled t.trace Lanes then
      Trace.event t.trace Lanes
        "[%7d] FAULT broadcast of store @%d swallowed" t.cycle
        store.Lsq.s_addr
  end
  else if t.spec_pattern then begin
    t.stats.store_broadcasts <- t.stats.store_broadcasts + 1;
    let addr = store.Lsq.s_addr and bytes = store.Lsq.s_bytes in
    let violated = ref [] in
    for i = 0 to Array.length t.ctxs - 1 do
      let c = t.ctxs.(i) in
      if (c.st = Run || c.st = Wait_commit) && c.iter > from_iter then begin
        t.stats.lsq_searches <- t.stats.lsq_searches + 1;
        if Lsq.violated_loads c.lsq ~from_iter ~addr ~bytes ~store <> []
        then violated := c :: !violated
      end
    done;
    match !violated with
    | [] -> ()
    | vs ->
      let k_min = List.fold_left (fun a c -> min a c.iter) max_int vs in
      if t.has_cirs then begin
        (* Cascade: squash every active iteration >= k_min and roll the
           CIB chains back so iteration k_min can re-read its input. *)
        Array.iter
          (fun c ->
             if (c.st = Run || c.st = Wait_commit) && c.iter >= k_min then
               squash_ctx t c)
          t.ctxs;
        cib_rollback t k_min
      end else
        List.iter
          (fun c ->
             (* A context may already have been squashed by an earlier
                cascade step this broadcast; its cleared LSQ makes the
                recursion idempotent. *)
             if c.st = Run || c.st = Wait_commit then
               squash_with_forward_cascade t c)
          vs
  end

(* -- Inter-lane forwarding -------------------------------------------- *)

(** Inter-lane store-to-load forwarding (enabled by
    [Config.lpsu.inter_lane_fwd]): the youngest older active iteration
    whose buffered stores fully cover the load supplies the value; the
    load entry remembers its source so commits can confirm it and
    squashes can cascade.  On a hit the context's [fwd_*] scratch fields
    are armed for its pre-built [fwd_if] and the result is [true]. *)
let inter_lane_forward t (c : ctx) ~addr ~bytes =
  t.lpsu.inter_lane_fwd
  && begin
    let best = ref (-1) in
    for i = 0 to Array.length t.ctxs - 1 do
      let o = t.ctxs.(i) in
      if (o.st = Run || o.st = Wait_commit)
      && o.iter < c.iter && o.iter >= t.commit_iter then begin
        t.stats.lsq_searches <- t.stats.lsq_searches + 1;
        match Lsq.covering_store_value o.lsq ~addr ~bytes with
        | Some raw when o.iter >= !best ->
          best := o.iter;
          c.fwd_raw <- raw
        | Some _ | None -> ()
      end
    done;
    !best >= 0
    && begin
      t.stats.lsq_forwards <- t.stats.lsq_forwards + 1;
      c.fwd_src <- !best;
      c.fwd_addr <- addr;
      c.fwd_bytes <- bytes;
      true
    end
  end

(* An L1 miss is charged to the value's latency, blocks the issuing lane
   (simple in-order lanes), and holds the shared memory port for the
   fill — the single port is the structural bottleneck the paper's
   L1-resident datasets deliberately avoid. *)
let miss_penalty = 20

let dcache_latency t (c : ctx) ~addr ~base_latency =
  t.stats.dcache_accesses <- t.stats.dcache_accesses + 1;
  if Cache.access t.dcache addr then base_latency
  else begin
    t.stats.dcache_misses <- t.stats.dcache_misses + 1;
    c.next_issue <- imax c.next_issue (t.cycle + miss_penalty);
    Port.hold t.mem_port ~until:(t.cycle + miss_penalty);
    base_latency + miss_penalty
  end

(* -- Commit ---------------------------------------------------------- *)

(** .de: a committed iteration whose exit flag is set ends the loop;
    every in-flight younger iteration is control-speculative and is
    discarded outright (buffered state vanishes, nothing re-dispatches). *)
let take_exit t (c : ctx) =
  if Trace.enabled t.trace Decisions then
    Trace.event t.trace Decisions
      "[%7d] data-dependent exit taken at iter=%d; discarding younger work"
      t.cycle c.iter;
  t.exit_at <- Some c.iter;
  t.bound <- c.exit_flag;
  for i = 0 to Array.length t.ctxs - 1 do
    let o = t.ctxs.(i) in
    if o.st <> Idle && o.iter > c.iter then begin
      t.stats.squashed_insns <- t.stats.squashed_insns + o.insns_iter;
      t.stats.cyc_squash <- t.stats.cyc_squash + o.insns_iter;
      t.stats.cyc_exec <- t.stats.cyc_exec - o.insns_iter;
      Lsq.clear o.lsq;
      o.drain_q <- [];
      o.st <- Idle;
      o.iter <- -1
    end
  done

let commit_iteration t (c : ctx) =
  if Trace.enabled t.trace Lanes then
    Trace.event t.trace Lanes "[%7d] lane%d.%d commit iter=%d (%d insns)"
      t.cycle c.lane c.tid c.iter c.insns_iter;
  t.committed <- t.committed + 1;
  t.last_progress <- t.cycle;
  t.stats.iterations <- t.stats.iterations + 1;
  t.stats.committed_insns <- t.stats.committed_insns + c.insns_iter;
  if t.spec_pattern then t.commit_iter <- t.commit_iter + 1;
  if t.info.pat.cp = Insn.De && c.exit_flag <> 0 && t.exit_at = None
  then take_exit t c;
  c.st <- Idle;
  c.iter <- -1

(** Promote / commit whatever can make forward progress for free:
    finished non-speculative iterations with empty store buffers commit
    immediately; finished iterations with buffered stores move to the
    draining state; a still-running promoted context gets its drain queue
    filled so the issue loop empties it before the lane proceeds. *)
let rec try_commits t =
  if t.spec_pattern then begin
    (* The oldest context: the last one holding the commit iteration. *)
    let i = ref (Array.length t.ctxs - 1) in
    while !i >= 0
          && not (t.ctxs.(!i).iter = t.commit_iter && t.ctxs.(!i).st <> Idle)
    do decr i done;
    if !i >= 0 then begin
      let c = t.ctxs.(!i) in
      match c.st with
      | Wait_commit ->
        if Lsq.n_stores c.lsq = 0 then begin
          commit_iteration t c;
          try_commits t
        end else if c.drain_q = [] then begin
          c.drain_q <- Lsq.drain_order c.lsq;
          c.st <- Drain_commit
        end
      | Run when Lsq.n_stores c.lsq > 0 && c.drain_q = [] ->
        (* Promoted while still running: drain before continuing. *)
        c.drain_q <- Lsq.drain_order c.lsq
      | Run | Idle | Drain_commit -> ()
    end
  end

(* -- Issue ----------------------------------------------------------- *)

(** Can the iteration finish now?  Every CIR chain must be forwardable: if
    the lane executed the last-CIR-write instruction the outgoing value
    already exists; if that instruction was skipped, the lane copies the
    CIR value through — but if it never consumed the incoming value it
    must first wait for the previous iteration to produce it (the copy
    forwards the {e chain} value, not the lane's stale register). *)
let cir_finish_ready t (c : ctx) =
  let ready = ref true and i = ref 0 in
  while !ready && !i < Array.length t.cibs do
    let cb = t.cibs.(!i) in
    (* Forwarded already by the last-write instruction, or consumed. *)
    if cib_find cb (c.iter + 1) < 0 && not c.got_cir.(cb.slot) then begin
      let j = cib_find cb c.iter in
      if j < 0 || cb.h_ready.(j) > t.cycle then ready := false
    end;
    incr i
  done;
  !ready

let end_of_iteration t (c : ctx) =
  (* The implicit xloop at the end of the iteration. *)
  c.insns_iter <- c.insns_iter + 1;
  t.stats.ib_fetches <- t.stats.ib_fetches + 1;
  if t.info.pat.cp = Insn.De then
    c.exit_flag <- c.hart.regs.(t.info.r_bound);
  (* End-of-iteration CIR copy for chains whose last-write instruction
     was skipped by control flow. *)
  if t.has_cirs then
  for i = 0 to Array.length t.cibs - 1 do
    let cb = t.cibs.(i) in
    if cib_find cb (c.iter + 1) < 0 then begin
      let value =
        if c.got_cir.(cb.slot) then c.hart.regs.(cb.cir.c_reg)
        else begin
          let j = cib_find cb c.iter in
          assert (j >= 0);  (* guarded by cir_finish_ready *)
          cb.h_val.(j)
        end
      in
      cib_write t cb ~producer_iter:c.iter ~value
    end
  done;
  if t.spec_pattern && c.iter > t.commit_iter then
    c.st <- Wait_commit
  else if t.spec_pattern && Lsq.n_stores c.lsq > 0 then begin
    c.drain_q <- Lsq.drain_order c.lsq;
    c.st <- Drain_commit
  end else
    commit_iteration t c

(* What one issue slot of a context did this cycle: [`Issued] useful
   work, or the stall that blocked it.  Immediate values only, so the
   per-cycle loop allocates nothing. *)
type outcome = [ `Issued | stall ]

let go (c : ctx) iface latency =
  c.step_if <- iface;
  c.step_lat <- latency;
  `Go

(** Claim the resources the instruction at [pc] needs this cycle (LLFU,
    memory port, LSQ entries), before any side effects.  On [`Go] the
    context's [step_if] and [step_lat] say which memory interface the
    step uses and when its result is ready. *)
let reserve t (c : ctx) pc ~speculative : [ `Go | stall ] =
  let now = t.cycle in
  match t.pre.uops.(pc) with
  | Program.U_load (_, _, rs, imm, bytes) ->
    let addr = c.hart.regs.(rs) + imm in
    if speculative then begin
      if Lsq.loads_full c.lsq then `Lsq
      else if Lsq.store_overlaps c.lsq ~addr ~bytes then begin
        (* Own-lane store-to-load forwarding: no port needed. *)
        t.stats.lsq_searches <- t.stats.lsq_searches + 1;
        go c c.spec_if 1
      end
      else if inter_lane_forward t c ~addr ~bytes then go c c.fwd_if 1
      else if Port.try_grant t.mem_port ~now then begin
        t.stats.lsq_searches <- t.stats.lsq_searches + 1;
        go c c.spec_if
          (dcache_latency t c ~addr ~base_latency:t.lat.load_use)
      end else `Mem
    end else if Port.try_grant t.mem_port ~now then
      go c t.direct_if (dcache_latency t c ~addr ~base_latency:t.lat.load_use)
    else `Mem
  | U_store (_, _, rs, imm, _) ->
    if speculative then begin
      if Lsq.stores_full c.lsq then `Lsq else go c c.spec_if 1
    end else if Port.try_grant t.mem_port ~now then
      go c t.direct_if
        (dcache_latency t c ~addr:(c.hart.regs.(rs) + imm) ~base_latency:1)
    else `Mem
  | U_amo (_, _, rs, _) ->
    let addr = c.hart.regs.(rs) in
    if speculative then begin
      if Lsq.loads_full c.lsq || Lsq.stores_full c.lsq then `Lsq
      else go c c.spec_if t.lat.amo
    end else if Port.try_grant ~occupancy:2 t.mem_port ~now then
      go c t.direct_if (dcache_latency t c ~addr ~base_latency:t.lat.amo)
    else `Mem
  | _ ->
    (match t.tm.lat.(pc) with
     | Lat_alu -> go c t.direct_if 1  (* non-memory: the interface is unused *)
     | (Lat_mul | Lat_div | Lat_fpu) as l ->
       (* The divider is unpipelined: it holds the LLFU port. *)
       let occupancy = if l = Lat_div then t.div_occupancy else None in
       if Port.try_grant ?occupancy t.llfu_port ~now then
         go c t.direct_if (Gpp_timing.class_latency t.lat l)
       else `Llfu)

(** Attempt to issue one instruction from [c] at the current cycle. *)
let attempt_issue t (c : ctx) : outcome =
  let now = t.cycle in
  let pc = c.hart.pc in
  if now < c.next_issue then `Raw
  else if pc = t.info.xloop_pc then begin
    if t.has_cirs && not (cir_finish_ready t c) then `Cir
    else begin
      end_of_iteration t c; `Issued
    end
  end else begin
    if pc < t.info.body_start || pc > t.info.xloop_pc then
      raise (Lane_trap
               (Printf.sprintf "lane pc %d escaped xloop body [%d,%d]"
                  pc t.info.body_start t.info.xloop_pc));
    let tm = t.tm in
    let s1 = tm.src1.(pc) and s2 = tm.src2.(pc) in
    let speculative = t.spec_pattern && c.iter > t.commit_iter in
    match
      (if t.fast_ok && not speculative then t.lane_fast.(pc)
       else Lane_op.L_slow)
    with
    | Lane_op.L_plain op ->
      (* Fast path: a plain single-cycle instruction on a
         non-speculative context with no observer attached.  The
         compiled closure replays exactly [Exec.step]'s architectural
         effects on the hart's register file, and every lane-level
         effect — issue accounting, RAW scoreboard, taken-branch
         bubble — is recovered from the timing table and the outgoing
         pc. *)
      let ready =
        imax (if s1 >= 0 then c.reg_ready.(s1) else 0)
          (if s2 >= 0 then c.reg_ready.(s2) else 0)
      in
      if ready > now then `Raw
      else begin
        let npc = op c.hart.regs in
        c.hart.pc <- npc;
        c.insns_iter <- c.insns_iter + 1;
        t.stats.ib_fetches <- t.stats.ib_fetches + 1;
        Stats.count_decode t.stats tm pc;
        let rd = tm.dst.(pc) in
        if rd >= 0 then c.reg_ready.(rd) <- now + 1;
        (match tm.branch.(pc) with
         | Br_other -> c.next_issue <- now + 2
         | Br_cond -> if npc <> pc + 1 then c.next_issue <- now + 2
         | Br_none -> ());
        `Issued
      end
    | Lane_op.L_slow ->
    (* CIR consumption: the first read of each CIR waits on the CIB. *)
    let cir_stall = ref false in
    if t.has_cirs then begin
      let i = ref 0 in
      while not !cir_stall && !i < Array.length t.cibs do
        let cb = t.cibs.(!i) in
        let r = cb.cir.c_reg in
        if (not c.got_cir.(cb.slot)) && (s1 = r || s2 = r) then begin
          let j = cib_find cb c.iter in
          if j >= 0 && cb.h_ready.(j) <= now then begin
            Exec.set_int c.hart r cb.h_val.(j);
            c.reg_ready.(r) <- now;
            c.got_cir.(cb.slot) <- true;
            t.stats.cib_reads <- t.stats.cib_reads + 1
          end else cir_stall := true
        end;
        incr i
      done
    end;
    if !cir_stall then `Cir
    else begin
      let ready =
        imax (if s1 >= 0 then c.reg_ready.(s1) else 0)
          (if s2 >= 0 then c.reg_ready.(s2) else 0) in
      if ready > now then `Raw
      else
        match reserve t c pc ~speculative with
        | #stall as e -> e
        | `Go ->
          Exec.step t.pre c.hart c.step_if t.ev;
          let ev = t.ev in
          if Trace.enabled t.trace Insns then
            Trace.event t.trace Insns "[%7d] lane%d.%d it=%-4d %4d: %a"
              t.cycle c.lane c.tid c.iter ev.pc Insn.pp_resolved
              (Exec.event_insn ev);
          c.insns_iter <- c.insns_iter + 1;
          t.stats.ib_fetches <- t.stats.ib_fetches + 1;
          Stats.count_decode t.stats tm pc;
          let rd = tm.dst.(pc) in
          if rd >= 0 then c.reg_ready.(rd) <- now + c.step_lat;
          (* Taken branches inside the body cost one fetch bubble. *)
          if ev.taken then c.next_issue <- now + 2;
          (* Non-speculative stores are broadcast for violation checks
             (only speculative patterns have anyone to check); the
             just-written memory bytes stand in for the store data. *)
          if ev.mem_is_store && t.spec_pattern && not speculative then begin
            let raw = ref 0 in
            for i = ev.mem_bytes - 1 downto 0 do
              raw := (!raw lsl 8) lor Memory.get_u8 t.mem (ev.mem_addr + i)
            done;
            broadcast_store t ~from_iter:c.iter
              ~store:{ Lsq.s_addr = ev.mem_addr; s_bytes = ev.mem_bytes;
                       s_value = Int32.of_int !raw }
          end;
          (* Dynamic bound: report writes to the bound register. *)
          if t.info.pat.cp = Insn.Dyn && rd = t.info.r_bound then begin
            let v = c.hart.regs.(rd) in
            if v > t.bound then begin
              if Trace.enabled t.trace Lanes then
                Trace.event t.trace Lanes
                  "[%7d] lmu bound raised %d -> %d (lane%d iter=%d)"
                  t.cycle t.bound v c.lane c.iter;
              t.bound <- v
            end
          end;
          (* Last-CIR-write forwarding; a local write also supersedes the
             incoming chain value (a write-before-read iteration must not
             have its value clobbered by a later consumption). *)
          if t.has_cirs then
            for i = 0 to Array.length t.cibs - 1 do
              let cb = t.cibs.(i) in
              if rd = cb.cir.c_reg then c.got_cir.(cb.slot) <- true;
              if cb.cir.c_last_write_pc = pc then
                cib_write t cb ~producer_iter:c.iter
                  ~value:c.hart.regs.(cb.cir.c_reg)
            done;
          `Issued
    end
  end

(** Drain one buffered store to memory through the shared port. *)
let attempt_drain t (c : ctx) : outcome =
  match c.drain_q with
  | [] -> assert false
  | s :: rest ->
    if Port.try_grant t.mem_port ~now:t.cycle then begin
      Lsq.apply_store t.mem s;
      ignore (dcache_latency t c ~addr:s.Lsq.s_addr ~base_latency:1);
      broadcast_store t ~from_iter:c.iter ~store:s;
      c.drain_q <- rest;
      if rest = [] then begin
        Lsq.clear c.lsq;
        if c.st = Drain_commit then commit_iteration t c
        (* A running promoted context just continues non-speculatively. *)
      end;
      `Issued
    end else `Mem

(* -- Fault injection --------------------------------------------------- *)

(** First context at or after [lane] (wrapping) satisfying [pred] — fault
    events name a lane, but the structure they target may live elsewhere
    this cycle. *)
let pick_ctx t lane pred =
  let n = Array.length t.ctxs in
  let rec go i =
    if i = n then None
    else
      let c = t.ctxs.((lane + i) mod n) in
      if pred c then Some c else go (i + 1)
  in
  go 0

let active c = c.st = Run || c.st = Wait_commit

(** Apply one fault event.  Returns [true] if a target existed; an event
    with no applicable target is deferred and retried later. *)
let apply_fault t (e : Fault.event) =
  match e.ev_kind with
  | Cib_drop ->
    (* Lose the newest entry, unless it is the only one. *)
    Array.length t.cibs > 0
    && (let cb = t.cibs.(e.ev_lane mod Array.length t.cibs) in
        cb.len >= 2
        && (cb.len <- cb.len - 1;
            cib_retain cb ~lo:min_int ~hi:max_int;  (* recomputes [hi] *)
            true))
  | Cib_dup ->
    (* Replay the newest entry as the next iteration's value. *)
    Array.length t.cibs > 0
    && (let cb = t.cibs.(e.ev_lane mod Array.length t.cibs) in
        cb.len >= 1
        && (let n = cb.len - 1 in
            let i = cb.h_iter.(n) in
            cib_find cb (i + 1) < 0
            && (cib_push cb ~iter:(i + 1) ~value:cb.h_val.(n)
                  ~ready:cb.h_ready.(n);
                true)))
  | Lsq_drop_load ->
    (match pick_ctx t e.ev_lane (fun c -> active c && not (Lsq.is_empty c.lsq))
     with
     | Some c -> Lsq.drop_newest_load c.lsq
     | None -> false)
  | Lsq_lost_broadcast ->
    t.spec_pattern
    && (t.drop_broadcasts <- t.drop_broadcasts + 1; true)
  | Idq_corrupt ->
    (match pick_ctx t e.ev_lane (fun c -> c.st = Run) with
     | Some c ->
       (* A bit-flip in the dispensed index: the iteration computes with
          a wrong induction value (the LMU's own count is unaffected, so
          the loop still terminates — the damage is purely data). *)
       Exec.set c.hart t.info.r_idx
         (Int32.logxor (Exec.get c.hart t.info.r_idx) 0x40l);
       true
     | None -> false)
  | Mivt_stale ->
    Array.length t.miv_regs > 0
    && (match pick_ctx t e.ev_lane (fun c -> c.st = Run) with
        | Some c -> Exec.set_int c.hart t.miv_regs.(0) t.miv_base.(0); true
        | None -> false)
  | Port_stall ->
    Port.inject_stall t.mem_port ~now:t.cycle
      ~cycles:(32 + 16 * (e.ev_lane land 3));
    true
  | Lane_freeze ->
    (match pick_ctx t e.ev_lane
             (fun c -> c.st <> Idle && c.frozen_until < max_int) with
     | Some c -> c.frozen_until <- max_int; true
     | None -> false)

(* -- Main loop -------------------------------------------------------- *)

let account_lane_cycle t issued (reason : stall) =
  let s = t.stats in
  if issued then s.cyc_exec <- s.cyc_exec + 1
  else match reason with
    | `Raw -> s.cyc_stall_raw <- s.cyc_stall_raw + 1
    | `Mem -> s.cyc_stall_mem <- s.cyc_stall_mem + 1
    | `Llfu -> s.cyc_stall_llfu <- s.cyc_stall_llfu + 1
    | `Cir -> s.cyc_stall_cir <- s.cyc_stall_cir + 1
    | `Lsq -> s.cyc_stall_lsq <- s.cyc_stall_lsq + 1
    | `Idle | `Frozen -> s.cyc_idle <- s.cyc_idle + 1

let all_idle t =
  let i = ref 0 in
  while !i < Array.length t.ctxs && t.ctxs.(!i).st = Idle do incr i done;
  !i = Array.length t.ctxs

(** Merge stall priorities: report the most informative reason seen. *)
let worse (a : stall) (b : stall) =
  let rank = function
    | `Idle -> 0 | `Raw -> 1 | `Mem -> 2 | `Llfu -> 3 | `Lsq -> 4
    | `Cir -> 5 | `Frozen -> 6 in
  if rank b > rank a then b else a

(** Name the resource the LPSU is blocked on, from the per-lane stall
    reasons of the last simulated cycle — the watchdog's diagnosis. *)
let classify_hang t : Fault.hang =
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0
      t.lane_reason in
  let frozen_lanes =
    Array.fold_left (fun n c -> if frozen t c then n + 1 else n) 0 t.ctxs in
  let resource, detail =
    if frozen_lanes > 0 then
      Fault.Lane_frozen,
      Printf.sprintf "%d lane(s) frozen; commit point pinned at iter %d"
        frozen_lanes t.commit_iter
    else if count (fun r -> r = `Cir) > 0 then
      Fault.Cib_chain,
      Printf.sprintf "%d lane(s) waiting on a CIB value for iter >= %d"
        (count (fun r -> r = `Cir)) t.commit_iter
    else if count (fun r -> r = `Lsq) > 0 then
      Fault.Lsq_full,
      Printf.sprintf "%d lane(s) LSQ-bound; oldest uncommitted iter %d"
        (count (fun r -> r = `Lsq)) t.commit_iter
    else if count (fun r -> r = `Mem) > 0 then
      Fault.Port_starved,
      Printf.sprintf "%d lane(s) denied the shared memory port"
        (count (fun r -> r = `Mem))
    else
      Fault.No_progress,
      Printf.sprintf "no commit or dispatch for %d cycles"
        (t.cycle - t.last_progress)
  in
  { h_resource = resource; h_cycle = t.cycle; h_committed = t.committed;
    h_detail = detail }

let run_to_completion t ~fuel : (unit, Fault.hang) Stdlib.result =
  let lanes = t.lpsu.lanes in
  let threads = Array.length t.ctxs / lanes in
  let start = t.cycle in
  let rotate = ref 0 in   (* the lane that issues first, < [lanes] *)
  let failure = ref None in
  while !failure = None && not (all_idle t && not (can_dispense t)) do
    if t.cycle - start > fuel then
      failure := Some { Fault.h_resource = Fault.Fuel; h_cycle = t.cycle;
                        h_committed = t.committed;
                        h_detail =
                          Printf.sprintf "cycle budget %d exhausted" fuel }
    else if t.watchdog > 0 && t.cycle - t.last_progress > t.watchdog then begin
      t.stats.watchdog_hangs <- t.stats.watchdog_hangs + 1;
      failure := Some (classify_hang t)
    end else begin
    (match t.faults with
     | None -> ()
     | Some plan ->
       List.iter
         (fun (e : Fault.event) ->
            if apply_fault t e then begin
              Fault.record plan e.ev_kind ~cycle:t.cycle;
              t.stats.faults_injected <- t.stats.faults_injected + 1;
              if Trace.enabled t.trace Lanes then
                Trace.event t.trace Lanes
                  "[%7d] FAULT inject %a (lane %d)" t.cycle Fault.pp_kind
                  e.ev_kind e.ev_lane
            end else Fault.defer plan e)
         (Fault.due plan ~rel:(t.cycle - start)));
    (* LMU: dispense iteration indices to idle contexts, in lane order.
       Frozen contexts take no new work. *)
    for i = 0 to Array.length t.ctxs - 1 do
      let c = t.ctxs.(i) in
      if c.st = Idle && not (frozen t c) && can_dispense t then dispatch t c
    done;
    try_commits t;
    (* Each lane owns [lane_issue_width] issue slots per cycle (1 in the
       paper's simple lanes; 2 models the "superscalar lane" future
       work).  Vertical multithreading lets the second context use a
       slot when the first stalls; a context that stalls is not retried
       within the cycle. *)
    for li = 0 to lanes - 1 do
      let lane = if li + !rotate < lanes then li + !rotate
        else li + !rotate - lanes in
      let budget = ref t.lpsu.lane_issue_width in
      let issued = ref false in
      let reason = ref (`Idle : stall) in
      for ti = 0 to threads - 1 do
        let c = t.ctxs.(lane * threads + ti) in
        let stalled = ref false in
        while !budget > 0 && not !stalled do
          let r : outcome =
            if frozen t c && c.st <> Idle then `Frozen
            else match c.st with
            | Idle -> `Idle
            | Wait_commit -> `Lsq
            | Drain_commit -> attempt_drain t c
            | Run ->
              if c.drain_q <> [] then attempt_drain t c
              else if t.spec_pattern && c.iter <= t.commit_iter
                   && Lsq.n_stores c.lsq > 0 then begin
                (* Promoted since its last issue (possibly mid-cycle):
                   buffered state must reach memory before the lane may
                   touch memory directly. *)
                c.drain_q <- Lsq.drain_order c.lsq;
                attempt_drain t c
              end
              else attempt_issue t c
          in
          match r with
          | `Issued ->
            issued := true;
            decr budget
          | #stall as e ->
            stalled := true;
            reason := worse !reason e
        done
      done;
      t.lane_reason.(lane) <- (if !issued then `Idle else !reason);
      account_lane_cycle t !issued !reason
    done;
    try_commits t;
    rotate := (if !rotate + 1 = lanes then 0 else !rotate + 1);
    t.cycle <- t.cycle + 1
    end
  done;
  match !failure with None -> Ok () | Some h -> Error h

let finals t =
  let k = t.committed in
  let cir_finals =
    Array.to_list t.cibs
    |> List.map (fun cb ->
        let j = cib_find cb k in
        (* [j < 0] only for a loop with zero LPSU iterations. *)
        let v = if j >= 0 then cb.h_val.(j) else t.base_regs.(cb.cir.c_reg) in
        (cb.cir.c_reg, Int32.of_int v))
  in
  let miv_finals =
    List.init (Array.length t.miv_regs) (fun i ->
        (t.miv_regs.(i),
         Int32.of_int (norm (t.miv_base.(i) + k * t.miv_inc.(i)))))
  in
  (cir_finals, miv_finals)

(** Run specialized execution.  [stop_after] bounds the number of
    iterations dispatched (used by the adaptive profiling phase); in-flight
    iterations always drain before returning.

    Hangs (watchdog trips and fuel exhaustion) come back as [Error] so the
    machine can roll back and degrade to traditional execution instead of
    crashing.  When a fault plan is active, architectural traps raised by a
    corrupted lane are converted to hangs too — an injected fault must never
    escape as an exception. *)
let run ~prog ~mem ~dcache ~cfg ~stats ~info ~regs ~start_cycle ?stop_after
    ?trace ?faults ?(watchdog = 0) ?(fuel = 500_000_000) ()
  : (result, Fault.hang) Stdlib.result =
  let t = create ~prog ~mem ~dcache ~cfg ~stats ~info ~regs ~start_cycle
      ?stop_after ?trace ?faults ~watchdog () in
  stats.xloops_specialized <- stats.xloops_specialized + 1;
  if Trace.enabled trace Decisions then
    Trace.event trace Decisions
      "[%7d] lpsu start: xloop.%a body=%d idx0=%d bound=%d mivs=%d cirs=%d"
      start_cycle Insn.pp_xpat_suffix info.Scan.pat info.body_len t.idx0
      t.bound (List.length info.mivs) (List.length info.cirs);
  let outcome =
    if faults = None then run_to_completion t ~fuel
    else
      (* A corrupted index or MIV can push a lane off the address map or
         the program; report it as a hang of kind [Trapped]. *)
      match run_to_completion t ~fuel with
      | r -> r
      | exception (Exec.Trap msg | Lane_trap msg) ->
        Error { Fault.h_resource = Fault.Trapped; h_cycle = t.cycle;
                h_committed = t.committed; h_detail = msg }
      | exception Xloops_mem.Memory.Bad_access { addr; what } ->
        Error { Fault.h_resource = Fault.Trapped; h_cycle = t.cycle;
                h_committed = t.committed;
                h_detail = Printf.sprintf "%s at 0x%x" what addr }
  in
  match outcome with
  | Error h ->
    if Trace.enabled trace Decisions then
      Trace.event trace Decisions "[%7d] lpsu HANG: %a" t.cycle
        Fault.pp_hang h;
    Error h
  | Ok () ->
    let cir_finals, miv_finals = finals t in
    let next_idx = idx_of t t.committed in
    if Trace.enabled trace Decisions then
      Trace.event trace Decisions
        "[%7d] lpsu done: %d iterations in %d cycles, %d violations"
        t.cycle t.committed (t.cycle - start_cycle) t.stats.violations;
    Ok { cycles = t.cycle - start_cycle;
         iterations = t.committed;
         finished =
           (match t.info.pat.cp with
            | Insn.De -> t.exit_at <> None
            | Fixed | Dyn -> next_idx >= t.bound);
         next_idx = Int32.of_int next_idx;
         bound = Int32.of_int t.bound;
         cir_finals;
         miv_finals }
