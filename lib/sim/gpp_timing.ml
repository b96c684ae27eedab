(** GPP timing models.

    Both models consume the committed-instruction event stream produced by
    {!Exec.step} and maintain a cycle estimate:

    - {b In-order}: a single-issue scoreboard.  An instruction issues when
      the previous instruction has issued, its source operands are ready
      and any unpipelined unit (divider) is free; taken branches insert
      [branch_penalty] bubbles; loads have a load-use latency plus the L1
      miss penalty.

    - {b Out-of-order}: the classic windowed-dataflow model.  Dispatch is
      bounded by issue width and reorder-window occupancy; an instruction
      issues when its operands are ready; loads wait for earlier stores to
      the same word; AMOs and fences serialize memory; branch mispredicts
      (bimodal predictor) redirect dispatch to the branch's completion plus
      the refill penalty.

    This is the same modelling altitude as the paper's gem5 configurations:
    cycle-approximate, honest about where ILP comes from. *)

open Xloops_isa
module Cache = Xloops_mem.Cache
module Program = Xloops_asm.Program

type latencies = {
  alu : int; mul : int; div : int; fpu : int; load_use : int; amo : int;
}

let latencies_of (g : Config.gpp) = {
  alu = 1;
  mul = g.mul_latency;
  div = g.div_latency;
  fpu = g.fpu_latency;
  load_use = g.load_use_latency;
  amo = g.load_use_latency + 1;
}

let class_latency lat (c : Program.lat_class) =
  match c with
  | Lat_alu -> lat.alu
  | Lat_mul -> lat.mul
  | Lat_div -> lat.div
  | Lat_fpu -> lat.fpu

(* [Stdlib.max] is polymorphic: without flambda every call goes through
   the C comparison primitive.  The models compare only ints. *)
let[@inline] imax (a : int) b = if a >= b then a else b

(* The models read per-instruction facts from the per-pc timing table of
   the program the event stream comes from.  The table is fetched from
   the (memoized) predecode when the stream's program changes — once per
   run — and the check per event is a pointer comparison. *)
let no_program = Program.predecode_fresh { Program.insns = [||]; symbols = [] }

(* ------------------------------------------------------------------ *)
(*  In-order                                                           *)
(* ------------------------------------------------------------------ *)

module Inorder = struct
  type t = {
    cfg : Config.gpp;
    lat : latencies;
    stats : Stats.t;
    l1i : Cache.t;
    l1d : Cache.t;
    reg_ready : int array;
    mutable pre : Program.predecoded;   (* program of the event stream *)
    mutable last_issue : int;
    mutable last_complete : int;
    mutable div_busy_until : int;
  }

  let create (cfg : Config.gpp) (stats : Stats.t) = {
    cfg; lat = latencies_of cfg; stats;
    l1i = Cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
        ~line_bytes:cfg.l1_line ();
    l1d = Cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
        ~line_bytes:cfg.l1_line ();
    reg_ready = Array.make Reg.num_regs 0;
    pre = no_program;
    last_issue = 0; last_complete = 0; div_busy_until = 0;
  }

  let consume t (ev : Exec.event) =
    let s = t.stats in
    if ev.prog != t.pre.source then t.pre <- Program.predecode ev.prog;
    let tm = t.pre.timing and pc = ev.pc in
    s.committed_insns <- s.committed_insns + 1;
    s.icache_fetches <- s.icache_fetches + 1;
    Stats.count_decode s tm pc;
    (* Fetch. *)
    let fetch_extra =
      if Cache.access t.l1i (pc * 4) then 0
      else begin
        s.icache_misses <- s.icache_misses + 1;
        t.cfg.miss_penalty
      end
    in
    (* Operand readiness. *)
    let ready =
      let s1 = tm.src1.(pc) and s2 = tm.src2.(pc) in
      imax (if s1 >= 0 then t.reg_ready.(s1) else 0)
        (if s2 >= 0 then t.reg_ready.(s2) else 0)
    in
    let lat = tm.lat.(pc) in
    let divider = lat = Program.Lat_div in
    let struct_ready = if divider then t.div_busy_until else 0 in
    let issue =
      imax (t.last_issue + 1 + fetch_extra) (imax ready struct_ready)
    in
    (* Completion. *)
    let miss_stall = ref 0 in
    let complete =
      if ev.mem_addr >= 0 then begin
        s.dcache_accesses <- s.dcache_accesses + 1;
        let hit = Cache.access t.l1d ev.mem_addr in
        if not hit then begin
          s.dcache_misses <- s.dcache_misses + 1;
          (* A simple in-order core blocks on an L1 miss regardless of
             whether anything consumes the value. *)
          miss_stall := t.cfg.miss_penalty
        end;
        let base = if ev.mem_is_amo then t.lat.amo
          else if ev.mem_is_store then 1
          else t.lat.load_use in
        issue + base + !miss_stall
      end else
        issue + class_latency t.lat lat
    in
    if divider then t.div_busy_until <- complete;
    let rd = tm.dst.(pc) in
    if rd >= 0 then t.reg_ready.(rd) <- complete;
    (* Control flow: taken branches insert fetch bubbles. *)
    t.last_issue <-
      issue + !miss_stall
      + (if ev.taken then t.cfg.branch_penalty else 0);
    t.last_complete <- imax t.last_complete complete

  let now t = imax t.last_issue t.last_complete

  (** Drain the pipeline (used before a specialized phase / at halt). *)
  let barrier t =
    let c = now t in
    t.last_issue <- c;
    t.last_complete <- c

  (** Jump the clock forward (used after a specialized phase). *)
  let skip_to t cycle =
    let c = imax cycle (now t) in
    t.last_issue <- c;
    t.last_complete <- c;
    Array.fill t.reg_ready 0 (Array.length t.reg_ready) c
end

(* ------------------------------------------------------------------ *)
(*  Out-of-order                                                       *)
(* ------------------------------------------------------------------ *)

(* Completion time of the youngest store to each word, for store-to-load
   ordering: an exact int -> int map (absent keys read 0).  Open
   addressing with linear probing in flat arrays of power-of-two size,
   doubled at half load; a slot is live only when its stamp equals the
   current generation, so [reset] is O(1).  Nothing allocates in steady
   state. *)
module Store_map = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable stamp : int array;
    mutable gen : int;
    mutable count : int;
  }

  let create n =
    { keys = Array.make n 0; vals = Array.make n 0; stamp = Array.make n 0;
      gen = 1; count = 0 }

  let[@inline] home t k =
    let h = k * 0x9E3779B1 in
    (h lxor (h lsr 16)) land (Array.length t.keys - 1)

  (* Slot holding [k], or the free slot where it belongs. *)
  let slot t k =
    let mask = Array.length t.keys - 1 in
    let i = ref (home t k) in
    while t.stamp.(!i) = t.gen && t.keys.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i

  let find t k =
    let i = slot t k in
    if t.stamp.(i) = t.gen then t.vals.(i) else 0

  let rec replace t k v =
    let i = slot t k in
    if t.stamp.(i) = t.gen then t.vals.(i) <- v
    else if 2 * (t.count + 1) > Array.length t.keys then begin
      grow t;
      replace t k v
    end else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.stamp.(i) <- t.gen;
      t.count <- t.count + 1
    end

  and grow t =
    let keys = t.keys and vals = t.vals and stamp = t.stamp and gen = t.gen in
    let n = 2 * Array.length keys in
    t.keys <- Array.make n 0;
    t.vals <- Array.make n 0;
    t.stamp <- Array.make n 0;
    t.gen <- 1;
    t.count <- 0;
    Array.iteri (fun i k -> if stamp.(i) = gen then replace t k vals.(i)) keys

  let reset t =
    t.gen <- t.gen + 1;
    t.count <- 0
end

module Ooo = struct
  type t = {
    cfg : Config.gpp;
    width : int;
    window : int;
    lat : latencies;
    stats : Stats.t;
    l1i : Cache.t;
    l1d : Cache.t;
    bp : Branch_pred.t;
    reg_ready : int array;
    ring : int array;              (* completion times, window ring *)
    mutable head : int;            (* ring slot of the next instruction *)
    mutable pre : Program.predecoded;   (* program of the event stream *)
    mutable dispatch_cycle : int;
    mutable dispatched_in_cycle : int;
    mutable redirect : int;        (* front end stalled until this cycle *)
    mutable mem_serial : int;      (* AMO/fence serialization point *)
    store_ready : Store_map.t;     (* word addr -> completion *)
    mutable max_complete : int;
  }

  let create (cfg : Config.gpp) (stats : Stats.t) =
    let width, window =
      match cfg.kind with
      | Config.Ooo { width; window } -> width, window
      | Config.Inorder -> invalid_arg "Gpp_timing.Ooo.create: in-order config"
    in
    { cfg; width; window; lat = latencies_of cfg; stats;
      l1i = Cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
          ~line_bytes:cfg.l1_line ();
      l1d = Cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
          ~line_bytes:cfg.l1_line ();
      bp = Branch_pred.create ();
      reg_ready = Array.make Reg.num_regs 0;
      ring = Array.make window 0;
      head = 0; pre = no_program;
      dispatch_cycle = 0; dispatched_in_cycle = 0;
      redirect = 0; mem_serial = 0;
      store_ready = Store_map.create 64;
      max_complete = 0 }

  let consume t (ev : Exec.event) =
    let s = t.stats in
    if ev.prog != t.pre.source then t.pre <- Program.predecode ev.prog;
    let tm = t.pre.timing and pc = ev.pc in
    s.committed_insns <- s.committed_insns + 1;
    s.icache_fetches <- s.icache_fetches + 1;
    s.renames <- s.renames + 1;
    s.rob_ops <- s.rob_ops + 1;
    s.iq_ops <- s.iq_ops + 1;
    Stats.count_decode s tm pc;
    (* Fetch-side cache (fetch groups share lines; charge misses only). *)
    if not (Cache.access t.l1i (pc * 4)) then begin
      s.icache_misses <- s.icache_misses + 1;
      t.redirect <- imax t.redirect (t.dispatch_cycle + t.cfg.miss_penalty)
    end;
    (* Dispatch: width, window, and redirect constraints. *)
    let window_ready = t.ring.(t.head) in
    let d = imax (imax t.dispatch_cycle t.redirect) window_ready in
    if d > t.dispatch_cycle then begin
      t.dispatch_cycle <- d;
      t.dispatched_in_cycle <- 0
    end;
    if t.dispatched_in_cycle >= t.width then begin
      t.dispatch_cycle <- t.dispatch_cycle + 1;
      t.dispatched_in_cycle <- 0
    end;
    let dispatch = t.dispatch_cycle in
    t.dispatched_in_cycle <- t.dispatched_in_cycle + 1;
    (* Operand readiness. *)
    let ready =
      let s1 = tm.src1.(pc) and s2 = tm.src2.(pc) in
      imax dispatch
        (imax (if s1 >= 0 then t.reg_ready.(s1) else 0)
           (if s2 >= 0 then t.reg_ready.(s2) else 0))
    in
    let issue = imax ready t.mem_serial in
    (* Completion. *)
    let complete =
      if ev.mem_addr >= 0 then begin
        s.dcache_accesses <- s.dcache_accesses + 1;
        let hit = Cache.access t.l1d ev.mem_addr in
        if not hit then s.dcache_misses <- s.dcache_misses + 1;
        let miss = if hit then 0 else t.cfg.miss_penalty in
        let word = ev.mem_addr / 4 in
        if ev.mem_is_amo then begin
          (* Conservative AMO: waits for all earlier memory traffic and
             serializes later traffic (Section IV-B's "rather
             conservative" implementation). *)
          let c = imax issue t.mem_serial + t.lat.amo + miss in
          t.mem_serial <- c;
          Store_map.replace t.store_ready word c;
          c
        end else if ev.mem_is_store then begin
          let c = issue + 1 + miss in
          Store_map.replace t.store_ready word c;
          c
        end else
          (* Load: wait for the youngest earlier store to the same word
             (store-to-load forwarding at its completion). *)
          imax issue (Store_map.find t.store_ready word)
          + t.lat.load_use + miss
      end else if tm.sync.(pc) then begin
        let c = imax issue t.mem_serial in
        t.mem_serial <- c;
        c
      end else issue + class_latency t.lat tm.lat.(pc)
    in
    let rd = tm.dst.(pc) in
    if rd >= 0 then t.reg_ready.(rd) <- complete;
    (* Branch prediction: only conditional branches and xloops consult
       the predictor; the return-address stack is assumed perfect and
       direct jumps never mispredict. *)
    (match tm.branch.(pc) with
     | Br_cond ->
       if not (Branch_pred.predict_update t.bp ~pc ~taken:ev.taken) then begin
         s.mispredicts <- s.mispredicts + 1;
         t.redirect <- imax t.redirect (complete + t.cfg.branch_penalty)
       end
     | Br_none | Br_other -> ());
    t.ring.(t.head) <- complete;
    t.head <- (if t.head + 1 = t.window then 0 else t.head + 1);
    t.max_complete <- imax t.max_complete complete

  let now t = imax t.dispatch_cycle t.max_complete

  let barrier t =
    let c = now t in
    t.dispatch_cycle <- c;
    t.dispatched_in_cycle <- 0;
    t.redirect <- imax t.redirect c;
    t.mem_serial <- imax t.mem_serial c

  let skip_to t cycle =
    let c = imax cycle (now t) in
    t.dispatch_cycle <- c;
    t.dispatched_in_cycle <- 0;
    t.redirect <- c;
    t.mem_serial <- c;
    t.max_complete <- c;
    Array.fill t.reg_ready 0 (Array.length t.reg_ready) c;
    Array.fill t.ring 0 (Array.length t.ring) c;
    Store_map.reset t.store_ready
end

(* ------------------------------------------------------------------ *)
(*  Uniform front door                                                 *)
(* ------------------------------------------------------------------ *)

type t =
  | In_order of Inorder.t
  | Out_of_order of Ooo.t

let create (cfg : Config.gpp) (stats : Stats.t) =
  match cfg.kind with
  | Config.Inorder -> In_order (Inorder.create cfg stats)
  | Config.Ooo _ -> Out_of_order (Ooo.create cfg stats)

(* Every argument is taken before dispatching: [let f = function
   In_order m -> Inorder.f m | ...] would return a fresh partial
   application on each call. *)

let consume t ev =
  match t with
  | In_order m -> Inorder.consume m ev
  | Out_of_order m -> Ooo.consume m ev

let now = function
  | In_order m -> Inorder.now m
  | Out_of_order m -> Ooo.now m

let barrier = function
  | In_order m -> Inorder.barrier m
  | Out_of_order m -> Ooo.barrier m

let skip_to t cycle =
  match t with
  | In_order m -> Inorder.skip_to m cycle
  | Out_of_order m -> Ooo.skip_to m cycle

(** The GPP's L1 data cache — shared with the LPSU, which arbitrates for
    the same data-memory port (Figure 4). *)
let l1d = function
  | In_order m -> m.Inorder.l1d
  | Out_of_order m -> m.Ooo.l1d

(** Scan-phase cost model: an out-of-order GPP overlaps part of the scan
    with draining earlier work (Section II-D), modelled as a smaller fixed
    overhead. *)
let scan_cycles t (lpsu : Config.lpsu) ~body_insns =
  let fixed = match t with
    | In_order _ -> lpsu.scan_fixed
    | Out_of_order _ -> imax 1 (lpsu.scan_fixed / 2)
  in
  fixed + (lpsu.scan_per_insn * body_insns)
