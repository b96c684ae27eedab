(* The fleet balancer.  See proxy.mli for the contract.

   Threading: an acceptor thread, one reader thread per client
   connection, and per batch one orchestrator thread that fans out one
   worker thread per shard holding specs.  The reader stays free while a
   batch runs so CANCEL can arrive mid-stream; orchestrator and shard
   workers are tracked and joined on [stop].

   Locking: [t.mu] guards proxy-wide state, each connection's [c_wmu]
   guards its output channel (never held across upstream IO), and
   [c_smu] guards the cancel flag + the set of live upstream sessions
   the reader forwards CANCEL into. *)

module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Failure = Xloops.Failure
module Digest_hex = Xloops.Digest_hex
module P = Protocol

type config = {
  addr : P.addr;
  shards : Shard.t;
  chunk : int;
  max_attempts : int;
  default_deadline_ms : int option;
  default_max_retries : int;
  failover : bool;
  cache : Run_cache.t option;
  compress_threshold : int;
  banner : string;
  verbose : bool;
}

let config ~addr ~shards ?(chunk = 64) ?(max_attempts = 5) ?deadline_ms
    ?(max_retries = 0) ?(failover = true) ?cache
    ?(compress_threshold = Codec.threshold) ?(banner = "xloops-proxy")
    ?(verbose = false) () =
  if chunk < 1 then invalid_arg "Proxy.config: chunk must be >= 1";
  if max_attempts < 1 then
    invalid_arg "Proxy.config: max_attempts must be >= 1";
  { addr; shards; chunk; max_attempts; default_deadline_ms = deadline_ms;
    default_max_retries = max_retries; failover; cache; compress_threshold;
    banner; verbose }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_oc : out_channel;
  c_wmu : Mutex.t;
  c_smu : Mutex.t;
  c_zthresh : int;
  mutable c_version : int;
  mutable c_alive : bool;
  mutable c_busy : bool;                    (* a batch is orchestrating *)
  mutable c_cancel : bool;
  mutable c_sessions : Client.session list; (* live upstream sessions *)
}

type t = {
  cfg : config;
  mu : Mutex.t;
  stopc : Condition.t;
  mutable conns : conn list;
  mutable next_conn : int;
  mutable stopping : bool;
  mutable shutdown_req : bool;
  lsock : Unix.file_descr;
  bound : P.addr;
  mutable threads : Thread.t list;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let slocked conn f =
  Mutex.lock conn.c_smu;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.c_smu) f

let logf t fmt =
  if t.cfg.verbose then Fmt.epr ("[proxy] " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter ("[proxy] " ^^ fmt ^^ "@.")

let bound_addr t = t.bound

let send conn resp =
  Mutex.lock conn.c_wmu;
  let ok =
    conn.c_alive
    && (match
          P.write_frame conn.c_oc
            (P.encode_response ~version:conn.c_version
               ~compress_threshold:conn.c_zthresh resp)
        with
        | () -> true
        | exception (Sys_error _ | Unix.Unix_error _) ->
          conn.c_alive <- false;
          false)
  in
  Mutex.unlock conn.c_wmu;
  ok

let reject_error code message =
  let transient =
    match code with
    | P.Overloaded | P.Shutting_down -> true
    | _ -> false
  in
  { P.code; transient; message }

(* -- Local failover execution --------------------------------------------- *)

(* Failover simulates through the shared fleet cache when one is
   configured, so it never re-computes what any shard already stored. *)
let failover_outcome t ~deadline_ms ~max_retries spec =
  let digest = Run_spec.digest spec in
  match
    Failure.with_retries ?deadline_ms ~max_retries
      ~salt:(Digest_hex.to_hex digest)
      (fun () -> Run_cache.find_or_execute ?cache:t.cfg.cache spec)
  with
  | outcome ->
    (match outcome.Failure.result with
     | Ok rd -> Ok rd
     | Error f -> Error (P.error_of_failure f))
  | exception Failure.Abort msg ->
    Error
      { P.code = P.Crash_error; transient = true;
        message = "abort during failover: " ^ msg }

(* -- Batch orchestration --------------------------------------------------- *)

exception Round_over

(* One shard's slice of the batch: rounds of dial + submit-unanswered,
   transient trouble retried with deterministic backoff, then failover
   or per-spec transient errors.  [indices] are positions in the
   client's batch; only this thread touches them, so [answered] needs no
   lock.  [deliver] forwards one final outcome to the client. *)
let shard_worker t conn ~deadline_ms ~max_retries ~spec_arr ~answered
    ~deliver si indices =
  let shard = (Shard.shards t.cfg.shards).(si) in
  let last_err : P.error option array =
    Array.make (Array.length spec_arr) None in
  let cancelled () = slocked conn (fun () -> conn.c_cancel) in
  let running () =
    conn.c_alive && (not (cancelled ()))
    && not (locked t (fun () -> t.stopping))
  in
  let pending () = List.filter (fun gi -> not answered.(gi)) indices in
  let finalize gi outcome = answered.(gi) <- true; deliver gi outcome in
  let register sess =
    slocked conn (fun () -> conn.c_sessions <- sess :: conn.c_sessions)
  in
  let unregister sess =
    slocked conn (fun () ->
        conn.c_sessions <-
          List.filter (fun s -> s != sess) conn.c_sessions)
  in
  let rec chunks_of k = function
    | [] -> []
    | l ->
      let rec take acc n = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (x :: acc) (n - 1) rest
      in
      let c, rest = take [] k l in
      c :: chunks_of k rest
  in
  let attempt = ref 0 in
  while pending () <> [] && !attempt < t.cfg.max_attempts && running () do
    incr attempt;
    if !attempt > 1 then
      Unix.sleepf
        (float_of_int
           (Failure.backoff_ms ~base_ms:50 ~cap_ms:2000 ~seed:1
              ~salt:(Fmt.str "xloops-proxy-shard%d" si) ~attempt:!attempt ())
         /. 1000.);
    match Client.connect shard.Shard.addr with
    | Error (Client.Refused e) when e.P.transient ->
      () (* shard overloaded or draining: back off and redial *)
    | Error (Client.Refused e) ->
      (* Permanent refusal (protocol/OCaml skew): retrying cannot help
         and neither can local failover make the fleet healthy — answer
         every pending spec with the shard's verdict. *)
      let msg =
        Fmt.str "shard %a refused: %a" P.pp_addr shard.Shard.addr
          P.pp_error e
      in
      List.iter
        (fun gi ->
           finalize gi
             (Error { P.code = e.P.code; transient = false; message = msg }))
        (pending ())
    | Error (Client.Conn _) ->
      () (* shard down or restarting: back off and redial *)
    | Ok sess ->
      register sess;
      (try
         List.iter
           (fun chunk ->
              if not (running ()) then raise Round_over;
              let index_arr = Array.of_list chunk in
              let batch =
                List.map (fun gi -> spec_arr.(gi)) chunk in
              match
                Client.submit sess ?deadline_ms ~max_retries batch
                  ~on_progress:(fun ~index ->
                      if conn.c_version >= 2 then
                        ignore
                          (send conn
                             (P.Progress { index = index_arr.(index) })))
                  ~on_result:(fun ~index ~digest:_ outcome ->
                      let gi = index_arr.(index) in
                      match outcome with
                      | Ok rd -> finalize gi (Ok rd)
                      | Error e when not e.P.transient ->
                        finalize gi (Error e)
                      | Error e -> last_err.(gi) <- Some e)
              with
              | Ok _ -> ()
              | Error (Client.Submit_rejected e) when e.P.transient ->
                raise Round_over (* shard queue full: next round *)
              | Error (Client.Submit_rejected e) ->
                List.iter (fun gi -> finalize gi (Error e)) (pending ());
                raise Round_over
              | Error (Client.Submit_conn _) ->
                raise Round_over (* reconnect next round *))
           (chunks_of t.cfg.chunk (pending ()))
       with Round_over -> ());
      unregister sess;
      Client.close sess
  done;
  (* Out of attempts (or cancelled/stopping).  Cancelled specs are
     simply dropped — the client asked for that; otherwise the shard is
     considered down and the proxy degrades. *)
  let leftovers = pending () in
  if leftovers <> [] && not (cancelled ()) then begin
    if t.cfg.failover then begin
      logf t "shard %a down after %d attempt(s): failing %d spec(s) over \
              to local execution"
        P.pp_addr shard.Shard.addr t.cfg.max_attempts
        (List.length leftovers);
      List.iter
        (fun gi ->
           if running () then
             finalize gi
               (failover_outcome t ~deadline_ms ~max_retries spec_arr.(gi)))
        leftovers
    end
    else
      List.iter
        (fun gi ->
           let e =
             match last_err.(gi) with
             | Some e -> e
             | None ->
               { P.code = P.Io_error; transient = true;
                 message =
                   Fmt.str "shard %a unreachable after %d attempt(s)"
                     P.pp_addr shard.Shard.addr t.cfg.max_attempts }
           in
           finalize gi (Error e))
        leftovers
  end

let orchestrate t conn ~deadline_ms ~max_retries specs =
  let spec_arr = Array.of_list specs in
  let n = Array.length spec_arr in
  let answered = Array.make n false in
  let delivered = ref 0 in
  let dmu = Mutex.create () in
  let deliver gi outcome =
    let digest = Run_spec.digest spec_arr.(gi) in
    if send conn (P.Result { index = gi; digest; outcome }) then begin
      Mutex.lock dmu;
      incr delivered;
      Mutex.unlock dmu
    end
  in
  (* Partition the batch by home shard. *)
  let nshards = Array.length (Shard.shards t.cfg.shards) in
  let buckets = Array.make nshards [] in
  Array.iteri
    (fun gi spec ->
       let si = Shard.route t.cfg.shards (Run_spec.digest spec) in
       buckets.(si) <- gi :: buckets.(si))
    spec_arr;
  let workers =
    List.filter_map
      (fun si ->
         match List.rev buckets.(si) with
         | [] -> None
         | indices ->
           Some
             (Thread.create
                (fun () ->
                   shard_worker t conn ~deadline_ms ~max_retries ~spec_arr
                     ~answered ~deliver si indices)
                ()))
      (List.init nshards Fun.id)
  in
  List.iter Thread.join workers;
  (* Clear the busy flag before Batch_done goes out: the moment the
     client sees the frame it may legally submit its next batch, and
     the reader thread must not bounce it off a stale flag. *)
  slocked conn (fun () -> conn.c_cancel <- false);
  conn.c_busy <- false;
  ignore (send conn (P.Batch_done { delivered = !delivered }));
  logf t "conn %d: batch of %d done, %d delivered" conn.c_id n !delivered

(* -- Fan-out requests ------------------------------------------------------ *)

let zero_stats : P.stats = {
  P.uptime_ms = 0; workers = 0; queue_depth = 0; queue_limit = 0;
  in_flight = 0; accepted = 0; rejected_batches = 0; dedup_hits = 0;
  completed = 0; failed = 0; cache_hits = 0; cache_misses = 0;
  cache_stores = 0; per_worker = [];
}

let add_stats (a : P.stats) (b : P.stats) : P.stats = {
  P.uptime_ms = max a.P.uptime_ms b.P.uptime_ms;
  workers = a.P.workers + b.P.workers;
  queue_depth = a.P.queue_depth + b.P.queue_depth;
  queue_limit = a.P.queue_limit + b.P.queue_limit;
  in_flight = a.P.in_flight + b.P.in_flight;
  accepted = a.P.accepted + b.P.accepted;
  rejected_batches = a.P.rejected_batches + b.P.rejected_batches;
  dedup_hits = a.P.dedup_hits + b.P.dedup_hits;
  completed = a.P.completed + b.P.completed;
  failed = a.P.failed + b.P.failed;
  cache_hits = a.P.cache_hits + b.P.cache_hits;
  cache_misses = a.P.cache_misses + b.P.cache_misses;
  cache_stores = a.P.cache_stores + b.P.cache_stores;
  per_worker = a.P.per_worker @ b.P.per_worker;
}

(* Fleet stats: dial every shard and sum.  A shard that is down simply
   contributes nothing — the proxy's stats must work exactly when the
   operator is diagnosing a sick fleet. *)
let fleet_stats t =
  Array.fold_left
    (fun acc (s : Shard.shard) ->
       match Client.connect s.Shard.addr with
       | Error _ -> acc
       | Ok sess ->
         let acc =
           match Client.stats sess with
           | Ok st -> add_stats acc st
           | Error _ -> acc
         in
         Client.close sess;
         acc)
    zero_stats (Shard.shards t.cfg.shards)

let forward_cancel t conn =
  let sessions = slocked conn (fun () -> conn.c_cancel <- true; conn.c_sessions) in
  List.iter (fun sess -> ignore (Client.cancel sess)) sessions;
  logf t "conn %d: cancel forwarded to %d shard session(s)" conn.c_id
    (List.length sessions)

(* -- Connections ----------------------------------------------------------- *)

let handshake t conn ic =
  match P.read_frame ic with
  | `Eof | `Error _ -> false
  | `Frame payload ->
    (match P.decode_request payload with
     | Ok (P.Hello { version; ocaml })
       when version >= P.min_version && version <= P.version
            && String.equal ocaml Sys.ocaml_version ->
       conn.c_version <- version;
       ignore
         (send conn
            (P.Welcome
               { version; ocaml = Sys.ocaml_version;
                 banner = t.cfg.banner }));
       true
     | Ok (P.Hello { version; ocaml }) ->
       ignore
         (send conn
            (P.Rejected
               (reject_error P.Version_mismatch
                  (Fmt.str
                     "proxy speaks protocol v%d..v%d on OCaml %s; client \
                      offered v%d on OCaml %s"
                     P.min_version P.version Sys.ocaml_version version
                     ocaml))));
       false
     | Ok _ ->
       ignore
         (send conn
            (P.Rejected
               (reject_error P.Version_mismatch
                  "expected HELLO as the first frame")));
       false
     | Error msg ->
       ignore (send conn (P.Rejected (reject_error P.Malformed msg)));
       false)

let serve_conn t conn =
  let ic = Unix.in_channel_of_descr conn.c_fd in
  if handshake t conn ic then begin
    logf t "conn %d: session open (v%d)" conn.c_id conn.c_version;
    let closing = ref false in
    while not !closing do
      match P.read_frame ic with
      | `Eof -> closing := true
      | `Error msg ->
        logf t "conn %d: read error: %s" conn.c_id msg;
        closing := true
      | `Frame payload ->
        (match P.decode_request payload with
         | Error msg ->
           ignore (send conn (P.Rejected (reject_error P.Malformed msg)));
           closing := true
         | Ok (P.Hello _) ->
           ignore
             (send conn
                (P.Rejected (reject_error P.Malformed "duplicate HELLO")));
           closing := true
         | Ok (P.Submit { deadline_ms; max_retries; specs }) ->
           if conn.c_busy then begin
             ignore
               (send conn
                  (P.Rejected
                     (reject_error P.Malformed
                        "a batch is already in flight on this connection")));
             closing := true
           end
           else if locked t (fun () -> t.stopping) then
             ignore
               (send conn
                  (P.Rejected
                     (reject_error P.Shutting_down "proxy is draining")))
           else if specs = [] then
             ignore (send conn (P.Batch_done { delivered = 0 }))
           else begin
             conn.c_busy <- true;
             slocked conn (fun () -> conn.c_cancel <- false);
             let deadline_ms =
               match deadline_ms with
               | Some _ as d -> d
               | None -> t.cfg.default_deadline_ms
             in
             let max_retries =
               max max_retries t.cfg.default_max_retries in
             (* The reader stays on the socket for CANCEL; the batch
                runs on its own thread. *)
             let th =
               Thread.create
                 (fun () ->
                    orchestrate t conn ~deadline_ms ~max_retries specs)
                 ()
             in
             locked t (fun () -> t.threads <- th :: t.threads)
           end
         | Ok P.Cancel -> forward_cancel t conn
         | Ok P.Stats ->
           ignore (send conn (P.Stats_reply (fleet_stats t)))
         | Ok P.Ping -> ignore (send conn P.Pong)
         | Ok P.Shutdown ->
           ignore (send conn P.Bye);
           locked t (fun () ->
               t.shutdown_req <- true;
               Condition.broadcast t.stopc);
           logf t "conn %d: shutdown requested" conn.c_id;
           closing := true)
    done
  end;
  Mutex.lock conn.c_wmu;
  conn.c_alive <- false;
  Mutex.unlock conn.c_wmu;
  locked t (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns);
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  logf t "conn %d: closed" conn.c_id

let acceptor t =
  let continue = ref true in
  while !continue do
    if locked t (fun () -> t.stopping) then continue := false
    else
      match Unix.select [ t.lsock ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> begin
          match Unix.accept t.lsock with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
            P.set_nodelay fd;
            let conn =
              locked t (fun () ->
                  let id = t.next_conn in
                  t.next_conn <- id + 1;
                  let c =
                    { c_id = id; c_fd = fd;
                      c_oc = Unix.out_channel_of_descr fd;
                      c_wmu = Mutex.create (); c_smu = Mutex.create ();
                      c_zthresh = t.cfg.compress_threshold;
                      c_version = P.version; c_alive = true;
                      c_busy = false; c_cancel = false; c_sessions = [] }
                  in
                  t.conns <- c :: t.conns;
                  c)
            in
            let th = Thread.create (fun () -> serve_conn t conn) () in
            locked t (fun () -> t.threads <- th :: t.threads)
        end
  done

(* -- Lifecycle ------------------------------------------------------------- *)

let start (cfg : config) =
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Option.iter (fun c -> ignore (Run_cache.reap_tmp c)) cfg.cache;
  let lsock, bound = Server.listen_on cfg.addr in
  let t =
    { cfg; mu = Mutex.create (); stopc = Condition.create (); conns = [];
      next_conn = 0; stopping = false; shutdown_req = false; lsock; bound;
      threads = [] }
  in
  let acc = Thread.create (fun () -> acceptor t) () in
  t.threads <- [ acc ];
  logf t "listening on %a for fleet [%a]: chunk %d, %d attempt(s), \
          failover %s"
    P.pp_addr bound Shard.pp cfg.shards cfg.chunk cfg.max_attempts
    (if cfg.failover then "on" else "off");
  t

let stop t =
  let already =
    locked t (fun () ->
        let a = t.stopping in
        t.stopping <- true;
        Condition.broadcast t.stopc;
        a)
  in
  if not already then begin
    let rec drain_threads () =
      locked t (fun () ->
          List.iter
            (fun c ->
               try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
               with Unix.Unix_error _ | Invalid_argument _ -> ())
            t.conns);
      match
        locked t (fun () ->
            match t.threads with
            | [] -> None
            | th :: rest -> t.threads <- rest; Some th)
      with
      | Some th -> Thread.join th; drain_threads ()
      | None -> ()
    in
    drain_threads ();
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (match t.bound with
     | P.Unix_path path ->
       (try Unix.unlink path with Unix.Unix_error _ -> ())
     | P.Tcp _ -> ());
    logf t "stopped"
  end

let wait t =
  Mutex.lock t.mu;
  while not (t.shutdown_req || t.stopping) do
    Condition.wait t.stopc t.mu
  done;
  Mutex.unlock t.mu

let run cfg =
  let t = start cfg in
  wait t;
  stop t
