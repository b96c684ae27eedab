(* One paper sweep, run in its own process (`main.exe child ...`) so that
   its peak RSS and GC counts are its own: plan, warm the engine, then
   assemble every table.  Three kinds:

   - cold:  bench/main.exe's in-process path with a fresh result cache
            and journal in [dir];
   - warm:  the same against a cache a cold sweep already filled;
   - fleet: bench/main.exe --server's path, against an xloops_proxy.

   With [traced], the in-process engine and sweep are mirrors built
   from the layers' public functions with a span around each call
   (Spans); otherwise the library's own Experiments.caching_engine and
   Experiments.sweep run, and only engine.run calls are timed.  The
   child writes a report of "key value..." lines for the parent. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Pool = Xloops.Pool
module Journal = Xloops.Journal
module Failure = Xloops.Failure
module Digest_hex = Xloops.Digest_hex
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel
module Machine = Xloops.Sim.Machine
module Compile = Xloops.Compiler.Compile
module Memory = Xloops.Mem.Memory
module Energy = Xloops.Energy.Model
module Client = Xloops_service.Client
module P = Xloops_service.Protocol

let span = Spans.span
let now = Unix.gettimeofday

(* -- Traced mirrors of the engine's public calls ----------------------- *)

(* Run_spec.execute, decomposed into the calls Kernel.run_result makes. *)
let execute (spec : Run_spec.t) : E.run_data =
  if spec.fault_seed <> None then invalid_arg "perfbench: fault plans";
  let k = Registry.find spec.kernel in
  let c =
    span "compiler" (fun () -> Compile.compile ~target:spec.target k.kernel)
  in
  let mem =
    span "kernels.init" (fun () ->
        let mem = Memory.create () in
        k.init c.array_base mem;
        mem)
  in
  let result =
    span "machine" (fun () ->
        Machine.run ?fuel:spec.fuel
          (Machine.create ~watchdog:spec.watchdog ~degrade:spec.degrade
             ~cfg:spec.cfg ~mode:spec.mode ~prog:c.program ~mem ()))
  in
  match result with
  | Error f -> raise (Failure.Sim_failed f)
  | Ok r ->
    (match span "kernels.check" (fun () -> k.check c.array_base mem) with
     | Ok () -> ()
     | Error msg ->
       raise (Failure.Check_failed
                { kernel = spec.kernel; what = Run_spec.what spec; msg }));
    { cfg = spec.cfg; mode = spec.mode; cycles = r.cycles; insns = r.insns;
      stats = r.stats;
      energy = span "energy" (fun () -> Energy.of_stats spec.cfg r.stats) }

let compute_meta (k : Kernel.t) : E.kernel_meta =
  let dyn target =
    match Kernel.dynamic_insns ~target k with
    | Ok n -> n
    | Error msg -> failwith msg
  in
  let body_min, body_max = E.body_stats k in
  { gpi_dyn = dyn Compile.general; xli_dyn = dyn Compile.xloops;
    body_min; body_max }

(* Experiments.caching_engine, call for call. *)
let traced_engine cache : E.engine =
  let memo_runs = Hashtbl.create 512 and memo_meta = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  let publish memo key v =
    locked (fun () ->
        match Hashtbl.find_opt memo key with
        | Some v' -> v'
        | None -> Hashtbl.replace memo key v; v)
  in
  let run spec =
    let key = span "run_spec.cache_key" (fun () -> Run_spec.cache_key spec) in
    match locked (fun () -> Hashtbl.find_opt memo_runs key) with
    | Some rd -> rd
    | None ->
      let rd =
        match span "run_cache.find" (fun () -> Run_cache.find_run cache ~key)
        with
        | Some (rd : E.run_data) -> rd.stats.cache_hits <- 1; rd
        | None ->
          let rd = span "run_spec.execute" (fun () -> execute spec) in
          span "run_cache.store" (fun () -> Run_cache.store_run cache ~key rd);
          rd.stats.cache_misses <- 1;
          rd
      in
      publish memo_runs key rd
  in
  let meta k =
    span "experiments.meta" (fun () ->
        let key = Run_spec.kernel_digest k in
        match locked (fun () -> Hashtbl.find_opt memo_meta key) with
        | Some m -> m
        | None ->
          let m =
            match
              span "run_cache.find" (fun () -> Run_cache.find_meta cache ~key)
            with
            | Some [| g; x; bmin; bmax |] ->
              { E.gpi_dyn = g; xli_dyn = x; body_min = bmin; body_max = bmax }
            | Some _ | None ->
              let m = compute_meta k in
              span "run_cache.store" (fun () ->
                  Run_cache.store_meta cache ~key
                    [| m.gpi_dyn; m.xli_dyn; m.body_min; m.body_max |]);
              m
          in
          publish memo_meta key m)
  in
  { run; meta }

(* Experiments.sweep without chaos or resume: journal each spec from the
   worker the moment it completes. *)
let traced_sweep ~jobs ~policy ~journal (engine : E.engine) plan =
  let items = List.map (fun s -> (s, Run_spec.digest s)) plan in
  let worker (spec, dg) =
    span "pool.item" (fun () ->
        let rd = engine.run spec in
        span "journal" (fun () -> Journal.record journal dg);
        rd)
  in
  let outcomes =
    Pool.run_each ~jobs ~policy
      ~salt:(fun (_, dg) -> Digest_hex.to_hex dg) worker items
  in
  List.map2
    (fun spec (o : E.run_data Pool.outcome) ->
       (spec, Result.map_error (Fmt.str "%a" Failure.pp) o.result))
    plan outcomes

(* -- Shared ------------------------------------------------------------ *)

(* The run directory, removed when a run ends, and the report a child
   leaves there. *)
let work = "_perfbench"
let report = Filename.concat work "report"

(* Pool domains of an in-process sweep: the 2 CPUs this was tuned on. *)
let jobs = 2

type args = {
  kind : string;            (* cold | warm | fleet *)
  quick : bool;
  seed : int;
  dir : string;             (* result cache + journal *)
  addr : string option;     (* fleet: the proxy *)
  traced : bool;
}

let cache_of dir =
  let eng =
    { (Cli_common.default_engine_args ~max_retries:2 ()) with
      ea_fuel = None; ea_watchdog = None; ea_deadline_ms = None;
      ea_cache_dir = Some dir; ea_cache_index = None;
      ea_cache_limit_mb = None }
  in
  Option.get (Cli_common.cache_of_engine ~tag:"cache" eng)

let floats l = String.concat " " (List.map (Printf.sprintf "%.4f") l)

(* A thread-safe sample list, for per-spec latencies taken on pool
   domains. *)
let samples () =
  let l = ref [] and mu = Mutex.create () in
  let add x = Mutex.lock mu; l := x :: !l; Mutex.unlock mu in
  (l, add)

type outcome = {
  results : (Run_spec.t * (E.run_data, string) result) list;
  text : string;
  t_plan : float;           (* sweep start: before planning *)
  t_warm : float;           (* warm phase: from here ... *)
  t_warmed : float;         (* ... to here *)
  t_end : float;            (* last table assembled *)
  lines : string list;      (* kind-specific report lines *)
}

(* -- In-process sweeps (cold, warm) ------------------------------------ *)

let in_process a =
  let t_plan = now () in
  let plan =
    span "plan" (fun () -> Plan.permute ~seed:a.seed (Plan.specs ~quick:a.quick))
  in
  let cache = cache_of a.dir in
  let journal = Journal.start (Filename.concat a.dir Journal.default_name) in
  let lat, add_lat = samples () in
  let warming = ref true in
  let engine =
    if a.traced then traced_engine cache
    else begin
      let inner = E.caching_engine ~cache () in
      { inner with
        run = (fun spec ->
            if not !warming then inner.run spec
            else begin
              let t0 = now () in
              let rd = inner.run spec in
              add_lat (1000. *. (now () -. t0));
              rd
            end) }
    end
  in
  let policy = { Pool.default_policy with max_retries = 2 } in
  let t_warm = now () in
  let results =
    if a.traced then traced_sweep ~jobs ~policy ~journal engine plan
    else begin
      let r = E.sweep ~jobs ~policy ~journal engine plan in
      List.map
        (fun (so : E.sweep_outcome) ->
           ( so.so_spec,
             match so.so_result with
             | Some r -> Result.map_error (Fmt.str "%a" Failure.pp) r
             | None -> Error "skipped" ))
        r.sr_outcomes
    end
  in
  let t_warmed = now () in
  warming := false;
  let text =
    span "experiments.assemble" (fun () -> Plan.assemble ~quick:a.quick engine)
  in
  let t_end = now () in
  Journal.close journal;
  { results; text; t_plan; t_warm; t_warmed; t_end;
    lines =
      [ "lat " ^ floats !lat;
        Fmt.str "cache %d %d" (Run_cache.hits cache) (Run_cache.misses cache);
        Fmt.str "journal %d" (Journal.recorded journal) ] }

(* -- Through the fleet (bench/main.exe --server) ------------------------ *)

(* Client.run_plan's batching: consecutive chunks of 64 on one
   connection. *)
let chunk = 64

let chunks l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = chunk then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

let fleet a =
  let addr =
    match P.parse_addr (Option.get a.addr) with
    | Ok addr -> addr
    | Error m -> failwith m
  in
  let t_plan = now () in
  let plan =
    span "plan" (fun () -> Plan.permute ~seed:a.seed (Plan.specs ~quick:a.quick))
  in
  let cache = cache_of a.dir in
  let journal = Journal.start (Filename.concat a.dir Journal.default_name) in
  let local =
    if a.traced then traced_engine cache else E.caching_engine ~cache ()
  in
  let specs = Array.of_list plan in
  let n = Array.length specs in
  let submitted = Array.make n 0. and started = Array.make n 0.
  and finished = Array.make n 0. in
  let got : (E.run_data, string) result option array = Array.make n None in
  let t_warm = now () in
  span "client.submit" (fun () ->
      match Client.connect addr with
      | Error e -> failwith (Fmt.str "%a" Client.pp_connect_error e)
      | Ok s ->
        Fun.protect ~finally:(fun () -> Client.close s) (fun () ->
            List.iter
              (fun idx ->
                 let idx = Array.of_list idx in
                 let t0 = now () in
                 Array.iter (fun i -> submitted.(i) <- t0) idx;
                 match
                   Client.submit s ~max_retries:2
                     ~on_progress:(fun ~index -> started.(idx.(index)) <- now ())
                     ~on_result:(fun ~index ~digest:_ o ->
                         let i = idx.(index) in
                         finished.(i) <- now ();
                         got.(i) <-
                           Some (Result.map_error (Fmt.str "%a" P.pp_error) o))
                     (Array.to_list (Array.map (fun i -> specs.(i)) idx))
                 with
                 | Ok _ -> ()
                 | Error (Client.Submit_rejected e) ->
                   failwith (Fmt.str "%a" P.pp_error e)
                 | Error (Client.Submit_conn m) -> failwith m)
              (chunks (List.init n Fun.id))));
  let results =
    List.mapi
      (fun i spec ->
         (spec, Option.value got.(i) ~default:(Error "no RESULT frame")))
      plan
  in
  let memo = Hashtbl.create 512 in
  List.iter
    (fun (spec, r) ->
       match r with
       | Ok rd ->
         Hashtbl.replace memo (Run_spec.digest spec) rd;
         span "journal" (fun () -> Journal.record journal (Run_spec.digest spec))
       | Error _ -> ())
    results;
  let t_warmed = now () in
  let engine =
    { local with
      run = (fun spec ->
          match Hashtbl.find_opt memo (Run_spec.digest spec) with
          | Some rd -> rd
          | None -> failwith ("no fleet result for " ^ Plan.label spec)) }
  in
  let text =
    span "experiments.assemble" (fun () -> Plan.assemble ~quick:a.quick engine)
  in
  let t_end = now () in
  Journal.close journal;
  let ms_of f = List.init n (fun i -> 1000. *. f i) in
  { results; text; t_plan; t_warm; t_warmed; t_end;
    lines =
      [ "lat " ^ floats (ms_of (fun i -> finished.(i) -. submitted.(i)));
        "qwait " ^ floats (ms_of (fun i -> started.(i) -. submitted.(i)));
        "exec " ^ floats (ms_of (fun i -> finished.(i) -. started.(i)));
        Fmt.str "journal %d" (Journal.recorded journal) ] }

(* -- The child's report ------------------------------------------------ *)

let run a =
  Spans.on := a.traced;
  let gc0 = Gc.quick_stat () in
  let o = if a.kind = "fleet" then fleet a else in_process a in
  let gc1 = Gc.quick_stat () in
  let golden = Golden.load () in
  let failed =
    List.filter
      (fun (spec, r) ->
         let why =
           match r with
           | Ok rd when Golden.matches golden ~label:(Plan.label spec) rd -> None
           | Ok _ -> Some "differs from the golden"
           | Error msg -> Some msg
         in
         Option.iter (Fmt.epr "perfbench: %s: %s@." (Plan.label spec)) why;
         why <> None)
      o.results
  in
  let insns =
    List.fold_left
      (fun acc (_, r) ->
         match r with Ok (rd : E.run_data) -> acc + rd.insns | Error _ -> acc)
      0 o.results
  in
  let plan_name = if a.quick then "quick" else "full" in
  let oc = open_out report in
  let pf fmt = Printf.fprintf oc fmt in
  pf "t_plan %.6f\n" o.t_plan;
  pf "sweep_s %.6f\n" (o.t_end -. o.t_plan);
  pf "warm_s %.6f\n" (o.t_warmed -. o.t_warm);
  pf "attempted %d\n" (List.length o.results);
  pf "failed %d\n" (List.length failed);
  pf "table_ok %b\n" (Golden.table_matches golden ~plan:plan_name o.text);
  pf "insns %d\n" insns;
  pf "rss_kb %d\n" (Fleet.peak_rss_kb (Unix.getpid ()));
  pf "gc %d %d\n" (gc1.minor_collections - gc0.minor_collections)
    (gc1.major_collections - gc0.major_collections);
  List.iter (fun l -> pf "%s\n" l) o.lines;
  List.iter
    (fun (name, (s : Spans.acc)) ->
       pf "span %s %d %.6f %.6f\n" name s.calls s.total s.self)
    (Spans.all ());
  close_out oc
