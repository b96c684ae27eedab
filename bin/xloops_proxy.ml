(* xloops_proxy: the fleet balancer.  Speaks the same wire protocol on
   both faces — clients connect to it exactly as they would a single
   xloops_serve daemon; upstream it routes every spec to the shard
   owning its digest prefix, fans batches out, merges the RESULT
   streams, retries transient shard trouble, and (unless --no-failover)
   executes the specs of a shard that stays down locally through the
   shared cache.

     dune exec bin/xloops_proxy.exe -- --listen tcp:127.0.0.1:7500 \
       --shard 00-7f=tcp:127.0.0.1:7501 --shard 80-ff=tcp:127.0.0.1:7502 \
       --cache-dir _xloops_cache --cache-index _xloops_cache/index *)

open Cmdliner
module Service = Xloops_service
module P = Service.Protocol

let listen_arg =
  let doc = "Address to listen on: unix:PATH, tcp:HOST:PORT, or \
             HOST:PORT (port 0 lets the kernel pick; the bound address \
             is printed on stderr)." in
  Arg.(value & opt string "unix:xloops-proxy.sock" & info [ "listen" ] ~doc)

let shard_arg =
  let doc = "One fleet shard as LO-HI=ADDR: an inclusive range of \
             two-hex-digit digest prefixes and the daemon serving it, \
             e.g. 00-7f=tcp:127.0.0.1:7501.  Repeatable; the ranges \
             must partition 00-ff exactly." in
  Arg.(value & opt_all string [] & info [ "shard" ] ~doc ~docv:"LO-HI=ADDR")

let chunk_arg =
  let doc = "Specs per upstream SUBMIT frame." in
  Arg.(value & opt int 64 & info [ "chunk" ] ~doc)

let max_attempts_arg =
  let doc = "Connection/submission rounds per shard (with deterministic \
             backoff) before the shard is declared down." in
  Arg.(value & opt int 5 & info [ "max-attempts" ] ~doc)

let no_failover_arg =
  let doc = "Do not execute a dead shard's specs locally; answer them \
             with transient IO errors instead (the client retries)." in
  Arg.(value & flag & info [ "no-failover" ] ~doc)

let banner_arg =
  let doc = "Free-text banner echoed to clients in the WELCOME frame." in
  Arg.(value & opt string "xloops_proxy" & info [ "banner" ] ~doc)

let quiet_arg =
  let doc = "Suppress the [proxy] diagnostics on stderr." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let client_op_arg =
  Arg.(value
       & vflag None
           [ (Some `Stats,
              info [ "stats" ]
                ~doc:"Query the proxy at --listen and print the summed \
                      fleet STATS (each shard's counters added; dead \
                      shards contribute nothing).");
             (Some `Ping,
              info [ "ping" ]
                ~doc:"Health-check the proxy at --listen.");
             (Some `Shutdown,
              info [ "shutdown" ]
                ~doc:"Ask the proxy at --listen to exit (the fleet's \
                      daemons keep running).") ])

let json_arg =
  let doc = "With --stats: print one line of JSON instead of prose." in
  Arg.(value & flag & info [ "json" ] ~doc)

let client addr op ~json =
  match Service.Client.connect addr with
  | Error e ->
    Fmt.epr "xloops_proxy: %a@." Service.Client.pp_connect_error e;
    1
  | Ok s ->
    let outcome =
      match op with
      | `Ping -> Result.map (fun () -> Fmt.pr "pong@.") (Service.Client.ping s)
      | `Stats ->
        Result.map
          (fun st ->
             if json then print_endline (P.stats_to_json st)
             else Fmt.pr "%a@." P.pp_stats st)
          (Service.Client.stats s)
      | `Shutdown ->
        Result.map (fun () -> Fmt.pr "shutdown acknowledged@.")
          (Service.Client.shutdown s)
    in
    Service.Client.close s;
    (match outcome with
     | Ok () -> 0
     | Error (Service.Client.Submit_rejected e) ->
       Fmt.epr "xloops_proxy: %a@." P.pp_error e; 1
     | Error (Service.Client.Submit_conn m) ->
       Fmt.epr "xloops_proxy: %s@." m; 1)

let proxy listen shard_specs client_op json chunk max_attempts no_failover
    (eng : Cli_common.engine_args) banner quiet =
  Cli_common.guarded @@ fun () ->
  match P.parse_addr listen with
  | Error msg -> Fmt.epr "xloops_proxy: %s@." msg; 2
  | Ok addr ->
  match client_op with
  | Some op -> client addr op ~json
  | None ->
    if shard_specs = [] then begin
      Fmt.epr "xloops_proxy: no shards (give at least one --shard)@."; 2
    end
    else
      match Service.Shard.of_specs shard_specs with
      | Error msg -> Fmt.epr "xloops_proxy: %s@." msg; 2
      | Ok shards ->
        let cache = Cli_common.cache_of_engine ~tag:"proxy" eng in
        let cfg =
          Service.Proxy.config ~addr ~shards ~chunk ~max_attempts
            ?deadline_ms:eng.Cli_common.ea_deadline_ms
            ~max_retries:eng.Cli_common.ea_max_retries
            ~failover:(not no_failover) ?cache ~banner ~verbose:(not quiet)
            ()
        in
        let t = Service.Proxy.start cfg in
        let stop_sig _ =
          ignore (Thread.create (fun () -> Service.Proxy.stop t) ())
        in
        if Sys.unix then begin
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop_sig);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_sig)
        end;
        Fmt.epr "[proxy] ready on %a@." P.pp_addr
          (Service.Proxy.bound_addr t);
        Service.Proxy.wait t;
        Service.Proxy.stop t;
        0

let cmd =
  let doc = "balance XLOOPS simulation batches across a sharded fleet" in
  Cmd.v (Cmd.info "xloops_proxy" ~doc)
    Term.(const proxy $ listen_arg $ shard_arg $ client_op_arg $ json_arg
          $ chunk_arg $ max_attempts_arg $ no_failover_arg
          $ Cli_common.engine_term ~pool:true ()
          $ banner_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
