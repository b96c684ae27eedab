(* A fresh 2-shard fleet: two 1-worker xloops_serve daemons sharing one
   cache directory and mmap'd index, fronted by an xloops_proxy, each a
   real process.  Every process in [live] (the fleet's, and the sweep
   children main.ml adds) is stopped and reaped by [stop], or by
   [stop_all] at exit. *)

module P = Xloops_service.Protocol
module Client = Xloops_service.Client
module Run_spec = Xloops.Run_spec
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine

type proc = { pid : int; addr : string }

let live : int list ref = ref []

(* [Some status] once [pid] has exited, [None] after [timeout] s. *)
let wait_exit pid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.005; go ()
    | 0, _ -> None
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)
  in
  go ()

let stop_pid pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    if wait_exit pid ~timeout:5. = None then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit pid ~timeout:5.)
    end;
    live := List.filter (( <> ) pid) !live
  end

let stop_all () = List.iter stop_pid !live

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

(* Start [bin args] with stderr to [log]; its "<prefix> ready on ADDR"
   line there gives the address the kernel picked. *)
let spawn bin args ~log ~prefix =
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) null Unix.stderr fd
  in
  Unix.close fd;
  Unix.close null;
  live := pid :: !live;
  let marker = prefix ^ " ready on " in
  let m = String.length marker in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec await () =
    let text = read_file log in
    (* only whole lines: the last element is unterminated *)
    let lines = List.rev (List.tl (List.rev (String.split_on_char '\n' text))) in
    match
      List.find_opt
        (fun l -> String.length l > m && String.sub l 0 m = marker) lines
    with
    | Some l -> List.hd (String.split_on_char ' ' (String.sub l m (String.length l - m)))
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ when Unix.gettimeofday () < deadline ->
         Unix.sleepf 0.002; await ()
       | 0, _ -> failwith (Fmt.str "%s: no ready line in 60 s" bin)
       | _ ->
         live := List.filter (( <> ) pid) !live;
         failwith (Fmt.str "%s exited at start:@.%s" bin text))
  in
  { pid; addr = await () }

let addr_of s =
  match P.parse_addr s with Ok a -> a | Error m -> failwith m

type t = { shards : proc list; proxy : proc }

(* A worker domain's first simulation pays a one-time warm-up; one spec
   outside the plan (distinct fuel, distinct digest) absorbs it, so
   every plan spec still misses the cache. *)
let warm_spec =
  Run_spec.make ~fuel:777_777 ~cfg:Config.io_x ~mode:Machine.Specialized
    "war-uc"

let start ~bin_dir ~dir =
  let exe name = Filename.concat bin_dir name in
  let common = [ "--cache-dir"; dir; "--cache-index";
                 Filename.concat dir "index"; "-q" ] in
  let shards =
    List.init 2 (fun i ->
        spawn (exe "xloops_serve.exe")
          ([ "--listen"; "tcp:127.0.0.1:0"; "--jobs"; "1"; "--banner";
             Fmt.str "perfbench-shard-%d" i ] @ common)
          ~log:(Filename.concat dir (Fmt.str "shard%d.log" i))
          ~prefix:"[serve]")
  in
  let proxy =
    spawn (exe "xloops_proxy.exe")
      ([ "--listen"; "tcp:127.0.0.1:0";
         "--shard"; "00-7f=" ^ (List.nth shards 0).addr;
         "--shard"; "80-ff=" ^ (List.nth shards 1).addr ] @ common)
      ~log:(Filename.concat dir "proxy.log") ~prefix:"[proxy]"
  in
  List.iter
    (fun s ->
       match Client.run_plan (addr_of s.addr) [ warm_spec ] with
       | Ok [| Ok _ |] -> ()
       | _ -> failwith "fleet warm-up failed")
    shards;
  { shards; proxy }

let stats (p : proc) =
  match Client.connect (addr_of p.addr) with
  | Error e -> failwith (Fmt.str "stats: %a" Client.pp_connect_error e)
  | Ok s ->
    Fun.protect ~finally:(fun () -> Client.close s) (fun () ->
        match Client.stats s with
        | Ok st -> st
        | Error _ -> failwith "stats query failed")

let peak_rss_kb pid =
  let text = read_file (Fmt.str "/proc/%d/status" pid) in
  List.fold_left
    (fun acc l ->
       if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
         Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
       else acc)
    0 (String.split_on_char '\n' text)

let stop t =
  stop_pid t.proxy.pid;
  List.iter (fun p -> stop_pid p.pid) t.shards
