(* Spans around the benchmark's calls into each layer.  A span's self
   time is its duration minus the time its direct child spans cover;
   spans nest per domain.  Only totals per span name are kept, with the
   minor-heap words the span's domain allocated inside it.  When tracing
   is off, [span] is a direct call. *)

type acc = {
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable words : float;
}

let on = ref false
let table : (string, acc) Hashtbl.t = Hashtbl.create 64
let mu = Mutex.create ()

(* Per domain: the time each open span's children have covered so far. *)
let stack : float ref list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let zero () = { calls = 0; total = 0.; self = 0.; words = 0. }

let add name ~total ~self ~words =
  Mutex.lock mu;
  let a =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None -> let a = zero () in Hashtbl.add table name a; a
  in
  a.calls <- a.calls + 1;
  a.total <- a.total +. total;
  a.self <- a.self +. self;
  a.words <- a.words +. words;
  Mutex.unlock mu

let span name f =
  if not !on then f ()
  else begin
    let st = Domain.DLS.get stack in
    let children = ref 0. in
    st := children :: !st;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let d = Unix.gettimeofday () -. t0 in
      let words = Gc.minor_words () -. w0 in
      st := List.tl !st;
      (match !st with parent :: _ -> parent := !parent +. d | [] -> ());
      add name ~total:d ~self:(d -. !children) ~words
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* a copy of the totals so far *)
let find name =
  Mutex.lock mu;
  let a = Option.fold ~none:(zero ()) ~some:(fun a -> { a with calls = a.calls })
      (Hashtbl.find_opt table name) in
  Mutex.unlock mu;
  a

let all () =
  Mutex.lock mu;
  let l = Hashtbl.fold (fun k a acc -> (k, a) :: acc) table [] in
  Mutex.unlock mu;
  List.sort compare l
