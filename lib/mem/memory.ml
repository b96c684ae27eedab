(** Byte-addressable little-endian main memory with atomic memory
    operations.  This is the architectural memory shared by the GPP and all
    LPSU lanes; speculative stores are buffered in per-lane LSQs
    ({!Xloops_sim.Lsq}) and only reach this module when they commit. *)

open Xloops_isa

exception Bad_access of { addr : int; what : string }

(* Pre-images of the 4-byte words written since [journal_begin], in
   flat arrays reused from one journal to the next, with one bit per
   word marking the words already recorded: a write allocates nothing
   once the arrays have grown to the loop's write set. *)
type journal = {
  mutable active : bool;
  mutable marks : Bytes.t;   (* bit per word; allocated on first use *)
  mutable words : int array; (* recorded word indices, [len] of them *)
  mutable olds : int array;  (* their pre-images, little-endian *)
  mutable len : int;
}

type t = {
  data : Bytes.t;
  size : int;
  mutable loads : int;   (* event counters for the energy model *)
  mutable stores : int;
  mutable amos : int;
  journal : journal;
      (* rollback support for the machine's specialized-loop
         checkpoints *)
}

let create ?(size = 1 lsl 20) () =
  { data = Bytes.make size '\000'; size; loads = 0; stores = 0; amos = 0;
    journal = { active = false; marks = Bytes.empty; words = [||];
                olds = [||]; len = 0 } }

let size t = t.size

(* -- Write journal ----------------------------------------------------- *)

(* The journal records the first pre-image of each byte written while
   active; aborting restores them, committing discards them.  This is the
   memory half of the architectural checkpoint the machine takes at
   specialized-loop entry (registers being the other half), so a faulted
   or hung LPSU run can be rolled back and re-executed traditionally. *)

(* Words are journalled whole: the first write to a word records all of
   its bytes, none of which has been written since [journal_begin], so
   restoring the word restores exactly the pre-journal bytes.  A word
   past the end of a memory whose size is not a multiple of 4 covers
   only the bytes that exist. *)

let journal_active t = t.journal.active

let journal_begin t =
  let j = t.journal in
  if j.active then
    invalid_arg "Memory.journal_begin: journal already active";
  if Bytes.length j.marks = 0 then
    j.marks <- Bytes.make ((t.size + 31) / 32) '\000';
  j.active <- true

(* Close the journal, clearing the marks of the words it recorded. *)
let journal_end t =
  let j = t.journal in
  for i = 0 to j.len - 1 do
    Bytes.set j.marks (j.words.(i) lsr 3) '\000'
  done;
  j.len <- 0;
  j.active <- false

let journal_commit t =
  if not t.journal.active then
    invalid_arg "Memory.journal_commit: no active journal";
  journal_end t

let last_byte t w = min (4 * w + 3) (t.size - 1)

let journal_abort t =
  let j = t.journal in
  if not j.active then invalid_arg "Memory.journal_abort: no active journal";
  for i = 0 to j.len - 1 do
    let w = j.words.(i) and old = j.olds.(i) in
    for a = 4 * w to last_byte t w do
      Bytes.set t.data a (Char.chr ((old lsr (8 * (a - 4 * w))) land 0xFF))
    done
  done;
  journal_end t

let journal_size t = t.journal.len

let journal_record t w =
  let j = t.journal in
  if j.len = Array.length j.words then begin
    let n = max 64 (2 * j.len) in
    let grow a = Array.append a (Array.make (n - j.len) 0) in
    j.words <- grow j.words;
    j.olds <- grow j.olds
  end;
  let old = ref 0 in
  for a = last_byte t w downto 4 * w do
    old := (!old lsl 8) lor Char.code (Bytes.get t.data a)
  done;
  j.words.(j.len) <- w;
  j.olds.(j.len) <- !old;
  j.len <- j.len + 1

(* Called after the bounds check of every architectural write. *)
let note_write t addr bytes =
  let j = t.journal in
  if j.active then
    for w = addr lsr 2 to (addr + bytes - 1) lsr 2 do
      let m = Char.code (Bytes.get j.marks (w lsr 3)) in
      let bit = 1 lsl (w land 7) in
      if m land bit = 0 then begin
        Bytes.set j.marks (w lsr 3) (Char.chr (m lor bit));
        journal_record t w
      end
    done

let check t addr bytes what =
  if addr < 0 || addr + bytes > t.size then
    raise (Bad_access { addr; what })

let check_align addr bytes what =
  if addr mod bytes <> 0 then raise (Bad_access { addr; what })

(* Fused bounds+alignment checks: [Bad_access] carries the same payload
   whether the address is out of range or misaligned, so one combined
   branch per access suffices on the hot path. *)

let[@inline] check1 t addr what =
  if addr < 0 || addr >= t.size then raise (Bad_access { addr; what })

let[@inline] check2 t addr what =
  if addr < 0 || addr + 2 > t.size || addr land 1 <> 0 then
    raise (Bad_access { addr; what })

let[@inline] check4 t addr what =
  if addr < 0 || addr + 4 > t.size || addr land 3 <> 0 then
    raise (Bad_access { addr; what })

(* Raw accessors (no event counting): used for dataset initialization and
   for result checking. *)

let get_u8 t addr =
  check1 t addr "get_u8";
  Char.code (Bytes.unsafe_get t.data addr)

let set_u8 t addr v =
  check1 t addr "set_u8";
  note_write t addr 1;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let get_u16 t addr =
  check2 t addr "get_u16";
  Bytes.get_uint16_le t.data addr

let set_u16 t addr v =
  check2 t addr "set_u16";
  note_write t addr 2;
  Bytes.set_uint16_le t.data addr (v land 0xFFFF)

let get_i32 t addr : int32 =
  check4 t addr "get_i32";
  Bytes.get_int32_le t.data addr

let set_i32 t addr (v : int32) =
  check4 t addr "set_i32";
  note_write t addr 4;
  Bytes.set_int32_le t.data addr v

let get_int t addr = Int32.to_int (get_i32 t addr)
let set_int t addr v = set_i32 t addr (Int32.of_int v)

let get_f32 t addr = Int32.float_of_bits (get_i32 t addr)
let set_f32 t addr v = set_i32 t addr (Int32.bits_of_float v)

(* Architectural accessors used by the simulators. *)

let sext8 v = if v land 0x80 <> 0 then v - 0x100 else v
let sext16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

(** [load t width addr] returns the value as a sign/zero-extended int32. *)
let load t (w : Insn.width) addr : int32 =
  t.loads <- t.loads + 1;
  match w with
  | B -> Int32.of_int (sext8 (get_u8 t addr))
  | Bu -> Int32.of_int (get_u8 t addr)
  | H -> Int32.of_int (sext16 (get_u16 t addr))
  | Hu -> Int32.of_int (get_u16 t addr)
  | W -> get_i32 t addr

let store t (w : Insn.width) addr (v : int32) =
  t.stores <- t.stores + 1;
  match w with
  | B | Bu -> set_u8 t addr (Int32.to_int v land 0xFF)
  | H | Hu -> set_u16 t addr (Int32.to_int v land 0xFFFF)
  | W -> set_i32 t addr v

(* Native-int variants of the architectural accessors, for executors
   whose register file is already sign-extended native ints
   ([Exec.step]): same checks, counters and journal behavior, but the
   value crosses the call boundary as an unboxed [int] instead of a
   boxed [int32]. *)

let load_int t (w : Insn.width) addr : int =
  t.loads <- t.loads + 1;
  match w with
  | B -> sext8 (get_u8 t addr)
  | Bu -> get_u8 t addr
  | H -> sext16 (get_u16 t addr)
  | Hu -> get_u16 t addr
  | W ->
    check4 t addr "get_i32";
    Int32.to_int (Bytes.get_int32_le t.data addr)

let store_int t (w : Insn.width) addr (v : int) =
  t.stores <- t.stores + 1;
  match w with
  | B | Bu -> set_u8 t addr (v land 0xFF)
  | H | Hu -> set_u16 t addr (v land 0xFFFF)
  | W ->
    (* [set_i32] inlined so the intermediate int32 never crosses a call
       boundary (a boxed-int32 allocation per store without flambda) *)
    check4 t addr "set_i32";
    note_write t addr 4;
    Bytes.set_int32_le t.data addr (Int32.of_int v)

(** Atomic read-modify-write on a word: returns the old value. *)
let amo t (op : Insn.amo_op) addr (v : int32) : int32 =
  t.amos <- t.amos + 1;
  let old = get_i32 t addr in
  let nv =
    match op with
    | Amo_add -> Int32.add old v
    | Amo_and -> Int32.logand old v
    | Amo_or -> Int32.logor old v
    | Amo_xchg -> v
    | Amo_min -> if Int32.compare old v <= 0 then old else v
    | Amo_max -> if Int32.compare old v >= 0 then old else v
  in
  set_i32 t addr nv;
  old

let amo_sext_shift = Sys.int_size - 32

let amo_int t (op : Insn.amo_op) addr (v : int) : int =
  t.amos <- t.amos + 1;
  check4 t addr "get_i32";
  let old = Int32.to_int (Bytes.get_int32_le t.data addr) in
  let nv =
    match op with
    | Amo_add -> ((old + v) lsl amo_sext_shift) asr amo_sext_shift
    | Amo_and -> old land v
    | Amo_or -> old lor v
    | Amo_xchg -> v
    | Amo_min -> if old <= v then old else v
    | Amo_max -> if old >= v then old else v
  in
  note_write t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int nv);
  old

(** Number of bytes a width accesses (for address-overlap checks). *)
let width_bytes : Insn.width -> int = Insn.width_bytes

(* Bulk helpers for dataset setup / checking: one up-front range (and
   alignment) check for the whole transfer, then a raw inner loop —
   datasets are rebuilt for every uncached run, so the per-element
   checks these replace were pure overhead. *)

let check_range t ~addr ~bytes ~align what =
  if bytes > 0 then begin
    check t addr bytes what;
    check_align addr align what
  end

let blit_int_array t ~addr (a : int array) =
  let n = Array.length a in
  check_range t ~addr ~bytes:(4 * n) ~align:4 "blit_int_array";
  note_write t addr (4 * n);
  let d = t.data in
  for i = 0 to n - 1 do
    Bytes.set_int32_le d (addr + 4 * i)
      (Int32.of_int (Array.unsafe_get a i))
  done

let read_int_array t ~addr ~n =
  check_range t ~addr ~bytes:(4 * n) ~align:4 "read_int_array";
  let d = t.data in
  Array.init n (fun i -> Int32.to_int (Bytes.get_int32_le d (addr + 4 * i)))

let blit_f32_array t ~addr (a : float array) =
  let n = Array.length a in
  check_range t ~addr ~bytes:(4 * n) ~align:4 "blit_f32_array";
  note_write t addr (4 * n);
  let d = t.data in
  for i = 0 to n - 1 do
    Bytes.set_int32_le d (addr + 4 * i)
      (Int32.bits_of_float (Array.unsafe_get a i))
  done

let read_f32_array t ~addr ~n =
  check_range t ~addr ~bytes:(4 * n) ~align:4 "read_f32_array";
  let d = t.data in
  Array.init n
    (fun i -> Int32.float_of_bits (Bytes.get_int32_le d (addr + 4 * i)))

let blit_bytes t ~addr (a : int array) =
  let n = Array.length a in
  check_range t ~addr ~bytes:n ~align:1 "blit_bytes";
  note_write t addr n;
  let d = t.data in
  for i = 0 to n - 1 do
    Bytes.unsafe_set d (addr + i)
      (Char.unsafe_chr (Array.unsafe_get a i land 0xFF))
  done

let read_bytes t ~addr ~n =
  check_range t ~addr ~bytes:n ~align:1 "read_bytes";
  let d = t.data in
  Array.init n (fun i -> Char.code (Bytes.unsafe_get d (addr + i)))

let reset_counters t =
  t.loads <- 0; t.stores <- 0; t.amos <- 0
