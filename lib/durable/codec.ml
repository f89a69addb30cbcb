let magic = '\xd7'

let header_bytes = 10 (* magic 1 + kind 1 + length 4 + crc 4 *)

(* CRC32, IEEE 802.3 reflected polynomial, slicing-by-8 (Kounavis and
   Berry): eight tables, [tables.(256 * k + i)] the CRC of byte [i]
   followed by [k] zero bytes, so eight bytes fold into the state with
   eight independent lookups instead of a chain of eight.  Table 0 is the
   byte-at-a-time table, which finishes the last [len mod 8] bytes.
   Plain OCaml ints: the value always fits 32 bits, masked on the way out. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for i = 0 to 255 do
       let c = ref i in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(i) <- !c
     done;
     for k = 1 to 7 do
       for i = 0 to 255 do
         let prev = t.((256 * (k - 1)) + i) in
         t.((256 * k) + i) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let mask32 = 0xFFFFFFFF

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

(* Four bytes at [i], little-endian, as a non-negative int.  Only called
   on a little-endian host, in bounds. *)
let[@inline] le32 b i = Int32.to_int (get32u b i) land mask32

let[@inline] tab t k i = Array.unsafe_get t ((256 * k) + i)

(* The running state in and out of the table loop, without an optional
   argument: a call from the frame checks allocates nothing. *)
let crc_update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.crc32";
  let t = Lazy.force tables in
  let c = ref (crc lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  if not Sys.big_endian then
    while !i + 8 <= stop do
      let lo = le32 b !i lxor !c and hi = le32 b (!i + 4) in
      c :=
        tab t 7 (lo land 0xFF)
        lxor tab t 6 ((lo lsr 8) land 0xFF)
        lxor tab t 5 ((lo lsr 16) land 0xFF)
        lxor tab t 4 (lo lsr 24)
        lxor tab t 3 (hi land 0xFF)
        lxor tab t 2 ((hi lsr 8) land 0xFF)
        lxor tab t 1 ((hi lsr 16) land 0xFF)
        lxor tab t 0 (hi lsr 24);
      i := !i + 8
    done;
  for j = !i to stop - 1 do
    c := tab t 0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor mask32

let crc32 ?(init = 0) s ~pos ~len = crc_update init (Bytes.unsafe_of_string s) ~pos ~len

(* The checksum covers kind + length + payload, i.e. everything after the
   magic byte, so no single flipped byte can yield a different valid
   record. *)
let frame_crc ~kind ~len payload =
  let head = Bytes.create 5 in
  Bytes.set head 0 (Char.chr kind);
  Bytes.set_int32_le head 1 (Int32.of_int len);
  let c = crc32 (Bytes.unsafe_to_string head) ~pos:0 ~len:5 in
  crc32 ~init:c payload ~pos:0 ~len

let encode_into buf ~kind payload =
  if kind < 0 || kind > 0xFF then invalid_arg "Codec.encode: kind out of range";
  let len = String.length payload in
  let head = Bytes.create header_bytes in
  Bytes.set head 0 magic;
  Bytes.set head 1 (Char.chr kind);
  Bytes.set_int32_le head 2 (Int32.of_int len);
  Bytes.set_int32_le head 6 (Int32.of_int (frame_crc ~kind ~len payload));
  Buffer.add_bytes buf head;
  Buffer.add_string buf payload

let encode ~kind payload =
  let buf = Buffer.create (header_bytes + String.length payload) in
  encode_into buf ~kind payload;
  Buffer.contents buf

type decoded =
  | Record of { kind : int; payload : string; next : int }
  | Truncated
  | Corrupt
  | End

let get_le32_bytes b pos = Int32.to_int (Bytes.get_int32_le b pos) land mask32

type check = Whole | Partial | Damaged

let payload_length b ~pos = get_le32_bytes b (pos + 2)

(* The frame at [b.[pos..]], [avail] bytes of it at hand.  Only those
   bytes are read: the length is compared with [avail] before the
   checksum runs over the payload. *)
let check b ~pos ~avail =
  if avail < header_bytes then Partial
  else if Bytes.get b pos <> magic then Damaged
  else begin
    let len = payload_length b ~pos in
    if len > avail - header_bytes then Partial
    else
      let c = crc_update 0 b ~pos:(pos + 1) ~len:5 in
      if crc_update c b ~pos:(pos + header_bytes) ~len = get_le32_bytes b (pos + 6) then
        Whole
      else Damaged
  end

let decode s ~pos =
  let total = String.length s in
  if pos < 0 || pos > total then invalid_arg "Codec.decode: position out of range";
  let b = Bytes.unsafe_of_string s in
  if pos = total then End
  else
    match check b ~pos ~avail:(total - pos) with
    (* A mutated length field reads as [Partial] too; indistinguishable
       from a torn write and equally safe: the reader truncates, never
       invents a record. *)
    | Partial -> Truncated
    | Damaged -> Corrupt
    | Whole ->
      let len = payload_length b ~pos in
      Record
        {
          kind = Char.code s.[pos + 1];
          payload = String.sub s (pos + header_bytes) len;
          next = pos + header_bytes + len;
        }

(* A sealed blob is a one-record envelope (fixed kind) whose checksum
   witnesses the exact bytes handed to [seal].  [Marshal] output travels
   inside these, so a damaged or version-skewed blob is rejected by the
   witness ([is_sealed]) before [Marshal] ever reads it. *)
let k_sealed = 0x53 (* 'S' *)

let seal payload = encode ~kind:k_sealed payload

let is_sealed b ~off ~len =
  len >= header_bytes
  && Char.code (Bytes.get b (off + 1)) = k_sealed
  && payload_length b ~pos:off = len - header_bytes
  && check b ~pos:off ~avail:len = Whole

type tail = Clean | Torn | Corrupt_tail

type scan_result = {
  records : (int * string) list;
  valid_bytes : int;
  tail : tail;
}

let fold s ~init ~f =
  let rec loop pos acc =
    match decode s ~pos with
    | End -> (acc, pos, Clean)
    | Truncated -> (acc, pos, Torn)
    | Corrupt -> (acc, pos, Corrupt_tail)
    | Record { kind; payload; next } -> loop next (f acc ~pos kind payload)
  in
  loop 0 init

let scan s =
  let records, valid_bytes, tail =
    fold s ~init:[] ~f:(fun acc ~pos:_ kind payload -> (kind, payload) :: acc)
  in
  { records = List.rev records; valid_bytes; tail }

type buffer = { mutable bytes : Bytes.t }

let buffer () = { bytes = Bytes.empty }

(* Reads go through at most this many bytes at a time, unless one frame
   is larger. *)
let chunk = 4096

(* The state of one [fold_input]: [buf.bytes.[lo, hi)] holds the input's
   bytes from offset [at] on.  A frame is parsed where it lies; the buffer
   moves what is left to its front before a read, and grows only when a
   frame does not fit: to the frame, at least, and to the smaller of
   [chunk] and the input, so a small file costs a small buffer.  [size]
   bounds every growth.  The loop is top-level over this one record, so a
   fold allocates it and nothing per frame. *)
type reader = {
  buf : buffer;
  size : int;
  input : Bytes.t -> int -> int -> int;
  mutable lo : int;
  mutable hi : int;
  mutable at : int;
  mutable eof : bool;
}

let rec fill r need =
  if r.hi - r.lo >= need then true
  else if r.eof then false
  else begin
    let b = r.buf.bytes in
    if r.lo + need > Bytes.length b then begin
      let cap = Int.max need (Int.min chunk r.size) in
      let b' = if cap > Bytes.length b then Bytes.create cap else b in
      Bytes.blit b r.lo b' 0 (r.hi - r.lo);
      r.buf.bytes <- b';
      r.hi <- r.hi - r.lo;
      r.lo <- 0
    end;
    let n = r.input r.buf.bytes r.hi (Bytes.length r.buf.bytes - r.hi) in
    if n = 0 then r.eof <- true else r.hi <- r.hi + n;
    fill r need
  end

let rec frames r acc ~f =
  if not (fill r header_bytes) then (acc, r.at, if r.hi = r.lo then Clean else Torn)
  else
    let b = r.buf.bytes and p = r.lo in
    match check b ~pos:p ~avail:(r.hi - p) with
    | Damaged -> (acc, r.at, Corrupt_tail)
    | Partial ->
      (* The length is checked against the input's size before anything
         is read or allocated for it: a mutated length field reads as a
         torn frame, as in [decode]. *)
      let len = payload_length b ~pos:p in
      if len > r.size - r.at - header_bytes || not (fill r (header_bytes + len)) then
        (acc, r.at, Torn)
      else frames r acc ~f
    | Whole ->
      let len = payload_length b ~pos:p and kind = Char.code (Bytes.get b (p + 1)) in
      let pos = r.at in
      r.lo <- p + header_bytes + len;
      r.at <- pos + header_bytes + len;
      frames r (f acc ~pos ~kind b ~off:(p + header_bytes) ~len) ~f

let fold_input ?(buf = buffer ()) ~size ~input ~init ~f () =
  frames { buf; size; input; lo = 0; hi = 0; at = 0; eof = false } init ~f
