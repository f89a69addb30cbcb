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

type step = Frame | Await | Eof | Cut | Too_long | Damaged

(* The one frame check.  The frame at [b.[pos..]], [avail] bytes of it at
   hand: [Await] until its header is whole; then [Damaged] on a wrong
   magic, [Too_long] on a length over [limit], [Await] until the payload
   is whole, and [Frame] or [Damaged] by its checksum.  Only those bytes
   are read, and nothing is allocated. *)
let parse b ~pos ~avail ~limit =
  if avail < header_bytes then Await
  else if Bytes.get b pos <> magic then Damaged
  else begin
    let len = get_le32_bytes b (pos + 2) in
    if len > limit then Too_long
    else if len > avail - header_bytes then Await
    else
      let c = crc_update 0 b ~pos:(pos + 1) ~len:5 in
      if crc_update c b ~pos:(pos + header_bytes) ~len = get_le32_bytes b (pos + 6) then
        Frame
      else Damaged
  end

let decode s ~pos =
  let total = String.length s in
  if pos < 0 || pos > total then invalid_arg "Codec.decode: position out of range";
  let b = Bytes.unsafe_of_string s in
  if pos = total then End
  else
    let avail = total - pos in
    match parse b ~pos ~avail ~limit:(avail - header_bytes) with
    (* A mutated length field reads as a torn frame: indistinguishable
       from a torn write and equally safe, as the reader truncates, never
       invents a record. *)
    | Await | Too_long | Eof | Cut -> Truncated
    | Damaged -> Corrupt
    | Frame ->
      let len = get_le32_bytes b (pos + 2) in
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
  && get_le32_bytes b (off + 2) = len - header_bytes
  && parse b ~pos:off ~avail:len ~limit:(len - header_bytes) = Frame

(* ------------------------------------------------------------------ *)
(* The reader                                                          *)

(* [bytes.[lo, hi)] holds what was read and not yet framed, from input
   offset [at] on; [frame] is where the header [next] last looked at
   starts: the frame it returned, which [lo] has passed, or the one at
   [lo] it stopped on.  A returned frame stays in place until the next
   call, which is the only one that moves or replaces [bytes]. *)
type reader = {
  mutable bytes : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable at : int;
  mutable frame : int;
  mutable ended : bool;
}

let reader () = { bytes = Bytes.empty; lo = 0; hi = 0; at = 0; frame = 0; ended = false }

let kind r = Char.code (Bytes.get r.bytes (r.frame + 1))

let length r = get_le32_bytes r.bytes (r.frame + 2)

let offset r = r.at - (r.lo - r.frame)

let payload r = Bytes.sub_string r.bytes (r.frame + header_bytes) (length r)

let capacity r = Bytes.length r.bytes

(* Reads fill the buffer, which is at most this long unless one frame is
   longer. *)
let chunk = 4096

(* Room for [need] bytes from the front: what is left slides there, and
   the buffer grows only when a frame does not fit, to the frame or to
   the smaller of [chunk] and the most a frame may claim, so a small file
   costs a small buffer. *)
let room r need ~limit =
  let have = r.hi - r.lo in
  if r.lo > 0 then Bytes.blit r.bytes r.lo r.bytes 0 have;
  if need > Bytes.length r.bytes then begin
    let b = Bytes.create (Int.max need (if limit < chunk then header_bytes + limit else chunk)) in
    Bytes.blit r.bytes 0 b 0 have;
    r.bytes <- b
  end;
  r.lo <- 0;
  r.hi <- have

let rec next r ~limit input =
  if r.lo = r.hi && r.lo > 0 then begin
    (* Nothing buffered: start over at the front, and give back a buffer
       a large frame grew. *)
    r.lo <- 0;
    r.hi <- 0;
    if Bytes.length r.bytes > chunk then r.bytes <- Bytes.empty
  end;
  r.frame <- r.lo;
  let avail = r.hi - r.lo in
  match parse r.bytes ~pos:r.lo ~avail ~limit with
  | Frame ->
    let n = header_bytes + length r in
    r.lo <- r.lo + n;
    r.at <- r.at + n;
    Frame
  | Await ->
    if r.ended then if avail = 0 then Eof else Cut
    else begin
      room r (if avail < header_bytes then header_bytes else header_bytes + length r) ~limit;
      let n = input r.bytes r.hi (Bytes.length r.bytes - r.hi) in
      if n < 0 then Await
      else begin
        if n = 0 then r.ended <- true else r.hi <- r.hi + n;
        next r ~limit input
      end
    end
  | (Too_long | Damaged | Eof | Cut) as s -> s

type tail = Clean | Torn | Corrupt_tail

let frames ?reader:(r = reader ()) ~size input ~init ~f =
  r.lo <- 0;
  r.hi <- 0;
  r.at <- 0;
  r.ended <- false;
  let rec go acc =
    match next r ~limit:(size - r.at - header_bytes) input with
    | Frame ->
      go
        (f acc ~pos:(offset r) ~kind:(kind r) r.bytes ~off:(r.frame + header_bytes)
           ~len:(length r))
    | Eof -> (acc, r.at, Clean)
    | Damaged -> (acc, r.at, Corrupt_tail)
    | Await | Cut | Too_long -> (acc, r.at, Torn)
  in
  go init
