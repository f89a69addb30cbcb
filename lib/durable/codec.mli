(** Self-describing binary record codec for the on-disk stores.

    Every durable artifact (log segments, checkpoint snapshots, the
    synchronous area) is a sequence of framed records:

    {v
      +-------+------+-----------+----------+------------------+
      | magic | kind | length LE | crc32 LE | payload          |
      | 1 B   | 1 B  | 4 B       | 4 B      | [length] bytes   |
      +-------+------+-----------+----------+------------------+
    v}

    The CRC32 (IEEE, reflected) covers the kind byte, the length field and
    the payload, so a single-byte mutation anywhere in a record is either
    caught by the checksum, rejected by the magic byte, or turns the frame
    into a truncation — a reader can never accept a wrong record.  Decoding
    stops at the first anomaly; whatever follows is treated as a torn or
    corrupt tail and truncated by open-time recovery. *)

val magic : char

val header_bytes : int
(** Bytes of framing overhead per record (magic + kind + length + crc). *)

val crc32 : ?init:int -> string -> pos:int -> len:int -> int
(** Running CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a
    substring.  [init] defaults to the empty-message state; feed the result
    back in to checksum discontiguous pieces.  The result fits 32 bits. *)

val encode : kind:int -> string -> string
(** Frame one record.  [kind] must fit one byte. *)

val encode_into : Buffer.t -> kind:int -> string -> unit

type decoded =
  | Record of { kind : int; payload : string; next : int }
      (** a valid frame; [next] is the offset just past it *)
  | Truncated  (** the bytes end mid-frame: a torn write *)
  | Corrupt  (** bad magic or checksum mismatch *)
  | End  (** clean end of input *)

val decode : string -> pos:int -> decoded

(** {1 In place}

    The one frame check: the store's readers, the socket reader
    ({!Net.Wire_codec.Reader}) and the trace loader all parse with it. *)

type check =
  | Whole  (** a complete frame whose magic and checksum hold *)
  | Partial
      (** the bytes at hand are fewer than a header, or than the header's
          length field says: a torn frame, or one still arriving *)
  | Damaged  (** bad magic, or a checksum mismatch *)

val check : Bytes.t -> pos:int -> avail:int -> check
(** The frame at [b.[pos]] of which the [avail] bytes [b.[pos, pos+avail)]
    are at hand; reads nothing past them and allocates nothing.  A
    [Whole] frame's kind is the byte at [pos + 1] and its payload the
    {!payload_length} bytes from [pos + header_bytes]. *)

val payload_length : Bytes.t -> pos:int -> int
(** The length field of the header at [b.[pos]] (which must be whole), as
    the frame claims it: check it against a bound before trusting it. *)

val seal : string -> string
(** Wrap a blob in a one-record envelope whose CRC32 witnesses the exact
    sealed bytes.  Everything [Marshal]-encoded that touches disk travels
    sealed, so {!is_sealed} rejects damaged or version-skewed bytes before
    [Marshal] can crash (or worse, misread) on them. *)

val is_sealed : Bytes.t -> off:int -> len:int -> bool
(** In place: [b.[off, off+len)] is exactly one sealed blob: a whole frame
    of the seal's kind whose checksum holds.  The blob is the
    [len - header_bytes] bytes from [off + header_bytes]. *)

type tail = Clean | Torn | Corrupt_tail

type scan_result = {
  records : (int * string) list;  (** (kind, payload), oldest first *)
  valid_bytes : int;  (** length of the longest valid prefix *)
  tail : tail;
}

val fold :
  string -> init:'a -> f:('a -> pos:int -> int -> string -> 'a) -> 'a * int * tail
(** [fold s ~init ~f] feeds each record's offset, kind and payload to [f],
    oldest first, from offset 0 until the first anomaly or the end; returns the
    accumulator, the length of the longest valid prefix and how the input
    ended.  Only one decoded payload is live at a time. *)

val scan : string -> scan_result
(** Decode records from offset 0 until the first anomaly or the end,
    collecting them: {!fold} into a list. *)

(** {1 Streaming} *)

type buffer
(** A reusable frame buffer, grown on demand to the smaller of 4 KB and
    the input, or to a larger frame. *)

val buffer : unit -> buffer

val fold_input :
  ?buf:buffer ->
  size:int ->
  input:(Bytes.t -> int -> int -> int) ->
  init:'a ->
  f:('a -> pos:int -> kind:int -> Bytes.t -> off:int -> len:int -> 'a) ->
  unit ->
  'a * int * tail
(** {!fold} over an input of [size] bytes read through [input] (as
    {!Fs.t.read_with} gives it), each frame checked where it lies in
    [buf] (a fresh one by default).  [f] gets each record's offset in the
    input, its kind and its payload as [len] bytes of the buffer from
    [off]; the bytes are valid only until [f] returns.  A frame's length
    is checked against [size] before it is read, so a damaged length
    never allocates more than the input holds.  Allocates nothing per
    record besides what [f] does. *)
