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
(** The one frame at [s.[pos..]], held to the bytes [s] has left: a
    length field that claims more is [Truncated]. *)

val seal : string -> string
(** Wrap a blob in a one-record envelope whose CRC32 witnesses the exact
    sealed bytes.  Everything [Marshal]-encoded that touches disk travels
    sealed, so {!is_sealed} rejects damaged or version-skewed bytes before
    [Marshal] can crash (or worse, misread) on them. *)

val is_sealed : Bytes.t -> off:int -> len:int -> bool
(** In place: [b.[off, off+len)] is exactly one sealed blob: a whole frame
    of the seal's kind whose checksum holds.  The blob is the
    [len - header_bytes] bytes from [off + header_bytes]. *)

(** {1 The reader}

    Every stream of frames is read through a {!reader}: peer, control and
    proxy sockets, the driver's control replies, store files, trace files
    and metrics files.  It takes bytes from an input, as {!Fs.t.read_with}
    gives one: [input buf pos len] reads up to [len] bytes into [buf] at
    [pos] and returns how many, [0] at the end of the input, or [-1] when
    the input has nothing now (a nonblocking socket).  A reader is
    resumable: after [Await] it picks up where it stopped once the input
    has more.

    One rule refuses a frame: as soon as its 10-byte header is whole, a
    wrong magic is [Damaged] and a length over the caller's [limit] is
    [Too_long], before anything is read or allocated for the payload.  A
    socket passes the wire's bound and treats both as errors; a file
    passes the bytes it has left past the header, so a length that runs
    past its end reads as a torn tail ({!frames}).  A whole frame is
    checked against its CRC32 where it lies in the buffer.

    The buffer starts empty.  A read fills it, and it grows only when a
    frame does not fit: to the frame, at least, and to the smaller of 4 KB
    and [limit] plus the header, so a small file costs a small buffer.
    Once a frame longer than 4 KB is taken and nothing follows it in the
    buffer, the buffer is given back.  A read happens only while the
    frame at hand is incomplete, so a blocking input never waits for
    bytes past the frame asked for. *)

type reader

val reader : unit -> reader

type step =
  | Frame
      (** a whole frame whose magic and checksum hold: {!kind},
          {!length}, {!offset} and {!payload} describe it until the next
          call *)
  | Await  (** the input has nothing now: call again when it has *)
  | Eof  (** the input ended where a frame would start *)
  | Cut  (** the input ended inside a frame *)
  | Too_long  (** a whole header claims a payload over the limit ({!length}) *)
  | Damaged  (** a wrong magic, or a whole frame whose checksum fails *)

val next : reader -> limit:int -> (Bytes.t -> int -> int -> int) -> step
(** The next frame of the input, reading it while the frame at hand is
    incomplete.  After anything but [Frame] or [Await] the stream cannot
    be resynchronised: stop reading it. *)

val kind : reader -> int

val length : reader -> int
(** The payload length the header at hand claims. *)

val offset : reader -> int
(** The input offset of the frame [next] returned; after any other step,
    of the first byte no frame took (the valid prefix's length). *)

val payload : reader -> string
(** A copy of the frame's payload. *)

val capacity : reader -> int
(** The buffer's length. *)

type tail = Clean | Torn | Corrupt_tail

val frames :
  ?reader:reader ->
  size:int ->
  (Bytes.t -> int -> int -> int) ->
  init:'a ->
  f:('a -> pos:int -> kind:int -> Bytes.t -> off:int -> len:int -> 'a) ->
  'a * int * tail
(** Fold [f] over the frames of a file of [size] bytes, oldest first,
    through [reader] (a fresh one by default; a used one starts over at
    offset 0 and keeps its buffer), each frame's limit the bytes the file
    has left.  [f] gets each frame's offset, its kind and its payload as
    [len] bytes of the buffer from [off], valid only until [f] returns.  Returns the accumulator, the length of the
    longest valid prefix and how the input ended: an end inside a frame,
    or a length that runs past the end, is [Torn].  Allocates nothing per
    frame besides what [f] does. *)
