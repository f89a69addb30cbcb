(** Segmented append-only record log.

    The message log lives in numbered segment files [seg-<start>.dat],
    where [<start>] is the absolute logical index of the segment's first
    record — so logical positions survive both restarts and prefix
    compaction (deleting whole leading segments) without any translation
    table.  Records are {!Codec} frames; appends go to the newest segment
    and are made durable in batches by {!sync}, which is the physical face
    of the paper's [flush] operation.

    Open-time recovery streams every segment in order, one frame in
    memory at a time and checked where it lies, and stops at the first
    anomaly — a torn frame, a checksum mismatch, a record the
    caller's validity check rejects, or a segment whose record count does
    not meet the next segment's start index.  Everything from the anomaly
    onward is truncated (later segments deleted), so the recovered log is
    always a gap-free prefix of what was written.  Open keeps no record:
    reads go back to the files ({!fold_from}).

    [kill] models a process death: nothing is synced and the descriptors
    close.  What a death loses belongs to the file system, not to the log:
    a kernel keeps every written byte, and only a lying disk ({!Fs.Mem.lie})
    loses the appends its fsyncs never made durable.

    A [sync] whose fsync raises is fail-stop: the log refuses every later
    {!append} and {!sync} and never calls fsync again, because a second
    fsync after a failed one can report success for pages the kernel
    already dropped. *)

type t

type recovered = {
  bytes_dropped : int;
      (** bytes truncated from the first anomaly on: the rest of its
          segment plus every later segment *)
  segments_dropped : int;  (** later segments discarded after an anomaly *)
  tail : Codec.tail;
      (** state of the first anomaly encountered; a record [valid]
          rejected counts as [Corrupt_tail] *)
}

val open_ :
  fs:Fs.t ->
  dir:string ->
  ?segment_bytes:int ->
  valid:(Bytes.t -> off:int -> len:int -> bool) ->
  unit ->
  t * recovered
(** Open (creating if needed) the segment log in [dir] of [fs].  [segment_bytes]
    (default 64 KiB) is the size threshold past which appends rotate to a
    new segment.  [valid] is asked of each well-framed payload in log
    order, in place ([len] bytes from [off], valid only during the call); the first one it rejects ends the recovered log, exactly like a
    corrupt frame.  The recovered records are {!first_index} .. [next_index - 1]. *)

val append : t -> string -> int
(** Append one record payload; returns its absolute logical index.  The
    record is volatile until the next {!sync}.
    @raise Failure once a {!sync} has raised. *)

val fold_from :
  t ->
  pos:int ->
  decode:(Bytes.t -> off:int -> len:int -> 'a option) ->
  init:'acc ->
  f:('acc -> int -> 'a -> 'acc) ->
  'acc
(** Fold [f] over the records at logical indices [pos] .. [next_index - 1],
    oldest first, each payload mapped through [decode] and passed with its
    index.  Streamed from the segment files through one frame buffer
    ({!Codec.frames}): the log keeps neither payloads nor per-record
    byte offsets in memory, so the segment holding [pos] is scanned from
    byte 0, segments wholly below [pos] are not read, and [decode] sees
    only the records from [pos] on, in place.  Appended records are readable before their
    {!sync}.  An exception raised by [f] stops the fold.
    @raise Failure naming the segment file and the record's logical index
    if a record fails its checksum, is cut short, or [decode] rejects it:
    a damaged log is reported, never folded shorter.
    @raise Invalid_argument if [pos] is outside
    [[first_index, next_index]]. *)

val read_from :
  t -> pos:int -> decode:(Bytes.t -> off:int -> len:int -> 'a option) -> 'a list
(** {!fold_from} into a list, oldest first; raises like it. *)

val sync : t -> unit
(** fsync the newest segment (one synchronous operation per batch).  An
    exception from the fsync is re-raised, and from then on the log is
    fail-stop.
    @raise Failure once an earlier {!sync} has raised. *)

val next_index : t -> int
(** Logical index the next {!append} will get. *)

val first_index : t -> int
(** Logical index of the oldest physically retained record. *)

val truncate_after : t -> keep:int -> unit
(** Physically discard every record with logical index [>= keep]: later
    segments are deleted and the segment containing [keep] is truncated at
    the record boundary, found by scanning that segment.  Subsequent
    appends continue at index [keep].
    @raise Failure like {!fold_from} if that segment is damaged. *)

val drop_segments_below : t -> before:int -> unit
(** Delete whole segments that only contain records with index [< before].
    The newest segment is never deleted; compaction is segment-grained, so
    a few records below [before] may physically survive. *)

val segment_count : t -> int

val is_segment : string -> bool
(** Whether a path names a segment file ([seg-<start>.dat]). *)

val kill : t -> unit
(** Process death: close all descriptors, sync nothing.  The log is
    unusable afterwards; reopen with {!open_}. *)

val close : t -> unit
(** Graceful close: {!sync} (unless an earlier one raised), then release
    descriptors. *)
