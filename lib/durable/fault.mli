(** Storage fault injection.

    Faults model what real disks do to logging systems.  [Failed_fsync],
    [Disk_full] and [Slow_fsync] are armed on a {e live} store (see
    {!Durable_store.arm_fsync_failure}, {!Durable_store.arm_disk_full},
    {!Durable_store.arm_slow_fsync}); the other three mutate the closed
    files of a killed store, between death and respawn — exactly when a
    real machine would lose or mangle sectors.

    Damage is targeted {e structurally}: the injector scans the victim
    file's {!Codec} frames and aims at a record index (tear the final
    record, cut at a record boundary, flip a bit of record [i]), never at
    a raw byte offset of the whole file.  Record boundaries move when the
    on-disk format evolves, but "record [i]" keeps naming the same logical
    object, so campaigns and their committed expectations survive format
    changes. *)

type t =
  | Torn_final_write  (** shear the final log record mid-write *)
  | Bit_flip  (** flip one bit of a random record in a random store file *)
  | Truncated_segment  (** cut a random log segment at a record boundary *)
  | Failed_fsync
      (** the log's fsync reports success without persisting (lying disk);
          applied before the kill, a no-op afterwards *)
  | Disk_full
      (** ENOSPC brownout on the live store: flushes refuse (and are
          counted) while the window lasts; nothing is dropped *)
  | Slow_fsync
      (** slow-disk brownout on the live store: fsync rounds stretched *)

val all : t list

val to_string : t -> string

val of_string : string -> t option

val pp : Format.formatter -> t -> unit

val apply : fs:Fs.t -> dir:string -> rand:(int -> int) -> t -> string
(** Mutate the store files under [dir] of [fs] after a kill.  [rand n] must return
    a uniform integer in [\[0, n)]; callers pass a stream derived from the
    run's seed so campaigns stay reproducible.  Returns a human-readable
    description of the damage done (or why none was possible, e.g. no
    segment had any bytes yet).  The live-store faults ([Failed_fsync],
    [Disk_full], [Slow_fsync]) are described only — arming happens through
    {!Durable_store} before the kill. *)
