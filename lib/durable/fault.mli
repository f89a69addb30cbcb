(** Storage fault injection.

    Faults model what real disks do to logging systems, each one paired
    with a kill.  [Failed_fsync] is armed on the {e live} store before
    the kill ({!Durable_store.arm_fsync_failure}); the other three mutate
    the closed files of the killed store, between death and respawn —
    exactly when a real machine would lose or mangle sectors.  Brownouts
    that outlive no process (a full disk, a slow fsync) are armed on a
    live store without a kill: {!Durable_store.arm_disk_full} and
    {!Durable_store.arm_slow_fsync}, which the chaos [Brownout] directive
    and koptnode's [Arm_brownout] control reach.

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

val all : t list

val to_string : t -> string

val of_string : string -> t option

val pp : Format.formatter -> t -> unit

val apply : fs:Fs.t -> dir:string -> rand:(int -> int) -> t -> string
(** Mutate the store files under [dir] of [fs] after a kill.  [rand n] must return
    a uniform integer in [\[0, n)]; callers pass a stream derived from the
    run's seed so campaigns stay reproducible.  Returns a human-readable
    description of the damage done (or why none was possible, e.g. no
    segment had any bytes yet).  [Failed_fsync] is described only —
    arming happens through {!Durable_store} before the kill. *)
