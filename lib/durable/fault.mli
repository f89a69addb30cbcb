(** Storage fault injection.

    Faults model what real disks do to logging systems, each one paired
    with a kill, and each acts on the file system the store runs on.
    [Failed_fsync] is a lying disk: the process's in-memory tree lies
    about the log's fsyncs from before the kill ({!Fs.Mem.lie}), and the
    death cuts every segment back to what was really synced
    ({!Fs.Mem.halt}).  The other three mutate the closed files of the
    killed store, between death and respawn — exactly when a real machine
    would lose or mangle sectors.  The one brownout that outlives no
    process, a full disk, is armed on a live store without a kill
    ({!Durable_store.arm_disk_full}), which the chaos [Brownout]
    directive and koptnode's [Arm_brownout] control reach.

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
          armed on the tree before the kill, a no-op afterwards *)

val all : t list

val to_string : t -> string

val of_string : string -> t option

val apply : fs:Fs.t -> dir:string -> rand:(int -> int) -> t -> string
(** Mutate the store files under [dir] of [fs] after a kill.  [rand n] must return
    a uniform integer in [\[0, n)]; callers pass a stream derived from the
    run's seed so campaigns stay reproducible.  Returns a human-readable
    description of the damage done (or why none was possible, e.g. no
    segment had any bytes yet).  Damage is durable: a flipped bit is
    rewritten with an fsync.  [Failed_fsync] is described only — the lie
    is armed on the file system before the kill. *)
