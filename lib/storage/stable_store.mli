(** Per-process stable storage, in two interchangeable backends.

    Models exactly the storage properties the recovery protocol relies on:

    - a {b message log} split into a stable prefix and a volatile suffix; the
      paper's optimistic logging "first saves messages in a volatile buffer
      and later writes several messages to stable storage in a single
      operation" ([flush]);
    - {b checkpoints}, each of which also flushes the volatile buffer "so
      that stable state intervals are always continuous" (Section 2);
    - a small synchronous area for {b failure announcements} and the
      process's {b incarnation counter} (Figure 3 logs announcements
      synchronously; the incarnation counter must survive a crash so that a
      process never reuses an incarnation number);
    - {b crash semantics}: [crash] discards the volatile suffix and nothing
      else.

    The store is generic in the checkpoint, log-record and announcement
    types so that it carries whatever the recovery layer defines.  It also
    counts synchronous writes and flushes; the simulation engine converts
    those counts into time via its cost model.

    Two backends implement this contract:

    - {!create} builds the original {b in-memory model} used by the
      deterministic simulation (free, instant, survives [crash] but not
      process death);
    - {!open_durable} opens a {b file-backed store}
      ({!Durable.Durable_store}): checksummed segmented log, checkpoint
      snapshot files and an fsynced synchronous area under one directory.
      Only this backend survives {!kill} — a new [open_durable] on the
      same directory recovers everything that was durable at the kill.

    The conformance suite in [test/test_storage.ml] runs the same
    assertions over both backends so they cannot drift. *)

type ('ckpt, 'log, 'ann) t

val create : unit -> ('ckpt, 'log, 'ann) t
(** A fresh in-memory store. *)

(** {1 Durable backend} *)

type open_report = Durable.Durable_store.open_report = {
  fresh : bool;
  recovered_log : int;
  log_bytes_dropped : int;
  log_segments_dropped : int;
  missing_log_records : int;
  recovered_checkpoints : int;
  checkpoints_dropped : int;
  sync_records : int;
  sync_bytes_dropped : int;
  sync_area_missing : bool;
}
(** What open-time recovery found; see {!Durable.Durable_store.open_report}
    for field documentation. *)

val report_damaged : open_report -> bool

val pp_open_report : Format.formatter -> open_report -> unit

val open_durable :
  dir:string ->
  ?segment_bytes:int ->
  ?obs:Obs.Registry.t ->
  unit ->
  ('ckpt, 'log, 'ann) t * open_report
(** Open (or create) a file-backed store rooted at [dir].  [obs] is
    forwarded to {!Durable.Durable_store.open_}: the registry where the
    backend registers its flush/fsync metric families. *)

val is_durable : ('ckpt, 'log, 'ann) t -> bool

val storage_report : ('ckpt, 'log, 'ann) t -> open_report option
(** The durable backend's open-time recovery report; [None] in memory. *)

val storage_dir : ('ckpt, 'log, 'ann) t -> string option

val kill : ('ckpt, 'log, 'ann) t -> unit
(** Process death (durable backend only): un-fsynced bytes are lost, all
    descriptors close, and the handle becomes unusable; recover with a new
    {!open_durable} on the same directory.  Contrast {!crash}, which only
    drops the volatile buffer of a handle that stays alive.
    @raise Invalid_argument on the in-memory backend, which cannot outlive
    its process. *)

val arm_fsync_failure : ('ckpt, 'log, 'ann) t -> unit
(** Storage fault injection (durable backend only): from now on the log's
    fsync lies.  See {!Durable.Durable_store.arm_fsync_failure}. *)

val arm_disk_full : ('ckpt, 'log, 'ann) t -> rounds:int -> unit
(** Brownout fault injection (both backends): the next [rounds] {!flush}
    attempts refuse as if the disk were full.  The volatile buffer is
    retained intact — nothing is lost, stability just stops advancing
    until the window passes; refusals are counted
    ({!degraded_flushes}).  {!flush_forced}, checkpoints and rollback are
    exempt (they model writers that block until space frees). *)

val arm_slow_fsync : ('ckpt, 'log, 'ann) t -> delay:float -> rounds:int -> unit
(** Brownout fault injection (durable backend only): the next [rounds]
    flush rounds stretch their fsync by [delay] seconds, outside the
    group-commit lock.  See {!Durable.Durable_store.arm_slow_fsync}. *)

val degraded_flushes : ('ckpt, 'log, 'ann) t -> int
(** Flushes refused by an armed disk-full window. *)

val slowed_fsyncs : ('ckpt, 'log, 'ann) t -> int
(** Flush rounds stretched by an armed slow-fsync window (0 in memory). *)

(** {1 Message log} *)

val append_volatile : ('ckpt, 'log, 'ann) t -> 'log -> unit
(** Record a delivered message in the volatile buffer. *)

val flush : ('ckpt, 'log, 'ann) t -> int
(** Write the whole volatile buffer to stable storage in one operation;
    returns the number of records made stable.  Counted as one flush (and as
    a synchronous write only when records were actually written).  An armed
    disk-full window ({!arm_disk_full}) makes this refuse (return 0 with the
    buffer intact) instead. *)

val flush_forced : ('ckpt, 'log, 'ann) t -> int
(** Critical-path variant of {!flush} that an armed disk-full window never
    refuses — used where a refusal would be unsound (checkpointing,
    rollback's log-everything step). *)

val stable_log_length : ('ckpt, 'log, 'ann) t -> int

val volatile_length : ('ckpt, 'log, 'ann) t -> int

val volatile_peek : ('ckpt, 'log, 'ann) t -> 'log option
(** Oldest record still in the volatile buffer — the first record a crash
    would lose. *)

val stable_log_from : ('ckpt, 'log, 'ann) t -> pos:int -> 'log list
(** Stable log records from position [pos] (0-based) onward, in order.
    The durable backend reads them back from its segment files and raises
    [Failure] if one no longer decodes
    ({!Durable.Durable_store.stable_log_from}). *)

val truncate_stable_log : ('ckpt, 'log, 'ann) t -> keep:int -> 'log list
(** Keep only the first [keep] stable records, returning the removed tail in
    order.  Used by Rollback: replay stops at the first orphan interval and
    the remaining logged messages are re-examined.  Also clears the volatile
    buffer (its contents started intervals after the truncation point).
    @raise Invalid_argument if [keep] exceeds the stable length. *)

val discard_log_prefix : ('ckpt, 'log, 'ann) t -> before:int -> int
(** Garbage-collect stable records at logical positions [< before], which
    replay will never need again (they precede a checkpoint that can never
    be rolled past).  Logical positions are preserved: [stable_log_length]
    and the positions used by [stable_log_from]/[truncate_stable_log] are
    unchanged; only the storage is reclaimed.  Returns the number of
    records discarded.  Requesting a prefix already discarded is a no-op.
    @raise Invalid_argument if [before] exceeds the stable length. *)

val log_base : ('ckpt, 'log, 'ann) t -> int
(** First logical position still physically present (0 when no prefix has
    been discarded).  [stable_log_from ~pos] requires [pos >= log_base]. *)

val live_log_records : ('ckpt, 'log, 'ann) t -> int
(** Number of records physically retained — the storage-footprint metric
    the garbage-collection experiment reports. *)

(** {1 Checkpoints} *)

val save_checkpoint : ('ckpt, 'log, 'ann) t -> 'ckpt -> unit
(** Persist a checkpoint; flushes the volatile buffer first (counted). *)

val latest_checkpoint : ('ckpt, 'log, 'ann) t -> 'ckpt option

val checkpoints : ('ckpt, 'log, 'ann) t -> 'ckpt list
(** Newest first. *)

val restore_checkpoint :
  ('ckpt, 'log, 'ann) t -> satisfying:('ckpt -> bool) -> 'ckpt option
(** Latest checkpoint satisfying the predicate; discards the (newer)
    checkpoints that follow it, per Figure 3's Rollback. *)

val prune_checkpoints : ('ckpt, 'log, 'ann) t -> keep_latest:int -> int
(** Garbage-collect all but the [keep_latest] newest checkpoints; returns
    how many were discarded.  Requires [keep_latest >= 1] (the latest
    checkpoint is always needed for restart). *)

(** {1 Synchronous area} *)

val log_announcement : ('ckpt, 'log, 'ann) t -> 'ann -> unit
(** Synchronous write (counted). *)

val announcements : ('ckpt, 'log, 'ann) t -> 'ann list
(** Oldest first. *)

val compact_sync : ('ckpt, 'log, 'ann) t -> keep:('ann -> bool) -> int
(** Rewrite the synchronous area keeping only the announcements [keep]
    accepts; returns how many were dropped.  Counted as one synchronous
    write when anything was dropped, free otherwise.  Lets superseded
    per-partition checkpoint records be reclaimed so the sync area stays
    bounded by one snapshot per partition. *)

val set_incarnation : ('ckpt, 'log, 'ann) t -> int -> unit
(** Synchronously persist the incarnation counter (counted).  Necessary so a
    process that fails right after a rollback does not reuse an incarnation
    number — a refinement Figure 3 leaves implicit. *)

val incarnation : ('ckpt, 'log, 'ann) t -> int
(** Last persisted incarnation counter; 0 initially. *)

(** {1 Crash semantics and accounting} *)

val crash : ('ckpt, 'log, 'ann) t -> int
(** Discard the volatile buffer; returns how many records were lost.  All
    stable content survives. *)

val sync_writes : ('ckpt, 'log, 'ann) t -> int
(** Number of synchronous stable-storage operations so far (flushes that
    wrote data, checkpoints, announcement and incarnation writes). *)

val flushes : ('ckpt, 'log, 'ann) t -> int
(** Number of [flush] calls that wrote at least one record. *)
