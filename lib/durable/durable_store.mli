(** Per-process stable storage: the one store every node runs.

    Models exactly the storage properties the recovery protocol relies
    on: a message log split into a stable prefix and a volatile suffix
    (the paper's optimistic logging "first saves messages in a volatile
    buffer and later writes several messages to stable storage in a
    single operation", [flush]); checkpoints, each of which also flushes
    the volatile buffer "so that stable state intervals are always
    continuous" (Section 2); and a small synchronous area for failure
    announcements, which must survive a crash so that a process never
    reuses an incarnation number.  {!kill} is a
    process death: it discards the volatile suffix and every armed fault
    with the handle, and a reopen over the same files recovers the rest.
    The store is generic in the checkpoint, log-record and
    announcement types, and counts synchronous writes and flushes, which
    the simulator converts into time through its cost model.

    Every file call goes through an {!Fs.t}: daemons open their store on
    real files ({!Fs.unix}); the simulator, the chaos campaigns and the
    model checker open it on an in-memory tree ({!Fs.mem}).  The layout is
    the same on both:

    - the {b message log} is a {!Segment_log} of Marshal-encoded records,
      made durable in batches by [flush].  A flush has exactly {e one}
      durability point — the log's fsync, the paper's single
      stable-storage operation: the store's one owner appends the volatile
      records, fsyncs once, and only then writes the stable-length
      witness.  The segments are the only copy of the flushed
      records: the store keeps none in memory and reads them back from the
      files when asked, one record at a time ({!fold_log_from});
    - each {b checkpoint} is its own [ckpt-<seq>.dat] file of two
      checksummed frames: the stable length at save time (8 bytes), then
      the snapshot; the length lets open-time recovery reject checkpoints
      that point past a log whose tail was lost without decoding the
      snapshot.  The store keeps only the file sequence numbers and reads
      a snapshot back from its file when asked, one file at a time
      ({!checkpoints} is a lazy sequence);
    - the {b synchronous area} is [sync.dat], an append-only record
      stream, fsynced when it carries protocol data (announcements),
      which the store keeps none of in memory: it
      reads them back from the file when asked ({!announcements}).  It
      also carries store metadata: the logical log base after compaction
      and a stable-length witness recorded after every flush, so a reopen
      can {e detect} (not just silently absorb) a log tail lost to a lying
      fsync.  The witness is a {e buffered} write
      (no fsync of its own): written bytes survive a process kill
      regardless, and only power loss can drop them — which also drops the
      log tail they would have accused, so the witness can under-claim but
      never fabricate damage.  Because it does not ride the log's fsync, a
      lying log fsync still leaves a truthful witness behind.

    So what the store holds in memory is metadata: the log's segment list
    (start, count and size per segment), the checkpoint sequence numbers,
    the stable length and base, plus the volatile records not
    yet flushed.  It does not grow with the records, checkpoints or
    announcements written.  Only rollback, restart and log GC read back.

    A store has one owner and no lock: its node's thread calls every
    operation, one at a time.

    Open-time recovery scans everything, truncates torn or corrupt tails,
    drops unusable checkpoints and reports what it found in
    {!open_report}.  It streams the synchronous area, each log segment
    and each checkpoint file once through one frame buffer
    ({!Codec.fold_input}) and checks each frame where it lies: the frame
    checksum, the seal's checksum and that the Marshal header's size is
    the sealed length.  It decodes only the few integers of the store
    metadata — no record, announcement or snapshot — and keeps only the
    metadata above, so opening a store costs no memory that grows with
    its history. *)

type ('ckpt, 'log, 'ann) t

type open_report = {
  fresh : bool;  (** no pre-existing store in this directory *)
  recovered_log : int;  (** stable log records recovered *)
  log_bytes_dropped : int;  (** torn/corrupt log bytes truncated *)
  log_segments_dropped : int;  (** whole segments discarded after an anomaly *)
  missing_log_records : int;
      (** shortfall of the recovered log against the last durable
          stable-length witness: records the store claimed stable (e.g.
          under a failing fsync) that did not survive *)
  recovered_checkpoints : int;
  checkpoints_dropped : int;
      (** corrupt, torn, pointing past the log, or in another layout (the
          earlier single-frame file) *)
  sync_records : int;
  sync_bytes_dropped : int;  (** synchronous-area tail truncated *)
  sync_area_missing : bool;
      (** the synchronous area vanished although other store files exist *)
}

val damaged : open_report -> bool
(** True when anything was dropped, missing or truncated — every such
    condition is reported, never silently absorbed. *)

val open_ :
  fs:Fs.t ->
  dir:string ->
  ?segment_bytes:int ->
  ?obs:Obs.Registry.t ->
  unit ->
  ('ckpt, 'log, 'ann) t * open_report
(** Open the store rooted at [dir] of [fs], creating it if needed, running
    open-time recovery otherwise.  [segment_bytes] sizes the log's
    segments ({!Segment_log.open_}).  Serialization uses [Marshal] (with
    closures permitted), so a store must be reopened by the same binary
    that wrote it — true of every use here (restart within a run, or the
    respawn of a killed process).

    [obs] receives the store's metric families —
    [storage_flushes_total], [storage_sync_writes_total],
    [storage_degraded_flushes_total], [storage_slowed_fsyncs_total],
    [flush_rounds_total] (log fsyncs issued, whether or not they
    returned) and the [fsync_seconds] histogram (wall time of each, an
    armed slow-down included).  Defaults to a private registry.
    [storage_checkpoint_bytes_total] counts the bytes
    written to checkpoint files.  Note that get-or-create semantics mean a
    store reopened into the {e same} registry (a daemon respawning in
    process) continues the counters of its predecessor. *)

val report : ('ckpt, 'log, 'ann) t -> open_report

(** {1 Message log} *)

val append_volatile : ('ckpt, 'log, 'ann) t -> 'log -> unit
(** Record a delivered message in the volatile buffer. *)

val flush : ('ckpt, 'log, 'ann) t -> int
(** Write the whole volatile buffer to stable storage in one operation;
    returns the number of records made stable.  Counted as one flush (and
    as a synchronous write) only when records were written.  An armed
    disk-full window ({!arm_disk_full}) makes it refuse instead (return 0
    with the buffer intact).  If the log's fsync raises, so does [flush],
    with no stable-length witness written and no flush counted. *)

val flush_forced : ('ckpt, 'log, 'ann) t -> int
(** Like {!flush}, but an armed disk-full window ({!arm_disk_full}) never
    refuses it: the critical-path flushes of checkpointing and rollback
    model a writer that blocks until space frees.  A refused ordinary
    flush before a checkpoint would otherwise let the checkpoint capture
    state whose covering log prefix is still volatile. *)

val stable_log_length : ('ckpt, 'log, 'ann) t -> int

val volatile_length : ('ckpt, 'log, 'ann) t -> int

val volatile_peek : ('ckpt, 'log, 'ann) t -> 'log option
(** Oldest record still in the volatile buffer — the first record a crash
    would lose. *)

val fold_log_from :
  ('ckpt, 'log, 'ann) t -> pos:int -> init:'acc -> f:('acc -> int -> 'log -> 'acc) -> 'acc
(** Fold [f] over the stable records from [pos] on, oldest first, each
    with its logical position, read back from the segment files one
    record at a time ({!Segment_log.fold_from}).  Only rollback, restart and log GC read the log, so the flush path
    keeps no copy of what it wrote, and a read keeps no more of the log
    than [f] does.  [f] must not call back into the store; an exception it raises stops the fold.
    @raise Failure naming the segment file and the record's logical
    position if a record read back fails its checksum or no longer
    decodes: damage found after open is reported, never answered with a
    shorter log.
    @raise Invalid_argument if [pos] is below {!log_base} or past
    {!stable_log_length}. *)

val stable_log_from : ('ckpt, 'log, 'ann) t -> pos:int -> 'log list
(** {!fold_log_from} into a list, oldest first; raises like it. *)

val truncate_stable_log : ('ckpt, 'log, 'ann) t -> keep:int -> 'log list
(** Keep only the first [keep] stable records and return the removed tail
    in order, read back like {!stable_log_from}.  Used by rollback.  Also
    clears the volatile buffer (its contents started intervals after the
    truncation point).
    @raise Invalid_argument if [keep] is below {!log_base} or past
    {!stable_log_length}. *)

val discard_log_prefix : ('ckpt, 'log, 'ann) t -> before:int -> int
(** Garbage-collect stable records at logical positions [< before], which
    replay will never need again.  Logical positions are preserved; only
    the storage is reclaimed.  Returns the number of records discarded;
    a prefix already discarded is a no-op.
    @raise Invalid_argument if [before] exceeds the stable length. *)

val log_base : ('ckpt, 'log, 'ann) t -> int
(** First logical position still readable (0 until a prefix is
    discarded). *)

val live_log_records : ('ckpt, 'log, 'ann) t -> int
(** Stable length minus {!log_base}: the log footprint the
    garbage-collection experiment reports. *)

(** {1 Checkpoints} *)

val save_checkpoint : ('ckpt, 'log, 'ann) t -> 'ckpt -> unit
(** Persist a checkpoint; flushes the volatile buffer first
    ({!flush_forced}), and counts one synchronous write. *)

val latest_checkpoint : ('ckpt, 'log, 'ann) t -> 'ckpt option
(** Read back from the newest checkpoint file: its snapshot is the only
    one decoded.
    @raise Failure naming the file if it no longer decodes (damage after
    open). *)

val checkpoints : ('ckpt, 'log, 'ann) t -> 'ckpt Seq.t
(** Newest first, each read back from its file only when its element is
    forced, so a caller that stops at the first match reads no older
    file.  The sequence lists the checkpoints retained when it was made;
    forcing an element raises like {!latest_checkpoint}, also when its
    file was pruned or restored away since. *)

val oldest_checkpoint : ('ckpt, 'log, 'ann) t -> 'ckpt option
(** Read back from the oldest retained checkpoint file; raises like
    {!latest_checkpoint}. *)

val restore_checkpoint :
  ('ckpt, 'log, 'ann) t -> satisfying:('ckpt -> bool) -> 'ckpt option
(** Latest checkpoint satisfying the predicate; discards the newer
    checkpoints that follow it, per Figure 3's Rollback. *)

val prune_checkpoints : ('ckpt, 'log, 'ann) t -> keep_latest:int -> int
(** Delete all but the [keep_latest] newest checkpoints; returns how many
    were deleted.
    @raise Invalid_argument if [keep_latest < 1]. *)

(** {1 Synchronous area} *)

val log_announcement : ('ckpt, 'log, 'ann) t -> 'ann -> unit
(** Synchronous write (counted). *)

val announcements : ('ckpt, 'log, 'ann) t -> 'ann list
(** Oldest first, streamed back from [sync.dat] in one fold that keeps
    only the announcements.  The records open-time recovery counted as
    dropped (a failed seal or Marshal header in the bytes it checked) are
    skipped.
    @raise Failure naming the file and the byte offset if a frame no
    longer checks, or any other record does not decode (damage after
    open, or a format bug). *)

val compact_sync : ('ckpt, 'log, 'ann) t -> keep:('ann -> bool) -> int
(** Rewrite the synchronous area, keeping only the announcements [keep]
    accepts (store metadata — log base, stable-length witness — is
    re-emitted).  Atomic (temp file, fsync, rename).  Returns the
    number of records dropped; a no-op (no rewrite, not counted in
    {!sync_writes}) when nothing is dropped.  What bounds the sync area
    when per-partition checkpoint records supersede each other. *)

(** {1 Crash semantics and accounting} *)

val sync_writes : ('ckpt, 'log, 'ann) t -> int
(** Protocol-level synchronous stable-storage operations: one per
    non-empty flush round, checkpoint and announcement
    — the quantity the paper's cost model charges for, and what E12/B9
    report.  Store-internal metadata writes (length witness, log base) are
    not counted.  The same count is the registry's
    [storage_sync_writes_total]; {!Recovery.Node} reads it here to cost
    each step. *)

(** {1 Process death and fault injection} *)

val kill : ('ckpt, 'log, 'ann) t -> unit
(** Process death: every byte not yet fsynced is discarded from the files,
    all descriptors close, and the handle becomes unusable.  Recovery is
    only possible through a fresh {!open_} on the same directory. *)

val arm_fsync_failure : ('ckpt, 'log, 'ann) t -> unit
(** Make the {e log}'s fsync lie (report success, persist nothing) from
    now on; the synchronous area keeps its own descriptor and stays honest,
    which is what lets the stable-length witness expose the loss at the
    next open. *)

val arm_disk_full : ('ckpt, 'log, 'ann) t -> rounds:int -> unit
(** ENOSPC brownout: the next [rounds] non-empty {!flush} attempts refuse
    — nothing is drained or dropped, the volatile queue stays intact, and
    each refusal is counted in [storage_degraded_flushes_total].  Degradation is
    graceful by construction: records the disk refused remain volatile, so
    the K-rule keeps the owning node's sends gated instead of ever
    claiming stability the disk did not provide; the first flush after the
    window drains the backlog in one synchronous round. *)

val arm_slow_fsync : ('ckpt, 'log, 'ann) t -> delay:float -> rounds:int -> unit
(** Slow-disk brownout: the next [rounds] flush rounds stretch their fsync
    by [delay] seconds (counted in [storage_slowed_fsyncs_total], and
    timed into [fsync_seconds]).  The owner waits it out: the round's
    witness is written only after it. *)

val dir : ('ckpt, 'log, 'ann) t -> string
