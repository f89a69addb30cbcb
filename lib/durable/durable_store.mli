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
    process death: it closes the descriptors and discards the volatile
    suffix and an armed brownout with the handle, and a reopen over the
    same files recovers the rest.
    The store is generic in the checkpoint, log-record, announcement and
    partition-snapshot types, and counts synchronous writes and flushes,
    which the simulator converts into time through its cost model.

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
    - each {b partition checkpoint} is a [part-<p>-<seq>.dat] file in the
      same layout (its snapshot in a frame of its own kind), at most one
      per partition: a new one is written whole and fsynced before the
      file it replaces is unlinked ({!save_part_checkpoint});
    - the {b synchronous area} is [sync.dat], an append-only record
      stream, never rewritten or renamed, fsynced when it carries protocol
      data (announcements),
      which the store keeps none of in memory: it
      reads them back from the file when asked ({!announcements}).  An
      announcement is fsynced as it is written, or written buffered and
      made durable in a group: one {!sync_announcements} fsyncs every
      announcement buffered since the last fsync of the file, which is
      how a node step's output-commit records cost one fsync however
      many outputs the step commits.  It
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
    (start, count and size per segment), the checkpoint and partition
    checkpoint file numbers,
    the stable length and base, plus the volatile records not
    yet flushed.  It does not grow with the records, checkpoints or
    announcements written.  Only rollback, restart and log GC read back.

    A store has one owner and no lock: its node's thread calls every
    operation, one at a time.

    Open-time recovery scans everything, truncates torn or corrupt tails
    and drops unusable checkpoints.  What it found is counted in the
    registry the store is opened into ([obs] of {!open_}), never hidden:
    [storage_reopens_total] counts the opens that found store files, and
    the {!loss_counters} count what those opens found lost, so a daemon
    shows it in every scrape, and a simulated cluster in its stats, like
    any other count.  It streams the synchronous area, each log segment
    and each checkpoint file once through one frame buffer
    ({!Codec.frames}) and checks each frame where it lies: the frame
    checksum, the seal's checksum and that the Marshal header's size is
    the sealed length.  It decodes only the few integers of the store
    metadata — no record, announcement or snapshot — and keeps only the
    metadata above, so opening a store costs no memory that grows with
    its history. *)

type ('ckpt, 'log, 'ann, 'part) t

val loss_counters : string list
(** What open-time recovery found lost, summed over every open into the
    registry (a fresh store adds zero):
    - [storage_log_bytes_dropped_total]: torn or corrupt log bytes;
    - [storage_log_segments_dropped_total]: whole segments discarded
      after an anomaly;
    - [storage_missing_log_records_total]: records the last durable
      stable-length witness claimed stable (e.g. under a lying fsync)
      that did not survive;
    - [storage_checkpoints_dropped_total]: checkpoint and partition
      checkpoint files corrupt, torn, pointing past the log, or in another
      layout;
    - [storage_sync_bytes_dropped_total]: synchronous-area bytes
      truncated or dropped as undecodable;
    - [storage_sync_area_lost_total]: opens that found the synchronous
      area gone although other store files exist. *)

val reopen_counters : string list
(** [storage_reopens_total] and the {!loss_counters}: what opens count.  A
    daemon appends a snapshot of them to a file after an open that found a
    store, since one SIGKILLed later never writes its metrics; its driver
    sums the file ([Net.Deployment]). *)

val losses : Obs.Snapshot.t -> (string * int) list
(** The {!loss_counters} that are nonzero in a snapshot, with their
    values: empty exactly when no open the snapshot covers lost data. *)

val open_ :
  fs:Fs.t ->
  dir:string ->
  ?segment_bytes:int ->
  ?obs:Obs.Registry.t ->
  unit ->
  ('ckpt, 'log, 'ann, 'part) t
(** Open the store rooted at [dir] of [fs], creating it if needed, running
    open-time recovery otherwise.  [segment_bytes] sizes the log's
    segments ({!Segment_log.open_}).  Serialization uses [Marshal] (with
    closures permitted), so a store must be reopened by the same binary
    that wrote it — true of every use here (restart within a run, or the
    respawn of a killed process).

    [obs] receives the store's metric families —
    [storage_flushes_total], [storage_sync_writes_total],
    [storage_degraded_flushes_total],
    [flush_rounds_total] (log fsyncs issued, whether or not they
    returned) and the [fsync_seconds] histogram (wall time of each), and
    the [sync_fsync_seconds] histogram (wall time of each fsync of the
    synchronous area, grouped or not).
    [storage_checkpoint_bytes_total] counts the bytes written to
    checkpoint and partition checkpoint files, and [storage_reopens_total] (one unless the store
    is {!fresh}) and the {!loss_counters} what this open found.  Defaults
    to a private registry.  Get-or-create semantics mean a store reopened
    into the {e same} registry (a simulated respawn) continues the
    counters of its predecessor. *)

val fresh : ('ckpt, 'log, 'ann, 'part) t -> bool
(** Open found no store files in the directory. *)

(** {1 Message log} *)

val append_volatile : ('ckpt, 'log, 'ann, 'part) t -> 'log -> unit
(** Record a delivered message in the volatile buffer. *)

val flush : ('ckpt, 'log, 'ann, 'part) t -> int
(** Write the whole volatile buffer to stable storage in one operation;
    returns the number of records made stable.  Counted as one flush (and
    as a synchronous write) only when records were written.  An armed
    disk-full window ({!arm_disk_full}) makes it refuse instead (return 0
    with the buffer intact).  If the log's fsync raises, so does [flush],
    with no stable-length witness written and no flush counted, and the
    log is fail-stop from then on: every later flush that has records to
    write raises [Failure] without calling fsync again
    ({!Segment_log.sync}). *)

val flush_forced : ('ckpt, 'log, 'ann, 'part) t -> int
(** Like {!flush}, but an armed disk-full window ({!arm_disk_full}) never
    refuses it: the critical-path flushes of checkpointing and rollback
    model a writer that blocks until space frees.  A refused ordinary
    flush before a checkpoint would otherwise let the checkpoint capture
    state whose covering log prefix is still volatile. *)

val stable_log_length : ('ckpt, 'log, 'ann, 'part) t -> int

val volatile_length : ('ckpt, 'log, 'ann, 'part) t -> int

val volatile_peek : ('ckpt, 'log, 'ann, 'part) t -> 'log option
(** Oldest record still in the volatile buffer — the first record a crash
    would lose. *)

val fold_log_from :
  ('ckpt, 'log, 'ann, 'part) t -> pos:int -> init:'acc -> f:('acc -> int -> 'log -> 'acc) -> 'acc
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

val stable_log_from : ('ckpt, 'log, 'ann, 'part) t -> pos:int -> 'log list
(** {!fold_log_from} into a list, oldest first; raises like it. *)

val truncate_stable_log : ('ckpt, 'log, 'ann, 'part) t -> keep:int -> 'log list
(** Keep only the first [keep] stable records and return the removed tail
    in order, read back like {!stable_log_from}.  Used by rollback.  Also
    clears the volatile buffer (its contents started intervals after the
    truncation point), and first unlinks every partition checkpoint whose
    position is past [keep].
    @raise Invalid_argument if [keep] is below {!log_base} or past
    {!stable_log_length}. *)

val discard_log_prefix : ('ckpt, 'log, 'ann, 'part) t -> before:int -> int
(** Garbage-collect stable records at logical positions [< before], which
    replay will never need again.  Logical positions are preserved; only
    the storage is reclaimed.  Returns the number of records discarded;
    a prefix already discarded is a no-op.
    @raise Invalid_argument if [before] exceeds the stable length. *)

val log_base : ('ckpt, 'log, 'ann, 'part) t -> int
(** First logical position still readable (0 until a prefix is
    discarded). *)

val live_log_records : ('ckpt, 'log, 'ann, 'part) t -> int
(** Stable length minus {!log_base}: the log footprint the
    garbage-collection experiment reports. *)

(** {1 Checkpoints} *)

val save_checkpoint : ('ckpt, 'log, 'ann, 'part) t -> 'ckpt -> unit
(** Persist a checkpoint; flushes the volatile buffer first
    ({!flush_forced}), and counts one synchronous write. *)

val latest_checkpoint : ('ckpt, 'log, 'ann, 'part) t -> 'ckpt option
(** Read back from the newest checkpoint file: its snapshot is the only
    one decoded.
    @raise Failure naming the file if it no longer decodes (damage after
    open). *)

val checkpoints : ('ckpt, 'log, 'ann, 'part) t -> 'ckpt Seq.t
(** Newest first, each read back from its file only when its element is
    forced, so a caller that stops at the first match reads no older
    file.  The sequence lists the checkpoints retained when it was made;
    forcing an element raises like {!latest_checkpoint}, also when its
    file was pruned or restored away since. *)

val checkpoint_count : ('ckpt, 'log, 'ann, 'part) t -> int
(** Checkpoints retained, counted without reading a file. *)

val oldest_checkpoint : ('ckpt, 'log, 'ann, 'part) t -> 'ckpt option
(** Read back from the oldest retained checkpoint file; raises like
    {!latest_checkpoint}. *)

val restore_checkpoint :
  ('ckpt, 'log, 'ann, 'part) t -> satisfying:('ckpt -> bool) -> 'ckpt option
(** Latest checkpoint satisfying the predicate; discards the newer
    checkpoints that follow it, per Figure 3's Rollback. *)

val prune_checkpoints : ('ckpt, 'log, 'ann, 'part) t -> keep_latest:int -> int
(** Delete all but the [keep_latest] newest checkpoints; returns how many
    were deleted.
    @raise Invalid_argument if [keep_latest < 1]. *)

(** {1 Partition checkpoints} *)

val save_part_checkpoint : ('ckpt, 'log, 'ann, 'part) t -> part:int -> 'part -> unit
(** Persist one partition's snapshot at the current stable length; flushes
    the volatile buffer first ({!flush_forced}) and counts one synchronous
    write.  The file is written whole with one fsync, then the partition's
    previous file is unlinked: no other file is written.  A
    {!truncate_stable_log} below a snapshot's position unlinks it, and
    open drops one whose position is past the recovered log.  Partition
    files are never listed, pruned or restored as checkpoints. *)

val part_checkpoints : ('ckpt, 'log, 'ann, 'part) t -> (int * int * 'part) list
(** The newest snapshot of each partition that has one, as
    [(part, position, snapshot)] in partition order, each read back from
    its file; raises like {!latest_checkpoint}. *)

(** {1 Synchronous area} *)

val log_announcement : ?fsync:bool -> ('ckpt, 'log, 'ann, 'part) t -> 'ann -> unit
(** Synchronous write (counted in {!sync_writes} either way).  With
    [~fsync:false] the record is only written: it survives a process
    kill at once, and power loss once the next fsync of the synchronous
    area covers it — the next announcement fsynced as it is written, or
    {!sync_announcements}.  A caller that buffers an announcement must
    call {!sync_announcements} before anything outside the process can
    learn of it. *)

val sync_announcements : ('ckpt, 'log, 'ann, 'part) t -> unit
(** Fsync the synchronous area once if it holds announcements written
    with [~fsync:false] that no fsync has covered since; otherwise (and
    on a killed store) do nothing.  Not counted in {!sync_writes}: each
    grouped announcement already was. *)

val announcements : ('ckpt, 'log, 'ann, 'part) t -> 'ann list
(** Oldest first, streamed back from [sync.dat] in one fold that keeps
    only the announcements.  The records open-time recovery counted as
    dropped (a failed seal or Marshal header in the bytes it checked) are
    skipped.
    @raise Failure naming the file and the byte offset if a frame no
    longer checks, or any other record does not decode (damage after
    open, or a format bug). *)

(** {1 Crash semantics and accounting} *)

val sync_writes : ('ckpt, 'log, 'ann, 'part) t -> int
(** Protocol-level synchronous stable-storage operations: one per
    non-empty flush round, checkpoint (full or partition) and announcement
    — the quantity the paper's cost model charges for, and what E12/B9
    report.  An announcement counts one whether it is fsynced alone or
    grouped under one {!sync_announcements}, so the count, and the
    simulator's costs, do not depend on how the fsyncs are grouped.
    Store-internal metadata writes (length witness, log base) are
    not counted.  The same count is the registry's
    [storage_sync_writes_total]; {!Recovery.Node} reads it here to cost
    each step. *)

(** {1 Process death and fault injection} *)

val kill : ('ckpt, 'log, 'ann, 'part) t -> unit
(** Process death: the volatile queue is dropped, all descriptors close,
    and the handle becomes unusable.  Nothing is synced or cut: what a
    death loses on disk belongs to the file system (a lying disk,
    {!Fs.Mem.lie}, loses the log appends its fsyncs never made durable,
    and the stable-length witness in the synchronous area exposes that
    loss in [storage_missing_log_records_total] at the next open).  Recovery is only
    possible through a fresh {!open_} on the same directory. *)

val arm_disk_full : ('ckpt, 'log, 'ann, 'part) t -> rounds:int -> unit
(** ENOSPC brownout: the next [rounds] non-empty {!flush} attempts refuse
    — nothing is drained or dropped, the volatile queue stays intact, and
    each refusal is counted in [storage_degraded_flushes_total].  Degradation is
    graceful by construction: records the disk refused remain volatile, so
    the K-rule keeps the owning node's sends gated instead of ever
    claiming stability the disk did not provide; the first flush after the
    window drains the backlog in one synchronous round. *)

val dir : ('ckpt, 'log, 'ann, 'part) t -> string
