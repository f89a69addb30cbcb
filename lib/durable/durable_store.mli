(** File-backed stable storage.

    Implements the same contract as the in-memory [Storage.Stable_store]
    (same operations, same counters, same error strings) on real files:

    - the {b message log} is a {!Segment_log} of Marshal-encoded records,
      made durable in batches by [flush].  A flush has exactly {e one}
      durability point — the log's fsync, the paper's single
      stable-storage operation — and concurrent flushes coalesce through a
      {!Group_commit} coordinator, so N simultaneous callers cost one
      fsync, not N;
    - each {b checkpoint} is its own [ckpt-<seq>.dat] file holding one
      checksummed record: the pair (stable length at save time, snapshot);
      the length lets open-time recovery reject checkpoints that point past
      a log whose tail was lost;
    - the {b synchronous area} is [sync.dat], an append-only record
      stream, fsynced when it carries protocol data (announcements, the
      incarnation counter).  It also carries store metadata: the logical
      log base after compaction and a stable-length witness recorded after
      every flush, so a reopen can {e detect} (not just silently absorb) a
      log tail lost to a lying fsync.  The witness is a {e buffered} write
      (no fsync of its own): written bytes survive a process kill
      regardless, and only power loss can drop them — which also drops the
      log tail they would have accused, so the witness can under-claim but
      never fabricate damage.  Because it does not ride the log's fsync, a
      lying log fsync still leaves a truthful witness behind.

    Every operation is thread-safe: plain reads and appends share the
    coordinator's lock, and operations that rewrite files or close
    descriptors additionally wait out any fsync in flight.

    Open-time recovery scans everything, truncates torn or corrupt tails,
    drops unusable checkpoints and reports what it found in
    {!open_report}. *)

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
  checkpoints_dropped : int;  (** corrupt, torn, or pointing past the log *)
  sync_records : int;
  sync_bytes_dropped : int;  (** synchronous-area tail truncated *)
  sync_area_missing : bool;
      (** the synchronous area vanished although other store files exist *)
}

val damaged : open_report -> bool
(** True when anything was dropped, missing or truncated — every such
    condition is reported, never silently absorbed. *)

val pp_open_report : Format.formatter -> open_report -> unit

val open_ :
  dir:string ->
  ?segment_bytes:int ->
  ?obs:Obs.Registry.t ->
  unit ->
  ('ckpt, 'log, 'ann) t * open_report
(** Open the store rooted at [dir], creating it if needed, running
    open-time recovery otherwise.  Serialization uses [Marshal] (with
    closures permitted), so a store must be reopened by the same binary
    that wrote it — true of every use here (restart within a run, or the
    respawn of a killed actor).

    [obs] receives the store's metric families —
    [storage_flushes_total], [storage_sync_writes_total],
    [storage_degraded_flushes_total], [storage_slowed_fsyncs_total] —
    plus the embedded group-commit coordinator's ({!Group_commit.create}).
    Defaults to a private registry.  All cells are bumped under the
    store's lock; the accessors below read under that same lock, so
    their values are exact.  Note that get-or-create semantics mean a
    store reopened into the {e same} registry (a daemon respawning in
    process) continues the counters of its predecessor. *)

val report : ('ckpt, 'log, 'ann) t -> open_report

(** {1 The [Storage.Stable_store] contract} *)

val append_volatile : ('ckpt, 'log, 'ann) t -> 'log -> unit

val flush : ('ckpt, 'log, 'ann) t -> int

val flush_forced : ('ckpt, 'log, 'ann) t -> int
(** Like {!flush}, but an armed disk-full window ({!arm_disk_full}) never
    refuses it: the critical-path flushes of checkpointing and rollback
    model a writer that blocks until space frees.  A refused ordinary
    flush before a checkpoint would otherwise let the checkpoint capture
    state whose covering log prefix is still volatile. *)

val stable_log_length : ('ckpt, 'log, 'ann) t -> int

val volatile_length : ('ckpt, 'log, 'ann) t -> int

val volatile_peek : ('ckpt, 'log, 'ann) t -> 'log option

val stable_log_from : ('ckpt, 'log, 'ann) t -> pos:int -> 'log list

val truncate_stable_log : ('ckpt, 'log, 'ann) t -> keep:int -> 'log list

val discard_log_prefix : ('ckpt, 'log, 'ann) t -> before:int -> int

val log_base : ('ckpt, 'log, 'ann) t -> int

val live_log_records : ('ckpt, 'log, 'ann) t -> int

val save_checkpoint : ('ckpt, 'log, 'ann) t -> 'ckpt -> unit

val latest_checkpoint : ('ckpt, 'log, 'ann) t -> 'ckpt option

val checkpoints : ('ckpt, 'log, 'ann) t -> 'ckpt list

val restore_checkpoint :
  ('ckpt, 'log, 'ann) t -> satisfying:('ckpt -> bool) -> 'ckpt option

val prune_checkpoints : ('ckpt, 'log, 'ann) t -> keep_latest:int -> int

val prune_checkpoints_older_than :
  ('ckpt, 'log, 'ann) t -> anchor:('ckpt -> bool) -> int

val log_announcement : ('ckpt, 'log, 'ann) t -> 'ann -> unit

val announcements : ('ckpt, 'log, 'ann) t -> 'ann list

val compact_sync : ('ckpt, 'log, 'ann) t -> keep:('ann -> bool) -> int
(** Rewrite the synchronous area, keeping only the announcements [keep]
    accepts (store metadata — log base, stable-length witness, incarnation
    — is re-emitted).  Atomic (temp file, fsync, rename).  Returns the
    number of records dropped; a no-op (no rewrite, not counted in
    {!sync_writes}) when nothing is dropped.  What bounds the sync area
    when per-partition checkpoint records supersede each other. *)

val set_incarnation : ('ckpt, 'log, 'ann) t -> int -> unit

val incarnation : ('ckpt, 'log, 'ann) t -> int

val crash : ('ckpt, 'log, 'ann) t -> int
(** In-process crash model: drop the volatile buffer only (disk intact,
    handles still open).  Use {!kill} for a process death. *)

val sync_writes : ('ckpt, 'log, 'ann) t -> int
(** Protocol-level synchronous stable-storage operations: one per
    non-empty flush round, checkpoint, announcement and incarnation write
    — the quantity the paper's cost model charges for, and what E12/B9
    report.  Store-internal metadata writes (length witness, log base) are
    not counted. *)

val flushes : ('ckpt, 'log, 'ann) t -> int
(** Non-empty flush rounds completed.  Each round issues exactly one
    fsync, so under concurrent flushing this is also the fsync count of
    the flush path (strictly less than the number of callers whenever
    coalescing happened). *)

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
    each refusal is counted in {!degraded_flushes}.  Degradation is
    graceful by construction: records the disk refused remain volatile, so
    the K-rule keeps the owning node's sends gated instead of ever
    claiming stability the disk did not provide; the first flush after the
    window drains the backlog in one synchronous round. *)

val arm_slow_fsync : ('ckpt, 'log, 'ann) t -> delay:float -> rounds:int -> unit
(** Slow-disk brownout: the next [rounds] flush rounds stretch their fsync
    by [delay] seconds (counted in {!slowed_fsyncs}).  The group-commit
    coordinator absorbs the slowdown by coalescing more callers per round. *)

val degraded_flushes : ('ckpt, 'log, 'ann) t -> int
(** Flush attempts refused by a disk-full window — the brownout
    degradation report. *)

val slowed_fsyncs : ('ckpt, 'log, 'ann) t -> int

val dir : ('ckpt, 'log, 'ann) t -> string
