(** The recovery-layer process: the K-optimistic logging protocol.

    A [Node.t] implements the complete protocol of Figures 2 and 3 —
    Receive_message, Deliver_message, Check_deliverability, Check_orphan,
    Send_message, Check_send_buffer, Restart, Receive_failure_ann, Rollback,
    Checkpoint and Receive_log — wrapped around a piecewise-deterministic
    application.  All protocol presets (pessimistic, Strom–Yemini,
    Damani–Garg, K-optimistic) run through this one implementation,
    differentiated only by {!Config.protocol} flags, which is what makes the
    ablation experiments meaningful.

    A node is driven from outside (by the simulation harness or by tests):
    the driver feeds it packets, timers, crashes and restarts; the node
    returns the packets it wants transmitted plus an accounting of the work
    it performed, which the driver converts to simulated time.  The node
    never reads a clock or draws randomness — determinism lives here,
    nondeterminism in the driver. *)

open Depend

type ('state, 'msg) t

(** What a node asks the network to do. *)
type 'msg action =
  | Unicast of { dst : int; packet : 'msg Wire.packet }
  | Broadcast of 'msg Wire.packet  (** to every other process *)

(** Work performed during one driver call, for the driver's cost model. *)
type cost = {
  deliveries : int;  (** live application deliveries *)
  replays : int;  (** logged deliveries re-executed *)
  sync_writes : int;  (** synchronous stable-storage operations *)
  checkpoints : int;  (** checkpoints taken or restored *)
}

val create_on :
  fs:Durable.Fs.t ->
  config:Config.t ->
  pid:int ->
  app:('state, 'msg) App_model.App_intf.t ->
  store_dir:string ->
  ?obs:Obs.Registry.t ->
  trace:Trace.t ->
  ('state, 'msg) t
(** A process over the stable store in [store_dir] on [fs], a
    {!Durable.Durable_store}.  Daemons use real files ({!create}); the
    simulator and the tests pass a {!Durable.Fs.mem} tree they keep across
    deaths.

    Over an empty directory the node is fresh: up, at its initial,
    implicitly checkpointed state interval (0,1) with an empty dependency
    vector (Corollary 3).  If the directory already holds a store (the
    previous incarnation of this process was {!halt}ed), the node starts
    {e down} with nothing but what open-time recovery salvaged from the
    files; call {!restart} or {!restart_begin} to run Figure 3's Restart
    from them.  This is the only way a node comes back: there is no
    in-place restart of a halted node.

    [obs] (default: a fresh private registry) receives the node's
    protocol metrics and the store's flush/fsync families (see
    {!Durable.Durable_store.open_}).
    Registration is get-or-create, so a node re-created over the
    registry of its predecessor — an in-process respawn — continues that
    predecessor's counters instead of restarting them; see {!obs}. *)

val create :
  config:Config.t ->
  pid:int ->
  app:('state, 'msg) App_model.App_intf.t ->
  store_dir:string ->
  ?obs:Obs.Registry.t ->
  trace:Trace.t ->
  ('state, 'msg) t
(** {!create_on} over real files ({!Durable.Fs.unix}). *)

(** {1 Driver interface} *)

val handle_packet :
  ('state, 'msg) t -> now:float -> 'msg Wire.packet -> 'msg action list * cost
(** Process one incoming packet (application message, announcement, notice,
    ack or flush request).  Delivers every buffered message that became
    deliverable before returning. *)

val inject :
  ('state, 'msg) t ->
  now:float ->
  seq:int ->
  ?cseq:int ->
  'msg ->
  'msg action list * cost
(** Deliver a message from the outside world ([seq] makes its identity
    unique).  Client messages carry no dependencies, so they are always
    deliverable and can never be orphaned.  [cseq] is the message's
    position among the injections the outside world made to this node
    (0, 1, 2, ..., reused by a retry): once committed, numbered
    injections fold into runs, so duplicate suppression holds one entry
    per gap instead of one per injection.  Unnumbered ones (the default)
    stay known by identity. *)

val perform :
  ('state, 'msg) t ->
  now:float ->
  'msg App_model.App_intf.effect list ->
  'msg action list * cost
(** Execute application effects within the {e current} state interval, with
    no delivery.  The PWD model allows deterministic execution to continue
    inside an interval; the paper's Figure 1 relies on this (P1 sends m5 and
    m7 from its post-restart interval (1,5)).  Intended for scripted
    scenarios: effects performed this way are not regenerated by crash
    replay, so production code paths should send from message handlers. *)

val flush : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Asynchronous logging step: write the volatile buffer to stable storage,
    advance the stability frontier, release whatever that unblocks, and ack
    newly stable deliveries to their senders. *)

val checkpoint : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Figure 3's Checkpoint: flush, persist a checkpoint, elide the process's
    own dependency entry (Corollary 2). *)

val broadcast_notice : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Periodic logging-progress notification. *)

val retransmit_tick : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Periodic sender-side retransmission: re-send every archived (released
    but not yet acknowledged, not orphan) message.  Armed by the harness
    when {!Config.timing.retransmit_interval} is set; this is what makes
    released messages survive wire-level loss.  It cannot weaken any
    theorem: it only re-offers messages the K rule already released, and
    receivers suppress duplicates by identity (see PROTOCOL.md). *)

val halt : ('state, 'msg) t -> now:float -> unit
(** Process death, the only way a node stops (Figure 3's failure).  All
    volatile state is lost: the buffers, the unflushed log suffix, the
    dependency and stability tables learned from peers, the retirements
    heard, and any storage fault armed on the store.  The store files
    lose every byte not yet fsynced and all descriptors close.  The
    handle is finished; recovery happens in a {e new} node {!create}d over
    the same [fs] and [store_dir], then {!restart}ed. *)

val restart : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Figure 3's Restart, on a node {!create}d over its predecessor's
    store: restore the last checkpoint, replay the stable log
    (through the application — sends already released and outputs already
    committed are suppressed), broadcast the failure announcement, start a
    fresh incarnation. *)

val restart_begin : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Fast-restart variant of {!restart}: the protocol part of recovery
    (failure announcement, incarnation bump, stability frontier) completes
    immediately, while the application re-execution of the stable log is
    deferred into per-partition replay queues keyed by the application's
    {!App_model.App_intf.partitioning}.  The caller pumps {!replay_step}
    to drain them; {!partition_recovered} partitions can serve new work in
    the meantime (messages for unrecovered partitions stay parked in the
    receive buffer).  Surviving {!Wire.Part_ckpt} records shortcut the
    replay of the partitions they cover.  On an application without
    partitioning this is exactly {!restart}. *)

val replay_step :
  ('state, 'msg) t ->
  now:float ->
  ?prefer:int ->
  budget:int ->
  unit ->
  int * 'msg action list * cost
(** Replay up to [budget] pending log records, preferring partition
    [prefer]'s queue when given (on-demand recovery: replay hot partitions
    first), round-robin otherwise.  Returns the number of records actually
    re-executed through the application.  When the last queue drains this
    emits [Trace.Recovery_completed] and certifies the replayed frontier
    digest.  No-op (returns [0]) when no recovery is active. *)

val partition_checkpoint :
  ('state, 'msg) t -> now:float -> bool * 'msg action list * cost
(** Incremental checkpoint: snapshot the dirtiest partition's state slice
    (plus pending effects) as a {!Wire.Part_ckpt} sync record covering the
    current stable prefix, compacting away the records it supersedes.
    Returns [false] (and writes nothing) when the application exports no
    partition slices, a recovery is in progress, or no partition has seen
    traffic since its last snapshot. *)

val recovery_active : ('state, 'msg) t -> bool
(** A {!restart_begin} replay is still in progress. *)

val recovery_pending : ('state, 'msg) t -> int
(** Log records still queued for replay (0 when no recovery is active). *)

val partition_count : ('state, 'msg) t -> int
(** Partitions the application declares; [0] when unpartitioned. *)

val partition_of_payload : ('state, 'msg) t -> 'msg -> int option
(** The partition a message belongs to; [None] for barriers or
    unpartitioned applications. *)

val partition_recovered : ('state, 'msg) t -> int -> bool
(** Whether partition [p] is ready to serve: its replay queue has drained
    and no barrier record is pending.  Always [true] outside recovery. *)

val partition_digest : ('state, 'msg) t -> int -> int option
(** The application's digest of partition [p]'s state slice. *)

val is_up : ('state, 'msg) t -> bool

val storage_report : ('state, 'msg) t -> Durable.Durable_store.open_report
(** What open-time recovery found in this node's store.  The durability experiment uses this to
    show that every injected storage fault is detected and reported. *)

val storage_words : ('state, 'msg) t -> int
(** Heap words reachable from this node's stable store
    ([Obj.reachable_words]): what the store keeps in memory beside its
    files, plus the whole tree it lives in for an in-memory store.  Costs a
    walk of that memory; a diagnostic for retention tests. *)

val dedup_words : ('state, 'msg) t -> int
(** Heap words reachable from the node's duplicate-suppression state: the
    deliveries known by identity or folded into channel runs, and the
    released-send and committed-output tables.  Like {!storage_words}, a
    diagnostic walk for retention tests. *)

val dedup_sizes : ('state, 'msg) t -> int * int * int
(** [(open, held, runs)]: deliveries not yet known committed; committed
    ones kept by identity because a copy may still arrive under another
    channel number; and the channel runs the rest folded into. *)

val arm_storage_fsync_failure : ('state, 'msg) t -> unit
(** Storage fault injection: the node's log fsync starts lying (reports
    success, persists nothing). *)

val arm_storage_disk_full : ('state, 'msg) t -> rounds:int -> unit
(** Brownout fault injection: the next [rounds] flush attempts refuse as if
    the disk were full (ENOSPC).  The volatile buffer is retained intact, so
    no record is lost — stability simply stops advancing and the K rule
    keeps riskier-than-K sends gated, which {e is} the graceful degradation:
    correctness is unaffected, only latency.  The first flush after the
    window drains the whole backlog.  Refusals are counted in the store's
    [storage_degraded_flushes_total]. *)

val arm_storage_slow_fsync :
  ('state, 'msg) t -> delay:float -> rounds:int -> unit
(** Brownout fault injection: the next [rounds] flush
    rounds stretch their fsync by [delay] seconds.  The node waits each
    stretch out before the round writes its stable-length witness, so a
    slow disk slows the node's flushes and never lets the witness run
    ahead of the fsync.  Stretched rounds are counted in
    [storage_slowed_fsyncs_total]. *)

(** {1 Membership}

    Dynamic join/leave/rejoin.  The protocol width {!membership_n} grows on
    any evidence of a wider cluster (a {!Wire.packet.Join} handshake, a
    piggybacked dependency, an announcement or notice row from an unknown
    pid); Corollary 3 makes the widening verdict-preserving.  Width never
    shrinks — a retired process keeps its slot, permanently NULL via
    Theorem 2 elision of its (all-stable) entries. *)

val membership_n : ('state, 'msg) t -> int
(** Current protocol membership width (>= the [create]-time [Config.n];
    grows as the node learns of new processes). *)

val announce_join : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Flush (forced), then broadcast a {!Wire.packet.Join} handshake: the
    node's pid, its view of the width and its current interval.  A joiner
    calls this once on boot (and a rejoiner after {!restart}); receivers
    widen their vectors and adopt the interval as stable, which the flush
    makes true. *)

val retire : ('state, 'msg) t -> now:float -> 'msg action list * cost
(** Graceful permanent leave: flush (making the whole local history
    stable), then broadcast a {!Wire.packet.Retire} carrying the stability
    frontier.  The caller transmits the returned actions and then
    {!halt}s/discards the node; receivers elide the retiree's entries so no
    send ever blocks on it. *)

val is_retired : ('state, 'msg) t -> int -> bool
(** Whether a {!Wire.packet.Retire} from process [j] has been absorbed. *)

val retired_frontier : ('state, 'msg) t -> int -> Depend.Entry.t option
(** The retirement frontier announced by process [j], if any. *)

(** {1 Inspection (tests, harness, examples)} *)

val pid : ('state, 'msg) t -> int

val config : ('state, 'msg) t -> Config.t

val current : ('state, 'msg) t -> Entry.t
(** The process's current state interval. *)

val dep_vector : ('state, 'msg) t -> Dep_vector.t
(** Copy of the current dependency vector. *)

val app_state : ('state, 'msg) t -> 'state

val log_row : ('state, 'msg) t -> int -> Entry_set.t
(** [log[j]]: stability knowledge about process [j]. *)

val iet_row : ('state, 'msg) t -> int -> Entry_set.t
(** [iet[j]]: incarnation end table for process [j]. *)

val current_notice : ('state, 'msg) t -> Wire.notice option
(** The logging-progress notice {!broadcast_notice} would emit right now,
    without its side effects (no metrics, no trace entry) — what a
    transport piggybacks on outgoing data frames.  [None] when the node is
    down. *)

val send_buffer_size : ('state, 'msg) t -> int

val receive_buffer_size : ('state, 'msg) t -> int

val archive_size : ('state, 'msg) t -> int
(** Released messages still held in the sender-side retransmission
    archive. *)

val receive_buffer_messages : ('state, 'msg) t -> 'msg Wire.app_message list
(** Undeliverable buffered messages, oldest first. *)

val output_buffer_size : ('state, 'msg) t -> int

val stable_frontier : ('state, 'msg) t -> Entry.t
(** Highest interval of the process's own chain known stable. *)

val obs : ('state, 'msg) t -> Obs.Registry.t
(** The registry the node bumps its protocol metrics in, each where its
    event happens: a [<event>_total] counter per protocol event
    ([deliveries_total], [releases_total], [restarts_total], ...), the
    histograms [blocked_time], [release_dep_entries], [wire_vector_size],
    [delivery_delay] and [output_latency] (abstract config units or
    counts), and the [recovery_*] window gauges.  Each series is O(1)
    memory, so a scrape costs O(series × buckets) however much traffic
    the node has seen; exact per-sample distributions come from the trace
    ({!Harness.Cluster.stats}).  The node's own calls are the only
    writers, and its owner takes the snapshots (one registry, one owner:
    see {!Obs}).  The
    node's store counts its synchronous writes and flushes there too
    ([storage_sync_writes_total], [storage_flushes_total]). *)

val volatile_log_length : ('state, 'msg) t -> int
(** Log records still volatile (buffered, not yet flushed).  Non-zero
    means a flush would advance stability — and acknowledge the deliveries
    those records hold, releasing the senders' retransmission archives. *)

val stable_log_length : ('state, 'msg) t -> int

val live_log_records : ('state, 'msg) t -> int
(** Stable-log records physically retained (differs from
    [stable_log_length] when garbage collection is enabled). *)
