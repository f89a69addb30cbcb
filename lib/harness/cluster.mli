(** Discrete-event simulation of an N-process recovery cluster.

    Owns the nodes, the event queue, the network model, the periodic timers
    (flush, checkpoint, logging-progress notices), failure injection and the
    outside world (client injections plus their retransmission on failure
    announcements).  Time advances only through the cost model: application
    processing, synchronous stable writes, replay and checkpoint work all
    consume simulated time on the node that performs them, so makespan and
    latency measurements reflect protocol overhead. *)

type ('state, 'msg) t

val create :
  config:Recovery.Config.t ->
  app:('state, 'msg) App_model.App_intf.t ->
  ?seed:int ->
  ?horizon:float ->
  ?net_override:Netmodel.override ->
  ?fault_plan:Netmodel.fault_plan ->
  ?auto_timers:bool ->
  unit ->
  ('state, 'msg) t
(** Pending events run in earliest-time order, ties broken by insertion
    ({!run}); the model checker picks them itself ({!step_nth}).
    [auto_timers] (default [true]) arms the periodic flush / checkpoint /
    notice timers from the configured intervals (plus the retransmission
    timer when {!Recovery.Config.timing.retransmit_interval} is set);
    scripted scenarios turn it off and drive those actions explicitly.
    [horizon] (default 10000 time units) bounds the run — periodic timers
    re-arm forever, so a finite horizon is what terminates [run].
    [fault_plan] (default {!Netmodel.benign}) subjects all inter-node
    traffic to adversarial network faults; its randomness comes from a
    stream separate from the timing jitter, so the benign plan reproduces
    historical runs bit-for-bit.

    Every pid's store lives in [p<pid>] on an in-memory tree
    ({!Durable.Fs.Mem}) that the cluster keeps for the whole run, across
    every death of the processes over it: the simulator touches no real
    file. *)

(** {1 Scheduling inputs} *)

val inject_at : ('state, 'msg) t -> time:float -> dst:int -> 'msg -> unit
(** Client message from the outside world. *)

val crash_at : ('state, 'msg) t -> time:float -> pid:int -> unit
(** Fail-stop crash: [kill_at] without a storage fault. *)

val kill_at :
  ('state, 'msg) t ->
  time:float ->
  pid:int ->
  ?storage_fault:Durable.Fault.t ->
  unit ->
  unit
(** Process death ({!Recovery.Node.halt}), the one way a simulated node
    fails: the node and all its volatile state are discarded with its
    store descriptors, and after [restart_delay] a {e fresh} node, with
    the dead one's config, is created over the same store — recovering
    solely from what the death left behind — and restarted as a daemon
    restarts ({!Recovery.Node.restart_begin}).  A partitioned
    application's deferred replay is drained at that same instant
    ({!Recovery.Node.replay_step}), so the replay's cost makes the node
    busy but no event interleaves with it.

    The optional storage fault damages the closed files on the pid's tree
    before the respawn, drawing from a stream of its own.
    [Failed_fsync] is special: the tree starts lying about log fsyncs a
    couple of flush periods {e before} [time] ({!Durable.Fs.Mem.lie}), so
    the node announces stability for log records the disk never
    persisted, and the death cuts each log segment back to what was
    really synced ({!Durable.Fs.Mem.halt}).  Every death ends a lie: a
    crash or retirement in between cuts the segments the same way.

    A kill that lands while [pid] is down (killed and not yet respawned,
    or retired) is not applied: it is counted in [kills_ignored_total]
    ({!stats}). *)

val store : ('state, 'msg) t -> int -> Durable.Fs.t * string
(** The file system pid's store lives on (its in-memory tree) and the
    store's directory there: what a test reads to inspect the files. *)

val fault_notes : ('state, 'msg) t -> (int * float * string) list
(** The storage faults injected so far, oldest first: (pid, kill time,
    description of the damage {!Durable.Fault.apply} did).  What the
    respawned stores found is counted in their registries (the
    [storage_*] series of {!stats}, see
    {!Durable.Durable_store.loss_counters}). *)

val crash_group_at : ('state, 'msg) t -> time:float -> pids:int list -> unit
(** Correlated failure: all listed nodes crash at the same instant. *)

val cascade_crash_at : ('state, 'msg) t -> time:float -> pids:int list -> unit
(** Cascading failure: each listed node crashes half the restart delay
    after the previous one, i.e. while the previous victim is still
    down. *)

(** {1 Membership churn} *)

val join_at : ('state, 'msg) t -> time:float -> pid:int -> unit
(** Bring process [pid] into the cluster at [time].

    - [pid = n t]: a {e brand-new} process joins.  It is created with a
      config counting itself ([n = pid + 1]); by Corollary 3 it starts with
      no dependency entries, and the incumbents widen their vectors when the
      Join broadcast reaches them.
    - [pid < n t]: a {e rejoin} under the same identity (e.g. after
      {!retire_at}); any retirement record is cleared, the node restarts if
      it was down, and it re-announces itself. *)

val retire_at : ('state, 'msg) t -> time:float -> pid:int -> unit
(** Graceful leave at [time]: the node force-flushes its log, broadcasts its
    final frontier (survivors treat its entries as stable forever — the
    Theorem 2 justification), and falls permanently silent.  Packets
    addressed to a retired pid are dropped.  No restart is scheduled; the
    pid can come back only through an explicit {!join_at}. *)

val arm_disk_full_at :
  ('state, 'msg) t -> time:float -> pid:int -> rounds:int -> unit
(** Brownout injection: from [time], the node's next [rounds] ordinary
    flushes refuse as if the disk were full (see
    {!Durable.Durable_store.arm_disk_full}).  Degradation is graceful: the
    volatile buffer is retained and the K-rule keeps sends gated until the
    window passes. *)

val retired : ('state, 'msg) t -> int list
(** Pids currently retired (newest first). *)

val crash_during_checkpoint_at : ('state, 'msg) t -> time:float -> pid:int -> unit
(** Force a checkpoint at [time] and crash the node mid-way through the
    checkpoint's busy window. *)

val crash_during_flush_at : ('state, 'msg) t -> time:float -> pid:int -> unit
(** Force a flush at [time] and crash the node mid-way through the write. *)

val perform_at :
  ('state, 'msg) t ->
  time:float ->
  pid:int ->
  'msg App_model.App_intf.effect list ->
  unit
(** Execute application effects within the node's current interval (see
    {!Recovery.Node.perform}); used by scripted scenarios. *)

val flush_at : ('state, 'msg) t -> time:float -> pid:int -> unit

val checkpoint_at : ('state, 'msg) t -> time:float -> pid:int -> unit

val notice_at : ('state, 'msg) t -> time:float -> pid:int -> unit

(** {1 Running} *)

val run : ('state, 'msg) t -> unit
(** Process events until the queue is empty or the horizon is reached. *)

val run_until : ('state, 'msg) t -> float -> unit
(** Process every event scheduled strictly before the given time. *)

(** {1 Explicit scheduling choice points}

    The model checker ({!Explore}) does not run the cluster to completion;
    it inspects the pending events, chooses one, executes it, and repeats —
    enumerating interleavings instead of following the clock. *)

(** One pending event, as seen from a scheduling choice point. *)
type enabled = {
  key : int;
      (** event-queue sequence number: a stable identity for this event
          across inspections (sleep sets are keyed on it) *)
  at : float;  (** scheduled simulation time *)
  pid : int option;
      (** the process whose state the event touches; [None] for failure
          injection and restart events, which the model checker treats as
          dependent on everything *)
  blocked : bool;  (** target process is currently down *)
  label : string;  (** canonical human-readable description *)
  log_write : bool;
      (** appends the outside world's request log (a fresh client
          injection) *)
  log_read : bool;
      (** reads that log (a failure announcement triggers client
          retransmission) — reads and writes do not commute *)
}

val enabled_events : ('state, 'msg) t -> enabled list
(** All pending events in canonical pop order (ascending [(time, seq)]).
    Positions in this list are the choice indices {!step_nth} accepts and
    {!Harness.Schedule} records. *)

val step_nth : ('state, 'msg) t -> int -> bool
(** Execute the [i]-th pending event of the canonical order ([step_nth t 0]
    follows earliest-time order).  Unlike {!run}, no horizon check is
    applied: the caller chose this event explicitly.  [false] if [i] is
    out of range (in particular, when nothing is pending). *)

(** {1 Inspection} *)

val n : ('state, 'msg) t -> int

val now : ('state, 'msg) t -> float

val node : ('state, 'msg) t -> int -> ('state, 'msg) Recovery.Node.t

val nodes : ('state, 'msg) t -> ('state, 'msg) Recovery.Node.t array

val trace : ('state, 'msg) t -> Recovery.Trace.t

val config : ('state, 'msg) t -> Recovery.Config.t

(** Aggregate run statistics over every process the run ever had,
    killed incarnations included, plus network accounting. *)
type stats = {
  obs : Obs.Snapshot.t;
      (** every count the run made: {!Obs.Snapshot.merge_all} over one
          registry per pid, shared by every node that pid runs (kills
          respawn over it), as a daemon keeps one per process, and the
          network model's registry ([net_*] series, see {!Netmodel}), which
          also counts [kills_ignored_total], the kills that landed while
          their pid was down *)
  makespan : float;  (** time of the last processed event *)
  busy_time : float;  (** total node busy time (work-weighted overhead) *)
  blocked_time : Sim.Summary.t;
  wire_vector_size : Sim.Summary.t;
  release_dep_entries : Sim.Summary.t;
  delivery_delay : Sim.Summary.t;
  output_latency : Sim.Summary.t;
}

val stats : ('state, 'msg) t -> stats
(** The {!Sim.Summary.t} fields are exact, from one fold over {!trace}
    ([Message_released], [Message_delivered], [Output_committed]), fed
    pid by pid downwards, each oldest first. *)
