(** Multi-process deployment: real daemons on loopback TCP.

    Forks N [koptnode] daemons (the kvstore application over the durable
    store), drives a workload through their control sockets, SIGKILLs and
    respawns processes mid-run, optionally routes all traffic through the
    fault-injecting {!Proxy}, then merges the per-process trace files and
    certifies the merged trace with {!Harness.Oracle} — the same
    end-to-end correctness argument the simulator uses, now across real
    process boundaries, real sockets and real kills.

    Trace merging: per-process files are concatenated and sorted by
    (wall-clock time, pid, file position); the daemons share one epoch
    ([--epoch]) so timestamps are comparable, and a causal successor is
    always later than its cause because a real network message takes
    strictly positive time.  A SIGKILLed daemon never wrote its
    [Trace.Crashed] event, so the merge {e synthesises} it in front of the
    successor incarnation's [Restarted]: the announcement in that event
    pins the crashed incarnation, and the replay frontier pins the first
    lost interval.  DESIGN.md §E14 spells out why this reconstruction is
    exact. *)

type t

val launch :
  n:int ->
  k:int ->
  ?app:string ->
  ?ckpt_interval:float ->
  ?part_ckpt:float ->
  ?time_scale:float ->
  ?plan:Harness.Netmodel.fault_plan ->
  ?seed:int ->
  ?root:string ->
  ?exe:string ->
  unit ->
  t
(** Start [n] daemons with degree of optimism [k] on free loopback ports.
    [app] (default ["kvstore"]) selects the application the daemons run —
    any name [koptnode --app] accepts (["shardkv"] is the sharded store).
    With [plan], every inter-daemon connection is routed through a
    {!Proxy} applying it.  [root] (default: a fresh temp dir) holds the
    per-process store dirs, trace files, metrics files and daemon logs.
    [exe] overrides daemon binary discovery ([$KOPTNODE_EXE], the build
    tree, or a sibling of the running executable).  [ckpt_interval]
    overrides the daemons' full-checkpoint period (0 disables it);
    [part_ckpt] arms incremental per-partition checkpointing with the
    given period — both in abstract time units. *)

val find_exe : string option -> string
(** The daemon binary {!launch} runs: the given path, else
    [$KOPTNODE_EXE], else the first [koptnode.exe] found beside the
    running executable, in a sibling [bin/] or in the build tree.
    @raise Invalid_argument when none exists. *)

val n : t -> int
(** Launch-time cluster size (the width incumbents were configured with). *)

val width : t -> int
(** Current membership width: [n] plus every {!add_node} since launch
    (retired pids keep their slots, so the width never shrinks). *)

val retired : t -> int list
(** Pids gracefully retired so far, newest first. *)

val config : t -> Recovery.Config.t
(** The (hardened) configuration every daemon runs. *)

val root : t -> string

val control_port : t -> dst:int -> int
(** Daemon [dst]'s control port on loopback, for a client of its own. *)

val data_port : t -> dst:int -> int
(** Daemon [dst]'s peer port on loopback (its own, not a proxy's). *)

val store_dir : t -> dst:int -> string
(** Daemon [dst]'s durable store directory (under {!root}). *)

val epoch : t -> float
(** The shared wall-clock origin (Unix time) of every daemon's trace
    timestamps: [epoch +. time *. time_scale] converts a merged-trace
    entry back to wall clock, which is how client-visible latency is
    measured against injection times. *)

val time_scale : t -> float

val inject : t -> dst:int -> App_model.Kvstore_app.msg -> unit
(** Deliver a client message to daemon [dst] (a fresh outside-world
    sequence number is assigned). *)

val inject_app :
  t -> dst:int -> wire:'msg App_model.App_intf.wire_format -> 'msg -> unit
(** {!inject} for deployments running a different application: the payload
    is encoded with the given wire format, which must match the daemons'
    [--app] (a mismatch is counted by the daemon as a decode failure,
    never misread). *)

val status : t -> dst:int -> Wire_codec.status option
(** Poll a daemon's control socket; [None] if it cannot be reached. *)

val scrape : t -> dst:int -> (Obs.Snapshot.t, string) result option
(** Scrape daemon [dst]'s live metric registry over the control socket
    ([Stats_req]): the decoded snapshot, [Error] if the daemon answered
    with a whole frame whose snapshot does not decode
    ({!Wire_codec.snapshot} refuses it: a format regression worth failing
    on), [None] if it cannot be reached.  The snapshot is a
    consistent cut of the daemon's registry taken by its main loop, so
    cross-metric invariants (e.g. [flush_rounds_total] at least the
    fsync histogram's count) hold within one scrape. *)

val kill : t -> dst:int -> unit
(** SIGKILL daemon [dst], wait {!Recovery.Config.real_restart_delay}, and
    respawn it over the same store directory — the successor incarnation
    recovers from whatever the killed one had made durable. *)

val kill_only : t -> dst:int -> unit
(** SIGKILL daemon [dst] and reap it, without respawning — the recovery
    tests separate the kill from the {!respawn} so they can catch (and
    re-kill) the successor mid-replay. *)

val respawn : t -> dst:int -> unit
(** Start a fresh incarnation of a {!kill_only}ed daemon over its store
    directory. *)


(** {1 Membership churn} *)

val add_node : t -> int
(** Grow the cluster by one live daemon: allocates ports and a store
    directory for the next pid, tells every incumbent to start dialling it
    ([Add_peer] control), and spawns it with [--join] so it announces
    itself — incumbents widen their dependency vectors when the Join
    broadcast reaches them (Corollary 3 makes the joiner's empty vector
    sound).  Returns the new pid.  Joiners bypass the fault proxy (its
    route table is fixed at launch). *)

val retire : t -> dst:int -> unit
(** Graceful permanent leave: the daemon flushes, broadcasts its final
    frontier ({!Recovery.Wire.packet.Retire} — survivors treat its entries
    as stable forever, per Theorem 2), drains and exits.  No successor is
    spawned; the pid's trace and metrics still join the final merge. *)

val rejoin : t -> dst:int -> unit
(** Bring a {!retire}d pid back: a fresh daemon over the same store
    directory, spawned with [--join] so it re-announces itself (a
    rejoining process is just a joiner whose stable past the survivors
    already hold, per Theorem 2).  A no-op for pids not retired. *)

val rolling_restart : ?timeout:float -> t -> bool
(** SIGKILL + respawn every live daemon in turn, waiting for the cluster
    to {!settle} between victims so at most one process is down at a time.
    [false] if any settle timed out. *)

val arm_brownout : t -> dst:int -> rounds:int -> unit
(** Daemon [dst]'s store refuses its next [rounds] flushes as if the disk
    were full (ENOSPC brownout).  Degradation is
    graceful: refused records stay volatile and the K-rule keeps the
    daemon's sends gated, so correctness is never traded for progress. *)

val run_workload : t -> ops:int -> seed:int -> unit
(** Inject a deterministic kvstore workload (Puts with interleaved Gets)
    round-robin across the cluster. *)

val settle : ?timeout:float -> t -> bool
(** Poll until every daemon is up with empty protocol buffers, no replay
    in progress, nothing left of the batch serving the poll and a
    delivery count stable across consecutive polls; [false] on [timeout]
    (default 30 s). *)

type outcome = {
  trace : Recovery.Trace.t;  (** merged, globally ordered *)
  damage : string list;
      (** torn-tail reports from trace-file loads, and each metrics or
          reopens file that ends in a torn or corrupt frame, named with
          the byte offset ({!load_snapshots}) *)
  synthesized_crashes : int;  (** [Crashed] events reconstructed at merge *)
  oracle : Harness.Oracle.report;
  obs : Obs.Snapshot.t;
      (** every daemon's Quit-time registry snapshot, merged with
          {!Obs.Snapshot.merge_all}: counters and histogram buckets sum
          across the cluster, so e.g. the fsync-latency histogram here is
          the cluster-wide latency distribution.  A daemon reaped without
          draining contributes an empty snapshot (its metrics file was
          never written) — trace evidence is unaffected.  The
          {!Durable.Durable_store.reopen_counters} are the exception:
          they come from the file each incarnation that found a store
          appends them to at boot ([metrics-<pid>.bin.reopens]), so
          they sum every open, a SIGKILLed incarnation's included.  A
          deployment launched with a fault [plan] also merges in its proxy's
          [proxy_*_total] counters, from the [metrics-proxy.bin] file
          the relay writes under [root] when it stops.  Every one of
          these files is read by {!load_snapshots}; the whole frames
          before any damage count. *)
}

val load_snapshots : string -> Obs.Snapshot.t * string option
(** A metrics or reopens file read by {!Wire_codec.decode_snapshots}: the
    sum of its whole snapshots, and any damage as
    ["<path>: damaged at byte <offset>: <reason>"].  A missing file is
    [(Obs.Snapshot.empty, None)]. *)

val check_fault_free : outcome -> unit
(** Certification tightening for runs with no proxy and no kills: a
    benign network must decode every frame and shed none, and no store
    may lose data, so
    @raise Failure if [obs] shows a nonzero
    [transport_decode_errors_total], [transport_frames_dropped_total] or
    {!Durable.Durable_store.loss_counters} series.  Those count what the
    opens of every incarnation found, a SIGKILLed one's included. *)

val certify :
  report:Harness.Report.t -> exp:string -> label:string -> outcome -> unit
(** The certification every live experiment applies to its outcome:
    @raise Failure naming experiment [exp] and run [label] on any oracle
    violation, else note in [report] each entry of [damage] and each
    nonzero {!Durable.Durable_store.loss_counters} series of [obs] (what
    the reopens of every incarnation found lost, each loss counted by the
    open that found it).  Risk
    above K needs no check of its own: {!finish} runs the oracle with the
    deployment's K, and the oracle counts that as a violation. *)

val finish : t -> outcome
(** Drain every daemon (Quit → metrics + final trace sync), reap the
    processes, stop the proxy, merge and certify.  The deployment is dead
    afterwards; its [root] is left on disk for inspection. *)

val destroy : t -> unit
(** Force-kill anything still running and delete [root]. *)

(** {1 Experiment / smoke entry points} *)

val experiment : ?smoke:bool -> unit -> Harness.Report.t
(** E14: oracle-certified multi-process runs across K, with a mid-run
    SIGKILL and a proxy fault plan.  Every run also {!scrape}s each live
    daemon mid-load and fails on a snapshot that does not decode, a cluster
    that shows zero [deliveries_total], or a merged
    [storage_reopens_total] other than the number of daemons killed so
    far (each successor reopens its store once) — the CI net smoke's
    stats-plane gate.  [smoke] shrinks it to one small oracle-certified run (one
    kill) for CI.
    @raise Failure on any oracle violation. *)
