(** Bounded stateless model checking of the recovery protocol.

    {!run} drives the deterministic simulator through {e every} schedule
    of a small configuration — a handful of client messages, crashes and
    flushes, all enabled from time zero — and runs the offline causality
    oracle ({!Oracle.check}, which includes the Theorem-4 K-risk bound) on
    every complete execution.  Exploration is stateless depth-first
    search: a prefix is re-executed from scratch for every sibling branch
    (the cluster has no snapshot/undo), with sleep-set partial-order
    reduction so that interleavings differing only in the order of
    commuting deliveries are certified once, not once per permutation.

    Soundness of the reduction rests on the scenario construction
    ({!build}): every cost and interval is zero, the network override pins
    every transit to zero delay {e before} the timing RNG would draw, and
    the fault plan is benign — so executing one pending event consumes no
    randomness and touches only its target process's state (plus the
    write-only trace).  Two pending events are treated as independent iff
    they touch distinct processes and do not conflict on the outside
    world's request log; crash/restart events carry no process and are
    dependent with everything. *)

type bounds = {
  max_depth : int;  (** schedule-length cap; deeper branches are cut *)
  max_schedules : int;  (** stop after this many complete executions *)
  preemptions : int option;
      (** context bound: maximum number of times a schedule may switch
          away from a process that still has a runnable event.  [None]
          (the default) = unbounded, i.e. truly exhaustive *)
}

val default_bounds : bounds
(** [max_depth = 400], [max_schedules = 200_000], unbounded preemptions. *)

type result = {
  params : Schedule.explore_params;
  schedules : int;  (** complete executions certified by the oracle *)
  truncated : int;  (** branches cut by the depth or preemption bound *)
  sleep_pruned : int;
      (** runnable candidates skipped because the sleep set proved the
          resulting interleaving equivalent to one already explored *)
  sleep_terminals : int;
      (** search nodes where {e every} runnable event was asleep — whole
          subtrees proved redundant *)
  transitions : int;  (** events executed on live branches *)
  replayed_transitions : int;
      (** events re-executed while rebuilding prefixes (the stateless-DFS
          overhead) *)
  max_depth_seen : int;
  max_enabled : int;  (** widest choice point encountered *)
  max_risk : int;  (** largest Theorem-4 risk over all executions *)
  complete : bool;
      (** no branch was cut and the schedule cap was not hit: the state
          space was exhausted up to trace equivalence *)
  violations : (Schedule.t * string list) list;
      (** replayable counter-example schedules, oldest first, each with
          its oracle violations (or the raised exception) *)
}

val ok : result -> bool
(** No violations. *)

val pp_result : result Fmt.t

val build :
  ?breakage:Recovery.Config.breakage ->
  Schedule.explore_params ->
  (App_model.Counter_app.state, App_model.Counter_app.msg) Cluster.t
(** The canonical scenario for a parameter tuple: an untimed cluster
    (zero costs, zero latency, no periodic timers, transit pinned to zero
    delay) with [messages] one-hop [Forward] chains, [crashes] fail-stop
    crashes and [flushes] explicit flushes, all scheduled at time 0 —
    every ordering decision is left to the explorer
    ({!Cluster.step_nth}).  Both {!run} and {!replay} build scenarios
    only through this function, which is what makes a recorded choice
    sequence replayable byte-for-byte. *)

val run :
  ?breakage:Recovery.Config.breakage ->
  ?bounds:bounds ->
  Schedule.explore_params ->
  result
(** Explore the configuration's schedule space.  At most 16
    counter-examples are retained; the search keeps running to
    completion (or its bounds) either way. *)

val replay_explore :
  ?breakage:Recovery.Config.breakage ->
  Schedule.explore_params ->
  choices:int list ->
  Chaos.verdict
(** Rebuild the scenario, apply the recorded choice positions in order,
    drain the remaining events in canonical order, and run the oracle.
    Never returns [Detected] (explore scenarios involve no storage
    damage). *)

val replay : Schedule.t -> Chaos.verdict
(** Replay any schedule: [Explore] via {!replay_explore}, [Chaos] via
    {!Chaos.run_case}, [Figure1] via {!Figure1.run} (prose-fact failures
    are folded into the oracle report's violations). *)

val verdict_matches : Schedule.expect -> Chaos.verdict -> bool
(** Does the replayed verdict fall in the recorded class? *)
