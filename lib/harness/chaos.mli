(** Oracle-certified chaos campaigns.

    A campaign runs many randomized scenarios — each a workload plus a list
    of fault directives (message loss, duplication, reordering, timed
    partitions, correlated crashes) — under the hardened K-optimistic
    protocol, and certifies every run with the offline causality oracle
    ({!Oracle.check}).  When a run fails (oracle violation or harness
    exception), a greedy delta-debugging shrinker minimizes the fault list
    to a 1-minimal counterexample. *)

type crash_kind = Schedule.crash_kind =
  | Single of int
  | Group of int list  (** simultaneous multi-node crash *)
  | Cascade of int list  (** staggered crashes, each while the previous victim is down *)
  | In_checkpoint of int  (** crash mid-checkpoint *)
  | In_flush of int  (** crash mid-flush *)

(** One removable unit of adversity.  The shrinker minimizes a failing case
    by dropping directives one at a time.  (Defined in {!Schedule}, which
    serializes cases to disk; re-exported here unchanged.) *)
type fault = Schedule.fault =
  | Loss of float  (** per-packet loss probability *)
  | Duplication of float
  | Reorder of float * float  (** probability, extra-delay spread *)
  | Partition of { group : int list; from_ : float; until : float; drop : bool }
  | Crash of { kind : crash_kind; time : float }
  | Kill of { pid : int; time : float; storage : Durable.Fault.t option }
      (** process death over a durable store, optionally followed by
          post-mortem file damage; the respawned process recovers solely
          from disk *)
  | Join of { pid : int; time : float }
      (** membership churn: a brand-new process joins ([pid = n]) or a
          retired one rejoins under its old identity ([pid < n]); the run
          is certified at the cluster's final width *)
  | Retire of { pid : int; time : float }
      (** graceful leave: force-flush, broadcast the final frontier
          (Theorem 2 — survivors treat the entries as stable forever),
          fall permanently silent *)
  | Brownout of { pid : int; time : float; rounds : int }
      (** disk-full window: the node's next [rounds] ordinary flushes
          refuse; the K-rule must keep degradation graceful *)

type case = Schedule.case = { n : int; k : int; seed : int; faults : fault list }

val pp_fault : Format.formatter -> fault -> unit

val pp_case : Format.formatter -> case -> unit

val plan_of_faults : fault list -> Netmodel.fault_plan
(** Wire-level directives folded into one plan (probabilities combine by
    max, so dropping any directive weakens the plan monotonically). *)

type verdict =
  | Certified of Oracle.report
  | Detected of { oracle : Oracle.report; damage : string list }
      (** the oracle saw violations, but the run injected storage faults
          ({!Cluster.fault_notes}) or its reopened stores counted lost
          data (a nonzero {!Durable.Durable_store.loss_counters} series in
          the run's merged {!Cluster.stats}) — loud, detected data loss
          rather than silent wrong state.  [damage] names each injected
          fault and each nonzero loss counter. *)
  | Violated of Oracle.report
  | Crashed of string  (** the harness or protocol raised *)

type outcome = { verdict : verdict; stats : Cluster.stats option }

val verdict_failed : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit

val run_case :
  ?breakage:Recovery.Config.breakage -> ?calls:int -> case -> outcome
(** Run one case end to end under [Config.harden (k_optimistic ~n ~k)]:
    telecom workload, the case's fault plan and crash schedule, then the
    oracle over the full trace.  [breakage] deliberately disables protocol
    safeguards to validate that the oracle (or the harness itself) catches
    the resulting corruption.  Every store lives on an in-memory tree
    ({!Cluster.create}), so [Kill] directives and their storage faults
    touch no real file.  An oracle violation accompanied by an injected
    storage fault or a counted loss yields [Detected], one without yields
    [Violated]. *)

val random_case : ?storage_faults:bool -> Sim.Rng.t -> index:int -> case
(** Randomized case generator: every case carries loss (≤ 10%),
    duplication and reordering; half add a timed partition; crash
    directives cycle through the correlated-failure kinds; K cycles
    through [{0, 2, N}].  With [storage_faults] (default [false]) every
    case also kills one process, cycling through clean kills and the four
    storage faults of {!Durable.Fault}.  A quarter of cases add membership
    churn, cycling through a brand-new joiner, a retire-then-rejoin pair,
    and a disk-full brownout window. *)

type summary = {
  runs : int;
  certified : int;
  detected : int;
      (** runs whose oracle violations were matched by reported storage
          damage — data loss was injected, detected and reported *)
  failures : (case * verdict) list;  (** oldest first *)
  obs : Obs.Snapshot.t;
      (** {!Obs.Snapshot.merge_all} over every run's {!Cluster.stats}
          snapshot (runs that raised contribute nothing) *)
  max_risk_seen : int;
}

val campaign :
  ?breakage:Recovery.Config.breakage ->
  ?storage_faults:bool ->
  ?progress:(int -> unit) ->
  runs:int ->
  seed:int ->
  unit ->
  summary

val shrink : ?breakage:Recovery.Config.breakage -> case -> case
(** Greedy 1-minimal shrink of a failing case: the result still fails, and
    removing any single remaining directive makes it pass. *)

val expect_of_verdict : verdict -> Schedule.expect
(** The verdict class, for recording in a schedule. *)

val to_schedule :
  ?breakage:Recovery.Config.breakage ->
  ?calls:int ->
  name:string ->
  case ->
  verdict ->
  Schedule.t
(** Wrap a (typically shrunk) case and the verdict it reproduces as a
    serialized schedule; {!Explore.replay} re-runs it through
    {!run_case}. *)
