(** Offline causality oracle.

    Rebuilds the {e true} transitive-dependency relation from an execution
    trace, completely independently of the protocol's own vectors, and
    checks every decision the protocol made against the paper's
    definitions:

    - Definition 1 (orphans): an interval is orphan iff it transitively
      depends on a rolled-back interval.  We use the refinement actually
      relevant under Theorem 1: the roots are intervals {e lost in
      failures}; everything else rolled back must have been orphan through
      such a root.
    - Theorems 1/2 (soundness of rollback and discard decisions): every
      induced rollback undid only true orphans; every message discarded as
      orphan truly was one; at the end of the run no surviving state is
      orphan.
    - Output commit: no committed output ever depends on a lost interval.
    - Theorem 4: for every released message, the number of distinct
      processes owning a not-yet-stable interval in its dependency closure
      at release time is at most K.
    - PWD replay: a replayed interval reproduces the original state digest.
    - Storage: intervals announced stable are never among the crash-lost.

    Dependency sets are represented as one {!Depend.Multi_dep} per interval
    (per-process, per-incarnation maxima) — a complete representation
    because transitive dependencies are downward closed along incarnation
    chains. *)

type report = {
  violations : string list;  (** empty iff the execution is correct *)
  intervals : int;  (** state intervals observed *)
  lost : int;  (** intervals lost to crashes (orphan roots) *)
  undone : int;  (** intervals undone by rollbacks *)
  orphans_at_end : int;  (** surviving orphan intervals (must be 0) *)
  released : int;  (** released messages checked against Theorem 4 *)
  max_risk : int;
      (** largest observed number of processes able to revoke a released
          message *)
  outputs_committed : int;
}

val check : ?k:int -> n:int -> Recovery.Trace.t -> report
(** Analyse a finished run.  [k] (default: skip the bound check) is the
    degree of optimism to verify Theorem 4 against. *)

val ok : report -> bool

val pp_report : report Fmt.t

val dependencies :
  n:int ->
  Recovery.Trace.t ->
  pid:int ->
  Depend.Entry.t ->
  (int * Depend.Entry.t) list option
(** The true transitive dependency set of one state interval, as
    per-process per-incarnation maxima — exactly the representation the
    paper's Section 2 dependency sets use (e.g. P4's
    [{(1,3)_0; (0,4)_1; (2,6)_3; (0,2)_4}]).  [None] if the interval never
    existed.  Used by the Figure 1 reproduction to check the prose sets. *)
