(** Fully asynchronous multi-incarnation dependency tracking.

    Section 2 of the paper describes a completely asynchronous recovery
    protocol in which "a process needs to track the highest-index interval of
    {e every incarnation} that its current state depends on" — e.g. P4's
    dependency set [{(1,3)_0; (0,4)_1; (1,5)_1; (0,3)_2; (2,6)_3; (0,3)_4}]
    after delivering m6, which holds two incarnations of P1 at once.

    This structure implements that tracker: one {!Entry_set} per process.  It
    is used (a) by the Figure 1 reproduction to check the prose dependency
    sets verbatim, and (b) by the offline causality oracle, where per-process
    per-incarnation maxima are a complete representation of a transitive
    dependency set (dependencies are downward closed along each incarnation
    chain). *)

type t

val create : n:int -> t

val n : t -> int

val copy : t -> t

val row : t -> int -> Entry_set.t

val add : t -> int -> Entry.t -> unit
(** Record a (possibly transitive) dependency on an interval of process [j],
    keeping the per-incarnation maximum. *)

val merge : into:t -> t -> unit
(** Union of dependency sets, the multi-incarnation analogue of
    {!Dep_vector.merge_max}. *)

val depends_on : t -> int -> Entry.t -> bool
(** [depends_on t j e]: the set contains an interval of process [j], in
    [e]'s incarnation, with index [>= e.sii] — i.e. (by downward closure)
    the tracked state transitively depends on interval [e]. *)

val entries : t -> (int * Entry.t) list
(** All dependencies as [(process, entry)] pairs, ordered by process then
    incarnation. *)

val equal : t -> t -> bool
