(** Pluggable event-scheduling policy.

    The simulator normally executes pending events in earliest-time order
    (ties broken by insertion).  A scheduler replaces that rule with an
    explicit choice: at every step the driver reports how many events are
    pending (in canonical [(time, seq)] order) and the scheduler answers
    with the index of the one to execute.  This turns the schedule itself
    into an input, which is what lets the model checker enumerate, record
    and replay interleavings ({!Harness.Explore}).

    Every pick is recorded, so the exact interleaving of any run can be
    serialized and replayed byte-for-byte. *)

type t

val earliest : unit -> t
(** Always picks index 0 — exactly the default earliest-time order. *)

val replay : int list -> t
(** Follow the given choice sequence (indices into the canonical pending
    order); after it is exhausted, fall back to earliest-time order.  An
    out-of-range recorded index is clamped into the current pending range,
    so a schedule replayed against a shorter queue still progresses. *)

val pick : t -> n_enabled:int -> int
(** Next choice, recorded.  Requires [n_enabled >= 1]. *)

val choices : t -> int list
(** Every pick made so far, oldest first — the serializable schedule. *)
