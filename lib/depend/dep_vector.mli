(** Transitive dependency vectors with NULL entries.

    The protocol of Figures 2–3 maintains a size-N vector [tdv] whose entry
    [j] is the highest-index state interval of process [j] that the local
    state (or a buffered message) transitively depends on, or NULL when the
    dependency has been elided because the interval is known stable
    (Theorem 2).  NULL is lexicographically smaller than every non-NULL
    entry.

    The wire representation omits NULL entries; [non_null_count] is therefore
    both the piggyback size and the quantity bounded by K (Theorem 4). *)

type t

val create : n:int -> t
(** All-NULL vector for an N-process system (Corollary 3: a process starts
    with no dependency entries). *)

val n : t -> int

val copy : t -> t

val grow : t -> n:int -> t
(** Identity-preserving resize for membership growth: slot [j] of the
    result is slot [j] of the input, new slots are NULL.  Sound by
    Corollary 3 — a process nobody has ever depended on contributes only
    NULL entries, so widening the vector changes no verdict.  Returns the
    input unchanged when [n] equals the current width.
    @raise Invalid_argument if [n] is smaller than the current width. *)

val shrink : t -> n:int -> t
(** Drop trailing slots after a retirement.  Only NULL slots may be
    dropped: by Theorem 2 a NULL entry carries no dependency information,
    so removing it changes no orphan verdict — whereas dropping a live
    entry would forget a dependency.
    @raise Invalid_argument if any dropped slot is non-NULL, or [n] is
    not in [(0, width]]. *)

val get : t -> int -> Entry.t option

val set : t -> int -> Entry.t option -> unit

val clear : t -> int -> unit
(** [clear t j] sets entry [j] to NULL. *)

val merge_max : into:t -> t -> unit
(** Pointwise lexicographic maximum, the [tdv[j] := max(tdv[j], m.tdv[j])]
    step of Deliver_message.  NULL loses to any entry. *)

val non_null_count : t -> int

val non_null : t -> (int * Entry.t) list
(** [(process, entry)] pairs in increasing process order — the wire form. *)

val of_non_null : n:int -> (int * Entry.t) list -> t

val iteri : t -> f:(int -> Entry.t option -> unit) -> unit

val elide_stable : t -> stable:(int -> Entry.t -> bool) -> int
(** Apply Theorem 2: NULL every entry [(j, e)] for which [stable j e] holds.
    Returns the number of entries elided.  This is the per-message loop of
    Check_send_buffer and the local-vector loop of Receive_log. *)

val equal : t -> t -> bool
