(** Per-process sets of per-incarnation interval indices.

    This is the [set of entry] with the [Insert] semantics of Figure 3: at
    most one entry per incarnation, keeping the maximum index.  Two protocol
    tables share this structure:

    - an {b incarnation end table} row ([iet[j]]): entry [(t, x0)] records
      that incarnation [t] of process [j] ended at index [x0] — intervals
      [(s, y)] with [s <= t] and [y > x0] are rolled back;
    - a {b logging progress table} row ([log[j]]): entry [(t, x')] records
      that intervals of incarnation [t] up to index [x'] are stable. *)

type t

val empty : t

val is_empty : t -> bool

val insert : t -> Entry.t -> t
(** Figure 3's [Insert(se, (t, x0))]: keep the per-incarnation maximum. *)

val insert_min : t -> Entry.t -> t
(** Keep the per-incarnation {e minimum} instead.  Incarnation-end rows
    ([iet[j]]) must use this: an incarnation ends exactly once, so on
    correct announcement streams it coincides with {!insert}, but if a
    duplicated or corrupted announcement ever claims a {e later} ending
    for an incarnation already recorded, widening the row would
    retroactively un-orphan messages that earlier announcements orphaned
    — and a node that discarded such a message while the row was narrow
    diverges from its own post-crash replay, which rebuilds the row from
    the full logged announcement set at once.  Keeping the earliest
    ending makes every orphan judgment monotone over time. *)

val find : t -> inc:int -> int option
(** Recorded index for incarnation [inc], if any. *)

val covers : t -> Entry.t -> bool
(** [covers se e]: the table has [(e.inc, x')] with [e.sii <= x'].  For a
    logging-progress row this is exactly "interval [e] is known stable" —
    the condition of Check_send_buffer and Receive_log in Figure 3. *)

val orphans : t -> Entry.t -> bool
(** [orphans iet e]: the table has [(t, x0)] with [t >= e.inc] and
    [x0 < e.sii], i.e. a rollback announcement revokes interval [e].  This is
    the Check_orphan condition of Figure 2. *)

val max_inc : t -> int option
(** Highest incarnation recorded. *)

val merge : t -> t -> t
(** Pointwise [insert] of every entry of the second table into the first. *)

val cardinal : t -> int

val entries : t -> Entry.t list
(** All entries, in increasing incarnation order. *)

val of_entries : Entry.t list -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
