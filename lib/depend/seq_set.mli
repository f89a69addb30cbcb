(** Sets of sequence numbers stored as maximal runs.

    A receiver's duplicate-suppression state for one channel: the channel
    numbers every committed delivery on it carried.  Numbers arrive almost
    in order, so the set is a handful of disjoint, non-adjacent runs
    [[lo, hi]] — one more than the number of gaps between its least and
    greatest member — and its size follows the gaps, not the members.
    Insertion in any order keeps the runs maximal.  Immutable. *)

type t

val empty : t

val add : int -> t -> t
(** [add x s]: [s] with [x] as a member, merging adjacent runs. *)

val mem : int -> t -> bool

val runs : t -> (int * int) list
(** The maximal runs [(lo, hi)], [lo <= hi], in increasing order. *)

val run_count : t -> int

val add_run : int * int -> t -> t
(** [add_run (lo, hi) s] adds every number in [[lo, hi]] (nothing when
    [hi < lo]). *)
