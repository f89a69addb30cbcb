(** State-interval identifiers.

    Following the paper's notation, [(t, x)] identifies the [x]-th state
    interval of the [t]-th incarnation of a process.  Entries are ordered
    lexicographically — the "lexicographical maximum operation" of Strom &
    Yemini — which is the order used everywhere in the protocol: dependency
    merging, deliverability checks, and incarnation-end comparisons. *)

type t = {
  inc : int;  (** incarnation number [t]; starts at 0, bumped on rollback *)
  sii : int;  (** state-interval index [x]; monotone along a process history *)
}

val make : inc:int -> sii:int -> t

val initial : t
(** [(0, 1)]: the first state interval, always stable by the initial
    checkpoint (Corollary 3 context). *)

val compare : t -> t -> int
(** Lexicographic: incarnation first, then interval index. *)

val equal : t -> t -> bool

val max : t -> t -> t

val min : t -> t -> t

val lt : t -> t -> bool

val le : t -> t -> bool

val next_interval : t -> t
(** Same incarnation, next state-interval index. *)

val next_incarnation : t -> t
(** Next incarnation, next state-interval index — the [current.inc++;
    current.sii++] step of Restart/Rollback in Figure 3. *)

val pp : Format.formatter -> t -> unit
(** Prints [(t,x)], matching the paper. *)

val pp_at : int -> Format.formatter -> t -> unit
(** [pp_at i] prints [(t,x)_i], the paper's subscripted form. *)

val to_string : t -> string
