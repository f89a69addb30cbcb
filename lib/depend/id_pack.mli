(** Identities packed into one immediate [int].

    Duplicate suppression keeps, per checkpoint interval of traffic, one
    table entry per released send, committed output and held delivery.
    Keyed by the identity record, an entry is a tree of heap blocks (the
    record, its interval, the bucket cell); keyed by one [int] packed from
    the same fields, it is the bucket cell alone.  Packing is exact: two
    values pack to the same [int] only if they are equal, and every packed
    [int] unpacks to the value it came from.  A value with a field too
    wide for its slot does not pack ({!none}); a table ({!t}) keeps it in
    a side table keyed by the value itself, so membership stays exact for
    every value the types allow. *)

val none : int
(** [-1], what a value that does not fit packs to.  Every packed value is
    nonnegative. *)

val message : origin:int -> Entry.t -> idx:int -> int
(** A message identity: [origin + 1] in 7 bits (so the outside world, -1,
    packs too), the origin interval's incarnation in 9 bits and index in
    36, and the send's rank [idx] in 10. *)

val message_origin : int -> int
val message_interval : int -> Entry.t
val message_idx : int -> int

val output : Entry.t -> idx:int -> int
(** An output identity: the interval's incarnation in 10 bits and index in
    38, and the output's rank [idx] in 14. *)

val output_interval : int -> Entry.t
val output_idx : int -> int

val pair : int -> int -> int
(** [pair a b], [a] in 16 bits and [b + 1] in 46: a channel (epoch,
    position) pair, whose position may be -1 (unnumbered). *)

val pair_fst : int -> int
val pair_snd : int -> int

type 'a packing = { pack : 'a -> int; unpack : int -> 'a }
(** How a type packs: [pack x] is {!none} or an [int] that [unpack] maps
    back to [x]. *)

type ('k, 'v) t
(** A mutable map whose bindings that pack (key and value both) are two
    immediates in a stdlib hash table keyed by [int]; the rest go to a side
    table keyed by the key itself. *)

val create : 'k packing -> 'v packing -> ('k, 'v) t
val length : ('k, 'v) t -> int
val mem : ('k, 'v) t -> 'k -> bool
val replace : ('k, 'v) t -> 'k -> 'v -> unit

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** In no particular order. *)

val filter : ('k -> 'v -> bool) -> ('k, 'v) t -> unit
(** Keep the bindings [f] accepts, calling [f] once on each.  The table
    is rebuilt, so its size follows what it keeps, not its high-water
    mark. *)
