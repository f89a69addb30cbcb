(** The send and output buffers of Figure 2: entries waiting on stability
    knowledge, oldest first.

    Appends are O(1) (amortised), and {!take_ready} examines only what the
    previous call cannot already have judged.  Whether an entry may leave
    depends only on the owner's stability knowledge, which the owner
    numbers with a generation that moves whenever it grows.  Entries
    examined at generation [g] and found waiting are still waiting at [g],
    so a call at the same generation examines only the entries pushed
    since; a call at a new generation rescans the whole buffer.  Either way
    the entries released, and their order, are those a scan of the whole
    buffer would give. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append at the newest end. *)

val take_ready : 'a t -> gen:int -> ('a -> bool) -> 'a list
(** [take_ready b ~gen ready] removes and returns, oldest first, the
    entries [ready] accepts, keeping the rest in order.  [ready] must
    depend only on the entry and on knowledge numbered by [gen]; it is
    applied once to each entry examined, oldest first, and may update the
    entry (e.g. elide vector entries known stable). *)

val remove_if : 'a t -> ('a -> bool) -> 'a list
(** Remove and return, oldest first, every entry the predicate accepts;
    the rest keep their order and what {!take_ready} knew of them. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Oldest first. *)
