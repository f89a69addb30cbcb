(** Discrete-event scheduler queue.

    Events are ordered by simulated time; ties break deterministically by
    insertion order, so a simulation run is fully reproducible. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** Enqueue an event at absolute simulated time [time] (must be finite and
    non-negative). *)

val next : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val peek_time : 'a t -> float option
(** Time of the earliest pending event. *)

val is_empty : 'a t -> bool

val length : 'a t -> int

val pending : 'a t -> (int * float * 'a) list
(** Every pending event as [(seq, time, payload)] in canonical pop order —
    ascending [(time, seq)].  [seq] is the insertion-order sequence number,
    a stable identity for the event across inspections (the model checker
    keys its sleep sets on it).  The queue is not modified. *)

val remove_nth : 'a t -> int -> (float * 'a) option
(** Remove and return the [i]-th event of the canonical pop order
    ([remove_nth t 0] is exactly {!next}).  This is the scheduling choice
    point: the simulator's run loop always takes index 0, while the model
    checker picks which pending event runs next.  Remaining events keep their sequence
    numbers, so canonical order — and any recorded schedule — stays
    stable.  [None] if [i] is out of range. *)

val drain : 'a t -> keep:(float * 'a -> bool) -> unit
(** Remove every pending event that does not satisfy [keep].  Relative order
    of surviving events is preserved.  Used by failure injection to cancel a
    crashed node's local timers. *)
