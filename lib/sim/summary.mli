(** Streaming numeric summaries for experiment reporting.

    Keeps all samples (experiments are laptop-scale) so exact percentiles are
    available; mean/variance use Welford's algorithm for numerical
    stability. *)

type t

val create : unit -> t

val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** 0. when empty. *)

val stddev : t -> float
(** Population standard deviation; 0. when fewer than two samples. *)

val min : t -> float
(** [nan] when empty. *)

val max : t -> float
(** [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]], nearest-rank on sorted samples;
    [nan] when empty. *)

val median : t -> float

val merge : t -> t -> t
(** Combined summary over both sample sets. *)

val pp : t Fmt.t
(** Renders [count/mean/p50/p99/max] compactly. *)
