(** Process-local observability: named counters, gauges and log-scale
    latency histograms in a registry, snapshotted into a mergeable value.

    The subsystem replaces the patchwork of per-module [stats] records
    with one measurement plane: hot paths bump plain [int]/[float]
    cells (no atomics and no locks), and a {!Registry.snapshot} turns the
    live cells into an immutable {!Snapshot.t} that daemons serve over
    their control socket and drivers merge across processes.

    {2 Consistency contract: one registry, one owner}

    A registry and every cell in it belong to one thread of one process:
    the daemon's select loop, the simulator's scheduler, a driver, or the
    fault proxy's relay process.  Nothing in this module takes a lock,
    so no cell may be bumped, observed, registered or snapshotted from a
    second thread.  Under that rule every snapshot is exact: it sees
    each logical event whole, never metric A before and metric B after
    the same event.  Numbers cross a process boundary only as a
    snapshot: a daemon's Stats reply, Quit-time metrics file or reopens
    file, or the proxy's metrics file, merged with {!Snapshot.merge_all}.
    Each carries the snapshot in the layout of [Net.Wire_codec.snapshot],
    inside a checksummed [Durable.Codec] frame.  This library writes no
    format itself: [Durable.Form], which describes that layout, depends
    on it. *)

module Counter : sig
  type t

  val value : t -> int
  val incr : t -> unit
  val add : t -> int -> unit
end

module Gauge : sig
  type t

  val value : t -> float
  val set : t -> float -> unit
  val add : t -> float -> unit
end

module Histogram : sig
  (** Fixed-bucket base-2 log-scale histogram.  Bucket [i] counts
      observations in [(2^(i-31), 2^(i-30)]] seconds — spanning
      ~1 ns to 128 s — with one final overflow bucket; underflow and
      non-positive values land in bucket 0.  Observing is O(1): one
      [frexp], five cell writes; the bucket array is allocated by the
      first observation.  NaN observations are ignored. *)

  type t

  val bucket_count : int
  (** Number of buckets including the overflow bucket. *)

  val bound : int -> float
  (** Inclusive upper bound of bucket [i]; [infinity] for the last. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val min_value : t -> float
  (** Smallest observation, [nan] while empty. *)

  val max_value : t -> float
  (** Largest observation, [nan] while empty. *)
end

module Snapshot : sig
  (** An immutable, mergeable view of a registry's metrics. *)

  type hist = {
    counts : int array;  (** per-bucket counts, {!Histogram.bucket_count} long *)
    sum : float;
    minv : float;  (** [nan] when empty *)
    maxv : float;  (** [nan] when empty *)
  }

  type value = Counter of int | Gauge of float | Hist of hist

  type t

  val empty : t

  val bindings : t -> ((string * (string * string) list) * value) list
  (** Sorted by (name, labels). *)

  val of_bindings : ((string * (string * string) list) * value) list -> t
  (** The snapshot of these samples, whose (name, labels) keys are
      distinct, labels sorted by name; [of_bindings (bindings s)] is [s]. *)

  val counter : t -> ?labels:(string * string) list -> string -> int
  (** Value of a counter sample; [0] when absent. *)

  val gauge : t -> ?labels:(string * string) list -> string -> float
  (** Value of a gauge sample; [0.] when absent. *)

  val hist : t -> ?labels:(string * string) list -> string -> hist option

  val hist_count : hist -> int
  val hist_mean : hist -> float
  (** [nan] when empty. *)

  val quantile : hist -> float -> float option
  (** [quantile h p] for [p] in [0..100]: the upper bound of the
      bucket holding the rank-[ceil (p/100 * count)] observation,
      clamped into [[minv, maxv]] — so any returned estimate is
      bounded by the recorded extremes.  [None] when empty. *)

  val merge : t -> t -> t
  (** Pointwise on (name, labels): counters sum exactly, gauges sum,
      histograms add bucket-wise with [sum] summed and [minv]/[maxv]
      taken as min/max.  A key present on one side passes through, so
      [empty] is the identity; merge is associative and commutative.
      @raise Invalid_argument when the two sides disagree on a
      sample's kind. *)

  val merge_all : t list -> t

  val equal : t -> t -> bool
  (** Structural, with floats compared by bits (so [nan] = [nan]). *)
end

module Group : sig
  (** A module's fixed metric set, e.g. a protocol node's.  Instantiating
      it in a registry ({!Registry.group}) only allocates the cells; the
      names are checked when the registry indexes them.  The model checker
      builds a fresh cluster, one registry per process, per schedule. *)

  type 'a t
  type cells

  val make : (cells -> 'a) -> 'a t
  (** [build] creates the metrics with {!counter}, {!gauge} and
      {!histogram} and returns their handles; it must create the same
      metrics in the same order on every call. *)

  val counter : cells -> string -> Counter.t
  val gauge : cells -> string -> Gauge.t
  val histogram : cells -> string -> Histogram.t
end

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> ?labels:(string * string) list -> string -> Counter.t
  (** Get-or-create.  Metric names must match
      [[A-Za-z_][A-Za-z0-9_]*]; labels are sorted internally so label
      order never distinguishes metrics.
      @raise Invalid_argument on a malformed name, a kind clash with
      an existing metric of the same name, or a reserved histogram
      suffix ([_bucket]/[_sum]/[_count]/[_min]/[_max] when the base
      name is a histogram). *)

  val gauge : t -> ?labels:(string * string) list -> string -> Gauge.t
  val histogram : t -> ?labels:(string * string) list -> string -> Histogram.t

  val group : t -> 'a Group.t -> 'a
  (** Get-or-create: the first call creates the group's cells, later ones
      return the same handles.  The cells are ordinary metrics for
      lookups and snapshots, which index them first — raising
      [Invalid_argument] on a malformed name or one already registered. *)

  val snapshot : t -> Snapshot.t
end

module Span : sig
  (** Phase timers: a named histogram observed in seconds.  Subsumes
      the old env-gated [KOPT_PROF] profiler — spans are always on;
      the cost is two clock reads per timed section. *)

  type t

  val create : Registry.t -> ?labels:(string * string) list -> string -> t
  val time : t -> (unit -> 'a) -> 'a
  val record : t -> seconds:float -> unit
end
