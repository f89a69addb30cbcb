(** Client library for the sharded KV service, over a live deployment.

    A service handle wraps a {!Net.Deployment} whose daemons run the
    [shardkv] application ([Deployment.launch ~app:"shardkv"]).  The
    client rebuilds the same consistent-hash {!Ring} the daemons use
    (both are pure functions of the cluster size and the default seed) and
    routes every operation straight to the owning shard's control socket —
    there is no metadata service and no extra hop on the happy path.

    Acknowledged operations (gets and multi-puts) carry a unique tag that
    reappears in the committed output's text; the handle records each
    injection's wall-clock time, so after {!Net.Deployment.finish} the
    merged trace yields end-to-end client latency: injection to
    {e output commit} — the moment the K-optimistic rule lets the answer
    leave the system, which is the only latency a client can observe. *)

type t

type ack_latency = {
  acked : int;  (** tagged operations whose output committed *)
  outstanding : int;  (** tagged operations never acked *)
  p50 : float;  (** seconds, injection -> output commit *)
  p99 : float;
  max : float;
}

(** Client-side ack latency, histogram-backed.  Injections are recorded
    per tag ({!issue}); matching committed outputs in a merged trace are
    absorbed once each ({!ingest}) as observations of a [kv_ack_seconds]
    histogram (plus [kv_issued_total] / [kv_acked_total] counters) in the
    handle's registry.  Standalone — built over an explicit
    (epoch, time_scale) pair — so it is testable without a deployment,
    and the registry view means repeated {!stats} queries cost O(buckets)
    instead of the retired full-trace rescan-and-sort. *)
module Latency : sig
  type t

  val create : ?obs:Obs.Registry.t -> epoch:float -> time_scale:float -> unit -> t
  (** [obs] (default: a private registry) receives the three metric
      families; pass the deployment driver's registry to fold client
      latency into a wider report. *)

  val issue : t -> tag:string -> at:float -> unit
  (** Record an injection at wall-clock time [at].  Re-issuing a known
      tag is a no-op (tags are unique by construction). *)

  val ingest : t -> Recovery.Trace.t -> unit
  (** Match committed outputs against recorded injections — an output's
      tag is its text's first token — converting trace time back to wall
      clock via [epoch +. time *. time_scale].  Idempotent: a tag acks at
      most once, across calls and across duplicate commit events. *)

  val stats : t -> ack_latency
  (** [acked], [outstanding] and [max] are exact; [p50]/[p99] are
      histogram quantiles — upper bucket bounds, within one power of two
      above the exact order statistic ([nan] when nothing acked). *)
end

val connect : ?obs:Obs.Registry.t -> Net.Deployment.t -> t
(** The deployment must have been launched with [~app:"shardkv"]; the
    client's ring is derived from [Deployment.n].  [obs] is forwarded to
    the handle's {!Latency} tracker. *)

val latency : t -> Latency.t
(** The handle's ack-latency tracker ({!get} and {!multi_put} feed it). *)

val ring : t -> Ring.t

val key_of_rank : int -> string
(** The key namespace used by {!run_open_loop}: rank [r] is ["key-r"]. *)

val put : t -> key:string -> value:int -> unit
(** Fire-and-forget single-key put, routed to the owner shard. *)

val get : t -> key:string -> unit
(** Tagged read; the owner commits an output ["get:<tag> <key> -> ..."]
    whose commit time the handle later matches for latency. *)

val grow : t -> int
(** Wire a live join to the ring: spawn a new daemon
    ({!Net.Deployment.add_node}), widen the client ring, and send every
    incumbent a [Grow] app message (a logged message, so replay reproduces
    the routing change); the joiner is additionally told about earlier
    retirements.  Returns the new shard's pid.  Consistent-hash
    semantics: ~1/N of keys remap onto the joiner, and values written
    under a remapped key {e before} the grow are not migrated — they
    simply become unreachable under the new routing, as in any
    consistent-hash deployment without data movement. *)

val retire_shard : t -> shard:int -> unit
(** Wire a graceful leave to the ring: drop [shard]'s points from the
    client ring, tell every survivor ([Retire_shard] app message) so no
    traffic is forwarded to a permanently silent process, then retire the
    daemon ({!Net.Deployment.retire}).  Keys the shard owned remap to
    survivors (minimal movement: only those keys move). *)

val multi_put : t -> (string * int) list -> unit
(** Cross-shard batch, injected at the coordinator (owner of the first
    key).  The client ack is the coordinator's ["mp:<tag> ok"] output —
    committed only when every touched shard's apply interval is stable
    under the K rule.
    @raise Invalid_argument on fewer than two pairs. *)

val run_open_loop : ?start:float -> t -> Harness.Workload.timed_kv_op list -> unit
(** Replay a {!Harness.Workload.open_loop_kv} schedule against the wall
    clock: each operation is injected at [start +. at] (default [start] is
    now), or immediately if that moment has passed — arrivals never wait
    for earlier operations, so a slow cluster builds a backlog instead of
    silently throttling the load.  Pass the same [start] across calls to
    keep one schedule honest around mid-run kills. *)

val experiment : ?smoke:bool -> unit -> Harness.Report.t * (string * float) list
(** E15: the sharded KV service on live clusters.  Per cluster size
    (N = 16 and N = 64; [smoke]: N = 4) an open-loop Zipfian workload runs
    twice — a benign baseline (must be fault-free: zero decode errors,
    zero outstanding acks) that yields the throughput and latency
    percentiles, and a faulted run under SIGKILLs plus a proxy fault plan
    that the oracle must certify with measured risk ≤ K.  Returns the
    report and the [(key, value)] pairs destined for BENCH_net.json.
    @raise Failure on any oracle violation, risk above K, or a non-clean
    baseline. *)
