(** Network model: timing plus composable adversarial faults.

    Computes per-packet transit times: a base latency, uniform jitter, a
    per-piggyback-entry serialization cost (this is how dependency-vector
    size turns into failure-free overhead), and optional FIFO enforcement
    per channel (Strom & Yemini assume FIFO; the K-optimistic protocol does
    not need it).  An override hook lets scripted scenarios (Figure 1) pin
    exact arrival orders.

    On top of the timing model sits a {!fault_plan}: per-packet loss,
    wire-level duplication, reordering bursts and timed partitions.  The
    fault decisions draw from their own RNG stream, so the {!benign} plan
    is observationally identical to the pure timing model — same arrival
    times for the same seed (a property the test suite checks).

    Traffic and fault counts live in the registry passed to {!create}:
    [net_packets_total{kind}] (every packet handed to the network,
    including ones the fault plan then eats), [net_piggyback_entries_total]
    (dependency entries carried), and the fault series [net_lost_total],
    [net_duplicated_total], [net_reordered_total],
    [net_partition_dropped_total] and [net_partition_queued_total]. *)

type override = src:int -> dst:int -> packet_kind:string -> float option
(** Returns the full transit time for a packet, or [None] to use the model. *)

(** {1 Fault plans} *)

type partition_mode =
  | Drop_packets  (** packets crossing the cut are lost *)
  | Queue_packets  (** packets crossing the cut are delivered after healing *)

type partition = {
  group : int list;  (** one side of the cut; the rest of the cluster is the other *)
  from_ : float;
  until : float;
  mode : partition_mode;
}

type fault_plan = {
  loss : float;  (** per-packet loss probability *)
  duplicate : float;  (** probability a packet is duplicated on the wire *)
  reorder : float;  (** probability a packet is held back (reordering burst) *)
  reorder_spread : float;  (** maximum extra delay for a held-back packet *)
  partitions : partition list;
}

val benign : fault_plan
(** No loss, no duplication, no reordering, no partitions. *)

val plan_is_benign : fault_plan -> bool

type t

val create :
  n:int ->
  timing:Recovery.Config.timing ->
  rng:Sim.Rng.t ->
  ?fault_rng:Sim.Rng.t ->
  ?plan:fault_plan ->
  ?override:override ->
  obs:Obs.Registry.t ->
  unit ->
  t
(** [rng] drives timing jitter; [fault_rng] (required for a non-benign
    [plan] to be deterministic) drives fault decisions.  Keeping the two
    streams separate is what makes a benign plan bit-identical to the
    timing-only model.  Every packet bumps [obs]. *)

val transit :
  t -> now:float -> src:int -> dst:int -> kind:string -> entries:int -> float
(** Absolute arrival time for a packet handed to the network at [now],
    ignoring the fault plan.  Guaranteed [>= now]; with FIFO enabled, also
    no earlier than the last arrival scheduled on the same (src, dst)
    channel. *)

val arrivals :
  t -> now:float -> src:int -> dst:int -> kind:string -> entries:int -> float list
(** Arrival times after applying the fault plan: [[]] if the packet is
    lost (wire loss or a dropping partition), two arrivals if duplicated,
    delayed arrivals under reordering or a queueing partition.  Under
    {!benign} this is always the singleton [[transit ...]]. *)
