(** Workload and failure-schedule generators.

    Each generator schedules outside-world injections on a cluster.  The
    fixed-work generators (pipeline, telecom, kvstore) perform the same
    total application work regardless of protocol or K, which makes
    overhead comparisons across configurations meaningful; the chatter
    generator produces order-dependent branching and is used for stress and
    oracle testing rather than like-for-like overhead numbers. *)

val chatter :
  (App_model.Chatter_app.state, App_model.Chatter_app.msg) Cluster.t ->
  rng:Sim.Rng.t ->
  tokens:int ->
  hops:int ->
  start:float ->
  rate:float ->
  unit
(** Inject [tokens] tokens at exponential inter-arrival times with the
    given mean [rate] (arrivals per time unit), round-robin destinations. *)

val pipeline :
  (App_model.Pipeline_app.state, App_model.Pipeline_app.msg) Cluster.t ->
  jobs:int ->
  start:float ->
  rate:float ->
  unit
(** [jobs] jobs entering stage 0; each traverses all N processes. *)

val telecom :
  (App_model.Telecom_app.state, App_model.Telecom_app.msg) Cluster.t ->
  rng:Sim.Rng.t ->
  calls:int ->
  hops:int ->
  start:float ->
  rate:float ->
  unit
(** Call setups at random ingress switches; each call routes through
    [hops] switches and commits a "connected" output at the egress. *)

val kvstore :
  (App_model.Kvstore_app.state, App_model.Kvstore_app.msg) Cluster.t ->
  rng:Sim.Rng.t ->
  ops:int ->
  keys:int ->
  start:float ->
  rate:float ->
  unit
(** Mixed puts (75%) and gets (25%) over [keys] distinct keys, sent to
    random coordinator processes. *)

(** {1 Open-loop KV traffic}

    The sharded-KV service ({!Shardkv} over the live deployment) is driven
    by an {e open-loop} generator: arrival times are fixed in advance by a
    Poisson process at the target rate (exponential think times between
    arrivals), independent of when earlier operations complete — the
    arrival pattern of many light users, and the load model under which
    latency percentiles are honest (a closed loop self-throttles when the
    system slows down; an open loop builds a backlog instead).  Key
    popularity is Zipfian: rank [r] is drawn with probability proportional
    to [1/(r+1)^theta], the standard skew model for KV traffic. *)

type kv_op =
  | Kv_get of int  (** key rank *)
  | Kv_put of int * int  (** key rank, value *)
  | Kv_multi_put of (int * int) list
      (** cross-shard batch: ≥ 2 distinct key ranks *)

type timed_kv_op = { at : float;  (** seconds from workload start *) kv : kv_op }

val open_loop_kv :
  rng:Sim.Rng.t ->
  ops:int ->
  keys:int ->
  rate:float ->
  ?theta:float ->
  ?gets:float ->
  ?multi:float ->
  ?multi_width:int ->
  unit ->
  timed_kv_op list
(** [ops] operations over [keys] key ranks at [rate] arrivals per second.
    [theta] (default 0.99, the YCSB convention) is the Zipf exponent;
    [gets] (default 0.25) and [multi] (default 0.1) are the fractions of
    reads and of multi-puts (the rest are single puts); [multi_width]
    (default 3) bounds the distinct keys per multi-put — every emitted
    multi-put holds at least two distinct ranks, so it can span shards.
    The op list is sorted by [at] and is a pure function of the
    arguments. *)

val random_failures :
  ('state, 'msg) Cluster.t ->
  rng:Sim.Rng.t ->
  count:int ->
  window:float * float ->
  unit
(** Schedule [count] kills ({!Cluster.crash_at}) of uniformly random
    processes, one at a uniformly random time in each of [count] equal
    slices of the window.  A kill that
    lands while its process is still down is counted in
    [kills_ignored_total], not applied. *)
