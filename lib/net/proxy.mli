(** Fault-injecting userspace TCP relay.

    One listener per daemon stands between the cluster and that daemon's
    real data port; every peer dials the proxy port instead.  Because the
    first frame on a connection is the transport's [Hello], the relay
    knows both endpoints of every stream and can apply
    {!Harness.Netmodel.fault_plan}-style faults per (src, dst) pair and
    per frame:

    - {b delay}: each frame is held back with probability [reorder] for a
      uniform time up to [reorder_spread] (within one TCP stream this
      delays the suffix; genuine reordering additionally arises from
      reconnects, which the protocol tolerates anyway);
    - {b drop}: each frame is dropped with probability [loss];
    - {b duplicate}: each frame is written twice with probability
      [duplicate] — the receiver's identity-based suppression eats it;
    - {b partition}: while a partition window is active, streams crossing
      the cut are severed and new ones are cut at the hello; the dialer's
      backoff keeps retrying until the network heals.

    The relay never rewrites bytes: a frame is forwarded verbatim, late,
    twice or not at all.  Corrupt frames (which the relay cannot even
    parse past) sever the stream, exactly like a real middlebox dying
    mid-connection. *)

type t

val start :
  routes:(int * int * int) list ->
  ?plan:Harness.Netmodel.fault_plan ->
  ?seed:int ->
  ?time_scale:float ->
  obs:Obs.Registry.t ->
  unit ->
  t
(** [routes] lists [(dst_pid, listen_port, target_port)] triples.  Fault
    probabilities come from [plan] (default {!Harness.Netmodel.benign});
    the plan's times (partition windows, [reorder_spread]) are in abstract
    config units and are scaled to wall-clock seconds by [time_scale]
    (default {!Recovery.Config.default_time_scale}).  Fault decisions draw
    from a seeded {!Sim.Rng}.  [obs] receives the proxy's counters:
    [proxy_forwarded_total], [proxy_dropped_total],
    [proxy_duplicated_total], [proxy_delayed_total] and
    [proxy_severed_total] (streams cut by a partition window).  Relay
    threads bump them under one mutex; read them after {!close}. *)

val close : t -> unit
