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
    - {b partition}: while a partition window is active, frames crossing
      the cut are dropped ([Drop_packets]: new streams are also severed
      at the hello, and the dialer's backoff keeps retrying until the
      window closes) or held until it heals ([Queue_packets]: each
      held frame holds its stream's suffix, and all are delivered in
      order after the heal).

    The relay never rewrites bytes: a frame is forwarded verbatim, late,
    twice or not at all.  Corrupt frames (which the relay cannot even
    parse past) sever the stream, exactly like a real middlebox dying
    mid-connection.

    The relay is one [Unix.select] loop over nonblocking sockets in a
    forked child process, which keeps only its listeners, a pipe from the
    parent and stdio.  Each stream keeps a FIFO of held frames, and the
    earliest due head sets the loop's timeout.  Fault decisions draw from
    one seeded {!Sim.Rng}, in the order frames are read. *)

type t

val start :
  routes:(int * int * int) list ->
  ?plan:Harness.Netmodel.fault_plan ->
  ?seed:int ->
  ?time_scale:float ->
  metrics_file:string ->
  unit ->
  t
(** [routes] lists [(dst_pid, listen_port, target_port)] triples; the
    listeners are bound before [start] returns, so a port already in use
    raises here.  Fault probabilities come from [plan] (default
    {!Harness.Netmodel.benign}); the plan's times (partition windows,
    [reorder_spread]) are in abstract config units and are scaled to
    wall-clock seconds by [time_scale] (default
    {!Recovery.Config.default_time_scale}), from the moment [start] is
    called.  The relay counts [proxy_forwarded_total],
    [proxy_dropped_total] (of which [proxy_cut_total] were dropped by a
    partition window), [proxy_duplicated_total], [proxy_delayed_total]
    and [proxy_severed_total] (hellos cut by a partition window) in a
    registry of its own; they come back in [metrics_file], a Hello and
    one snapshot frame ({!Wire_codec.snapshot_file}, read back by
    {!Wire_codec.decode_snapshots}) the relay writes as it exits, complete
    once {!close} returns. *)

val close : t -> unit
(** Stop the relay: close its pipe, which makes it write [metrics_file]
    and exit, and reap it.  Streams still open are cut, and frames still
    held are lost.  A second call is a no-op. *)
