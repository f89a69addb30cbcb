(** Loopback TCP transport between recovery daemons.

    One listening socket per process; for each peer the transport keeps a
    single {e outbound} connection (dialer writes, acceptor reads), so an
    N-process cluster carries at most N·(N−1) connections.  The first
    frame on every connection is a [Hello] identifying the dialer.

    Reliability model: the K-optimistic protocol needs {e no} FIFO
    channels and tolerates loss and duplication (duplicates are suppressed
    by identity, loss is healed by the sender's retransmission timer), so
    the transport is allowed to be simple and lossy at the edges —
    per-peer outbound queues are bounded (overflow drops the newest frame
    and counts it), a dead peer is re-dialled with exponential backoff,
    and frames queued across a reconnect are delivered late, i.e.
    {e reconnection reorders traffic}.  PROTOCOL.md documents why all of
    this is legal.

    Batched writes: each writer wakeup drains its peer's whole queue and
    writes the concatenation in one syscall — frames are self-delimiting,
    so the byte stream is identical to per-frame writes.  Write-failure
    retries are budgeted per connection (the budget resets after a
    successful re-dial) and reconnect cycles are bounded per batch.
    Accounting is exact: every frame accepted by {!send} is eventually
    counted in [frames_sent] or [frames_dropped], including frames in
    flight or still queued when {!close} lands.

    Decode and checksum failures on inbound frames are counted and
    reported through [on_error]; the damaged connection is closed (the
    dialer re-establishes it) — a corrupt frame is never delivered and
    never silently swallowed. *)

type t

val create :
  self:int ->
  listen_port:int ->
  peers:(int * int) list ->
  on_frame:(src:int -> kind:int -> body:string -> unit) ->
  ?on_error:(string -> unit) ->
  ?max_queue:int ->
  ?backoff_base:float ->
  ?backoff_cap:float ->
  ?obs:Obs.Registry.t ->
  unit ->
  t
(** [peers] maps peer pid to the TCP port to dial (the peer's own listen
    port, or a fault proxy standing in front of it).  [on_frame] is called
    from reader threads — the callback must be thread-safe.  [max_queue]
    (default 1024) bounds each peer's outbound queue.  Backoff starts at
    [backoff_base] (default 0.05 s) and doubles to [backoff_cap] (default
    2 s).

    [obs] (default: a private registry) is where the transport registers
    its counters: [transport_frames_sent_total],
    [transport_frames_dropped_total] (outbound queue overflow),
    [transport_frames_received_total], [transport_decode_errors_total] and
    [transport_reconnects_total] (dial attempts after the first per
    peer).  Several reader and writer threads bump them, always under
    the transport's own counters mutex; a snapshot is atomic per counter
    but may straddle an in-flight batch across counters, and is exact
    once {!close} has stopped the writers (then [frames_sent +
    frames_dropped] accounts for every frame {!send} accepted). *)

val add_peer : t -> pid:int -> port:int -> unit
(** Register a peer that joined after {!create} (membership churn): frames
    for [pid] can be sent from now on, dialled on demand like any other
    peer.  A pid already known is a no-op, so re-announcement is safe. *)

val send : t -> dst:int -> string -> unit
(** Enqueue a full frame for [dst]; drops (and counts) on overflow or
    unknown destination. *)

val broadcast : t -> string -> unit
(** [send] to every peer. *)

val close : t -> unit
(** Stop accepting, close every socket and wake the writer threads.
    Reader threads exit as their sockets die.  A writer parked in dial
    backoff notices the stop flag within tens of milliseconds (the backoff
    sleep is sliced), so shutdown latency is bounded even mid-reconnect. *)
