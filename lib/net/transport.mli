(** Loopback TCP transport between recovery daemons, driven by its
    owner's poll loop.

    One listening socket per process; for each peer the transport keeps a
    single {e outbound} connection (dialer writes, acceptor reads), so an
    N-process cluster carries at most N·(N−1) connections.  The first
    frame on every connection is a [Hello] identifying the dialer; one
    of another wire version, or any other first frame, is refused
    ({!Wire_codec.greeting}): counted as a decode error and closed.

    The transport starts no thread and never blocks: every socket is
    nonblocking, and the owner waits for all of them in one [select]
    built from {!interest} and {!deadline}, then hands the ready ones to
    {!service}.  {!poll} is that loop's one step for an owner with no
    other descriptors.

    Reliability model: the K-optimistic protocol needs {e no} FIFO
    channels and tolerates loss and duplication (duplicates are suppressed
    by identity, loss is healed by the sender's retransmission timer), so
    the transport is allowed to be simple and lossy at the edges —
    each peer's pending frames are bounded (overflow drops the newest
    frame and counts it), a dead peer is re-dialled with exponential
    backoff, and frames pending across a reconnect are delivered late,
    i.e. {e reconnection reorders traffic}.  PROTOCOL.md documents why
    all of this is legal.

    Batched writes: {!send} only appends to the peer's pending bytes;
    {!flush} writes all of them in one syscall per peer — frames are
    self-delimiting, so the byte stream is identical to per-frame writes.
    What a socket does not take stays pending until it drains.  A write
    failure closes the connection and resends the frame it cut whole on
    the next one; three failures in a row with no frame getting through
    drop what is pending.  Accounting is exact: every frame accepted by
    {!send} is counted in [frames_sent] once its last byte is written, or
    in [frames_dropped], including frames still pending when {!close}
    lands.

    Inbound frames are reassembled in a small per-connection buffer
    ({!Wire_codec.Reader}).  Decode and checksum failures are counted and
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
    from {!service} (and so from {!poll}), once per checked frame.
    [max_queue] (default 1024) bounds each peer's pending frames.  Backoff
    starts at [backoff_base] (default 0.05 s) and doubles to
    [backoff_cap] (default 2 s) with each failed dial, and with each
    connection that fails before it carried a frame [backoff_base] or
    more after its Hello; such a frame resets it to [backoff_base].  A
    connection that carried one and then failed is redialled at once.

    [obs] (default: a private registry) is where the transport registers
    its counters: [transport_frames_sent_total],
    [transport_frames_dropped_total] (pending overflow, unknown
    destination, failed writes, close),
    [transport_frames_received_total], [transport_decode_errors_total] and
    [transport_reconnects_total] (dial attempts after the first per
    peer).  After {!close}, [frames_sent + frames_dropped] accounts for
    every frame {!send} accepted. *)

val interest : t -> Unix.file_descr list * Unix.file_descr list
(** The descriptors to wait on: for reading (the listener and every
    inbound connection) and for writing (dials in progress and
    connections with frames pending).  Both empty once closed. *)

val deadline : t -> float
(** The earliest [Unix.gettimeofday] time at which {!flush} has a dial to
    make ([neg_infinity]: now; [infinity]: none). *)

val service :
  t -> readable:Unix.file_descr list -> writable:Unix.file_descr list -> unit
(** Act on the descriptors [select] reported ready: accept connections,
    read every readable inbound connection until it has nothing more
    (calling [on_frame] for each frame), complete dials and write to
    connections that drained.  Descriptors not the transport's are
    ignored. *)

val flush : t -> unit
(** Write every peer's pending frames, dialling peers that have some and
    no connection (unless in backoff). *)

val poll : t -> timeout:float -> unit
(** Wait up to [timeout] seconds (less if a dial falls due) for the
    transport's own descriptors, then {!service} and {!flush}. *)

val add_peer : t -> pid:int -> port:int -> unit
(** Register a peer that joined after {!create} (membership churn): frames
    for [pid] can be sent from now on, dialled on demand like any other
    peer.  A pid already known is a no-op, so re-announcement is safe. *)

val send : t -> dst:int -> string -> unit
(** Append a full frame to [dst]'s pending bytes, written at the next
    {!flush}; drops (and counts) on overflow, unknown destination or
    after {!close}. *)

val broadcast : t -> string -> unit
(** [send] to every peer. *)

val close : t -> unit
(** Close every socket and count every pending frame dropped, at once. *)
