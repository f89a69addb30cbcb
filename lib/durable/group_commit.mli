(** Group-commit coordinator.

    Coalesces concurrent durability requests onto one fsync, Taurus-style:
    a {e round} is [prepare] (under the coordinator's lock: drain pending
    work into buffered writes at its final on-disk position) followed by
    [sync] (outside the lock: the single fsync).  All callers whose work a
    round covers are released when that round completes; callers that
    arrive while a round's fsync is in flight are grouped into the next
    round.  The coordinator's lock doubles as the owner's state lock, via
    {!with_lock} and {!exclusive}. *)

type t

val create : ?obs:Obs.Registry.t -> unit -> t
(** [obs] is where the coordinator registers its metrics —
    [flush_rounds_total] (completed rounds, i.e. fsyncs actually
    issued), [flush_coalesced_total] (callers released by a round they
    did not lead) and the [fsync_seconds] histogram (single-writer: only
    one leader is ever inside a sync).  The counters are bumped under the
    coordinator's lock, so a snapshot taken once the flushing threads are
    joined is exact; one taken mid-round is atomic per counter but may
    straddle the round.  Defaults to a private registry. *)

val force :
  t ->
  pending:(unit -> bool) ->
  prepare:(unit -> 'a) ->
  sync:(unit -> unit) ->
  ?commit:('a -> unit) ->
  default:'a ->
  unit ->
  'a
(** Make everything the caller has written so far durable.  [pending]
    (evaluated under the lock) says whether there is undrained work; if so
    the caller leads or joins the next round, whose leader runs [prepare]
    under the lock and [sync] outside it.  With nothing pending, the call
    waits only for a round already in flight (whose [prepare] has, by
    construction, drained the caller's work) and issues no fsync of its
    own.  [commit], if given, runs under the lock once [sync] has returned
    (and is skipped if it raised) — the place to record metadata that must
    never claim more than an fsync actually made durable.  Returns
    [prepare]'s result to the round's leader and [default] to everyone
    else. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] under the coordinator's lock (shared-state accesses of the
    owning store). *)

val exclusive : t -> (unit -> 'a) -> 'a
(** Run [f] under the lock with no round in flight — for operations that
    must not race an fsync (truncation, compaction, kill, fault arming). *)
