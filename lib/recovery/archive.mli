(** Sender-side retransmission archive.

    An insertion-ordered set of released application messages keyed by
    {!Wire.identity}: O(1) removal by identity (acks) and by predicate
    (orphan pruning on announcements), with iteration in release order
    for retransmission.  Replaces the former newest-first list whose
    per-ack [List.mem]/[List.filter] scans were O(n{^2}) over a run. *)

type 'msg t

val create : unit -> 'msg t

val length : 'msg t -> int

val mem : 'msg t -> Wire.identity -> bool

val add : 'msg t -> 'msg Wire.app_message -> unit
(** Append at the newest end.  Re-adding an existing identity moves it to
    the newest end (does not occur in the protocol's use). *)

val remove : 'msg t -> Wire.identity -> unit

val remove_if : 'msg t -> ('msg Wire.app_message -> bool) -> unit

val oldest_first : 'msg t -> 'msg Wire.app_message list
(** Archived messages in release order. *)

val newest_first : 'msg t -> 'msg Wire.app_message list
(** Archived messages in reverse release order (checkpoint snapshots). *)

val iter_oldest : 'msg t -> ('msg Wire.app_message -> unit) -> unit

val due_oldest : 'msg t -> ('msg Wire.app_message -> unit) -> unit
(** Advance the archive's retransmission clock by one tick and apply [f],
    in release order, to exactly the messages whose per-message backoff has
    expired.  A freshly archived message is due on the second tick after
    its release, so it waits at least one full period for its ack; the
    re-sends after it come 1, 4, 16 and then every 64 ticks, so a message
    that keeps going unacknowledged is retried ever more rarely — but
    always eventually, which is all the lossy-network delivery argument
    needs.
    Without the backoff, every tick re-sent the {e whole} archive; under a
    backlog the retransmissions crowded out the acks that would have
    drained the archive, a positive feedback loop that collapsed live
    throughput (retransmissions outnumbered real sends ~47:1 in the B12
    workload).  Acks, orphan pruning and announcement-triggered recovery
    retransmission ({!iter_oldest}) are unaffected. *)
