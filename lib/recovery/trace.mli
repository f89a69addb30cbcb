(** Structured execution traces.

    Every protocol-relevant occurrence is appended to a shared trace.  The
    trace serves three purposes: human-readable walkthroughs (the Figure 1
    example prints one), metrics extraction, and — most importantly — input
    to the offline causality oracle, which recomputes the true transitive
    dependency relation independently of the protocol's own vectors and
    checks the protocol's every decision against it. *)

open Depend

type discard_reason =
  | Orphan_message  (** Check_orphan rejected it against the iet *)
  | Duplicate  (** receiver-side identity suppression *)

type event =
  | Interval_started of {
      pid : int;
      interval : Entry.t;
      pred : Entry.t option;  (** previous interval of the same process *)
      by : Wire.identity option;  (** delivery that started it; [None] for
                                      initial and rollback-marker intervals *)
      sender_interval : Entry.t option;
          (** the interval the triggering message was sent from ([None] for
              outside-world messages and marker intervals) *)
      digest : int;  (** application-state digest on entry to the interval *)
      replay : bool;  (** re-created during recovery rather than live *)
    }
  | Message_sent of {
      id : Wire.identity;
      src : int;
      dst : int;
      send_interval : Entry.t;
    }  (** logical send (buffered); release may come later *)
  | Message_released of { id : Wire.identity; dep_size : int; wire_vector : int; blocked : float }
      (** [blocked]: time held in the send buffer; [wire_vector]: vector
          length on the wire ([dep_size], or N for fixed-size vectors) *)
  | Message_delivered of { id : Wire.identity; dst : int; interval : Entry.t; waited : float }
      (** live deliveries only; [waited]: time undeliverable in the
          receive buffer *)
  | Message_discarded of { id : Wire.identity; dst : int; reason : discard_reason }
  | Send_cancelled of { id : Wire.identity; src : int }
      (** an unreleased buffered send was dropped (its interval rolled back) *)
  | Stability_advanced of { pid : int; upto : Entry.t }
      (** intervals of [pid] up to [upto] became stable (flush/checkpoint) *)
  | Checkpoint_taken of { pid : int; interval : Entry.t }
  | Crashed of { pid : int; first_lost : Entry.t option }
      (** [first_lost] is the first interval irrecoverably lost, if any *)
  | Restarted of { pid : int; announced : Wire.announcement; new_current : Entry.t }
  | Rolled_back of {
      pid : int;
      restored : Entry.t;  (** last surviving interval *)
      first_undone : Entry.t;
      new_current : Entry.t;
      because : Wire.announcement;
    }
  | Announcement_received of { pid : int; ann : Wire.announcement }
  | Notice_sent of { pid : int; entries : int }
  | Output_buffered of { pid : int; id : Wire.output_id; text : string }
  | Output_committed of { pid : int; id : Wire.output_id; text : string; latency : float }
  | Recovery_completed of { pid : int; replayed : int }
      (** the restarted process finished replaying its log ([replayed]
          delivery records); between [Restarted] and this event the process
          may already have been serving requests on recovered partitions *)

type entry = { time : float; seq : int; ev : event }

type t

val create : unit -> t

val add : t -> time:float -> event -> unit

val events : t -> entry list
(** The entries not yet {!drain}ed, in chronological (insertion) order —
    the whole trace in the simulator, which never drains. *)

val length : t -> int
(** Entries ever added, drained or not ([seq] of the next entry). *)

val drain : t -> entry list
(** The entries added since the previous drain (since {!create} for the
    first), oldest first; the trace stops holding them, so {!events}
    returns [[]] right after.  A daemon drains into its trace file after
    every protocol step ({!Net.Trace_codec.sync}), which makes the file the
    only copy and keeps the in-memory trace bounded by one step's worth of
    events however long the daemon runs. *)

val pp_event : Format.formatter -> event -> unit

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit
(** The whole trace, one event per line. *)
