open Depend

type discard_reason = Orphan_message | Duplicate

type event =
  | Interval_started of {
      pid : int;
      interval : Entry.t;
      pred : Entry.t option;
      by : Wire.identity option;
      sender_interval : Entry.t option;
      digest : int;
      replay : bool;
    }
  | Message_sent of {
      id : Wire.identity;
      src : int;
      dst : int;
      send_interval : Entry.t;
    }
  | Message_released of { id : Wire.identity; dep_size : int; wire_vector : int; blocked : float }
  | Message_delivered of { id : Wire.identity; dst : int; interval : Entry.t; waited : float }
  | Message_discarded of { id : Wire.identity; dst : int; reason : discard_reason }
  | Send_cancelled of { id : Wire.identity; src : int }
  | Stability_advanced of { pid : int; upto : Entry.t }
  | Checkpoint_taken of { pid : int; interval : Entry.t }
  | Crashed of { pid : int; first_lost : Entry.t option }
  | Restarted of { pid : int; announced : Wire.announcement; new_current : Entry.t }
  | Rolled_back of {
      pid : int;
      restored : Entry.t;
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

type t = {
  mutable entries : entry list; (* undrained, newest first *)
  mutable next_seq : int; (* entries ever added *)
}

let create () = { entries = []; next_seq = 0 }

let add t ~time ev =
  t.entries <- { time; seq = t.next_seq; ev } :: t.entries;
  t.next_seq <- t.next_seq + 1

let events t = List.rev t.entries

let length t = t.next_seq

let drain t =
  let drained = List.rev t.entries in
  t.entries <- [];
  drained
