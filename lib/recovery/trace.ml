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

type t = { mutable entries : entry list (* newest first *); mutable next_seq : int }

let create () = { entries = []; next_seq = 0 }

let add t ~time ev =
  t.entries <- { time; seq = t.next_seq; ev } :: t.entries;
  t.next_seq <- t.next_seq + 1

let events t = List.rev t.entries

let length t = t.next_seq

(* Entries are newest-first and seq is dense, so the suffix from [from_]
   is a prefix of the internal list: O(suffix), not O(trace) — what lets
   an incremental trace writer stay cheap on a long-running node. *)
let suffix t ~from_ =
  let rec take acc = function
    | e :: rest when e.seq >= from_ -> take (e :: acc) rest
    | _ -> acc
  in
  take [] t.entries

let pp_reason ppf = function
  | Orphan_message -> Fmt.string ppf "orphan"
  | Duplicate -> Fmt.string ppf "duplicate"

let pp_event ppf = function
  | Interval_started { pid; interval; replay; by; _ } ->
    Fmt.pf ppf "P%d starts %a%s%s" pid Entry.pp interval
      (match by with None -> " (marker)" | Some _ -> "")
      (if replay then " [replay]" else "")
  | Message_sent { id; src; dst; send_interval } ->
    Fmt.pf ppf "P%d sends %a to P%d from %a" src Wire.pp_identity id dst
      Entry.pp send_interval
  | Message_released { id; dep_size; blocked; _ } ->
    Fmt.pf ppf "released %a |dep|=%d blocked=%.2f" Wire.pp_identity id dep_size
      blocked
  | Message_delivered { id; dst; interval; _ } ->
    Fmt.pf ppf "P%d delivers %a starting %a" dst Wire.pp_identity id Entry.pp
      interval
  | Message_discarded { id; dst; reason } ->
    Fmt.pf ppf "P%d discards %a (%a)" dst Wire.pp_identity id pp_reason reason
  | Send_cancelled { id; src } ->
    Fmt.pf ppf "P%d cancels unreleased %a" src Wire.pp_identity id
  | Stability_advanced { pid; upto } ->
    Fmt.pf ppf "P%d stable up to %a" pid Entry.pp upto
  | Checkpoint_taken { pid; interval } ->
    Fmt.pf ppf "P%d checkpoints at %a" pid Entry.pp interval
  | Crashed { pid; first_lost } ->
    Fmt.pf ppf "P%d crashes%a" pid
      Fmt.(option (any ", loses from " ++ Entry.pp))
      first_lost
  | Restarted { pid; announced; new_current } ->
    Fmt.pf ppf "P%d restarts, announces %a, continues as %a" pid
      Wire.pp_announcement announced Entry.pp new_current
  | Rolled_back { pid; restored; first_undone; new_current; because } ->
    Fmt.pf ppf "P%d rolls back to %a (undoing from %a) due to %a, continues as %a"
      pid Entry.pp restored Entry.pp first_undone Wire.pp_announcement because
      Entry.pp new_current
  | Announcement_received { pid; ann } ->
    Fmt.pf ppf "P%d receives %a" pid Wire.pp_announcement ann
  | Notice_sent { pid; entries } ->
    Fmt.pf ppf "P%d broadcasts logging progress (%d entries)" pid entries
  | Output_buffered { pid; id; text } ->
    Fmt.pf ppf "P%d buffers output %a %S" pid Wire.pp_output_id id text
  | Output_committed { pid; id; text; latency } ->
    Fmt.pf ppf "P%d commits output %a %S after %.2f" pid Wire.pp_output_id id
      text latency
  | Recovery_completed { pid; replayed } ->
    Fmt.pf ppf "P%d completes recovery (%d records replayed)" pid replayed

let pp_entry ppf e = Fmt.pf ppf "[%8.2f] %a" e.time pp_event e.ev

let dump ppf t = Fmt.(list ~sep:(any "@\n") pp_entry) ppf (events t)
