module Trace = Recovery.Trace
module Wire = Recovery.Wire
open Wire_codec.Prim

(* All trace entries travel under one frame kind; the event variant is a
   tag byte inside the payload.  Trace frames share the kind space with
   packets and control frames but never cross a socket — they only live in
   per-process trace files, where each writer's stretch opens with a
   Hello. *)
let trace_kind = 33

let tag_of_event = function
  | Trace.Interval_started _ -> 0
  | Trace.Message_sent _ -> 1
  | Trace.Message_released _ -> 2
  | Trace.Message_delivered _ -> 3
  | Trace.Message_discarded _ -> 4
  | Trace.Send_cancelled _ -> 5
  | Trace.Stability_advanced _ -> 6
  | Trace.Checkpoint_taken _ -> 7
  | Trace.Crashed _ -> 8
  | Trace.Restarted _ -> 9
  | Trace.Rolled_back _ -> 10
  | Trace.Announcement_received _ -> 11
  | Trace.Notice_sent _ -> 12
  | Trace.Output_buffered _ -> 13
  | Trace.Output_committed _ -> 14
  | Trace.Recovery_completed _ -> 15

let put_event b ev =
  Buffer.add_char b (Char.chr (tag_of_event ev));
  match ev with
  | Trace.Interval_started { pid; interval; pred; by; sender_interval; digest; replay }
    ->
    put_int b pid;
    put_entry b interval;
    put_option b put_entry pred;
    put_option b put_identity by;
    put_option b put_entry sender_interval;
    put_int b digest;
    put_bool b replay
  | Trace.Message_sent { id; src; dst; send_interval } ->
    put_identity b id;
    put_int b src;
    put_int b dst;
    put_entry b send_interval
  | Trace.Message_released { id; dep_size; wire_vector; blocked } ->
    put_identity b id;
    put_int b dep_size;
    put_int b wire_vector;
    put_float b blocked
  | Trace.Message_delivered { id; dst; interval; waited } ->
    put_identity b id;
    put_int b dst;
    put_entry b interval;
    put_float b waited
  | Trace.Message_discarded { id; dst; reason } ->
    put_identity b id;
    put_int b dst;
    put_bool b (reason = Trace.Duplicate)
  | Trace.Send_cancelled { id; src } ->
    put_identity b id;
    put_int b src
  | Trace.Stability_advanced { pid; upto } ->
    put_int b pid;
    put_entry b upto
  | Trace.Checkpoint_taken { pid; interval } ->
    put_int b pid;
    put_entry b interval
  | Trace.Crashed { pid; first_lost } ->
    put_int b pid;
    put_option b put_entry first_lost
  | Trace.Restarted { pid; announced; new_current } ->
    put_int b pid;
    put_announcement b announced;
    put_entry b new_current
  | Trace.Rolled_back { pid; restored; first_undone; new_current; because } ->
    put_int b pid;
    put_entry b restored;
    put_entry b first_undone;
    put_entry b new_current;
    put_announcement b because
  | Trace.Announcement_received { pid; ann } ->
    put_int b pid;
    put_announcement b ann
  | Trace.Notice_sent { pid; entries } ->
    put_int b pid;
    put_int b entries
  | Trace.Output_buffered { pid; id; text } ->
    put_int b pid;
    put_output_id b id;
    put_string b text
  | Trace.Output_committed { pid; id; text; latency } ->
    put_int b pid;
    put_output_id b id;
    put_string b text;
    put_float b latency
  | Trace.Recovery_completed { pid; replayed } ->
    put_int b pid;
    put_int b replayed

let entry_payload (e : Trace.entry) =
  let b = Buffer.create 64 in
  put_float b e.Trace.time;
  put_int b e.Trace.seq;
  put_event b e.Trace.ev;
  Buffer.contents b

let encode_entry e = Durable.Codec.encode ~kind:trace_kind (entry_payload e)

let read_event c =
  match get_u8 c with
  | 0 ->
    let pid = get_int c in
    let interval = get_entry c in
    let pred = get_option c get_entry in
    let by = get_option c get_identity in
    let sender_interval = get_option c get_entry in
    let digest = get_int c in
    let replay = get_bool c in
    Trace.Interval_started { pid; interval; pred; by; sender_interval; digest; replay }
  | 1 ->
    let id = get_identity c in
    let src = get_int c in
    let dst = get_int c in
    let send_interval = get_entry c in
    Trace.Message_sent { id; src; dst; send_interval }
  | 2 ->
    let id = get_identity c in
    let dep_size = get_int c in
    let wire_vector = get_int c in
    let blocked = get_float c in
    Trace.Message_released { id; dep_size; wire_vector; blocked }
  | 3 ->
    let id = get_identity c in
    let dst = get_int c in
    let interval = get_entry c in
    let waited = get_float c in
    Trace.Message_delivered { id; dst; interval; waited }
  | 4 ->
    let id = get_identity c in
    let dst = get_int c in
    let reason = if get_bool c then Trace.Duplicate else Trace.Orphan_message in
    Trace.Message_discarded { id; dst; reason }
  | 5 ->
    let id = get_identity c in
    let src = get_int c in
    Trace.Send_cancelled { id; src }
  | 6 ->
    let pid = get_int c in
    let upto = get_entry c in
    Trace.Stability_advanced { pid; upto }
  | 7 ->
    let pid = get_int c in
    let interval = get_entry c in
    Trace.Checkpoint_taken { pid; interval }
  | 8 ->
    let pid = get_int c in
    let first_lost = get_option c get_entry in
    Trace.Crashed { pid; first_lost }
  | 9 ->
    let pid = get_int c in
    let announced = get_announcement c in
    let new_current = get_entry c in
    Trace.Restarted { pid; announced; new_current }
  | 10 ->
    let pid = get_int c in
    let restored = get_entry c in
    let first_undone = get_entry c in
    let new_current = get_entry c in
    let because = get_announcement c in
    Trace.Rolled_back { pid; restored; first_undone; new_current; because }
  | 11 ->
    let pid = get_int c in
    let ann = get_announcement c in
    Trace.Announcement_received { pid; ann }
  | 12 ->
    let pid = get_int c in
    let entries = get_int c in
    Trace.Notice_sent { pid; entries }
  | 13 ->
    let pid = get_int c in
    let id = get_output_id c in
    let text = get_string c in
    Trace.Output_buffered { pid; id; text }
  | 14 ->
    let pid = get_int c in
    let id = get_output_id c in
    let text = get_string c in
    let latency = get_float c in
    Trace.Output_committed { pid; id; text; latency }
  | 15 ->
    let pid = get_int c in
    let replayed = get_int c in
    Trace.Recovery_completed { pid; replayed }
  | t -> failwith (Printf.sprintf "unknown trace event tag %d" t)

let read_entry c =
  let time = get_float c in
  let seq = get_int c in
  let ev = read_event c in
  { Trace.time; seq; ev }

let decode_entry s =
  match Wire_codec.decode_frame s ~pos:0 with
  | Error _ as e -> e
  | Ok (kind, body, next) ->
    if kind <> trace_kind then Error (Printf.sprintf "not a trace frame (kind %d)" kind)
    else if next <> String.length s then Error "trailing bytes after frame"
    else run read_entry body

type load = { entries : Trace.entry list; damage : string option }

(* Each [open_writer] starts a stretch with a Hello (a respawned daemon
   appends to its predecessor's file), so the file's first frame must be
   one and any frame may be one; every Hello is held to this version. *)
let decode_stream s =
  let entry ((entries, damage) as acc) ~pos kind body =
    let fail fmt = Printf.ksprintf (fun e -> (entries, Some e)) fmt in
    match damage with
    | Some _ -> acc
    | None when kind = trace_kind && pos > 0 -> (
      match run read_entry body with
      | Ok e -> (e :: entries, None)
      | Error e -> fail "undecodable trace entry at byte %d: %s" pos e)
    | None -> (
      match Wire_codec.greeting ~kind body with
      | Ok _ -> acc
      | Error e -> fail "trace file refused at byte %d: %s" pos e)
  in
  let (entries, damage), valid, tail = Durable.Codec.fold s ~init:([], None) ~f:entry in
  let damage =
    match (damage, tail) with
    | Some _, _ | None, Durable.Codec.Clean -> damage
    | None, (Durable.Codec.Torn | Durable.Codec.Corrupt_tail) ->
      Some
        (Printf.sprintf "trace file damaged at byte %d: %s (torn tail truncated)" valid
           (if tail = Durable.Codec.Torn then "truncated frame"
            else "bad frame magic or checksum"))
  in
  { entries = List.rev entries; damage }

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok (decode_stream s)
  | exception Sys_error e -> Error e

(* A descriptor and one reused buffer, as the durable store writes: an
   [out_channel] would bring a 64 KB buffer that the runtime charges
   against the minor heap, and with a 32k-word nursery the channels a
   daemon opens at boot would force minor collections before its first
   batch (see koptnode.ml).  Nothing reaches the file before the first
   sync that has entries, as with a channel: the Hello waits in the
   buffer, so a non-empty trace file still means the daemon has taken its
   first step (its control socket listens by then).  The buffer goes back
   to its first size after each write. *)
type writer = { file : Durable.Fs.file; buf : Buffer.t }

let open_writer path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Wire_codec.hello ~pid:(-1));
  { file = Durable.Fs.unix.open_append path; buf }

let write_buffered w =
  if Buffer.length w.buf > 0 then begin
    w.file.write (Buffer.contents w.buf);
    Buffer.reset w.buf
  end

let close_writer w =
  (try write_buffered w with Unix.Unix_error _ -> ());
  try w.file.close () with Unix.Unix_error _ -> ()

let sync w trace =
  match Trace.drain trace with
  | [] -> ()
  | entries ->
    List.iter
      (fun e -> Durable.Codec.encode_into w.buf ~kind:trace_kind (entry_payload e))
      entries;
    write_buffered w
