module Trace = Recovery.Trace
module F = Durable.Form

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

let entry, identity, announcement = Wire_codec.(entry, identity, announcement)

let reason =
  F.map
    (fun duplicate -> if duplicate then Trace.Duplicate else Trace.Orphan_message)
    (fun reason -> reason = Trace.Duplicate)
    F.bool

(* A case's projections see only events of its own tag. *)
let[@warning "-8"] events =
  let open Trace in
  F.cases "trace event tag" tag_of_event
    [ ( 0,
        F.record
          (fun pid interval pred by sender_interval digest replay ->
            Interval_started { pid; interval; pred; by; sender_interval; digest; replay })
          F.[ (int, fun (Interval_started e) -> e.pid);
              (entry, fun (Interval_started e) -> e.interval);
              (option entry, fun (Interval_started e) -> e.pred);
              (option identity, fun (Interval_started e) -> e.by);
              (option entry, fun (Interval_started e) -> e.sender_interval);
              (int, fun (Interval_started e) -> e.digest);
              (bool, fun (Interval_started e) -> e.replay) ] );
      ( 1,
        F.record
          (fun id src dst send_interval -> Message_sent { id; src; dst; send_interval })
          F.[ (identity, fun (Message_sent e) -> e.id);
              (int, fun (Message_sent e) -> e.src); (int, fun (Message_sent e) -> e.dst);
              (entry, fun (Message_sent e) -> e.send_interval) ] );
      ( 2,
        F.record
          (fun id dep_size wire_vector blocked ->
            Message_released { id; dep_size; wire_vector; blocked })
          F.[ (identity, fun (Message_released e) -> e.id);
              (int, fun (Message_released e) -> e.dep_size);
              (int, fun (Message_released e) -> e.wire_vector);
              (float, fun (Message_released e) -> e.blocked) ] );
      ( 3,
        F.record
          (fun id dst interval waited -> Message_delivered { id; dst; interval; waited })
          F.[ (identity, fun (Message_delivered e) -> e.id);
              (int, fun (Message_delivered e) -> e.dst);
              (entry, fun (Message_delivered e) -> e.interval);
              (float, fun (Message_delivered e) -> e.waited) ] );
      ( 4,
        F.record (fun id dst reason -> Message_discarded { id; dst; reason })
          F.[ (identity, fun (Message_discarded e) -> e.id);
              (int, fun (Message_discarded e) -> e.dst);
              (reason, fun (Message_discarded e) -> e.reason) ] );
      ( 5,
        F.record (fun id src -> Send_cancelled { id; src })
          F.[ (identity, fun (Send_cancelled e) -> e.id);
              (int, fun (Send_cancelled e) -> e.src) ] );
      ( 6,
        F.record (fun pid upto -> Stability_advanced { pid; upto })
          F.[ (int, fun (Stability_advanced e) -> e.pid);
              (entry, fun (Stability_advanced e) -> e.upto) ] );
      ( 7,
        F.record (fun pid interval -> Checkpoint_taken { pid; interval })
          F.[ (int, fun (Checkpoint_taken e) -> e.pid);
              (entry, fun (Checkpoint_taken e) -> e.interval) ] );
      ( 8,
        F.record (fun pid first_lost -> Crashed { pid; first_lost })
          F.[ (int, fun (Crashed e) -> e.pid);
              (option entry, fun (Crashed e) -> e.first_lost) ] );
      ( 9,
        F.record
          (fun pid announced new_current -> Restarted { pid; announced; new_current })
          F.[ (int, fun (Restarted e) -> e.pid);
              (announcement, fun (Restarted e) -> e.announced);
              (entry, fun (Restarted e) -> e.new_current) ] );
      ( 10,
        F.record
          (fun pid restored first_undone new_current because ->
            Rolled_back { pid; restored; first_undone; new_current; because })
          F.[ (int, fun (Rolled_back e) -> e.pid);
              (entry, fun (Rolled_back e) -> e.restored);
              (entry, fun (Rolled_back e) -> e.first_undone);
              (entry, fun (Rolled_back e) -> e.new_current);
              (announcement, fun (Rolled_back e) -> e.because) ] );
      ( 11,
        F.record (fun pid ann -> Announcement_received { pid; ann })
          F.[ (int, fun (Announcement_received e) -> e.pid);
              (announcement, fun (Announcement_received e) -> e.ann) ] );
      ( 12,
        F.record (fun pid entries -> Notice_sent { pid; entries })
          F.[ (int, fun (Notice_sent e) -> e.pid);
              (int, fun (Notice_sent e) -> e.entries) ] );
      ( 13,
        F.record (fun pid id text -> Output_buffered { pid; id; text })
          F.[ (int, fun (Output_buffered e) -> e.pid);
              (Wire_codec.output_id, fun (Output_buffered e) -> e.id);
              (string, fun (Output_buffered e) -> e.text) ] );
      ( 14,
        F.record (fun pid id text latency -> Output_committed { pid; id; text; latency })
          F.[ (int, fun (Output_committed e) -> e.pid);
              (Wire_codec.output_id, fun (Output_committed e) -> e.id);
              (string, fun (Output_committed e) -> e.text);
              (float, fun (Output_committed e) -> e.latency) ] );
      ( 15,
        F.record (fun pid replayed -> Recovery_completed { pid; replayed })
          F.[ (int, fun (Recovery_completed e) -> e.pid);
              (int, fun (Recovery_completed e) -> e.replayed) ] ) ]

let event = F.tagged events

let trace_entry =
  F.record (fun time seq ev -> { Trace.time; seq; ev })
    F.[ (float, fun e -> e.Trace.time); (int, fun e -> e.Trace.seq);
        (event, fun e -> e.Trace.ev) ]

let entry_payload e = F.encode trace_entry e

let encode_entry e = Durable.Codec.encode ~kind:trace_kind (entry_payload e)

let decode_entry s =
  match Wire_codec.decode_frame s ~pos:0 with
  | Error _ as e -> e
  | Ok (kind, body, next) ->
    if kind <> trace_kind then Error (Printf.sprintf "not a trace frame (kind %d)" kind)
    else if next <> String.length s then Error "trailing bytes after frame"
    else F.decode trace_entry body

type load = { entries : Trace.entry list; damage : string option }

(* Each [open_writer] starts a stretch with a Hello (a respawned daemon
   appends to its predecessor's file), so the file's first frame must be
   one and any frame may be one; every Hello is held to this version. *)
let decode_stream size input =
  let entry ((entries, damage) as acc) ~pos ~kind b ~off ~len =
    let fail fmt = Printf.ksprintf (fun e -> (entries, Some e)) fmt in
    if damage <> None then acc
    else
      let body = Bytes.sub_string b off len in
      if kind = trace_kind && pos > 0 then
        match F.decode trace_entry body with
        | Ok e -> (e :: entries, None)
        | Error e -> fail "undecodable trace entry at byte %d: %s" pos e
      else
        match Wire_codec.greeting ~kind body with
        | Ok _ -> acc
        | Error e -> fail "trace file refused at byte %d: %s" pos e
  in
  let (entries, damage), valid, tail =
    Durable.Codec.frames ~size input ~init:([], None) ~f:entry
  in
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
  match Durable.Fs.unix.read_with path decode_stream with
  | load -> Ok load
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
