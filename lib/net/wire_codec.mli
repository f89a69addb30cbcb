(** Byte-level wire format of the networking subsystem.

    Everything that crosses a socket — protocol packets between daemons,
    control traffic between the deployment driver and a daemon — the
    trace entries a daemon appends to its trace file, and the registry
    snapshots in metrics and reopens files, is one
    {!Durable.Codec} frame, the layout of every store record (magic,
    kind, length, CRC32; see {!Durable.Codec}).  This module writes the
    payloads.  One check ({!Durable.Codec.check}) parses store files, socket streams
    and trace files alike: a damaged or torn frame is rejected, never
    misread.  The version is stated once per stream, not per frame: every
    stream (a transport connection, a control connection, a trace file)
    opens with a [Hello] carrying {!version}, and its reader
    refuses the stream on a mismatch ({!greeting}).

    Decode failures are {e reported} — every decoding function returns a
    [result], and the transport counts and surfaces them — never silently
    dropped.  Each payload's layout is one {!Durable.Form} value, which
    both writes and reads it: integers are int64 LE, strings an int64
    length then the bytes; application payloads go through the
    {!App_model.App_intf.wire_format} the application provides (a
    control [Inject] carries the bytes it wrote).
    Per-packet layouts are specified in PROTOCOL.md §Wire format. *)

val version : int
(** 5: the version every stream's opening Hello carries. *)

val max_frame_payload : int
(** Upper bound a socket reader enforces on the advertised payload length
    (16 MiB) so a corrupt length field cannot make it allocate
    unboundedly. *)

val decode_frame : string -> pos:int -> (int * string * int, string) result
(** {!Durable.Codec.decode} of one frame from a buffer:
    [(kind, payload, next_pos)]. *)

(** {1 Frames over a stream socket}

    The daemon, its transport, the deployment driver and the fault proxy
    all read and write frames with these. *)

val write_all : Unix.file_descr -> string -> bool
(** Write the whole string; [false] on a short write or socket error.  On
    a nonblocking descriptor that cannot take more yet, waits until it
    can. *)

val close_quiet : Unix.file_descr -> unit
(** [Unix.close], ignoring errors. *)

(** Frame reassembly on a nonblocking stream: whatever sizes the reads
    come in, {!Reader.next} yields the frames in order, checked. *)
module Reader : sig
  type t

  val create : unit -> t
  (** An empty reader with a 4 KB buffer. *)

  val read : t -> Unix.file_descr -> [ `Read | `Again | `Eof ]
  (** One [read] into the buffer's free space: [`Again] when the
      descriptor has nothing now, [`Eof] on end of stream or a socket
      error. *)

  val next : t -> (int * string, string) result option
  (** The next whole buffered frame, [(kind, payload)], checked in place
      by {!Durable.Codec.check}; [Error] for a bad magic or checksum or a
      length over {!max_frame_payload} (the stream cannot be
      resynchronised: close it); [None] until more bytes arrive.  The
      buffer grows only to fit a frame larger than itself, and shrinks
      back once that frame is consumed. *)
end

(** {1 Protocol packets} *)

val encode_packet :
  'msg App_model.App_intf.wire_format -> 'msg Recovery.Wire.packet -> string
(** Full frame for a protocol packet. *)

val decode_packet_body :
  'msg App_model.App_intf.wire_format ->
  kind:int ->
  string ->
  ('msg Recovery.Wire.packet, string) result
(** Decode a checked frame payload back into a packet. *)

val decode_packet :
  'msg App_model.App_intf.wire_format ->
  string ->
  ('msg Recovery.Wire.packet, string) result
(** [decode_frame] + [decode_packet_body] on a single whole-frame string;
    trailing bytes are an error.  (The QCheck properties round-trip through
    this.) *)

(** {1 Data frames with piggybacked logging progress}

    An application message may carry the sender's current logging-progress
    {!Recovery.Wire.notice} in the same frame (kind 9: the notice body
    followed by the app body), so stability news rides data traffic
    instead of waiting for the notice timer; the standalone Notice packet
    remains the fallback for idle peers.  PROTOCOL.md §Wire format has the
    byte layout. *)

val app_notice_kind : int
(** Kind code (9) of a data frame with a piggybacked notice. *)

val encode_data :
  'msg App_model.App_intf.wire_format ->
  ?piggyback:Recovery.Wire.notice ->
  'msg Recovery.Wire.app_message ->
  string
(** Full frame for an application message, with the notice aboard when
    [piggyback] is given.  Without it the frame is byte-identical to
    [encode_packet (App m)]. *)

val decode_data_body :
  'msg App_model.App_intf.wire_format ->
  kind:int ->
  string ->
  ('msg Recovery.Wire.app_message * Recovery.Wire.notice option, string) result
(** Decode a checked data-frame payload (kind [k_app] or
    {!app_notice_kind}) into the message and its piggybacked notice, if
    any. *)

(** {1 Control channel}

    The deployment driver speaks this over a daemon's control socket. *)

type status = {
  st_up : bool;
  st_pending : int;  (** events of the current batch still to process *)
  st_send_buf : int;
  st_recv_buf : int;
  st_out_buf : int;
  st_deliveries : int;
  st_trace_len : int;
  st_current : Depend.Entry.t;
  st_recovering : bool;  (** a {!Recovery.Node.restart_begin} replay is live *)
  st_replay_pending : int;  (** log records still queued for replay *)
}

type control =
  | Hello of { pid : int }
      (** first frame of every stream: its payload is {!version}, then
          the writer's pid (-1 for the driver and for trace files) *)
  | Inject of { seq : int; cseq : int; payload : string }
      (** a client message: [seq] makes its identity unique, [cseq] is its
          dense position among the injections to this daemon (see
          {!Recovery.Node.inject}); [payload] is the bytes the
          application's {!App_model.App_intf.wire_format} wrote, which the
          daemon reads with its own app's format *)
  | Status_req
  | Status of status
  | Quit  (** drain: persist trace + metrics files and exit cleanly *)
  | Bye
  | Add_peer of { pid : int; port : int }
      (** live membership: start dialling a (possibly brand-new) peer *)
  | Retire_req
      (** graceful permanent leave: flush, broadcast {!Recovery.Wire.packet.Retire},
          then drain and exit like [Quit] *)
  | Arm_brownout of { rounds : int }
      (** the daemon's store refuses its next [rounds] flushes as if the
          disk were full; a frame with [rounds < 0] does not decode *)
  | Stats_req
      (** scrape the daemon's live metric registry *)
  | Stats of Obs.Snapshot.t
      (** reply to [Stats_req]: the daemon's registry in the {!snapshot}
          form (PROTOCOL.md §Control socket); a payload that does not
          decode is an [Error], never a partial snapshot *)

val hello : pid:int -> string
(** The frame that opens a stream: a [Hello] of {!version} naming [pid]. *)

val snapshot_file : pid:int -> Obs.Snapshot.t -> string
(** A Hello naming [pid], then a [Stats] frame of the snapshot: the whole
    of a Quit-time metrics file, and what each incarnation that reopened
    a store appends to its reopens file. *)

val decode_snapshots : string -> Obs.Snapshot.t * string option
(** The bytes of one file {!snapshot_file} wrote, or of several appended:
    Hellos of {!version}, the first at byte 0, and [Stats] frames, each
    checked by {!Durable.Codec}.  The sum ({!Obs.Snapshot.merge_all}) of
    the snapshots read up to the first frame that is torn, corrupt,
    undecodable or out of place, and then [Some] reason naming that
    frame's byte offset.  Never raises. *)

val greeting : kind:int -> string -> (int, string) result
(** [Ok pid] if the frame [(kind, payload)] is a Hello of {!version};
    [Error] naming what it is instead.  Every stream's reader (the
    transport's acceptor, the fault proxy, koptnode's control loop, the
    trace loader) holds the stream's first frame to this. *)

val encode_control : control -> string

val decode_control_body : kind:int -> string -> (control, string) result

val decode_control : string -> (control, string) result

val read_frame : Unix.file_descr -> (int * string) option
(** The next frame on a blocking connection, [(kind, payload)], its length
    held to {!max_frame_payload} and the whole frame checked by
    {!Durable.Codec.decode}; [None] once the connection is finished or
    carries anything but a whole, intact frame. *)

val read_control : Unix.file_descr -> control option
(** {!read_frame}, its body decoded ({!decode_control_body}); [None] also
    when the body does not decode. *)

(** {1 Payload forms}

    The {!Durable.Form}s of the records packets are made of, shared with
    {!Trace_codec}. *)

val entry : Depend.Entry.t Durable.Form.t

val identity : Recovery.Wire.identity Durable.Form.t

val announcement : Recovery.Wire.announcement Durable.Form.t

val output_id : Recovery.Wire.output_id Durable.Form.t

val snapshot : Obs.Snapshot.t Durable.Form.t
(** A registry snapshot: an {!Durable.Form.list} of samples in strictly
    increasing (name, labels) order, each its name, its labels (a list of
    name-value pairs, strictly increasing) and its value after a tag
    byte: 0, a counter as an int; 1, a gauge as a float (its exact bits);
    2, a histogram as its [sum], [minv] and [maxv] floats, then its
    non-empty buckets as a list of (index, count) int pairs, indices
    strictly increasing.  The decoder refuses an index outside
    [0 .. Obs.Histogram.bucket_count - 1], a repeated or decreasing
    index, a count that is not positive, and samples or labels out of
    order or repeated, each as an [Error]. *)
