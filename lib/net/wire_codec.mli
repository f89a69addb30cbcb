(** Byte-level wire format of the networking subsystem.

    Everything that crosses a socket — protocol packets between daemons,
    control traffic between the deployment driver and a daemon, and the
    trace entries a daemon appends to its trace file — is one {e frame}:

    {v
      offset  size  field
      0       2     magic "KW"
      2       1     version (currently 2)
      3       1     kind
      4       4     payload length, u32 LE
      8       4     CRC32 (IEEE, reflected), u32 LE,
                    over bytes 2..7 and the payload
      12      len   payload
    v}

    The checksum covers the version, kind and length fields as well as the
    payload, so no single mutated byte can re-frame a message (the QCheck
    suite pins this, mirroring the durable-store codec).  Decode failures
    are {e reported} — every decoding function returns a [result], and the
    transport counts and surfaces them — never silently dropped.

    Integers inside payloads are int64 LE; strings are u32-length-prefixed
    bytes; application payloads go through the {!App_model.App_intf.wire_format}
    the application provides.  Per-packet layouts are specified in
    PROTOCOL.md §Wire format. *)

val version : int

val header_bytes : int
(** 12: fixed frame header size. *)

val max_frame_payload : int
(** Upper bound a reader enforces on the advertised payload length (16 MiB)
    so a corrupt length field cannot make it allocate unboundedly. *)

(** {1 Frames} *)

val frame : kind:int -> string -> string
(** Wrap a payload into a full frame. *)

val parse_header : string -> pos:int -> (int * int, string) result
(** [parse_header s ~pos] validates magic, version and length bound of the
    12 header bytes at [pos] and returns [(kind, payload_length)].  The CRC
    is checked by {!check_frame} once the payload is available. *)

val check_frame : header:string -> payload:string -> (unit, string) result
(** Verify the CRC of a reassembled frame ([header] is exactly the 12
    header bytes). *)

val decode_frame : string -> pos:int -> (int * string * int, string) result
(** Decode one frame from a buffer: [(kind, payload, next_pos)]. *)

(** {1 Frames over a stream socket}

    The daemon, its transport, the deployment driver and the fault proxy
    all read and write frames with these. *)

val read_exact : Unix.file_descr -> int -> string option
(** Exactly [n] bytes; [None] on EOF or any socket error. *)

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
  (** The next whole buffered frame, [(kind, payload)] with its CRC
      checked; [Error] for a bad header or checksum (the stream cannot be
      resynchronised: close it); [None] until more bytes arrive.  The
      buffer grows only to fit a frame larger than itself, and shrinks
      back once that frame is consumed. *)
end

(** {1 Protocol packets} *)

val packet_kind_code : 'msg Recovery.Wire.packet -> int

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

type 'msg control =
  | Hello of { pid : int }
      (** first frame on every data connection: identifies the dialer *)
  | Inject of { seq : int; cseq : int; payload : 'msg }
      (** a client message: [seq] makes its identity unique, [cseq] is its
          dense position among the injections to this daemon (see
          {!Recovery.Node.inject}) *)
  | Crash  (** soft fail-stop: lose volatile state, restart in-process *)
  | Status_req
  | Status of status
  | Quit  (** drain: persist trace + metrics files and exit cleanly *)
  | Bye
  | Add_peer of { pid : int; port : int }
      (** live membership: start dialling a (possibly brand-new) peer *)
  | Retire_req
      (** graceful permanent leave: flush, broadcast {!Recovery.Wire.packet.Retire},
          then drain and exit like [Quit] *)
  | Arm_brownout of { slow : float option; rounds : int }
      (** degrade the daemon's store for the next [rounds] flush rounds:
          with [slow = Some d] each fsync is stretched by [d] seconds,
          with [slow = None] flushes refuse as if the disk were full *)
  | Stats_req
      (** scrape the daemon's live metric registry *)
  | Stats of string
      (** reply to [Stats_req]: an {!Obs.Snapshot.to_text} exposition —
          [# koptlog-obs v1] header, then [# TYPE]-declared
          Prometheus-style samples (PROTOCOL.md §Control socket) *)

val control_kind_code : 'msg control -> int

val hello_kind : int
(** Kind code of [Hello], exposed so the transport and the proxy can
    recognise the connection preamble without a payload codec. *)

val encode_control :
  'msg App_model.App_intf.wire_format -> 'msg control -> string

val decode_control_body :
  'msg App_model.App_intf.wire_format ->
  kind:int ->
  string ->
  ('msg control, string) result

val decode_control :
  'msg App_model.App_intf.wire_format ->
  string ->
  ('msg control, string) result

val read_control :
  'msg App_model.App_intf.wire_format -> Unix.file_descr -> 'msg control option
(** The next control frame on a blocking control connection, its CRC
    checked ({!check_frame}) and its body decoded
    ({!decode_control_body}), [None] once the connection
    is finished or carries anything but a well-formed control frame. *)

val is_packet_kind : int -> bool

val is_control_kind : int -> bool

(** {1 Primitive readers/writers}

    Shared with {!Trace_codec}; exposed for it and for tests. *)

module Prim : sig
  val put_int : Buffer.t -> int -> unit

  val put_float : Buffer.t -> float -> unit

  val put_string : Buffer.t -> string -> unit

  val put_bool : Buffer.t -> bool -> unit

  val put_entry : Buffer.t -> Depend.Entry.t -> unit

  val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

  val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

  val put_identity : Buffer.t -> Recovery.Wire.identity -> unit

  val put_announcement : Buffer.t -> Recovery.Wire.announcement -> unit

  val put_output_id : Buffer.t -> Recovery.Wire.output_id -> unit

  (** A cursor over a payload string.  Readers raise [Failure] on
      malformed input; the [decode_*] entry points catch it and return
      [Error]. *)
  type cursor

  val cursor : string -> cursor

  val finished : cursor -> bool

  val fail : cursor -> string -> 'a

  val get_u8 : cursor -> int

  val get_int : cursor -> int

  val get_float : cursor -> float

  val get_string : cursor -> string

  val get_bool : cursor -> bool

  val get_entry : cursor -> Depend.Entry.t

  val get_list : cursor -> (cursor -> 'a) -> 'a list

  val get_option : cursor -> (cursor -> 'a) -> 'a option

  val get_identity : cursor -> Recovery.Wire.identity

  val get_announcement : cursor -> Recovery.Wire.announcement

  val get_output_id : cursor -> Recovery.Wire.output_id

  val run : (cursor -> 'a) -> string -> ('a, string) result
  (** Apply a reader to a whole payload; trailing bytes are an error. *)
end
