open Depend
module Wire = Recovery.Wire
module App_intf = App_model.App_intf
module Codec = Durable.Codec

let version = 4

let max_frame_payload = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

module Prim = struct
  let put_int b v = Buffer.add_int64_le b (Int64.of_int v)

  let put_float b v = Buffer.add_int64_le b (Int64.bits_of_float v)

  let put_string b s =
    put_int b (String.length s);
    Buffer.add_string b s

  let put_bool b v = Buffer.add_char b (if v then '\x01' else '\x00')

  let put_entry b (e : Entry.t) =
    put_int b e.Entry.inc;
    put_int b e.Entry.sii

  let put_list b put xs =
    put_int b (List.length xs);
    List.iter (put b) xs

  let put_option b put = function
    | None -> put_bool b false
    | Some v ->
      put_bool b true;
      put b v

  let put_identity b (id : Wire.identity) =
    put_int b id.Wire.origin;
    put_entry b id.Wire.origin_interval;
    put_int b id.Wire.idx

  let put_announcement b (a : Wire.announcement) =
    put_int b a.Wire.from_;
    put_entry b a.Wire.ending;
    put_bool b a.Wire.failure

  let put_output_id b (o : Wire.output_id) =
    put_entry b o.Wire.out_interval;
    put_int b o.Wire.out_idx

  type cursor = { s : string; mutable pos : int }

  let cursor s = { s; pos = 0 }

  let finished c = c.pos = String.length c.s

  let fail _c msg = failwith msg

  let need c n =
    if c.pos + n > String.length c.s then
      failwith
        (Printf.sprintf "short payload: need %d bytes at offset %d of %d" n c.pos
           (String.length c.s))

  let get_int c =
    need c 8;
    let v = Int64.to_int (String.get_int64_le c.s c.pos) in
    c.pos <- c.pos + 8;
    v

  let get_float c =
    need c 8;
    let v = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
    c.pos <- c.pos + 8;
    v

  let get_string c =
    let len = get_int c in
    if len < 0 then failwith "negative string length";
    need c len;
    let v = String.sub c.s c.pos len in
    c.pos <- c.pos + len;
    v

  let get_u8 c =
    need c 1;
    let v = Char.code c.s.[c.pos] in
    c.pos <- c.pos + 1;
    v

  let get_bool c =
    need c 1;
    let v =
      match c.s.[c.pos] with
      | '\x00' -> false
      | '\x01' -> true
      | ch -> failwith (Printf.sprintf "bad bool byte %#x" (Char.code ch))
    in
    c.pos <- c.pos + 1;
    v

  let get_entry c =
    let inc = get_int c in
    let sii = get_int c in
    Entry.make ~inc ~sii

  let get_list c get =
    let n = get_int c in
    if n < 0 || n > max_frame_payload then failwith "bad list length";
    List.init n (fun _ -> get c)

  let get_option c get = if get_bool c then Some (get c) else None

  let get_identity c =
    let origin = get_int c in
    let origin_interval = get_entry c in
    let idx = get_int c in
    { Wire.origin; origin_interval; idx }

  let get_announcement c =
    let from_ = get_int c in
    let ending = get_entry c in
    let failure = get_bool c in
    { Wire.from_; ending; failure }

  let get_output_id c =
    let out_interval = get_entry c in
    let out_idx = get_int c in
    { Wire.out_interval; out_idx }

  let run reader s =
    match
      let c = cursor s in
      let v = reader c in
      if not (finished c) then
        failwith
          (Printf.sprintf "trailing bytes: %d consumed of %d" c.pos (String.length s));
      v
    with
    | v -> Ok v
    | exception Failure msg -> Error msg
end

open Prim

(* ------------------------------------------------------------------ *)
(* Frames: the store's records (Durable.Codec)                         *)

let decode_frame s ~pos =
  match Codec.decode s ~pos with
  | Codec.Record { kind; payload; next } -> Ok (kind, payload, next)
  | Codec.Truncated -> Error "truncated frame"
  | Codec.Corrupt -> Error "bad frame magic or checksum"
  | Codec.End -> Error "no frame: end of input"

(* ------------------------------------------------------------------ *)
(* Frames over a stream socket                                         *)

(* [None] on EOF or any socket error: the connection is finished either
   way. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec loop off =
    if off = n then Some (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> None
      | k -> loop (off + k)
      | exception Unix.Unix_error _ -> None
  in
  loop 0

(* A nonblocking descriptor that cannot take more waits until it can: a
   reply to a control client blocks the daemon exactly as a blocking
   socket would. *)
let write_all fd s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let rec loop off =
    if off = n then true
    else
      match Unix.write fd buf off (n - off) with
      | 0 -> false
      | k -> loop (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ fd ] [] (-1.) with
        | _ -> loop off
        | exception Unix.Unix_error _ -> false)
      | exception Unix.Unix_error _ -> false
  in
  loop 0

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

module Reader = struct
  (* [buf.[off .. len)] holds the bytes read but not yet framed.  The
     buffer starts small and grows only to fit a frame larger than it;
     once that frame is consumed it shrinks back. *)
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let initial = 4096

  let create () = { buf = Bytes.create initial; off = 0; len = 0 }

  let buffered r = r.len - r.off

  let slide r =
    let have = buffered r in
    Bytes.blit r.buf r.off r.buf 0 have;
    r.off <- 0;
    r.len <- have

  (* Room for [n] more bytes past [len]: slide the unframed bytes to the
     front, and grow only if they still do not fit. *)
  let reserve r n =
    if r.len + n > Bytes.length r.buf then begin
      slide r;
      if r.len + n > Bytes.length r.buf then begin
        let buf = Bytes.create (max (r.len + n) (2 * Bytes.length r.buf)) in
        Bytes.blit r.buf 0 buf 0 r.len;
        r.buf <- buf
      end
    end

  let read r fd =
    if r.off > 0 && Bytes.length r.buf - r.len < initial / 2 then slide r;
    reserve r 1;
    match Unix.read fd r.buf r.len (Bytes.length r.buf - r.len) with
    | 0 -> `Eof
    | k ->
      r.len <- r.len + k;
      `Read
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      `Again
    | exception Unix.Unix_error _ -> `Eof

  let consume r n =
    r.off <- r.off + n;
    if r.off = r.len then begin
      if Bytes.length r.buf > initial then r.buf <- Bytes.create initial;
      r.off <- 0;
      r.len <- 0
    end

  (* Only [buf.[off .. len)] is meaningful, and [Codec.check] reads no
     byte past it.  The bytes come from outside the process, so a length
     field is held to [max_frame_payload] before the buffer grows for
     it. *)
  let next r =
    let avail = buffered r in
    match Codec.check r.buf ~pos:r.off ~avail with
    | Codec.Damaged -> Some (Error "bad frame magic or checksum")
    | Codec.Partial when avail < Codec.header_bytes -> None
    | Codec.Partial ->
      let len = Codec.payload_length r.buf ~pos:r.off in
      if len > max_frame_payload then
        Some (Error (Printf.sprintf "frame payload length %d too large" len))
      else begin
        reserve r (Codec.header_bytes + len - avail);
        None
      end
    | Codec.Whole ->
      let kind = Char.code (Bytes.get r.buf (r.off + 1)) in
      let len = Codec.payload_length r.buf ~pos:r.off in
      let payload = Bytes.sub_string r.buf (r.off + Codec.header_bytes) len in
      consume r (Codec.header_bytes + len);
      Some (Ok (kind, payload))
end

(* ------------------------------------------------------------------ *)
(* Protocol packets                                                    *)

let k_hello = 1

let k_app = 2

let k_ann = 3

let k_notice = 4

let k_ack = 5

let k_flush_request = 6

let k_dep_query = 7

let k_dep_reply = 8

let k_app_notice = 9 (* App + piggybacked logging-progress Notice *)

let k_join = 10

let k_retire = 11

let k_inject = 16

(* Kinds 17-20 stay unassigned: a frame of one decodes as an unknown
   control. *)

let k_status_req = 21

let k_status = 22

let k_quit = 23

let k_bye = 24

let k_add_peer = 25

let k_retire_req = 26

let k_arm_brownout = 27

let k_stats_req = 28

let k_stats = 29

let app_notice_kind = k_app_notice

let packet_kind_code : type msg. msg Wire.packet -> int = function
  | Wire.App _ -> k_app
  | Wire.Ann _ -> k_ann
  | Wire.Notice _ -> k_notice
  | Wire.Ack _ -> k_ack
  | Wire.Flush_request _ -> k_flush_request
  | Wire.Dep_query _ -> k_dep_query
  | Wire.Dep_reply _ -> k_dep_reply
  | Wire.Join _ -> k_join
  | Wire.Retire _ -> k_retire

let put_dep b (pid, entry) =
  put_int b pid;
  put_entry b entry

let get_dep c =
  let pid = get_int c in
  let entry = get_entry c in
  (pid, entry)

let put_dep_info b = function
  | Wire.Gone -> put_bool b false
  | Wire.Info { stable; parents } ->
    put_bool b true;
    put_bool b stable;
    put_list b put_dep parents

let get_dep_info c =
  if not (get_bool c) then Wire.Gone
  else begin
    let stable = get_bool c in
    let parents = get_list c get_dep in
    Wire.Info { stable; parents }
  end

(* The App and Notice bodies are shared with the piggyback frame (kind
   [k_app_notice]), whose payload is the Notice fields followed by the App
   fields. *)
let put_app_body (wf : 'msg App_intf.wire_format) b (m : 'msg Wire.app_message) =
  put_identity b m.Wire.id;
  put_int b m.Wire.src;
  put_int b m.Wire.dst;
  put_entry b m.Wire.send_interval;
  put_list b put_dep m.Wire.dep;
  put_int b m.Wire.epoch;
  put_int b m.Wire.cseq;
  put_string b (wf.App_intf.write m.Wire.payload)

let put_notice_body b (n : Wire.notice) =
  put_int b n.Wire.from_;
  put_list b
    (fun b (pid, entries) ->
      put_int b pid;
      put_list b put_entry entries)
    n.Wire.rows;
  put_list b put_announcement n.Wire.anns;
  put_entry b n.Wire.floor

let get_notice_body c =
  let from_ = get_int c in
  let rows =
    get_list c (fun c ->
        let pid = get_int c in
        let entries = get_list c get_entry in
        (pid, entries))
  in
  let anns = get_list c get_announcement in
  let floor = get_entry c in
  { Wire.from_; rows; anns; floor }

(* The raw app fields; the application payload is returned undecoded so
   the caller can report its errors distinctly. *)
let get_app_fields c =
  let id = get_identity c in
  let src = get_int c in
  let dst = get_int c in
  let send_interval = get_entry c in
  let dep = get_list c get_dep in
  let epoch = get_int c in
  let cseq = get_int c in
  let payload = get_string c in
  (id, src, dst, send_interval, dep, epoch, cseq, payload)

let app_of_fields (wf : 'msg App_intf.wire_format)
    (id, src, dst, send_interval, dep, epoch, cseq, payload) =
  match wf.App_intf.read payload with
  | Error e -> Error (Printf.sprintf "app payload: %s" e)
  | Ok payload -> Ok { Wire.id; src; dst; send_interval; dep; payload; epoch; cseq }

let encode_packet (wf : 'msg App_intf.wire_format) (p : 'msg Wire.packet) =
  let b = Buffer.create 64 in
  (match p with
  | Wire.App m -> put_app_body wf b m
  | Wire.Ann a -> put_announcement b a
  | Wire.Notice n -> put_notice_body b n
  | Wire.Ack a ->
    put_int b a.Wire.from_;
    put_int b a.Wire.to_;
    put_list b put_identity a.Wire.ids
  | Wire.Flush_request { from_ } -> put_int b from_
  | Wire.Dep_query { from_; intervals } ->
    put_int b from_;
    put_list b put_entry intervals
  | Wire.Dep_reply { from_; infos } ->
    put_int b from_;
    put_list b
      (fun b (interval, info) ->
        put_entry b interval;
        put_dep_info b info)
      infos
  | Wire.Join { from_; n; current } ->
    put_int b from_;
    put_int b n;
    put_entry b current
  | Wire.Retire { from_; upto } ->
    put_int b from_;
    put_entry b upto);
  Codec.encode ~kind:(packet_kind_code p) (Buffer.contents b)

let decode_packet_body (wf : 'msg App_intf.wire_format) ~kind body =
  if kind = k_app then
    (* Two layers can reject an app message: the generic reader and the
       application's own payload format.  Both surface as [Error]. *)
    Result.bind (run get_app_fields body) (fun fields ->
        Result.map (fun m -> Wire.App m) (app_of_fields wf fields))
  else
    run
      (fun c ->
        if kind = k_ann then Wire.Ann (get_announcement c)
        else if kind = k_notice then Wire.Notice (get_notice_body c)
        else if kind = k_ack then begin
          let from_ = get_int c in
          let to_ = get_int c in
          let ids = get_list c get_identity in
          Wire.Ack { Wire.from_; to_; ids }
        end
        else if kind = k_flush_request then Wire.Flush_request { from_ = get_int c }
        else if kind = k_dep_query then begin
          let from_ = get_int c in
          let intervals = get_list c get_entry in
          Wire.Dep_query { from_; intervals }
        end
        else if kind = k_dep_reply then begin
          let from_ = get_int c in
          let infos =
            get_list c (fun c ->
                let interval = get_entry c in
                let info = get_dep_info c in
                (interval, info))
          in
          Wire.Dep_reply { from_; infos }
        end
        else if kind = k_join then begin
          let from_ = get_int c in
          let n = get_int c in
          let current = get_entry c in
          if from_ < 0 || n < from_ + 1 then failwith "bad join widths";
          Wire.Join { from_; n; current }
        end
        else if kind = k_retire then begin
          let from_ = get_int c in
          let upto = get_entry c in
          if from_ < 0 then failwith "bad retire pid";
          Wire.Retire { from_; upto }
        end
        else fail c (Printf.sprintf "unknown packet kind %d" kind))
      body

let decode_packet wf s =
  match decode_frame s ~pos:0 with
  | Error _ as e -> e
  | Ok (kind, body, next) ->
    if next <> String.length s then Error "trailing bytes after frame"
    else decode_packet_body wf ~kind body

(* ------------------------------------------------------------------ *)
(* Data frames with piggybacked logging progress

   An application message can carry the sender's current Notice in the
   same frame (kind [k_app_notice]: the notice body, then the app body),
   so logging-progress news rides data traffic instead of waiting for the
   notice timer; the standalone Notice packet remains the fallback for
   idle peers.  Without a piggyback, [encode_data] emits a plain App
   frame, byte-identical to [encode_packet (App m)]. *)

let encode_data (wf : 'msg App_intf.wire_format) ?piggyback
    (m : 'msg Wire.app_message) =
  let b = Buffer.create 64 in
  match piggyback with
  | None ->
    put_app_body wf b m;
    Codec.encode ~kind:k_app (Buffer.contents b)
  | Some notice ->
    put_notice_body b notice;
    put_app_body wf b m;
    Codec.encode ~kind:k_app_notice (Buffer.contents b)

let decode_data_body (wf : 'msg App_intf.wire_format) ~kind body =
  if kind = k_app then
    Result.bind (run get_app_fields body) (fun fields ->
        Result.map (fun m -> (m, None)) (app_of_fields wf fields))
  else if kind = k_app_notice then
    Result.bind
      (run
         (fun c ->
           let notice = get_notice_body c in
           let fields = get_app_fields c in
           (notice, fields))
         body)
      (fun (notice, fields) ->
        Result.map (fun m -> (m, Some notice)) (app_of_fields wf fields))
  else Error (Printf.sprintf "not a data frame (kind %d)" kind)

(* ------------------------------------------------------------------ *)
(* Control channel                                                     *)

type status = {
  st_up : bool;
  st_pending : int;
  st_send_buf : int;
  st_recv_buf : int;
  st_out_buf : int;
  st_deliveries : int;
  st_trace_len : int;
  st_current : Entry.t;
  st_recovering : bool;
  st_replay_pending : int;
}

type 'msg control =
  | Hello of { pid : int }
  | Inject of { seq : int; cseq : int; payload : 'msg }
  | Status_req
  | Status of status
  | Quit
  | Bye
  | Add_peer of { pid : int; port : int }
  | Retire_req
  | Arm_brownout of { rounds : int }
  | Stats_req
  | Stats of string

let control_kind_code : type msg. msg control -> int = function
  | Hello _ -> k_hello
  | Inject _ -> k_inject
  | Status_req -> k_status_req
  | Status _ -> k_status
  | Quit -> k_quit
  | Bye -> k_bye
  | Add_peer _ -> k_add_peer
  | Retire_req -> k_retire_req
  | Arm_brownout _ -> k_arm_brownout
  | Stats_req -> k_stats_req
  | Stats _ -> k_stats

(* A Hello's payload is the wire version, then the writer's pid: the one
   place a stream states its version, so a reader of another version is
   refused at the stream's first frame. *)
let get_hello c =
  let v = get_int c in
  if v <> version then failwith (Printf.sprintf "wire version %d (want %d)" v version);
  get_int c

let encode_control (wf : 'msg App_intf.wire_format) (c : 'msg control) =
  let b = Buffer.create 32 in
  (match c with
  | Hello { pid } ->
    put_int b version;
    put_int b pid
  | Inject { seq; cseq; payload } ->
    put_int b seq;
    put_int b cseq;
    put_string b (wf.App_intf.write payload)
  | Status_req | Quit | Bye | Retire_req | Stats_req -> ()
  | Stats text -> put_string b text
  | Add_peer { pid; port } ->
    put_int b pid;
    put_int b port
  | Arm_brownout { rounds } -> put_int b rounds
  | Status s ->
    put_bool b s.st_up;
    put_int b s.st_pending;
    put_int b s.st_send_buf;
    put_int b s.st_recv_buf;
    put_int b s.st_out_buf;
    put_int b s.st_deliveries;
    put_int b s.st_trace_len;
    put_entry b s.st_current;
    put_bool b s.st_recovering;
    put_int b s.st_replay_pending);
  Codec.encode ~kind:(control_kind_code c) (Buffer.contents b)

let decode_control_body (wf : 'msg App_intf.wire_format) ~kind body =
  if kind = k_inject then
    Result.bind
      (run
         (fun c ->
           let seq = get_int c in
           let cseq = get_int c in
           let payload = get_string c in
           (seq, cseq, payload))
         body)
      (fun (seq, cseq, payload) ->
        match wf.App_intf.read payload with
        | Error e -> Error (Printf.sprintf "inject payload: %s" e)
        | Ok payload -> Ok (Inject { seq; cseq; payload }))
  else
    run
      (fun c ->
        if kind = k_hello then Hello { pid = get_hello c }
        else if kind = k_status_req then Status_req
        else if kind = k_status then begin
          let st_up = get_bool c in
          let st_pending = get_int c in
          let st_send_buf = get_int c in
          let st_recv_buf = get_int c in
          let st_out_buf = get_int c in
          let st_deliveries = get_int c in
          let st_trace_len = get_int c in
          let st_current = get_entry c in
          let st_recovering = get_bool c in
          let st_replay_pending = get_int c in
          Status
            {
              st_up;
              st_pending;
              st_send_buf;
              st_recv_buf;
              st_out_buf;
              st_deliveries;
              st_trace_len;
              st_current;
              st_recovering;
              st_replay_pending;
            }
        end
        else if kind = k_quit then Quit
        else if kind = k_bye then Bye
        else if kind = k_add_peer then begin
          let pid = get_int c in
          let port = get_int c in
          Add_peer { pid; port }
        end
        else if kind = k_retire_req then Retire_req
        else if kind = k_stats_req then Stats_req
        else if kind = k_stats then Stats (get_string c)
        else if kind = k_arm_brownout then Arm_brownout { rounds = get_int c }
        else fail c (Printf.sprintf "unknown control kind %d" kind))
      body

let decode_control wf s =
  match decode_frame s ~pos:0 with
  | Error _ as e -> e
  | Ok (kind, body, next) ->
    if next <> String.length s then Error "trailing bytes after frame"
    else decode_control_body wf ~kind body

let hello ~pid = encode_control App_intf.string_wire_format (Hello { pid })

let greeting ~kind body =
  if kind <> k_hello then Error (Printf.sprintf "stream opened with kind %d, not Hello" kind)
  else run get_hello body

(* The header first, its length bounded before the payload is read, then
   the whole frame through the store's check. *)
let read_control wf fd =
  match read_exact fd Codec.header_bytes with
  | None -> None
  | Some header -> (
    let len = Codec.payload_length (Bytes.unsafe_of_string header) ~pos:0 in
    if len > max_frame_payload then None
    else
      match read_exact fd len with
      | None -> None
      | Some payload ->
        Result.to_option
          (Result.bind (decode_frame (header ^ payload) ~pos:0) (fun (kind, body, _) ->
               decode_control_body wf ~kind body)))
