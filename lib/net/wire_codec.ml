open Depend
module Wire = Recovery.Wire
module App_intf = App_model.App_intf
module Codec = Durable.Codec

let version = 5

let max_frame_payload = 16 * 1024 * 1024

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
(* Payload forms: each record's layout, written and read by one value   *)

module F = Durable.Form

let entry =
  F.record (fun inc sii -> Entry.make ~inc ~sii)
    F.[ (int, fun e -> e.Entry.inc); (int, fun e -> e.Entry.sii) ]

let identity =
  F.record (fun origin origin_interval idx -> { Wire.origin; origin_interval; idx })
    F.[ (int, fun i -> i.Wire.origin); (entry, fun i -> i.Wire.origin_interval);
        (int, fun i -> i.Wire.idx) ]

let announcement =
  F.record (fun from_ ending failure -> { Wire.from_; ending; failure })
    F.[ (int, fun (a : Wire.announcement) -> a.from_); (entry, fun a -> a.Wire.ending);
        (bool, fun a -> a.Wire.failure) ]

let output_id =
  F.record (fun out_interval out_idx -> { Wire.out_interval; out_idx })
    F.[ (entry, fun o -> o.Wire.out_interval); (int, fun o -> o.Wire.out_idx) ]

let dep = F.pair F.int entry

let notice =
  F.record (fun from_ rows anns floor -> { Wire.from_; rows; anns; floor })
    F.[ (int, fun (n : Wire.notice) -> n.from_);
        (list (pair int (list entry)), fun n -> n.Wire.rows);
        (list announcement, fun n -> n.Wire.anns); (entry, fun n -> n.Wire.floor) ]

(* The application payload stays the string the application's format
   writes and reads (see [with_payload] below): one form serves every
   application. *)
let app_message =
  F.record
    (fun id src dst send_interval dep epoch cseq payload ->
      { Wire.id; src; dst; send_interval; dep; payload; epoch; cseq })
    F.[ (identity, fun m -> m.Wire.id); (int, fun m -> m.Wire.src);
        (int, fun m -> m.Wire.dst); (entry, fun m -> m.Wire.send_interval);
        (list dep, fun m -> m.Wire.dep);
        (int, fun m -> m.Wire.epoch); (int, fun m -> m.Wire.cseq);
        (string, fun m -> m.Wire.payload) ]

(* A case's projections see only values of its own tag: the table picks
   the case by [packet_kind], [control_kind] or the tag byte. *)
let[@warning "-8"] dep_info =
  F.tagged
    (F.cases "dep-info tag"
       (function Wire.Gone -> 0 | Wire.Info _ -> 1)
       [ (0, F.record Wire.Gone F.[]);
         ( 1,
           F.record (fun stable parents -> Wire.Info { stable; parents })
             F.[ (bool, fun (Wire.Info i) -> i.stable);
                 (list dep, fun (Wire.Info i) -> i.parents) ] ) ])

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

let packet_kind : type msg. msg Wire.packet -> int = function
  | Wire.App _ -> k_app
  | Wire.Ann _ -> k_ann
  | Wire.Notice _ -> k_notice
  | Wire.Ack _ -> k_ack
  | Wire.Flush_request _ -> k_flush_request
  | Wire.Dep_query _ -> k_dep_query
  | Wire.Dep_reply _ -> k_dep_reply
  | Wire.Join _ -> k_join
  | Wire.Retire _ -> k_retire

let[@warning "-8"] packets =
  F.cases "packet kind" packet_kind
    [ (k_app, F.map (fun m -> Wire.App m) (fun (Wire.App m) -> m) app_message);
      (k_ann, F.map (fun a -> Wire.Ann a) (fun (Wire.Ann a) -> a) announcement);
      (k_notice, F.map (fun n -> Wire.Notice n) (fun (Wire.Notice n) -> n) notice);
      ( k_ack,
        F.record (fun from_ to_ ids -> Wire.Ack { Wire.from_; to_; ids })
          F.[ (int, fun (Wire.Ack a) -> a.Wire.from_);
              (int, fun (Wire.Ack a) -> a.Wire.to_);
              (list identity, fun (Wire.Ack a) -> a.Wire.ids) ] );
      ( k_flush_request,
        F.map
          (fun from_ -> Wire.Flush_request { from_ })
          (fun (Wire.Flush_request r) -> r.from_)
          F.int );
      ( k_dep_query,
        F.record (fun from_ intervals -> Wire.Dep_query { from_; intervals })
          F.[ (int, fun (Wire.Dep_query q) -> q.from_);
              (list entry, fun (Wire.Dep_query q) -> q.intervals) ] );
      ( k_dep_reply,
        F.record (fun from_ infos -> Wire.Dep_reply { from_; infos })
          F.[ (int, fun (Wire.Dep_reply r) -> r.from_);
              (list (pair entry dep_info), fun (Wire.Dep_reply r) -> r.infos) ] );
      ( k_join,
        F.record
          (fun from_ n current ->
            if from_ < 0 || n < from_ + 1 then failwith "bad join widths";
            Wire.Join { from_; n; current })
          F.[ (int, fun (Wire.Join j) -> j.from_); (int, fun (Wire.Join j) -> j.n);
              (entry, fun (Wire.Join j) -> j.current) ] );
      ( k_retire,
        F.record
          (fun from_ upto ->
            if from_ < 0 then failwith "bad retire pid";
            Wire.Retire { from_; upto })
          F.[ (int, fun (Wire.Retire r) -> r.from_);
              (entry, fun (Wire.Retire r) -> r.upto) ] ) ]

(* The application payload is the one field a type parameter reaches:
   the application's format writes it before a static form runs and
   reads it after.  Two layers can thus reject a payload, and both
   surface as [Error]. *)
exception Payload of string

(* [with_ read v]: [v] with its payload read by the application. *)
let decoded (wf : 'msg App_intf.wire_format) with_ = function
  | Error _ as e -> e
  | Ok v -> (
    let read s = match wf.App_intf.read s with Ok v -> v | Error e -> raise (Payload e) in
    try Ok (with_ read v) with Payload e -> Error ("application payload: " ^ e))

let with_payload f (m : _ Wire.app_message) = { m with Wire.payload = f m.Wire.payload }

let with_packet_payload f : _ Wire.packet -> _ Wire.packet = function
  | Wire.App m -> Wire.App (with_payload f m)
  | ( Wire.Ann _ | Wire.Notice _ | Wire.Ack _ | Wire.Flush_request _ | Wire.Dep_query _
    | Wire.Dep_reply _ | Wire.Join _ | Wire.Retire _ ) as p ->
    p

let encode_packet (wf : 'msg App_intf.wire_format) (p : 'msg Wire.packet) =
  F.frame packets (with_packet_payload wf.App_intf.write p)

let decode_packet_body wf ~kind body =
  decoded wf with_packet_payload (F.decode_kind packets ~kind body)

(* One whole frame, its payload read by [body]. *)
let decode_whole body s =
  match decode_frame s ~pos:0 with
  | Error _ as e -> e
  | Ok (kind, payload, next) ->
    if next <> String.length s then Error "trailing bytes after frame"
    else body ~kind payload

let decode_packet wf s = decode_whole (decode_packet_body wf) s

(* ------------------------------------------------------------------ *)
(* Data frames with piggybacked logging progress

   An application message can carry the sender's current Notice in the
   same frame (kind [k_app_notice]: the notice body, then the app body),
   so logging-progress news rides data traffic instead of waiting for the
   notice timer; the standalone Notice packet remains the fallback for
   idle peers.  Without a piggyback, a data frame is a plain App frame,
   byte-identical to [encode_packet (App m)]. *)

let[@warning "-8"] data =
  F.cases "data frame kind"
    (function _, None -> k_app | _, Some _ -> k_app_notice)
    [ (k_app, F.record (fun m -> (m, None)) F.[ (app_message, fst) ]);
      ( k_app_notice,
        F.record (fun n m -> (m, Some n))
          F.[ (notice, fun (_, Some n) -> n); (app_message, fst) ] ) ]

let encode_data (wf : 'msg App_intf.wire_format) ?piggyback (m : 'msg Wire.app_message) =
  F.frame data (with_payload wf.App_intf.write m, piggyback)

let decode_data_body wf ~kind body =
  decoded wf (fun read (m, n) -> (with_payload read m, n)) (F.decode_kind data ~kind body)

(* ------------------------------------------------------------------ *)
(* Registry snapshots                                                  *)

module Snap = Obs.Snapshot

(* [xs] when their keys strictly increase, else a [Failure] naming
   [what]: a repeat is refused as an inversion is. *)
let ascending what key xs =
  ignore
    (List.fold_left
       (fun prev x ->
         let k = key x in
         (match prev with
         | Some p when compare p k >= 0 -> failwith (what ^ " not strictly increasing")
         | _ -> ());
         Some k)
       None xs);
  xs

(* A histogram's non-empty buckets only, as strictly increasing
   (index, count) pairs: a sparse histogram costs what it holds. *)
let buckets =
  F.map
    (fun pairs ->
      let counts = Array.make Obs.Histogram.bucket_count 0 in
      List.iter
        (fun (i, n) ->
          if i < 0 || i >= Obs.Histogram.bucket_count then
            failwith (Printf.sprintf "bucket index %d out of range" i);
          if n <= 0 then failwith (Printf.sprintf "bucket %d count %d" i n);
          counts.(i) <- n)
        (ascending "bucket indices" fst pairs);
      counts)
    (fun counts ->
      let pairs = ref [] in
      for i = Array.length counts - 1 downto 0 do
        if counts.(i) <> 0 then pairs := (i, counts.(i)) :: !pairs
      done;
      !pairs)
    F.(list (pair int int))

let[@warning "-8"] sample_value =
  F.tagged
    (F.cases "snapshot value tag"
       (function Snap.Counter _ -> 0 | Snap.Gauge _ -> 1 | Snap.Hist _ -> 2)
       [ (0, F.map (fun c -> Snap.Counter c) (fun (Snap.Counter c) -> c) F.int);
         (1, F.map (fun g -> Snap.Gauge g) (fun (Snap.Gauge g) -> g) F.float);
         ( 2,
           F.record
             (fun sum minv maxv counts -> Snap.Hist { Snap.counts; sum; minv; maxv })
             F.[ (float, fun (Snap.Hist h) -> h.Snap.sum);
                 (float, fun (Snap.Hist h) -> h.Snap.minv);
                 (float, fun (Snap.Hist h) -> h.Snap.maxv);
                 (buckets, fun (Snap.Hist h) -> h.Snap.counts) ] ) ])

let labels = F.map (ascending "labels" Fun.id) Fun.id F.(list (pair string string))

let snapshot =
  F.map
    (fun samples -> Snap.of_bindings (ascending "samples" fst samples))
    Snap.bindings
    F.(list (pair (pair string labels) sample_value))

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

type control =
  | Hello of { pid : int }
  | Inject of { seq : int; cseq : int; payload : string }
  | Status_req
  | Status of status
  | Quit
  | Bye
  | Add_peer of { pid : int; port : int }
  | Retire_req
  | Arm_brownout of { rounds : int }
  | Stats_req
  | Stats of Obs.Snapshot.t

let control_kind = function
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
let hello_pid =
  F.record
    (fun v pid ->
      if v <> version then
        failwith (Printf.sprintf "wire version %d (want %d)" v version);
      pid)
    F.[ (int, fun _ -> version); (int, Fun.id) ]

let status =
  F.record
    (fun st_up st_pending st_send_buf st_recv_buf st_out_buf st_deliveries st_trace_len
         st_current st_recovering st_replay_pending ->
      { st_up; st_pending; st_send_buf; st_recv_buf; st_out_buf; st_deliveries;
        st_trace_len; st_current; st_recovering; st_replay_pending })
    F.[ (bool, fun s -> s.st_up); (int, fun s -> s.st_pending);
        (int, fun s -> s.st_send_buf); (int, fun s -> s.st_recv_buf);
        (int, fun s -> s.st_out_buf);
        (int, fun s -> s.st_deliveries); (int, fun s -> s.st_trace_len);
        (entry, fun s -> s.st_current); (bool, fun s -> s.st_recovering);
        (int, fun s -> s.st_replay_pending) ]

let[@warning "-8"] controls =
  F.cases "control kind" control_kind
    [ (k_hello, F.map (fun pid -> Hello { pid }) (fun (Hello h) -> h.pid) hello_pid);
      ( k_inject,
        F.record (fun seq cseq payload -> Inject { seq; cseq; payload })
          F.[ (int, fun (Inject i) -> i.seq); (int, fun (Inject i) -> i.cseq);
              (string, fun (Inject i) -> i.payload) ] );
      (k_status_req, F.record Status_req F.[]);
      (k_status, F.map (fun s -> Status s) (fun (Status s) -> s) status);
      (k_quit, F.record Quit F.[]);
      (k_bye, F.record Bye F.[]);
      ( k_add_peer,
        F.record (fun pid port -> Add_peer { pid; port })
          F.[ (int, fun (Add_peer a) -> a.pid); (int, fun (Add_peer a) -> a.port) ] );
      (k_retire_req, F.record Retire_req F.[]);
      ( k_arm_brownout,
        F.map
          (fun rounds ->
            if rounds < 0 then failwith "negative brownout rounds";
            Arm_brownout { rounds })
          (fun (Arm_brownout a) -> a.rounds)
          F.int );
      (k_stats_req, F.record Stats_req F.[]);
      (k_stats, F.map (fun snap -> Stats snap) (fun (Stats snap) -> snap) snapshot) ]

let encode_control c = F.frame controls c

let decode_control_body ~kind body = F.decode_kind controls ~kind body

let decode_control s = decode_whole decode_control_body s

let hello ~pid = F.frame controls (Hello { pid })

let snapshot_file ~pid snap = hello ~pid ^ F.frame controls (Stats snap)

let decode_snapshots s =
  let frame ((snaps, damage) as acc) ~pos kind body =
    let fail e = (snaps, Some (Printf.sprintf "damaged at byte %d: %s" pos e)) in
    if damage <> None then acc
    else
      match F.decode_kind controls ~kind body with
      | Ok (Hello _) -> acc
      | Ok (Stats snap) when pos > 0 -> (snap :: snaps, None)
      | Ok _ -> fail (Printf.sprintf "kind %d where a Hello or a snapshot belongs" kind)
      | Error e -> fail e
  in
  let (snaps, damage), valid, tail = Codec.fold s ~init:([], None) ~f:frame in
  let damage =
    match (damage, tail) with
    | Some _, _ | None, Codec.Clean -> damage
    | None, Codec.Torn -> Some (Printf.sprintf "damaged at byte %d: torn frame" valid)
    | None, Codec.Corrupt_tail ->
      Some (Printf.sprintf "damaged at byte %d: bad frame magic or checksum" valid)
  in
  (Obs.Snapshot.merge_all snaps, damage)

let greeting ~kind body =
  if kind <> k_hello then Error (Printf.sprintf "stream opened with kind %d, not Hello" kind)
  else F.decode hello_pid body

(* The header first, its length bounded before the payload is read, then
   the whole frame through the store's check. *)
let read_frame fd =
  match read_exact fd Codec.header_bytes with
  | None -> None
  | Some header -> (
    let len = Codec.payload_length (Bytes.unsafe_of_string header) ~pos:0 in
    if len > max_frame_payload then None
    else
      match read_exact fd len with
      | None -> None
      | Some payload -> (
        match decode_frame (header ^ payload) ~pos:0 with
        | Ok (kind, body, _) -> Some (kind, body)
        | Error _ -> None))

let read_control fd =
  Option.bind (read_frame fd) (fun (kind, body) ->
      Result.to_option (decode_control_body ~kind body))
