(* Wire-codec properties, mirroring the durable-codec suite in
   test_fuzz.ml: every packet/control/trace value round-trips exactly, and
   no single-byte mutation of a frame can decode to a *different* valid
   value — the CRC covers the version, kind and length fields as well as
   the payload, so corruption is always reported, never reinterpreted. *)

open Util
module Wire = Recovery.Wire
module Trace = Recovery.Trace
module Wire_codec = Net.Wire_codec
module Trace_codec = Net.Trace_codec

let swf = App_model.App_intf.string_wire_format

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

open QCheck2.Gen

let gen_pid = int_bound 7

let gen_payload = string_size (int_bound 40)

(* Exact binary64 values that survive the float <-> bits round trip and
   compare with (=): built from integers. *)
let gen_time = map2 (fun a b -> float_of_int a +. (float_of_int b /. 64.)) (int_bound 10_000) (int_bound 63)

let gen_identity =
  map3
    (fun origin origin_interval idx -> { Wire.origin; origin_interval; idx })
    (int_range (-1) 7) gen_entry (int_bound 4)

let gen_dep = list_size (int_bound 6) (pair gen_pid gen_entry)

let gen_app_message =
  map
    (fun (id, (src, dst), send_interval, dep, payload) ->
      { Wire.id; src; dst; send_interval; dep; payload })
    (tup5 gen_identity (pair gen_pid gen_pid) gen_entry gen_dep gen_payload)

let gen_announcement =
  map3
    (fun from_ ending failure -> { Wire.from_; ending; failure })
    gen_pid gen_entry bool

let gen_notice =
  map3
    (fun from_ rows anns -> { Wire.from_; rows; anns })
    gen_pid
    (list_size (int_bound 4) (pair gen_pid (list_size (int_bound 3) gen_entry)))
    (list_size (int_bound 3) gen_announcement)

let gen_ack =
  map3
    (fun from_ to_ ids -> { Wire.from_; to_; ids })
    gen_pid gen_pid
    (list_size (int_bound 5) gen_identity)

let gen_dep_info =
  frequency
    [
      (1, return Wire.Gone);
      ( 3,
        map2
          (fun stable parents -> Wire.Info { stable; parents })
          bool gen_dep );
    ]

let gen_packet =
  frequency
    [
      (4, map (fun m -> Wire.App m) gen_app_message);
      (2, map (fun a -> Wire.Ann a) gen_announcement);
      (2, map (fun n -> Wire.Notice n) gen_notice);
      (2, map (fun a -> Wire.Ack a) gen_ack);
      (1, map (fun from_ -> Wire.Flush_request { from_ }) gen_pid);
      ( 1,
        map2
          (fun from_ intervals -> Wire.Dep_query { from_; intervals })
          gen_pid (list_size (int_bound 5) gen_entry) );
      ( 1,
        map2
          (fun from_ infos -> Wire.Dep_reply { from_; infos })
          gen_pid
          (list_size (int_bound 4) (pair gen_entry gen_dep_info)) );
    ]

let gen_status =
  map
    (fun (((up, pending), (sb, rb), (ob, del), (tl, cur)), (recovering, rp)) ->
      {
        Wire_codec.st_up = up;
        st_pending = pending;
        st_send_buf = sb;
        st_recv_buf = rb;
        st_out_buf = ob;
        st_deliveries = del;
        st_trace_len = tl;
        st_current = cur;
        st_recovering = recovering;
        st_replay_pending = rp;
      })
    (pair
       (tup4 (pair bool small_nat) (pair small_nat small_nat)
          (pair small_nat small_nat) (pair small_nat gen_entry))
       (pair bool small_nat))

let gen_tick = oneofl [ `Flush; `Checkpoint; `Notice ]

let gen_control =
  frequency
    [
      (1, map (fun pid -> Wire_codec.Hello { pid }) gen_pid);
      ( 3,
        map2
          (fun seq payload -> Wire_codec.Inject { seq; payload })
          small_nat gen_payload );
      (1, map (fun t -> Wire_codec.Tick t) gen_tick);
      (1, return Wire_codec.Crash);
      (1, return Wire_codec.Status_req);
      (1, map (fun s -> Wire_codec.Status s) gen_status);
      (1, return Wire_codec.Quit);
      (1, return Wire_codec.Bye);
      (1, map2 (fun pid port -> Wire_codec.Add_peer { pid; port }) gen_pid small_nat);
      (1, return Wire_codec.Retire_req);
      ( 1,
        map2
          (fun slow rounds -> Wire_codec.Arm_brownout { slow; rounds })
          (option gen_time) (int_bound 5) );
      (1, return Wire_codec.Stats_req);
      (* Stats carries an opaque exposition text; the codec must pass any
         bytes through, newlines and quotes included. *)
      (1, map (fun s -> Wire_codec.Stats s) (string_size (int_bound 200)));
    ]

let gen_output_id =
  map2 (fun out_interval out_idx -> { Wire.out_interval; out_idx }) gen_entry (int_bound 5)

let gen_event =
  frequency
    [
      ( 3,
        map
          (fun ((pid, interval), (pred, by), (sender_interval, digest), replay) ->
            Trace.Interval_started
              { pid; interval; pred; by; sender_interval; digest; replay })
          (tup4 (pair gen_pid gen_entry)
             (pair (option gen_entry) (option gen_identity))
             (pair (option gen_entry) int)
             bool) );
      ( 2,
        map
          (fun (id, (src, dst), send_interval) ->
            Trace.Message_sent { id; src; dst; send_interval })
          (triple gen_identity (pair gen_pid gen_pid) gen_entry) );
      ( 2,
        map4
          (fun id dep_size wire_vector blocked ->
            Trace.Message_released { id; dep_size; wire_vector; blocked })
          gen_identity (int_bound 8) (int_bound 8) gen_time );
      ( 2,
        map4
          (fun id dst interval waited ->
            Trace.Message_delivered { id; dst; interval; waited })
          gen_identity gen_pid gen_entry gen_time );
      ( 1,
        map3
          (fun id dst orphan ->
            Trace.Message_discarded
              {
                id;
                dst;
                reason = (if orphan then Trace.Orphan_message else Trace.Duplicate);
              })
          gen_identity gen_pid bool );
      (1, map2 (fun id src -> Trace.Send_cancelled { id; src }) gen_identity gen_pid);
      (1, map2 (fun pid upto -> Trace.Stability_advanced { pid; upto }) gen_pid gen_entry);
      ( 1,
        map2 (fun pid interval -> Trace.Checkpoint_taken { pid; interval }) gen_pid gen_entry
      );
      ( 1,
        map2
          (fun pid first_lost -> Trace.Crashed { pid; first_lost })
          gen_pid (option gen_entry) );
      ( 1,
        map3
          (fun pid announced new_current -> Trace.Restarted { pid; announced; new_current })
          gen_pid gen_announcement gen_entry );
      ( 1,
        map
          (fun ((pid, restored), (first_undone, new_current), because) ->
            Trace.Rolled_back { pid; restored; first_undone; new_current; because })
          (triple (pair gen_pid gen_entry) (pair gen_entry gen_entry) gen_announcement)
      );
      ( 1,
        map2
          (fun pid ann -> Trace.Announcement_received { pid; ann })
          gen_pid gen_announcement );
      (1, map2 (fun pid entries -> Trace.Notice_sent { pid; entries }) gen_pid small_nat);
      ( 1,
        map3
          (fun pid id text -> Trace.Output_buffered { pid; id; text })
          gen_pid gen_output_id gen_payload );
      ( 1,
        map
          (fun (pid, id, text, latency) ->
            Trace.Output_committed { pid; id; text; latency })
          (tup4 gen_pid gen_output_id gen_payload gen_time) );
    ]

let gen_trace_entry =
  map3 (fun time seq ev -> { Trace.time; seq; ev }) gen_time small_nat gen_event

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)

let test_packet_roundtrip =
  qtest ~count:1000 "packet: decode inverts encode (every kind)" gen_packet
    (fun packet ->
      match Wire_codec.decode_packet swf (Wire_codec.encode_packet swf packet) with
      | Ok p -> p = packet
      | Error _ -> false)

let test_control_roundtrip =
  qtest ~count:500 "control: decode inverts encode (every kind)" gen_control
    (fun ctl ->
      match Wire_codec.decode_control swf (Wire_codec.encode_control swf ctl) with
      | Ok c -> c = ctl
      | Error _ -> false)

let test_trace_roundtrip =
  qtest ~count:1000 "trace entry: decode inverts encode (every event)"
    gen_trace_entry (fun entry ->
      match Trace_codec.decode_entry (Trace_codec.encode_entry entry) with
      | Ok e -> e = entry
      | Error _ -> false)

let kv_wire = App_model.Kvstore_app.wire

let gen_kv_msg =
  let key = string_size (int_bound 12) in
  frequency
    [
      ( 2,
        map2 (fun key value -> App_model.Kvstore_app.Put { key; value }) key int );
      ( 1,
        map3
          (fun key value version ->
            App_model.Kvstore_app.Replica { key; value; version })
          key int small_nat );
      (1, map (fun k -> App_model.Kvstore_app.Get k) key);
    ]

let test_kv_roundtrip =
  qtest ~count:500 "kvstore payload: read inverts write" gen_kv_msg (fun msg ->
      match kv_wire.App_model.App_intf.read (kv_wire.App_model.App_intf.write msg) with
      | Ok m -> m = msg
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Data frames: piggybacked notices and coalesced batches              *)

let test_data_frame_roundtrip =
  qtest ~count:800 "data frame: piggybacked notice rides along and round-trips"
    (tup2 gen_app_message (option gen_notice))
    (fun (m, piggyback) ->
      let frame = Wire_codec.encode_data swf ?piggyback m in
      (* without a notice the frame is byte-identical to a plain App packet *)
      (match piggyback with
      | None -> frame = Wire_codec.encode_packet swf (Wire.App m)
      | Some _ -> true)
      &&
      match Wire_codec.decode_frame frame ~pos:0 with
      | Error _ -> false
      | Ok (kind, body, next) -> (
        next = String.length frame
        &&
        match Wire_codec.decode_data_body swf ~kind body with
        | Ok (m', nt') -> m' = m && nt' = piggyback
        | Error _ -> false))

(* The transport's writer coalesces its whole queue into one write.
   Frames are self-delimiting, so a reader walking the concatenation must
   recover exactly the per-frame sequence — and a tear mid-batch (the
   connection dying partway through the single syscall) must still yield
   a true prefix, never a reinterpreted frame. *)
let gen_frame =
  frequency
    [
      (3, map (Wire_codec.encode_packet swf) gen_packet);
      ( 2,
        map2
          (fun m notice -> Wire_codec.encode_data swf ?piggyback:notice m)
          gen_app_message (option gen_notice) );
    ]

let test_coalesced_batch_decodes_like_per_frame =
  qtest ~count:500
    "coalesced batch: one write decodes to the per-frame sequence (even torn)"
    (tup2 (list_size (int_range 1 8) gen_frame) (int_bound 100_000))
    (fun (frames, cut_seed) ->
      let batch = String.concat "" frames in
      let walk s =
        let rec loop pos acc =
          if pos >= String.length s then List.rev acc
          else
            match Wire_codec.decode_frame s ~pos with
            | Ok (kind, body, next) -> loop next ((kind, body) :: acc)
            | Error _ -> List.rev acc
        in
        loop 0 []
      in
      let expected =
        List.map
          (fun f ->
            match Wire_codec.decode_frame f ~pos:0 with
            | Ok (kind, body, _) -> (kind, body)
            | Error e -> Alcotest.failf "generated frame undecodable: %s" e)
          frames
      in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      walk batch = expected
      &&
      let cut = cut_seed mod (String.length batch + 1) in
      is_prefix (walk (String.sub batch 0 cut)) expected)

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)

let test_packet_single_byte_mutation =
  qtest ~count:1500
    "packet: no single-byte mutation decodes to a different valid packet"
    (tup3 gen_packet (int_bound 100_000) (int_range 1 255))
    (fun (packet, off_seed, xor) ->
      let frame = Wire_codec.encode_packet swf packet in
      let off = off_seed mod String.length frame in
      let mutated = Bytes.of_string frame in
      Bytes.set mutated off (Char.chr (Char.code (Bytes.get mutated off) lxor xor));
      match Wire_codec.decode_packet swf (Bytes.to_string mutated) with
      | Error _ -> true (* detected *)
      | Ok p -> p = packet (* a mutation may never fabricate a new packet *))

let test_kv_payload_mutation =
  qtest ~count:800 "kvstore payload: mutation is an error or the same value"
    (tup3 gen_kv_msg (int_bound 100_000) (int_range 1 255))
    (fun (msg, off_seed, xor) ->
      let s = kv_wire.App_model.App_intf.write msg in
      if String.length s = 0 then true
      else begin
        let off = off_seed mod String.length s in
        let mutated = Bytes.of_string s in
        Bytes.set mutated off (Char.chr (Char.code (Bytes.get mutated off) lxor xor));
        (* The frame CRC catches wire corruption before the payload reader
           runs; what the reader itself owes us on arbitrary bytes is an
           [Error] or a value — never an exception. *)
        match kv_wire.App_model.App_intf.read (Bytes.to_string mutated) with
        | Error _ | Ok _ -> true
        | exception _ -> false
      end)

(* A trace file cut at an arbitrary byte (the SIGKILL torn tail) loads as
   a true prefix, with the damage reported. *)
let test_trace_stream_tear =
  qtest ~count:500 "trace stream: a torn tail loads as a reported true prefix"
    (tup2 (list_size (int_range 1 6) gen_trace_entry) (int_bound 100_000))
    (fun (entries, cut_seed) ->
      let whole = String.concat "" (List.map Trace_codec.encode_entry entries) in
      let cut = cut_seed mod (String.length whole + 1) in
      let torn = String.sub whole 0 cut in
      let load = Trace_codec.decode_stream torn in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      is_prefix load.Trace_codec.entries entries
      &&
      (* no silent truncation: an undamaged load accounted for every byte *)
      match load.Trace_codec.damage with
      | None ->
        String.concat "" (List.map Trace_codec.encode_entry load.Trace_codec.entries)
        = torn
      | Some _ -> true)

let suite =
  [
    test_packet_roundtrip;
    test_control_roundtrip;
    test_trace_roundtrip;
    test_kv_roundtrip;
    test_data_frame_roundtrip;
    test_coalesced_batch_decodes_like_per_frame;
    test_packet_single_byte_mutation;
    test_kv_payload_mutation;
    test_trace_stream_tear;
  ]
