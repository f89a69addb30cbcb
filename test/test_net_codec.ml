(* Wire-codec properties, mirroring the durable-codec suite in
   test_fuzz.ml: every packet/control/trace value round-trips exactly, and
   no single-byte mutation of a frame can decode to a *different* valid
   value — frames are the store's Codec frames, whose CRC covers the kind
   and length fields as well as the payload, so corruption is always
   reported, never reinterpreted.  Store records and wire frames are read
   by each other's readers, and a stream that opens with a Hello of
   another wire version is refused. *)

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
    (fun ((id, (src, dst), send_interval, dep, payload), (epoch, cseq)) ->
      { Wire.id; src; dst; send_interval; dep; payload; epoch; cseq })
    (pair
       (tup5 gen_identity (pair gen_pid gen_pid) gen_entry gen_dep gen_payload)
       (pair small_nat (int_range (-1) 1000)))

let gen_announcement =
  map3
    (fun from_ ending failure -> { Wire.from_; ending; failure })
    gen_pid gen_entry bool

let gen_notice =
  map4
    (fun from_ rows anns floor -> { Wire.from_; rows; anns; floor })
    gen_pid
    (list_size (int_bound 4) (pair gen_pid (list_size (int_bound 3) gen_entry)))
    (list_size (int_bound 3) gen_announcement)
    gen_entry

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
      ( 1,
        map3
          (fun from_ extra current -> Wire.Join { from_; n = from_ + 1 + extra; current })
          gen_pid (int_bound 3) gen_entry );
      (1, map2 (fun from_ upto -> Wire.Retire { from_; upto }) gen_pid gen_entry);
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

(* Snapshots whose floats are exact and never nan, so (=) compares them
   as the round-trip laws do: distinct keys, sorted labels, histograms
   with at least one observation. *)
let gen_snapshot =
  let gen_value =
    oneof
      [
        map (fun c -> Obs.Snapshot.Counter c) (int_range (-5) 1_000_000);
        map (fun g -> Obs.Snapshot.Gauge g) gen_time;
        map4
          (fun buckets sum minv maxv ->
            let counts = Array.make Obs.Histogram.bucket_count 0 in
            List.iter (fun (i, n) -> counts.(i) <- counts.(i) + n) buckets;
            Obs.Snapshot.Hist { Obs.Snapshot.counts; sum; minv; maxv })
          (list_size (int_range 1 6)
             (pair (int_bound (Obs.Histogram.bucket_count - 1)) (int_range 1 50)))
          gen_time gen_time gen_time;
      ]
  in
  let gen_key =
    pair
      (oneofl [ "deliveries_total"; "fsync_seconds"; "x" ])
      (oneofl [ []; [ ("phase", "flush") ]; [ ("phase", "a \"b\"\n"); ("shard", "1") ] ])
  in
  map
    (fun samples ->
      let seen = Hashtbl.create 8 in
      Obs.Snapshot.of_bindings
        (List.filter
           (fun (k, _) -> (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
           samples))
    (list_size (int_bound 8) (pair gen_key gen_value))

let gen_control =
  frequency
    [
      (1, map (fun pid -> Wire_codec.Hello { pid }) gen_pid);
      ( 3,
        map3
          (fun seq cseq payload -> Wire_codec.Inject { seq; cseq; payload })
          small_nat small_nat gen_payload );
      (1, return Wire_codec.Status_req);
      (1, map (fun s -> Wire_codec.Status s) gen_status);
      (1, return Wire_codec.Quit);
      (1, return Wire_codec.Bye);
      (1, map2 (fun pid port -> Wire_codec.Add_peer { pid; port }) gen_pid small_nat);
      (1, return Wire_codec.Retire_req);
      (1, map (fun rounds -> Wire_codec.Arm_brownout { rounds }) (int_bound 5));
      (1, return Wire_codec.Stats_req);
      (1, map (fun s -> Wire_codec.Stats s) gen_snapshot);
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
      ( 1,
        map2 (fun pid replayed -> Trace.Recovery_completed { pid; replayed }) gen_pid small_nat
      );
    ]

let gen_trace_entry =
  map3 (fun time seq ev -> { Trace.time; seq; ev }) gen_time small_nat gen_event

let gen_frame =
  frequency
    [
      (3, map (Wire_codec.encode_packet swf) gen_packet);
      ( 2,
        map2
          (fun m notice -> Wire_codec.encode_data swf ?piggyback:notice m)
          gen_app_message (option gen_notice) );
    ]

(* ------------------------------------------------------------------ *)
(* Byte fixture                                                        *)

(* One fixed value of every packet kind, data frame, control, trace event
   and kv and shard message, with its bytes in test/golden/wire_frames.hex
   (one "name hex" line each).  The file was written by the hand-written
   encoders the payload forms replaced: encoding each value must give its
   line's bytes, and decoding the line must give the value back.  A
   round-trip law cannot see an encoder and a decoder that change
   together; this can. *)

type fixture =
  | Fixture : {
      name : string;
      value : 'a;
      encode : 'a -> string;
      decode : string -> ('a, string) result;
    }
      -> fixture

let fixture_path = "golden/wire_frames.hex"

let fixtures =
  let e inc sii = Depend.Entry.make ~inc ~sii in
  let id = { Wire.origin = 3; origin_interval = e 1 42; idx = 2 } in
  let client = { Wire.origin = -1; origin_interval = e 0 7; idx = 0 } in
  let ann = { Wire.from_ = 2; ending = e 1 9; failure = true } in
  let notice =
    {
      Wire.from_ = 1;
      rows = [ (0, [ e 0 3; e 1 5 ]); (2, []) ];
      anns = [ ann; { ann with Wire.from_ = 0; failure = false } ];
      floor = e 1 4;
    }
  in
  let app =
    {
      Wire.id;
      src = 3;
      dst = 5;
      send_interval = e 1 42;
      dep = [ (0, e 0 10); (4, e 2 11) ];
      payload = "put k 7";
      epoch = 1;
      cseq = -1;
    }
  in
  let packet name p =
    Fixture
      {
        name;
        value = p;
        encode = Wire_codec.encode_packet swf;
        decode = Wire_codec.decode_packet swf;
      }
  in
  let data name piggyback =
    Fixture
      {
        name;
        value = (app, piggyback);
        encode = (fun (m, piggyback) -> Wire_codec.encode_data swf ?piggyback m);
        decode =
          (fun s ->
            Result.bind (Wire_codec.decode_frame s ~pos:0) (fun (kind, body, _) ->
                Wire_codec.decode_data_body swf ~kind body));
      }
  in
  let control name c =
    Fixture
      {
        name;
        value = c;
        encode = Wire_codec.encode_control;
        decode = Wire_codec.decode_control;
      }
  in
  let trace name ev =
    Fixture
      {
        name;
        value = { Trace.time = 12.625; seq = 31; ev };
        encode = Trace_codec.encode_entry;
        decode = Trace_codec.decode_entry;
      }
  in
  let payload name wire m =
    Fixture
      {
        name;
        value = m;
        encode = wire.App_model.App_intf.write;
        decode = wire.App_model.App_intf.read;
      }
  in
  let kv = App_model.Kvstore_app.wire and shard = Shardkv.Shard_app.wire in
  let out = { Wire.out_interval = e 2 6; out_idx = 1 } in
  [
    packet "packet-app" (Wire.App app);
    packet "packet-ann" (Wire.Ann ann);
    packet "packet-notice" (Wire.Notice notice);
    packet "packet-ack" (Wire.Ack { Wire.from_ = 5; to_ = 3; ids = [ id; client ] });
    packet "packet-flush-request" (Wire.Flush_request { from_ = 4 });
    packet "packet-dep-query" (Wire.Dep_query { from_ = 1; intervals = [ e 0 2; e 3 8 ] });
    packet "packet-dep-reply"
      (Wire.Dep_reply
         {
           from_ = 2;
           infos =
             [
               (e 1 3, Wire.Info { stable = false; parents = [ (0, e 0 5); (3, e 1 1) ] });
               (e 1 4, Wire.Gone);
               (e 2 5, Wire.Info { stable = true; parents = [] });
             ];
         });
    packet "packet-join" (Wire.Join { from_ = 3; n = 4; current = e 0 1 });
    packet "packet-retire" (Wire.Retire { from_ = 2; upto = e 1 17 });
    data "data-plain" None;
    data "data-piggyback" (Some notice);
    control "control-hello" (Wire_codec.Hello { pid = -1 });
    control "control-inject" (Wire_codec.Inject { seq = 9; cseq = 4; payload = "get k" });
    control "control-status-req" Wire_codec.Status_req;
    control "control-status"
      (Wire_codec.Status
         {
           Wire_codec.st_up = true;
           st_pending = 1;
           st_send_buf = 2;
           st_recv_buf = 3;
           st_out_buf = 4;
           st_deliveries = 500;
           st_trace_len = 6;
           st_current = e 1 77;
           st_recovering = false;
           st_replay_pending = 8;
         });
    control "control-quit" Wire_codec.Quit;
    control "control-bye" Wire_codec.Bye;
    control "control-add-peer" (Wire_codec.Add_peer { pid = 4; port = 40123 });
    control "control-retire-req" Wire_codec.Retire_req;
    control "control-arm-brownout" (Wire_codec.Arm_brownout { rounds = 3 });
    control "control-stats-req" Wire_codec.Stats_req;
    control "control-stats"
      (Wire_codec.Stats
         (Obs.Snapshot.of_bindings
            [
              (("deliveries_total", []), Obs.Snapshot.Counter 500);
              (("batch_high_water", []), Obs.Snapshot.Gauge 12.);
              ( ("fsync_seconds", [ ("phase", "flush") ]),
                Obs.Snapshot.Hist
                  {
                    Obs.Snapshot.counts =
                      Array.init Obs.Histogram.bucket_count (function
                        | 20 -> 3
                        | 22 -> 1
                        | _ -> 0);
                    sum = 0.0068359375;
                    minv = 0.0009765625;
                    maxv = 0.00390625;
                  } );
            ]));
    trace "trace-interval-started"
      (Trace.Interval_started
         {
           pid = 1;
           interval = e 0 4;
           pred = Some (e 0 3);
           by = Some id;
           sender_interval = None;
           digest = -123456789;
           replay = true;
         });
    trace "trace-message-sent"
      (Trace.Message_sent { id; src = 3; dst = 5; send_interval = e 1 42 });
    trace "trace-message-released"
      (Trace.Message_released { id; dep_size = 2; wire_vector = 4; blocked = 0.5 });
    trace "trace-message-delivered"
      (Trace.Message_delivered { id; dst = 5; interval = e 0 9; waited = 1.25 });
    trace "trace-message-discarded"
      (Trace.Message_discarded { id; dst = 5; reason = Trace.Duplicate });
    trace "trace-send-cancelled" (Trace.Send_cancelled { id; src = 3 });
    trace "trace-stability-advanced" (Trace.Stability_advanced { pid = 2; upto = e 1 6 });
    trace "trace-checkpoint-taken" (Trace.Checkpoint_taken { pid = 0; interval = e 0 12 });
    trace "trace-crashed" (Trace.Crashed { pid = 4; first_lost = Some (e 1 3) });
    trace "trace-restarted"
      (Trace.Restarted { pid = 2; announced = ann; new_current = e 2 10 });
    trace "trace-rolled-back"
      (Trace.Rolled_back
         {
           pid = 1;
           restored = e 0 5;
           first_undone = e 0 6;
           new_current = e 1 7;
           because = ann;
         });
    trace "trace-announcement-received"
      (Trace.Announcement_received { pid = 0; ann });
    trace "trace-notice-sent" (Trace.Notice_sent { pid = 3; entries = 11 });
    trace "trace-output-buffered"
      (Trace.Output_buffered { pid = 1; id = out; text = "get k -> 7 (v2)" });
    trace "trace-output-committed"
      (Trace.Output_committed { pid = 1; id = out; text = "mp:3 ok"; latency = 0.0625 });
    trace "trace-recovery-completed" (Trace.Recovery_completed { pid = 2; replayed = 40 });
    payload "kv-put" kv (App_model.Kvstore_app.Put { key = "alpha"; value = -5 });
    payload "kv-replica" kv
      (App_model.Kvstore_app.Replica { key = "beta"; value = 6; version = 2 });
    payload "kv-get" kv (App_model.Kvstore_app.Get "gamma");
    payload "shard-put" shard (Shardkv.Shard_app.Put { key = "alpha"; value = 1 });
    payload "shard-get" shard (Shardkv.Shard_app.Get { g = 12; key = "beta" });
    payload "shard-multi-put" shard
      (Shardkv.Shard_app.Multi_put { m = 3; pairs = [ ("a", 1); ("bb", -2) ] });
    payload "shard-mp-apply" shard
      (Shardkv.Shard_app.Mp_apply { m = 3; coord = 0; pairs = [ ("c", 3) ] });
    payload "shard-mp-ack" shard (Shardkv.Shard_app.Mp_ack { m = 3; from_ = 2 });
    payload "shard-grow" shard (Shardkv.Shard_app.Grow { w = 5 });
    payload "shard-retire-shard" shard (Shardkv.Shard_app.Retire_shard { shard = 1 });
  ]

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_byte_fixture () =
  let lines =
    In_channel.with_open_bin fixture_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Alcotest.(check int) "one line per fixed value" (List.length fixtures)
    (List.length lines);
  List.iter2
    (fun (Fixture f) line ->
      match String.split_on_char ' ' line with
      | [ name; h ] ->
        Alcotest.(check string) "names in order" f.name name;
        Alcotest.(check string)
          (name ^ ": encoding keeps the bytes")
          h
          (hex (f.encode f.value));
        Alcotest.(check bool) (name ^ ": the bytes decode to the value") true
          (f.decode (unhex h) = Ok f.value)
      | _ -> Alcotest.failf "malformed fixture line %S" line)
    fixtures lines

(* ------------------------------------------------------------------ *)
(* One law for every top-level form                                    *)

let kv_wire = App_model.Kvstore_app.wire

let shard_wire = Shardkv.Shard_app.wire

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

let gen_shard_msg =
  let open Shardkv.Shard_app in
  let key = string_size (int_bound 12) in
  let pairs = list_size (int_bound 4) (pair key int) in
  oneof
    [
      map2 (fun key value -> Put { key; value }) key int;
      map2 (fun g key -> Get { g; key }) small_nat key;
      map2 (fun m pairs -> Multi_put { m; pairs }) small_nat pairs;
      map3 (fun m coord pairs -> Mp_apply { m; coord; pairs }) small_nat gen_pid pairs;
      map2 (fun m from_ -> Mp_ack { m; from_ }) small_nat gen_pid;
      map (fun w -> Grow { w }) (int_bound 16);
      map (fun shard -> Retire_shard { shard }) gen_pid;
    ]

(* Encode-then-decode is the identity. *)
let roundtrip ?(count = 500) name gen encode decode =
  qtest ~count name gen (fun v -> decode (encode v) = Ok v)

let test_packet_roundtrip =
  roundtrip ~count:1000 "packet: decode inverts encode (every kind)" gen_packet
    (Wire_codec.encode_packet swf) (Wire_codec.decode_packet swf)

let test_control_roundtrip =
  roundtrip "control: decode inverts encode (every kind)" gen_control
    (Wire_codec.encode_control) (Wire_codec.decode_control)

let test_trace_roundtrip =
  roundtrip ~count:1000 "trace entry: decode inverts encode (every event)" gen_trace_entry
    Trace_codec.encode_entry Trace_codec.decode_entry

let test_kv_roundtrip =
  roundtrip "kvstore payload: read inverts write" gen_kv_msg
    kv_wire.App_model.App_intf.write kv_wire.App_model.App_intf.read

let test_shard_roundtrip =
  roundtrip "shardkv payload: read inverts write" gen_shard_msg
    shard_wire.App_model.App_intf.write shard_wire.App_model.App_intf.read

(* Decoding any bytes returns, never raises: each payload decoder is fed
   the payload of a valid value, unchanged, cut short, with an 8-byte
   field overwritten by a length near [max_int] or a negative one, or
   replaced by random bytes under a random kind.  A trace entry goes
   through the file loader, which must report what it cannot decode, and
   a metrics file's bytes through the snapshot file decoder. *)
let payload frame =
  let h = Durable.Codec.header_bytes in
  (Char.code frame.[1], String.sub frame h (String.length frame - h))

let decoders =
  let ignore_result r = match r with Ok _ | Error _ -> () in
  [
    ( map (fun p -> payload (Wire_codec.encode_packet swf p)) gen_packet,
      fun ~kind s -> ignore_result (Wire_codec.decode_packet_body swf ~kind s) );
    ( map payload gen_frame,
      fun ~kind s -> ignore_result (Wire_codec.decode_data_body swf ~kind s) );
    ( map (fun c -> payload (Wire_codec.encode_control c)) gen_control,
      fun ~kind s -> ignore_result (Wire_codec.decode_control_body ~kind s) );
    ( map (fun e -> payload (Trace_codec.encode_entry e)) gen_trace_entry,
      fun ~kind s ->
        let load =
          Trace_codec.decode_stream
            (Wire_codec.hello ~pid:(-1) ^ Durable.Codec.encode ~kind s)
        in
        if load.Trace_codec.entries = [] && load.Trace_codec.damage = None then
          failwith "an undecodable trace entry went unreported" );
    ( map (fun snap -> (0, Durable.Form.encode Wire_codec.snapshot snap)) gen_snapshot,
      fun ~kind:_ s -> ignore_result (Durable.Form.decode Wire_codec.snapshot s) );
    ( map (fun snap -> (0, Wire_codec.snapshot_file ~pid:0 snap)) gen_snapshot,
      fun ~kind:_ s -> ignore (Wire_codec.decode_snapshots s : Obs.Snapshot.t * string option) );
    ( map (fun m -> (0, kv_wire.App_model.App_intf.write m)) gen_kv_msg,
      fun ~kind:_ s -> ignore_result (kv_wire.App_model.App_intf.read s) );
    ( map (fun m -> (0, shard_wire.App_model.App_intf.write m)) gen_shard_msg,
      fun ~kind:_ s -> ignore_result (shard_wire.App_model.App_intf.read s) );
  ]

let gen_damage =
  let near_max = oneofl [ max_int; max_int - 1; max_int - 7; min_int; -1; 1 lsl 40 ] in
  oneof
    [
      return `Keep;
      map (fun n -> `Cut n) nat;
      map2 (fun at v -> `Plant (at, v)) nat near_max;
      map2 (fun kind s -> `Random (kind, s)) (int_bound 40) (string_size (int_bound 64));
    ]

let damage (kind, s) = function
  | `Keep -> (kind, s)
  | `Cut n -> (kind, String.sub s 0 (n mod (String.length s + 1)))
  | `Plant (at, v) when String.length s >= 8 ->
    let b = Bytes.of_string s in
    Bytes.set_int64_le b (at mod (String.length s - 7)) (Int64.of_int v);
    (kind, Bytes.to_string b)
  | `Plant _ -> (kind, s)
  | `Random r -> r

let test_decoders_never_raise =
  qtest ~count:3000
    "every payload decoder returns on any bytes, planted max_int lengths too"
    (int_bound (List.length decoders - 1)
    >>= fun i ->
    let gen, _ = List.nth decoders i in
    map2 (fun v d -> (i, damage v d)) gen gen_damage)
    (fun (i, (kind, s)) ->
      match (snd (List.nth decoders i)) ~kind s with
      | () -> true
      | exception exn ->
        QCheck2.Test.fail_reportf "decoder %d raised %s on kind %d, %S" i
          (Printexc.to_string exn) kind s)

(* Kinds 17-20 are unassigned control kinds.  A well-framed frame of one
   of them, whatever its payload, is an [Error], never an exception. *)
let test_retired_tick_kinds =
  qtest ~count:300 "control: unassigned kinds 17-19 and 20 decode to Error"
    (pair (int_range 17 20) (string_size (int_bound 40)))
    (fun (kind, payload) ->
      match Wire_codec.decode_control (Durable.Codec.encode ~kind payload) with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)

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
(* The transport's reassembly, over a real connection                   *)

(* One transport serves every case: each case dials it afresh, sends a
   Hello and then a stream of frames, cut into chunks that are written one
   at a time with a poll after each, so the transport's reads come in the
   chunks' sizes (a loopback write is readable when it returns).  A valid
   stream must arrive as the same frames in order.  A stream with one
   frame's header (magic or kind byte) or checksum corrupted must
   deliver exactly the frames before it, count one decode error, close the
   connection, and raise nothing.  (A corrupted length field is left out:
   a grown length makes the reader wait for bytes that never come, which
   is not an error until the dialer hangs up.) *)
let reassembly_rig =
  lazy
    (let port =
       let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
       match Unix.getsockname sock with
       | Unix.ADDR_INET (_, p) ->
         Unix.close sock;
         p
       | Unix.ADDR_UNIX _ -> assert false
     in
     let obs = Obs.Registry.create () and got = ref [] in
     let t =
       Net.Transport.create ~self:0 ~listen_port:port ~peers:[]
         ~on_frame:(fun ~src ~kind ~body -> Ok (got := (src, kind, body) :: !got))
         ~obs ()
     in
     (t, port, obs, got))

let test_reassembly_any_reads =
  qtest ~count:150
    "transport: frames in reads of any sizes arrive in order; one corrupt frame \
     ends the connection"
    (tup3
       (list_size (int_range 1 8) gen_frame)
       (list_size (int_range 1 40) (oneof [ int_range 1 16; int_range 1 4096 ]))
       (option (pair small_nat (oneofl [ 0; 1; 6; 7; 8; 9 ]))))
    (fun (frames, sizes, corrupt) ->
      let transport, port, obs, got = Lazy.force reassembly_rig in
      got := [];
      let errors () =
        Obs.Snapshot.counter (Obs.Registry.snapshot obs) "transport_decode_errors_total"
      in
      let errors0 = errors () in
      let corrupt = Option.map (fun (i, off) -> (i mod List.length frames, off)) corrupt in
      let stream =
        String.concat ""
          (List.mapi
             (fun i f ->
               match corrupt with
               | Some (j, off) when i = j ->
                 let b = Bytes.of_string f in
                 Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
                 Bytes.to_string b
               | _ -> f)
             frames)
      in
      let expected =
        List.filteri
          (fun i _ -> match corrupt with Some (j, _) -> i < j | None -> true)
          (List.map
             (fun f ->
               match Wire_codec.decode_frame f ~pos:0 with
               | Ok (kind, body, _) -> (5, kind, body)
               | Error e -> Alcotest.failf "generated frame undecodable: %s" e)
             frames)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
          let write s = ignore (Wire_codec.write_all fd s : bool) in
          write (Wire_codec.hello ~pid:5);
          Net.Transport.poll transport ~timeout:1.;
          let rec feed pos sizes =
            if pos < String.length stream && errors () = errors0 then begin
              let size, rest =
                match sizes with [] -> (String.length stream, []) | n :: rest -> (n, rest)
              in
              let n = min size (String.length stream - pos) in
              write (String.sub stream pos n);
              Net.Transport.poll transport ~timeout:1.;
              feed (pos + n) rest
            end
          in
          feed 0 sizes;
          let deadline = Unix.gettimeofday () +. 2. in
          let settled () =
            match corrupt with
            | None -> List.length !got >= List.length expected
            | Some _ -> errors () > errors0
          in
          while (not (settled ())) && Unix.gettimeofday () < deadline do
            Net.Transport.poll transport ~timeout:0.05
          done;
          let closed () =
            match Unix.read fd (Bytes.create 1) 0 1 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
            | exception Unix.Unix_error _ -> false
          in
          List.rev !got = expected
          &&
          match corrupt with
          | None -> errors () = errors0
          | Some _ -> errors () = errors0 + 1 && closed ()))

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

(* A trace file (its writer's Hello, then entries) cut at an arbitrary
   byte (the SIGKILL torn tail) loads as a true prefix, with the damage
   reported. *)
let test_trace_stream_tear =
  qtest ~count:500 "trace stream: a torn tail loads as a reported true prefix"
    (tup2 (list_size (int_range 1 6) gen_trace_entry) (int_bound 100_000))
    (fun (entries, cut_seed) ->
      let hello = Wire_codec.hello ~pid:(-1) in
      let whole = hello ^ String.concat "" (List.map Trace_codec.encode_entry entries) in
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
        torn = ""
        || hello ^ String.concat "" (List.map Trace_codec.encode_entry load.Trace_codec.entries)
           = torn
      | Some _ -> true)

(* ------------------------------------------------------------------ *)
(* One frame format: store records and wire frames, each way            *)

(* Feed [bytes] through a pipe into a socket [Reader] in chunks of the
   given sizes, taking every frame it yields. *)
let reader_frames bytes sizes =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      let reader = Wire_codec.Reader.create () in
      let rec take acc =
        match Wire_codec.Reader.next reader with
        | Some (Ok f) -> take (f :: acc)
        | Some (Error e) -> Alcotest.failf "reader refused a store record: %s" e
        | None -> acc
      in
      let rec feed pos sizes acc =
        if pos = String.length bytes then List.rev acc
        else begin
          let size, rest = match sizes with [] -> (max_int, []) | n :: r -> (n, r) in
          let n = min size (String.length bytes - pos) in
          ignore (Wire_codec.write_all wr (String.sub bytes pos n) : bool);
          ignore (Wire_codec.Reader.read reader rd : [ `Read | `Again | `Eof ]);
          feed (pos + n) rest (take acc)
        end
      in
      feed 0 sizes [])

let test_store_record_through_reader =
  qtest ~count:100 "store records read by the socket Reader in chunks"
    (pair
       (list_size (int_range 1 12) (string_size (int_bound 300)))
       (list_size (int_range 1 40) (int_range 1 64)))
    (fun (payloads, sizes) ->
      let fs = Durable.Fs.mem () in
      let store = Durable.Durable_store.open_ ~fs ~dir:"s" () in
      List.iter (Durable.Durable_store.append_volatile store) payloads;
      ignore (Durable.Durable_store.flush store : int);
      let bytes =
        fs.Durable.Fs.readdir "s"
        |> List.filter (fun f -> String.starts_with ~prefix:"seg-" f)
        |> List.sort compare
        |> List.map (fun f -> fs.Durable.Fs.read (Filename.concat "s" f))
        |> String.concat ""
      in
      Durable.Durable_store.kill store;
      let scan = Durable.Codec.scan bytes in
      scan.Durable.Codec.tail = Durable.Codec.Clean
      && List.length scan.Durable.Codec.records >= List.length payloads
      && reader_frames bytes sizes = scan.Durable.Codec.records)

let test_wire_frame_through_fold_input =
  qtest ~count:300 "wire frames read by the store's fold_input"
    (pair (list_size (int_range 1 8) gen_frame) (int_range 1 64))
    (fun (frames, chunk) ->
      let s = String.concat "" frames in
      let at = ref 0 in
      let input b off len =
        let n = min (min len chunk) (String.length s - !at) in
        Bytes.blit_string s !at b off n;
        at := !at + n;
        n
      in
      let got, valid, tail =
        Durable.Codec.fold_input ~size:(String.length s) ~input ~init:[]
          ~f:(fun acc ~pos:_ ~kind b ~off ~len -> (kind, Bytes.sub_string b off len) :: acc)
          ()
      in
      let expected =
        List.map
          (fun f ->
            match Wire_codec.decode_frame f ~pos:0 with
            | Ok (kind, body, _) -> (kind, body)
            | Error e -> Alcotest.failf "generated frame undecodable: %s" e)
          frames
      in
      tail = Durable.Codec.Clean && valid = String.length s && List.rev got = expected)

(* A Hello of [version] naming [pid], built by hand: only the wire codec
   makes one of the current version. *)
let hello_of_version version ~pid =
  Durable.Codec.encode
    ~kind:(Char.code (Wire_codec.hello ~pid).[1])
    Durable.Form.(encode (pair int int) (version, pid))

(* A peer stream and a trace file that open with a Hello of another wire
   version are refused: the transport counts a decode error, delivers
   nothing and closes the connection; the trace loader keeps no entry and
   reports why. *)
let test_wrong_version_refused () =
  let stale = hello_of_version (Wire_codec.version - 1) ~pid:5 in
  Alcotest.(check bool) "the current Hello passes" true
    (match Wire_codec.decode_frame (hello_of_version Wire_codec.version ~pid:5) ~pos:0 with
    | Ok (kind, body, _) -> Wire_codec.greeting ~kind body = Ok 5
    | Error _ -> false);
  let transport, port, obs, got = Lazy.force reassembly_rig in
  got := [];
  let errors () =
    Obs.Snapshot.counter (Obs.Registry.snapshot obs) "transport_decode_errors_total"
  in
  let errors0 = errors () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
      ignore
        (Wire_codec.write_all fd
           (stale ^ Wire_codec.encode_packet swf (Wire.Flush_request { from_ = 5 }))
          : bool);
      let deadline = Unix.gettimeofday () +. 2. in
      while errors () = errors0 && Unix.gettimeofday () < deadline do
        Net.Transport.poll transport ~timeout:0.05
      done;
      Alcotest.(check int) "one decode error" (errors0 + 1) (errors ());
      Alcotest.(check int) "nothing delivered" 0 (List.length !got);
      Alcotest.(check bool) "connection closed" true
        (match Unix.read fd (Bytes.create 1) 0 1 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true));
  let entry = { Trace.time = 1.; seq = 0; ev = Trace.Notice_sent { pid = 0; entries = 1 } } in
  let load = Trace_codec.decode_stream (stale ^ Trace_codec.encode_entry entry) in
  Alcotest.(check int) "no trace entry kept" 0 (List.length load.Trace_codec.entries);
  Alcotest.(check bool) "refusal reported" true (load.Trace_codec.damage <> None);
  let load = Trace_codec.decode_stream (Trace_codec.encode_entry entry) in
  Alcotest.(check bool) "a trace file without a Hello is refused" true
    (load.Trace_codec.entries = [] && load.Trace_codec.damage <> None)

(* A length field of [max_int], planted where [s] ends with the length of
   an empty string: [pos + len] wraps past [max_int], so a bound written
   [pos + len > length] lets it through to [String.sub]. *)
let plant_max_length s =
  let b = Bytes.of_string (s ^ "xyz") in
  Bytes.set_int64_le b (String.length s - 8) (Int64.of_int max_int);
  Bytes.to_string b

let test_huge_length_is_an_error () =
  let body f = snd (payload f) in
  let kind f = Char.code f.[1] in
  let refused name decode =
    match decode () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decoded" name
    | exception exn -> Alcotest.failf "%s: raised %s" name (Printexc.to_string exn)
  in
  let control name c =
    let f = Wire_codec.encode_control c in
    refused name (fun () ->
        Wire_codec.decode_control_body ~kind:(kind f) (plant_max_length (body f)))
  in
  control "Stats" (Wire_codec.Stats Obs.Snapshot.empty);
  control "Inject" (Wire_codec.Inject { seq = 1; cseq = 2; payload = "" });
  let e = Depend.Entry.make ~inc:0 ~sii:1 in
  let app =
    Wire_codec.encode_packet swf
      (Wire.App
         {
           Wire.id = { Wire.origin = 0; origin_interval = e; idx = 0 };
           src = 0;
           dst = 1;
           send_interval = e;
           dep = [];
           payload = "";
           epoch = 0;
           cseq = 0;
         })
  in
  refused "App payload" (fun () ->
      Wire_codec.decode_packet_body swf ~kind:(kind app) (plant_max_length (body app)));
  refused "kvstore Get" (fun () ->
      kv_wire.App_model.App_intf.read
        (plant_max_length
           (kv_wire.App_model.App_intf.write (App_model.Kvstore_app.Get ""))));
  let shard = Shardkv.Shard_app.wire in
  refused "shardkv Get" (fun () ->
      shard.App_model.App_intf.read
        (plant_max_length
           (shard.App_model.App_intf.write (Shardkv.Shard_app.Get { g = 1; key = "" }))));
  let entry ev = { Trace.time = 1.; seq = 0; ev } in
  let good = entry (Trace.Notice_sent { pid = 0; entries = 1 }) in
  let bad =
    Trace_codec.encode_entry
      (entry
         (Trace.Output_buffered
            { pid = 0; id = { Wire.out_interval = e; out_idx = 0 }; text = "" }))
  in
  match
    Trace_codec.decode_stream
      (Wire_codec.hello ~pid:(-1) ^ Trace_codec.encode_entry good
      ^ Durable.Codec.encode ~kind:(kind bad) (plant_max_length (body bad)))
  with
  | load ->
    Alcotest.(check bool) "the entry before it kept" true
      (load.Trace_codec.entries = [ good ]);
    Alcotest.(check bool) "Output_buffered text reported as damage" true
      (load.Trace_codec.damage <> None)
  | exception exn ->
    Alcotest.failf "Output_buffered text: raised %s" (Printexc.to_string exn)

(* An unknown tag's [Error] names the table it missed: the frame kind, or
   a tag byte inside the payload with its offset. *)
let test_unknown_tag_named () =
  let error name expected = function
    | Error e -> Alcotest.(check string) name expected e
    | Ok _ -> Alcotest.failf "%s: decoded" name
  in
  error "packet" "unknown packet kind 17" (Wire_codec.decode_packet_body swf ~kind:17 "");
  error "control" "unknown control kind 20" (Wire_codec.decode_control_body ~kind:20 "");
  error "bool" "unknown bool byte 2 at offset 0" (Durable.Form.decode Durable.Form.bool "\002");
  error "kv message" "unknown kv message tag 9 at offset 0"
    (kv_wire.App_model.App_intf.read "\009");
  let entry =
    Trace_codec.encode_entry
      { Trace.time = 1.; seq = 0; ev = Trace.Notice_sent { pid = 0; entries = 1 } }
  in
  let body = Bytes.of_string (snd (payload entry)) in
  Bytes.set body 16 '\099';
  error "trace event" "unknown trace event tag 99 at offset 16"
    (Trace_codec.decode_entry
       (Durable.Codec.encode ~kind:(fst (payload entry)) (Bytes.to_string body)))

let suite =
  [
    test_packet_roundtrip;
    test_control_roundtrip;
    test_retired_tick_kinds;
    test_trace_roundtrip;
    test_kv_roundtrip;
    test_data_frame_roundtrip;
    test_coalesced_batch_decodes_like_per_frame;
    test_reassembly_any_reads;
    test_packet_single_byte_mutation;
    test_kv_payload_mutation;
    test_trace_stream_tear;
    test_store_record_through_reader;
    test_wire_frame_through_fold_input;
    Alcotest.test_case "peer and trace streams with a wrong-version Hello refused"
      `Quick test_wrong_version_refused;
    Alcotest.test_case "every record keeps the bytes of wire_frames.hex" `Quick
      test_byte_fixture;
    Alcotest.test_case "a length of max_int is an Error, never an exception" `Quick
      test_huge_length_is_an_error;
    test_shard_roundtrip;
    test_decoders_never_raise;
    Alcotest.test_case "an unknown tag's Error names its table" `Quick test_unknown_tag_named;
  ]
