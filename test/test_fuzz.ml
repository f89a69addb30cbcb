(* Protocol fuzzer: drive a single node with random packet/timer/crash
   sequences and check local invariants after every step.

   The invariants:
   - the node never raises;
   - every released message carries at most K dependency entries (the
     local face of Theorem 4);
   - the self entry of the vector is either NULL or the current interval;
   - the stability frontier never exceeds the current interval;
   - the current interval never moves backwards except through a rollback
     or restart, which must strictly increase the incarnation;
   - after a final crash+restart, the replayed application state digest
     matches the digest the live run had at the stability frontier. *)

open Depend
open Util
module Node = Recovery.Node
module Wire = Recovery.Wire
module Config = Recovery.Config
module D = Util.Driver

let counter = App_model.Counter_app.app

type cmd =
  | Inject of int
  | Incoming of { src : int; inc : int; sii : int; idx : int; fwd : bool }
  | Announce of { src : int; inc : int; sii : int }
  | Notice of { src : int; inc : int; sii : int }
  | Ack_all
  | Flush
  | Checkpoint
  | Crash_restart
  | Perform_send of int

let gen_cmd =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun v -> Inject v) (int_range 1 9));
        ( 6,
          map
            (fun (src, inc, sii, idx, fwd) -> Incoming { src; inc; sii; idx; fwd })
            (tup5 (int_range 1 3) (int_bound 2) (int_range 1 20) (int_bound 2) bool) );
        ( 3,
          map
            (fun (src, inc, sii) -> Announce { src; inc; sii })
            (triple (int_range 1 3) (int_bound 2) (int_range 1 20)) );
        ( 3,
          map
            (fun (src, inc, sii) -> Notice { src; inc; sii })
            (triple (int_range 1 3) (int_bound 2) (int_range 1 20)) );
        (1, return Ack_all);
        (3, return Flush);
        (2, return Checkpoint);
        (1, return Crash_restart);
        (2, map (fun dst -> Perform_send dst) (int_range 1 3));
      ])

let gen_cmds = QCheck2.Gen.(list_size (int_range 5 60) gen_cmd)

exception Violation of string

let check_invariants ~k d ~prev_current =
  let node = d.D.node in
  let current = Node.current node in
  let frontier = Node.stable_frontier node in
  if Entry.lt current prev_current && current.Entry.inc <= prev_current.Entry.inc
  then
    raise
      (Violation
         (Fmt.str "current moved back without an incarnation bump: %a -> %a"
            Depend.Pp.entry prev_current Depend.Pp.entry current));
  if Entry.lt current frontier then
    raise
      (Violation
         (Fmt.str "stability frontier %a beyond current %a" Depend.Pp.entry frontier
            Depend.Pp.entry current));
  (match Dep_vector.get (Node.dep_vector node) 0 with
  | None -> ()
  | Some e ->
    if not (Entry.equal e current) then
      raise
        (Violation
           (Fmt.str "self entry %a is neither NULL nor current %a" Depend.Pp.entry e
              Depend.Pp.entry current)));
  List.iter
    (fun (m : _ Wire.app_message) ->
      if List.length m.dep > k then
        raise
          (Violation
             (Fmt.str "released message with %d > K=%d entries"
                (List.length m.dep) k)))
    (D.released d);
  D.clear d

let run_cmds ~k cmds =
  let config = Config.k_optimistic ~timing:quiet_timing ~n:4 ~k () in
  let d = D.make config counter in
  let seq = ref 0 in
  let ack_candidates = ref [] in
  let apply = function
    | Inject v ->
      incr seq;
      D.inject d ~seq:!seq (App_model.Counter_app.Add v)
    | Incoming { src; inc; sii; idx; fwd } ->
      let payload =
        if fwd then App_model.Counter_app.Forward { dst = (src + 1) mod 4; amount = 1 }
        else App_model.Counter_app.Add 1
      in
      let m =
        D.app_msg ~idx ~src ~dst:0 ~send_interval:(e ~inc ~sii)
          ~dep:[ (src, e ~inc ~sii) ]
          payload
      in
      D.packet d (Wire.App m)
    | Announce { src; inc; sii } ->
      D.packet d (Wire.Ann { Wire.from_ = src; ending = e ~inc ~sii; failure = true })
    | Notice { src; inc; sii } ->
      D.packet d (D.notice_packet ~from_:src ~rows:[ (src, [ e ~inc ~sii ]) ])
    | Ack_all ->
      List.iter (fun id -> D.packet d (Wire.Ack { Wire.from_ = 1; to_ = 0; ids = [ id ] }))
        !ack_candidates;
      ack_candidates := []
    | Flush -> D.flush d
    | Checkpoint -> D.checkpoint d
    | Crash_restart ->
      D.halt d;
      D.restart d
    | Perform_send dst ->
      D.perform d [ App_model.App_intf.send dst (App_model.Counter_app.Add 1) ]
  in
  List.iter
    (fun cmd ->
      let prev_current = Node.current d.node in
      ack_candidates :=
        List.map (fun (m : _ Wire.app_message) -> m.Wire.id) (D.released d)
        @ !ack_candidates;
      apply cmd;
      check_invariants ~k d ~prev_current)
    cmds;
  d

let fuzz_property ~k cmds =
  match run_cmds ~k cmds with
  | _ -> true
  | exception Violation msg -> QCheck2.Test.fail_report msg

let test_fuzz_k0 = qtest ~count:150 "fuzz: invariants hold at K=0" gen_cmds (fuzz_property ~k:0)

let test_fuzz_k1 = qtest ~count:150 "fuzz: invariants hold at K=1" gen_cmds (fuzz_property ~k:1)

let test_fuzz_k4 = qtest ~count:150 "fuzz: invariants hold at K=4" gen_cmds (fuzz_property ~k:4)

(* Replay determinism under fuzzing: after any command sequence, flush,
   crash and restart; every interval the restart replays must carry the
   same application digest the live run recorded when it first executed
   that interval.  The check is intervalwise rather than a comparison of
   final states because the post-restart state may legally run {e ahead}
   of the pre-crash state: restart rebuilds its logging-progress knowledge
   from stable storage alone (notices are soft state), and the rebuilt
   dependency vector can make a still-buffered message deliverable that
   the live run was holding back. *)
let test_fuzz_replay =
  qtest ~count:150 "fuzz: crash replay reproduces the stable prefix" gen_cmds
    (fun cmds ->
      match run_cmds ~k:2 cmds with
      | exception Violation msg -> QCheck2.Test.fail_report msg
      | d ->
        D.flush d;
        let live = Hashtbl.create 64 in
        List.iter
          (fun { Recovery.Trace.ev; _ } ->
            match ev with
            | Recovery.Trace.Interval_started { interval; digest; replay = false; _ }
              ->
              (* Incarnation bumps never reuse numbers, so each interval is
                 executed live exactly once. *)
              Hashtbl.replace live interval digest
            | _ -> ())
          (Recovery.Trace.events d.trace);
        let before = Recovery.Trace.length d.trace in
        D.halt d;
        D.restart d;
        List.for_all
          (fun { Recovery.Trace.ev; seq; _ } ->
            match ev with
            | Recovery.Trace.Interval_started { interval; digest; replay = true; _ }
              when seq >= before ->
              Hashtbl.find_opt live interval = Some digest
            | _ -> true)
          (Recovery.Trace.events d.trace))

(* The Strom-Yemini configuration must survive the same fuzzing. *)
let test_fuzz_sy =
  qtest ~count:100 "fuzz: Strom-Yemini configuration never raises" gen_cmds
    (fun cmds ->
      let config = Config.strom_yemini ~timing:quiet_timing ~n:4 () in
      let d = D.make config counter in
      let seq = ref 0 in
      List.iter
        (fun cmd ->
          match cmd with
          | Inject v ->
            incr seq;
            D.inject d ~seq:!seq (App_model.Counter_app.Add v)
          | Incoming { src; inc; sii; idx; _ } ->
            D.packet d
              (Wire.App
                 (D.app_msg ~idx ~src ~dst:0 ~send_interval:(e ~inc ~sii)
                    ~dep:[ (src, e ~inc ~sii) ]
                    (App_model.Counter_app.Add 1)))
          | Announce { src; inc; sii } ->
            D.packet d
              (Wire.Ann { Wire.from_ = src; ending = e ~inc ~sii; failure = inc = 0 })
          | Notice { src; inc; sii } ->
            D.packet d (D.notice_packet ~from_:src ~rows:[ (src, [ e ~inc ~sii ]) ])
          | Ack_all -> ()
          | Flush -> D.flush d
          | Checkpoint -> D.checkpoint d
          | Crash_restart ->
            D.halt d;
            D.restart d
          | Perform_send dst ->
            D.perform d [ App_model.App_intf.send dst (App_model.Counter_app.Add 1) ])
        cmds;
      true)

(* Netmodel fault-plan equivalence: the fault machinery draws from its own
   RNG stream, so a plan with no loss, no reordering and no partitions must
   be observationally identical to the plain model — same arrival for the
   same timing seed, packet by packet. *)

let gen_net_schedule =
  QCheck2.Gen.(
    pair (int_range 0 1000)
      (list_size (int_range 1 80)
         (tup4 (int_range 0 700) (int_range 0 3) (int_range 0 3) (int_range 0 5))))

let net_steps f steps =
  List.for_all
    (fun (dt, src, dst, entries) ->
      let now = float_of_int dt /. 7. in
      let kind = if entries mod 2 = 0 then "app" else "notice" in
      f ~now ~src ~dst ~kind ~entries)
    steps

let test_netmodel_zero_plan_equiv =
  qtest ~count:200 "netmodel: zeroed fault plan is observationally identical"
    gen_net_schedule (fun (seed, steps) ->
      let timing = Recovery.Config.default_timing in
      let plain =
        Harness.Netmodel.create ~n:4 ~timing ~rng:(Sim.Rng.create seed)
          ~obs:(Obs.Registry.create ()) ()
      in
      let planned =
        Harness.Netmodel.create ~n:4 ~timing ~rng:(Sim.Rng.create seed)
          ~fault_rng:(Sim.Rng.create (seed + 1))
          ~plan:
            {
              Harness.Netmodel.loss = 0.;
              duplicate = 0.;
              reorder = 0.;
              reorder_spread = 17.;
              partitions = [];
            }
          ~obs:(Obs.Registry.create ()) ()
      in
      net_steps
        (fun ~now ~src ~dst ~kind ~entries ->
          let base = Harness.Netmodel.transit plain ~now ~src ~dst ~kind ~entries in
          Harness.Netmodel.arrivals planned ~now ~src ~dst ~kind ~entries = [ base ])
        steps)

(* Duplication only echoes packets: the first arrival of every packet is
   exactly the plain model's arrival (the timing stream is untouched by
   fault draws), and any echo comes strictly no earlier. *)
let test_netmodel_duplication_first_arrival =
  qtest ~count:200 "netmodel: duplication-only plan preserves first arrivals"
    gen_net_schedule (fun (seed, steps) ->
      let timing = Recovery.Config.default_timing in
      let plain =
        Harness.Netmodel.create ~n:4 ~timing ~rng:(Sim.Rng.create seed)
          ~obs:(Obs.Registry.create ()) ()
      in
      let planned =
        Harness.Netmodel.create ~n:4 ~timing ~rng:(Sim.Rng.create seed)
          ~fault_rng:(Sim.Rng.create (seed + 1))
          ~plan:{ Harness.Netmodel.benign with duplicate = 0.5 }
          ~obs:(Obs.Registry.create ()) ()
      in
      net_steps
        (fun ~now ~src ~dst ~kind ~entries ->
          let base = Harness.Netmodel.transit plain ~now ~src ~dst ~kind ~entries in
          match Harness.Netmodel.arrivals planned ~now ~src ~dst ~kind ~entries with
          | [ a ] -> a = base
          | [ a; echo ] -> a = base && echo >= a
          | _ -> false)
        steps)

(* The network model's counters against what [arrivals] returned, over
   random fault plans: every eaten packet is one wire loss or one
   partition drop, every two-arrival result one duplication, and every
   call one packet of its kind.  A benign plan injects nothing. *)

let gen_fault_plan =
  QCheck2.Gen.(
    let prob = map (fun i -> float_of_int i /. 20.) (int_range 0 10) in
    let partition =
      map
        (fun (side, from_, len, drop) ->
          {
            Harness.Netmodel.group =
              List.filter (fun p -> side land (1 lsl p) <> 0) [ 0; 1; 2; 3 ];
            from_ = float_of_int from_;
            until = float_of_int (from_ + len);
            mode = (if drop then Harness.Netmodel.Drop_packets else Queue_packets);
          })
        (tup4 (int_range 0 15) (int_range 0 80) (int_range 1 40) bool)
    in
    oneof
      [
        pure Harness.Netmodel.benign;
        map
          (fun ((loss, duplicate, reorder), partitions) ->
            { Harness.Netmodel.loss; duplicate; reorder; reorder_spread = 5.; partitions })
          (pair (triple prob prob prob) (list_size (int_range 0 2) partition));
      ])

let test_netmodel_counters_match_arrivals =
  qtest ~count:200 "netmodel: fault counters agree with arrivals"
    QCheck2.Gen.(pair gen_fault_plan gen_net_schedule) (fun (plan, (seed, steps)) ->
      let obs = Obs.Registry.create () in
      let net =
        Harness.Netmodel.create ~n:4 ~timing:Recovery.Config.default_timing
          ~rng:(Sim.Rng.create seed) ~fault_rng:(Sim.Rng.create (seed + 1)) ~plan ~obs ()
      in
      let eaten = ref 0 and doubled = ref 0 and sent = Hashtbl.create 2 in
      let sent_of kind = Option.value ~default:0 (Hashtbl.find_opt sent kind) in
      net_steps
        (fun ~now ~src ~dst ~kind ~entries ->
          Hashtbl.replace sent kind (1 + sent_of kind);
          (match Harness.Netmodel.arrivals net ~now ~src ~dst ~kind ~entries with
          | [] -> incr eaten
          | [ _; _ ] -> incr doubled
          | _ -> ());
          true)
        steps
      &&
      let snap = Obs.Registry.snapshot obs in
      let count name = Obs.Snapshot.counter snap ("net_" ^ name ^ "_total") in
      let faults =
        List.map count
          [ "lost"; "duplicated"; "reordered"; "partition_dropped"; "partition_queued" ]
      in
      count "lost" + count "partition_dropped" = !eaten
      && count "duplicated" = !doubled
      && List.for_all
           (fun kind ->
             Obs.Snapshot.counter snap ~labels:[ ("kind", kind) ] "net_packets_total"
             = sent_of kind)
           [ "app"; "notice" ]
      && ((not (Harness.Netmodel.plan_is_benign plan)) || List.for_all (( = ) 0) faults))

(* Durable record codec: the property open-time recovery rests on.  A
   reader faced with mutated bytes may lose records (truncation) but must
   never accept a record that was not written. *)

module Codec = Durable.Codec

let gen_record = QCheck2.Gen.(pair (int_bound 255) (string_size (int_bound 200)))

let test_codec_roundtrip =
  qtest ~count:500 "codec: decode inverts encode"
    QCheck2.Gen.(list_size (int_bound 8) gen_record)
    (fun records ->
      let buf = Buffer.create 256 in
      List.iter (fun (kind, payload) -> Codec.encode_into buf ~kind payload) records;
      let scan = Codec.scan (Buffer.contents buf) in
      scan.Codec.tail = Codec.Clean
      && scan.Codec.records = records
      && scan.Codec.valid_bytes = Buffer.length buf)

let test_codec_single_byte_mutation =
  qtest ~count:1000 "codec: any single-byte mutation is detected"
    QCheck2.Gen.(
      tup4 (int_bound 255) (string_size (int_bound 120)) (int_bound 10_000)
        (int_range 1 255))
    (fun (kind, payload, off_seed, xor) ->
      let frame = Codec.encode ~kind payload in
      let off = off_seed mod String.length frame in
      let mutated = Bytes.of_string frame in
      Bytes.set mutated off (Char.chr (Char.code (Bytes.get mutated off) lxor xor));
      match Codec.decode (Bytes.to_string mutated) ~pos:0 with
      | Codec.Corrupt | Codec.Truncated -> true (* caught, or a clean tear *)
      | Codec.End | Codec.Record _ -> false (* a wrong record was accepted *))

let test_codec_stream_mutation_prefix =
  qtest ~count:500 "codec: a mutated stream scans to a true prefix"
    QCheck2.Gen.(
      tup4
        (list_size (int_range 1 6) gen_record)
        (int_bound 10_000) (int_range 1 255) bool)
    (fun (records, off_seed, xor, tear) ->
      let buf = Buffer.create 256 in
      List.iter (fun (kind, payload) -> Codec.encode_into buf ~kind payload) records;
      let whole = Buffer.contents buf in
      let damaged =
        if tear then String.sub whole 0 (off_seed mod String.length whole)
        else begin
          let off = off_seed mod String.length whole in
          let b = Bytes.of_string whole in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor xor));
          Bytes.to_string b
        end
      in
      let scan = Codec.scan damaged in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      is_prefix scan.Codec.records records)

(* The streamed fold the store opens files with reads each frame in place
   through a reusable buffer, in reads of any size: on any stream, intact,
   torn or mutated, it must see the records, the valid prefix and the
   tail the string fold sees.  Records up to 3 KB over reads of 1 to 97
   bytes make the buffer both move its leftover bytes and grow. *)
let test_codec_streamed_fold_eq_string_fold =
  qtest ~count:500 "codec: streamed fold equals the string fold"
    QCheck2.Gen.(
      tup5
        (list_size (int_range 0 6) (pair (int_bound 255) (string_size (int_bound 3_000))))
        (int_bound 100_000) (int_range 0 255) bool (int_range 1 97))
    (fun (records, off_seed, xor, tear, chunk) ->
      let buf = Buffer.create 256 in
      List.iter (fun (kind, payload) -> Codec.encode_into buf ~kind payload) records;
      let whole = Buffer.contents buf in
      let damaged =
        if whole = "" then whole
        else if tear then String.sub whole 0 (off_seed mod String.length whole)
        else begin
          let off = off_seed mod String.length whole in
          let b = Bytes.of_string whole in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor xor));
          Bytes.to_string b
        end
      in
      let at = ref 0 in
      let input b pos len =
        let n = min (min len chunk) (String.length damaged - !at) in
        Bytes.blit_string damaged !at b pos n;
        at := !at + n;
        n
      in
      let streamed, valid, tail =
        Codec.fold_input ~size:(String.length damaged) ~input ~init:[]
          ~f:(fun acc ~pos:_ ~kind b ~off ~len -> (kind, Bytes.sub_string b off len) :: acc)
          ()
      in
      let scan = Codec.scan damaged in
      List.rev streamed = scan.Codec.records
      && valid = scan.Codec.valid_bytes
      && tail = scan.Codec.tail)

let suite =
  [
    test_fuzz_k0;
    test_fuzz_k1;
    test_fuzz_k4;
    test_fuzz_replay;
    test_fuzz_sy;
    test_codec_roundtrip;
    test_codec_single_byte_mutation;
    test_codec_stream_mutation_prefix;
    test_codec_streamed_fold_eq_string_fold;
    test_netmodel_zero_plan_equiv;
    test_netmodel_duplication_first_arrival;
    test_netmodel_counters_match_arrivals;
  ]
