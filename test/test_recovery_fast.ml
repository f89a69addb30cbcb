(* Fast-recovery unit + property tests, on a single node over the
   in-memory store (crash + restart on the same handle) unless a case
   says otherwise:

   - QCheck law: partitioned replay ([restart_begin] + [replay_step] in
     any preference order, any budgets) reaches the same interval and
     per-partition digests as serial replay, for any op sequence and any
     stability point at the crash — also when a second crash makes the
     replayed range cross the first restart's incarnation marker.  The
     serial reference is a twin running the application without its
     partitioning, whose restart re-executes each record inside the log
     walk, as rollback does.
   - Scripted lost marker: with the newest marker cut from the
     synchronous area, both restarts resync the marker a logged delivery
     implies and reach the same interval and digests.
   - QCheck law: a prefix captured by incremental partition snapshots
     plus replay of the remainder equals one-shot serial replay of the
     whole log.
   - Scripted on-demand timeline: a Get for an already-replayed partition
     is answered while another partition is still replaying; a Get parked
     on an unrecovered partition is answered only after that partition's
     replay completes — from the replayed state, never the pre-crash
     (wiped) one.
   - Scripted simulator restart: a kvstore node killed under the cluster
     restarts the way a daemon does, certifying its replay once at the
     frontier instead of once per record.
   - QCheck law: duplicate suppression survives a respawn that reads the
     log only from its newest checkpoint on.  Every logged message offered
     again — the same-channel copy and a re-release in a later epoch of its
     sender — is dropped, and a message never logged still delivers. *)

module Node = Recovery.Node
module Trace = Recovery.Trace
module App = App_model.Kvstore_app
module D = Util.Driver

(* One process, K = 0, no timers: kvstore keys are all locally owned
   (owner hash mod 1), so every Put is one local log record and the
   recovery partitioning (the second, independent key hash) is the only
   sharding in play. *)
let config () = Recovery.Config.k_optimistic ~timing:Util.quiet_timing ~n:1 ~k:0 ()

let parts = App.parts

(* A small key pool with a known partition for each key. *)
let key_of i = Fmt.str "law-%d" i

let feed ?(seq0 = 0) d ops ~flush_at =
  List.iteri
    (fun i (ki, v) ->
      D.inject d ~seq:(seq0 + i + 1) (App.Put { key = key_of ki; value = v });
      if i + 1 = flush_at then D.flush d)
    ops

let drain_replay ?(now = 2000.) ?(rng = fun _ -> 0) node =
  let fuel = ref 10_000 in
  while Node.recovery_active node do
    decr fuel;
    if !fuel = 0 then Alcotest.fail "replay made no progress";
    let prefer = rng parts in
    let budget = 1 + rng 3 in
    ignore
      (Node.replay_step node ~now ~prefer ~budget () : int * _ list * _)
  done

(* The serial twin's application: without partitioning, a restart
   replays inside the log walk. *)
let serial_app = { App.app with partitioning = None }

(* [a] runs the partitioned application, [b] its serial twin. *)
let check_digests ~msg a b =
  Alcotest.check Util.entry (Fmt.str "%s: interval" msg) (Node.current b) (Node.current a);
  for p = 0 to parts - 1 do
    Alcotest.(check (option int))
      (Fmt.str "%s: partition %d digest" msg p)
      (Some (App.partitioning.part_digest (Node.app_state b) p))
      (Node.partition_digest a p)
  done

(* Generator: an op sequence over a 24-key pool, a stability point (flush
   position) and a seed for the replay preference/budget walk. *)
let gen_ops =
  QCheck2.Gen.(list_size (int_range 1 40) (pair (int_bound 23) (int_bound 99)))

let gen_case = QCheck2.Gen.(triple gen_ops (int_bound 40) (int_bound 1000))

let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

(* Two rounds of ops, each ended by a crash and both restarts.  The second
   round's replay starts at the initial checkpoint again, so it crosses
   the incarnation marker the first restart wrote. *)
let law_partitioned_eq_serial =
  Util.qtest ~count:80 "partitioned replay == serial replay (digests)"
    QCheck2.Gen.(quad gen_ops (int_bound 40) (int_bound 1000) gen_ops)
    (fun (ops, flush_at, seed, more) ->
      let a = D.make (config ()) App.app in
      let b = D.make (config ()) serial_app in
      let rng = lcg seed in
      let round ~seq0 ~now ops =
        let flush_at = min flush_at (List.length ops) in
        feed a ~seq0 ops ~flush_at;
        feed b ~seq0 ops ~flush_at;
        D.halt a;
        D.halt b;
        (* A: incremental, replayed in a seed-dependent preference order
           with small uneven budgets; B: the serial twin. *)
        D.restart_begin ~now a;
        drain_replay ~now ~rng a.D.node;
        D.restart ~now b;
        check_digests ~msg:(Fmt.str "law1 at %g" now) a.D.node b.D.node;
        a.D.clock <- now;
        b.D.clock <- now
      in
      round ~seq0:0 ~now:1000. ops;
      round ~seq0:(List.length ops) ~now:2000. more;
      true)

let law_ckpt_prefix_eq_oneshot =
  Util.qtest ~count:80 "Part_ckpt prefix + remainder == one-shot replay" gen_case
    (fun (ops, split, seed) ->
      let split = min split (List.length ops) in
      let prefix = List.filteri (fun i _ -> i < split) ops in
      let rest = List.filteri (fun i _ -> i >= split) ops in
      let a = D.make (config ()) App.app in
      let b = D.make (config ()) serial_app in
      (* A snapshots every dirty partition after the prefix; B never
         snapshots.  Same injects, same stability points on both. *)
      feed a prefix ~flush_at:split;
      feed b prefix ~flush_at:split;
      let rec snap n =
        if n > 0 then begin
          let did, _, _ = Node.partition_checkpoint a.D.node ~now:500. in
          if did then snap (n - 1)
        end
      in
      snap parts;
      List.iteri
        (fun i (ki, v) ->
          let seq = split + i + 1 in
          D.inject a ~seq (App.Put { key = key_of ki; value = v });
          D.inject b ~seq (App.Put { key = key_of ki; value = v }))
        rest;
      D.flush a;
      D.flush b;
      D.halt a;
      D.halt b;
      D.restart_begin ~now:1000. a;
      drain_replay ~rng:(lcg seed) a.D.node;
      D.restart ~now:1000. b;
      check_digests ~msg:"law2" a.D.node b.D.node;
      true)

(* ------------------------------------------------------------------ *)
(* Scripted on-demand timeline                                         *)

let test_on_demand_timeline () =
  (* Two keys in different recovery partitions. *)
  let ka = key_of 0 in
  let pa = App.part_of_key ka in
  let kb =
    let rec find i =
      if App.part_of_key (key_of i) <> pa then key_of i else find (i + 1)
    in
    find 1
  in
  let pb = App.part_of_key kb in
  let d = D.make (config ()) App.app in
  D.inject d ~seq:1 (App.Put { key = ka; value = 5 });
  D.inject d ~seq:2 (App.Put { key = kb; value = 6 });
  D.inject d ~seq:3 (App.Put { key = ka; value = 7 });
  D.inject d ~seq:4 (App.Put { key = kb; value = 8 });
  D.flush d;
  D.halt d;
  D.restart_begin ~now:1000. d;
  Alcotest.(check bool) "recovery active" true (Node.recovery_active d.D.node);
  Alcotest.(check int) "four records pending" 4 (Node.recovery_pending d.D.node);
  (* Replay exactly partition A (two records); B stays pending. *)
  let executed, _, _ =
    Node.replay_step d.D.node ~now:1001. ~prefer:pa ~budget:2 ()
  in
  Alcotest.(check int) "A's two records replayed" 2 executed;
  Alcotest.(check bool) "A recovered" true (Node.partition_recovered d.D.node pa);
  Alcotest.(check bool) "B not recovered" false
    (Node.partition_recovered d.D.node pb);
  (* A Get on the recovered partition is answered now — mid-recovery —
     and from the replayed state (v7, version 2). *)
  D.inject d ~seq:10 (App.Get ka);
  D.flush d;
  Alcotest.(check bool) "still recovering" true (Node.recovery_active d.D.node);
  Alcotest.(check (list string))
    "Get on recovered partition answered mid-replay"
    [ Fmt.str "get %s -> 7 (v2)" ka ]
    (List.map fst (Util.committed_outputs d.D.trace));
  (* A Get on the unrecovered partition parks: no answer, not even a
     wrong one from the wiped pre-crash state. *)
  D.inject d ~seq:11 (App.Get kb);
  D.flush d;
  Alcotest.(check int) "parked in the receive buffer" 1
    (Node.receive_buffer_size d.D.node);
  Alcotest.(check (list string))
    "parked Get not answered"
    [ Fmt.str "get %s -> 7 (v2)" ka ]
    (List.map fst (Util.committed_outputs d.D.trace));
  (* Finish B's replay: recovery completes, the parked Get drains and is
     answered from the replayed state. *)
  let executed, _, _ =
    Node.replay_step d.D.node ~now:1002. ~prefer:pb ~budget:100 ()
  in
  Alcotest.(check int) "B's two records replayed" 2 executed;
  Alcotest.(check bool) "recovery complete" false (Node.recovery_active d.D.node);
  D.flush d;
  Alcotest.(check (list string))
    "parked Get answered after its partition's replay"
    [ Fmt.str "get %s -> 7 (v2)" ka; Fmt.str "get %s -> 8 (v2)" kb ]
    (List.map fst (Util.committed_outputs d.D.trace));
  let completed =
    List.exists
      (fun { Trace.ev; _ } ->
        match ev with Trace.Recovery_completed _ -> true | _ -> false)
      (Trace.events d.D.trace)
  in
  Alcotest.(check bool) "Recovery_completed traced" true completed

(* ------------------------------------------------------------------ *)
(* Simulated restart of a partitioned application                      *)

(* Two processes, no timers.  Process 0 owns six keys' Puts (replicated
   to process 1), flushes them at t=20 — past its only checkpoint, the
   initial one — and dies at t=30.  Its respawn takes the daemon's
   restart: it comes back up before replaying, so no replayed interval is
   traced before [Restarted]; the same-instant drain then re-executes
   every flushed record and certifies the frontier once. *)
let test_cluster_restart_like_daemon () =
  let module Cluster = Harness.Cluster in
  let config = Recovery.Config.k_optimistic ~timing:Util.quiet_timing ~n:2 ~k:1 () in
  let c = Cluster.create ~config ~app:App.app ~seed:5 ~auto_timers:false () in
  let keys =
    List.filteri (fun i _ -> i < 6)
      (List.filter (fun k -> App.owner ~n:2 k = 0) (List.init 40 key_of))
  in
  List.iteri
    (fun i key ->
      Cluster.inject_at c ~time:(float_of_int (i + 1)) ~dst:0 (App.Put { key; value = i }))
    keys;
  Cluster.flush_at c ~time:20. ~pid:0;
  Cluster.crash_at c ~time:30. ~pid:0;
  Cluster.run c;
  let events = Trace.events (Cluster.trace c) in
  let flushed =
    List.length
      (List.filter
         (fun { Trace.time; ev; _ } ->
           match ev with
           | Trace.Message_delivered { dst = 0; _ } -> time < 20.
           | _ -> false)
         events)
  in
  Alcotest.(check int) "every Put delivered before the flush" (List.length keys) flushed;
  let replayed_intervals, completed, _ =
    List.fold_left
      (fun (replayed, completed, phase) { Trace.ev; _ } ->
        match (ev, phase) with
        | Trace.Crashed { pid = 0; _ }, `Live -> (replayed, completed, `Down)
        | Trace.Restarted { pid = 0; _ }, `Down -> (replayed, completed, `Up)
        | Trace.Interval_started { pid = 0; replay = true; _ }, `Down ->
          Alcotest.fail "a replayed interval traced before Restarted"
        | Trace.Interval_started { pid = 0; replay = true; _ }, _ ->
          (replayed + 1, completed, phase)
        | Trace.Recovery_completed { pid = 0; replayed = r }, `Up ->
          (replayed, r :: completed, phase)
        | _ -> (replayed, completed, phase))
      (0, [], `Live) events
  in
  Alcotest.(check (list int)) "Recovery_completed counts the replayed records" [ flushed ]
    completed;
  Alcotest.(check int) "the replay is certified once, at its frontier" 1 replayed_intervals;
  let report = Harness.Oracle.check ~k:1 ~n:2 (Cluster.trace c) in
  Alcotest.(check (list string)) "oracle certifies" [] report.Harness.Oracle.violations

(* ------------------------------------------------------------------ *)
(* Lost incarnation marker                                             *)

(* Truncate a synchronous area at the start of its newest [Marker] frame,
   dropping that frame and everything after it.  Its records are
   announcement frames (kind ['A']) whose payload is a sealed marshalled
   [Wire.sync_record]. *)
let cut_at_newest_marker path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let rec newest pos found =
    match Durable.Codec.decode contents ~pos with
    | Durable.Codec.Record { kind; payload; next } ->
      let marker =
        kind = Char.code 'A'
        &&
        match Durable.Codec.decode payload ~pos:0 with
        | Durable.Codec.Record { payload = bytes; _ } -> (
          match (Marshal.from_string bytes 0 : Recovery.Wire.sync_record) with
          | Recovery.Wire.Marker _ -> true
          | _ -> false)
        | Durable.Codec.Truncated | Durable.Codec.Corrupt | Durable.Codec.End -> false
      in
      newest next (if marker then Some pos else found)
    | Durable.Codec.Truncated | Durable.Codec.Corrupt | Durable.Codec.End -> found
  in
  match newest 0 None with
  | Some pos -> Unix.truncate path pos
  | None -> Alcotest.fail "no Marker frame in the synchronous area"

let copy_dir src dst =
  Array.iter
    (fun name ->
      let bytes =
        In_channel.with_open_bin (Filename.concat src name) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
          Out_channel.output_string oc bytes))
    (Sys.readdir src)

(* A crash, a restart (marker (1,6) at log position 4), four more logged
   Puts in incarnation 1 and a process death; then the synchronous area
   loses that marker.  Each logged delivery still names its interval, so
   the partitioned restart and the serial twin's both resync the marker it
   implies and must land on the same interval, (2,11), with the same
   per-partition digests. *)
let test_lost_marker_resync () =
  let serial_dir = Durable.Temp.fresh_dir ~prefix:"test-lost-marker" () in
  let deferred_dir = Durable.Temp.fresh_dir ~prefix:"test-lost-marker" () in
  Fun.protect
    ~finally:(fun () ->
      Durable.Temp.rm_rf serial_dir;
      Durable.Temp.rm_rf deferred_dir)
    (fun () ->
      let d = D.make ~store_dir:serial_dir (config ()) App.app in
      let ops = List.init 4 (fun i -> (i, i + 1)) in
      feed d ops ~flush_at:4;
      D.halt d;
      D.restart d;
      feed d ~seq0:4 (List.map (fun (k, v) -> (k + 4, v * 10)) ops) ~flush_at:4;
      Node.halt d.D.node ~now:(D.tick d);
      cut_at_newest_marker (Filename.concat serial_dir "sync.dat");
      copy_dir serial_dir deferred_dir;
      let a = D.make ~store_dir:deferred_dir (config ()) App.app in
      let b = D.make ~store_dir:serial_dir (config ()) serial_app in
      ignore (Node.restart_begin a.D.node ~now:1000. : _ list * _);
      drain_replay a.D.node;
      ignore (Node.restart_begin b.D.node ~now:1000. : _ list * _);
      Alcotest.check Util.entry "serial restart resynced the lost marker"
        (Util.e ~inc:2 ~sii:11) (Node.current b.D.node);
      check_digests ~msg:"lost marker" a.D.node b.D.node)

(* Duplicate suppression across respawns.  Process 1 is played by hand: it
   sends a stream of Adds to process 0 over one channel, each from its own
   interval and depending on it, and its notices mark every interval it
   sent from stable and advertise the floor below which process 0 has
   logged everything it sent.  That lets process 0's flushes, checkpoints
   and notices fold deliveries into channel runs, so the checkpoint stubs
   are what remembers them.  A respawn loses the deliveries not yet
   logged; like a sender retransmitting what was never acked, the law
   offers them again at once, and they must deliver. *)
module Counter = App_model.Counter_app

type dedup_op = Send | Flush | Checkpoint | Notice | Respawn

let gen_dedup_op =
  QCheck2.Gen.frequency
    [
      (6, QCheck2.Gen.pure Send);
      (2, QCheck2.Gen.pure Flush);
      (1, QCheck2.Gen.pure Checkpoint);
      (2, QCheck2.Gen.pure Notice);
      (1, QCheck2.Gen.pure Respawn);
    ]

let print_dedup_op = function
  | Send -> "send"
  | Flush -> "flush"
  | Checkpoint -> "checkpoint"
  | Notice -> "notice"
  | Respawn -> "respawn"

let law_dedup_survives_respawn =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:150 ~name:"dedup survives a respawn from the newest checkpoint"
       ~print:QCheck2.Print.(pair bool (list print_dedup_op))
       QCheck2.Gen.(pair bool (list_size (int_range 1 60) gen_dedup_op))
       (fun (gc_logs, ops) ->
         let base =
           Recovery.Config.k_optimistic ~timing:Util.quiet_timing ~n:2 ~k:1 ()
         in
         let config = { base with protocol = { base.protocol with gc_logs } } in
         let d = D.make config Counter.app in
         let next = ref 0 in
         (* every message sent, oldest first, and whether it is logged *)
         let sent = ref [] in
         let msg i =
           let sii = i + 1 in
           let e = Util.e ~inc:0 ~sii in
           D.app_msg ~cseq:i ~src:1 ~dst:0 ~send_interval:e ~dep:[ (1, e) ] (Counter.Add sii)
         in
         let offer m =
           let count name = Util.metric d.D.node name in
           let dup0 = count "duplicates_dropped" and del0 = count "deliveries" in
           D.packet d (Recovery.Wire.App m);
           (count "duplicates_dropped" - dup0, count "deliveries" - del0)
         in
         let expect what m (dup, del) =
           let got = offer m in
           if got <> (dup, del) then
             QCheck2.Test.fail_reportf "%s %a: %d dropped, %d delivered (expected %d, %d)" what
               Recovery.Pp.identity m.Recovery.Wire.id (fst got) (snd got) dup del
         in
         let log_all () = sent := List.map (fun (m, _) -> (m, true)) !sent in
         let respawn () =
           D.restart d;
           (* the unlogged deliveries died with the node: retransmitted *)
           List.iter (fun (m, logged) -> if not logged then expect "lost" m (0, 1)) !sent
         in
         let floor () =
           match List.find_opt (fun (_, logged) -> not logged) !sent with
           | Some (m, _) -> m.Recovery.Wire.id.origin_interval.sii
           | None -> !next + 1
         in
         List.iter
           (function
             | Send ->
               let m = msg !next in
               incr next;
               sent := !sent @ [ (m, false) ];
               expect "fresh" m (0, 1)
             | Flush ->
               D.flush d;
               log_all ()
             | Checkpoint ->
               D.checkpoint d;
               log_all ()
             | Notice ->
               D.packet d
                 (Recovery.Wire.Notice
                    {
                      Recovery.Wire.from_ = 1;
                      rows = (if !next = 0 then [] else [ (1, [ Util.e ~inc:0 ~sii:!next ]) ]);
                      anns = [];
                      floor = Util.e ~inc:0 ~sii:(floor ());
                    })
             | Respawn -> respawn ())
           ops;
         respawn ();
         List.iteri
           (fun i (m, logged) ->
             if logged then begin
               expect "same-channel copy of" m (1, 0);
               expect "re-release of" { m with epoch = 1; cseq = 1_000 + i } (1, 0)
             end)
           !sent;
         expect "never-sent" (msg !next) (0, 1);
         true)

let suite =
  [
    law_partitioned_eq_serial;
    law_ckpt_prefix_eq_oneshot;
    Alcotest.test_case "lost marker: restart_begin resyncs like restart" `Quick
      test_lost_marker_resync;
    Alcotest.test_case "on-demand timeline: serve early, park until replayed"
      `Quick test_on_demand_timeline;
    Alcotest.test_case "simulated kvstore restart defers replay like a daemon" `Quick
      test_cluster_restart_like_daemon;
    law_dedup_survives_respawn;
  ]
