(* Protocol-node unit tests: every routine of Figures 2 and 3, driven by
   hand-crafted packets through the test Driver, plus regression tests for
   the three completeness holes found during development (receive-buffer
   duplicate suppression, requeued-record persistence, checkpointed pending
   sends). *)

open Depend
open Util
module Node = Recovery.Node
module Wire = Recovery.Wire
module Config = Recovery.Config
module App_intf = App_model.App_intf
module D = Util.Driver

let counter = App_model.Counter_app.app

let config ?(k = 4) ?(n = 4) ?(timing = quiet_timing) () =
  Config.k_optimistic ~timing ~n ~k ()

let vec_entries node = Dep_vector.non_null (Node.dep_vector node)

(* ------------------------------------------------------------------ *)
(* Initialize (Corollary 3)                                            *)

let test_initial_state () =
  let d = D.make (config ()) counter in
  Alcotest.check entry "current is (0,1)" (e ~inc:0 ~sii:1) (Node.current d.node);
  Alcotest.(check int) "vector all NULL" 0
    (Dep_vector.non_null_count (Node.dep_vector d.node));
  Alcotest.(check bool) "initial interval stable" true
    (Entry_set.covers (Node.log_row d.node 0) (e ~inc:0 ~sii:1));
  Alcotest.(check bool) "iet empty" true (Entry_set.is_empty (Node.iet_row d.node 1));
  Alcotest.check entry "frontier" (e ~inc:0 ~sii:1) (Node.stable_frontier d.node)

(* ------------------------------------------------------------------ *)
(* Deliver_message                                                     *)

let test_inject_starts_interval () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 5);
  Alcotest.check entry "interval advanced" (e ~inc:0 ~sii:2) (Node.current d.node);
  Alcotest.(check (list (pair int entry))) "own entry tracked"
    [ (0, e ~inc:0 ~sii:2) ] (vec_entries d.node);
  Alcotest.(check int) "deliveries counted" 1 (metric d.node "deliveries")

let test_delivery_merges_piggyback () =
  let d = D.make (config ()) counter in
  let m =
    D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:7)
      ~dep:[ (1, e ~inc:0 ~sii:7); (2, e ~inc:1 ~sii:3) ]
      (App_model.Counter_app.Add 1)
  in
  D.packet d (Wire.App m);
  Alcotest.(check (list (pair int entry)))
    "piggyback merged plus own entry"
    [ (0, e ~inc:0 ~sii:2); (1, e ~inc:0 ~sii:7); (2, e ~inc:1 ~sii:3) ]
    (vec_entries d.node)

let test_delivery_takes_lex_max () =
  let d = D.make (config ()) counter in
  let m1 =
    D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:9)
      ~dep:[ (1, e ~inc:0 ~sii:9) ] (App_model.Counter_app.Add 1)
  in
  let m2 =
    D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:4) ~idx:1
      ~dep:[ (1, e ~inc:0 ~sii:4) ] (App_model.Counter_app.Add 1)
  in
  D.packet d (Wire.App m1);
  D.packet d (Wire.App m2);
  Alcotest.(check (option entry)) "max kept" (Some (e ~inc:0 ~sii:9))
    (Dep_vector.get (Node.dep_vector d.node) 1)

(* ------------------------------------------------------------------ *)
(* Send_message / Check_send_buffer / K                                *)

let test_send_released_when_under_k () =
  let d = D.make (config ~k:4 ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 2; amount = 1 });
  match D.released d with
  | [ m ] ->
    Alcotest.(check int) "to P2" 2 m.Wire.dst;
    Alcotest.(check (list (pair int entry))) "carries own non-stable interval"
      [ (0, e ~inc:0 ~sii:2) ] m.Wire.dep
  | ms -> Alcotest.failf "expected one release, got %d" (List.length ms)

let test_send_blocked_at_k0_until_flush () =
  let d = D.make (config ~k:0 ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 2; amount = 1 });
  Alcotest.(check (list reject)) "held" [] (List.map (fun _ -> ()) (D.released d));
  Alcotest.(check int) "buffered" 1 (Node.send_buffer_size d.node);
  D.flush d;
  (match D.released d with
  | [ m ] -> Alcotest.(check int) "0 risky entries" 0 (List.length m.Wire.dep)
  | _ -> Alcotest.fail "flush should release the send");
  Alcotest.(check int) "buffer empty" 0 (Node.send_buffer_size d.node)

let test_send_blocked_by_remote_dependency () =
  let d = D.make (config ~k:1 ()) counter in
  (* Acquire two non-stable dependencies: P1's interval and our own. *)
  let m =
    D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
      ~dep:[ (1, e ~inc:0 ~sii:5) ]
      (App_model.Counter_app.Forward { dst = 2; amount = 1 })
  in
  D.packet d (Wire.App m);
  Alcotest.(check int) "blocked: two entries > K=1" 1 (Node.send_buffer_size d.node);
  (* Stability news about P1 elides its entry; one entry (ours) remains. *)
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:5 ]) ]);
  Alcotest.(check int) "released" 0 (Node.send_buffer_size d.node);
  match D.released d with
  | [ m ] ->
    Alcotest.(check (list (pair int entry))) "only own entry left"
      [ (0, e ~inc:0 ~sii:2) ] m.Wire.dep
  | _ -> Alcotest.fail "expected release after notice"

let test_per_message_k_override () =
  let plan =
    App_model.Script_app.make_plan
      [ (0, "go", [ App_intf.send ~k:0 2 "risky"; App_intf.send 3 "normal" ]) ]
  in
  let d = D.make (config ~k:4 ()) (App_model.Script_app.app plan) in
  D.inject d ~seq:1 "go";
  (* The k:0 message must wait for stability; the default-k one leaves. *)
  let released = D.released d in
  Alcotest.(check int) "one released" 1 (List.length released);
  Alcotest.(check int) "one blocked" 1 (Node.send_buffer_size d.node);
  Alcotest.(check int) "released one goes to P3" 3 (List.hd released).Wire.dst;
  D.clear d;
  D.flush d;
  match D.released d with
  | [ m ] -> Alcotest.(check int) "0-optimistic follows flush" 2 m.Wire.dst
  | _ -> Alcotest.fail "expected the k=0 message after flush"

let test_pessimistic_sync_logging () =
  let d = D.make (Config.pessimistic ~timing:quiet_timing ~n:4 ()) counter in
  let sync0 = Util.metric d.node "storage_sync_writes" in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 2 });
  (* Logged synchronously on delivery, so the send leaves at once with an
     empty vector: no failure can ever revoke it. *)
  (match D.released d with
  | [ m ] -> Alcotest.(check int) "no risky entries" 0 (List.length m.Wire.dep)
  | _ -> Alcotest.fail "pessimistic send must not block");
  Alcotest.(check bool) "synchronous write happened" true
    (Util.metric d.node "storage_sync_writes" > sync0)

(* ------------------------------------------------------------------ *)
(* Check_deliverability (Corollary 1)                                  *)

let incoming_from ?(idx = 0) ~src ~inc ~sii dep payload =
  D.app_msg ~idx ~src ~dst:0 ~send_interval:(e ~inc ~sii) ~dep payload

let test_deliverable_no_local_entry () =
  (* The Figure 1 m7/P5 case: no local entry for the sender at all. *)
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:3 ~sii:9 [ (1, e ~inc:3 ~sii:9) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "delivered without any announcement" 1
    (metric d.node "deliveries")

let test_deliverable_same_incarnation () =
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 1)));
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:9 ~idx:1 [ (1, e ~inc:0 ~sii:9) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "both delivered" 2 (metric d.node "deliveries")

let test_delivery_waits_for_smaller_stability () =
  (* Section 3's improvement: dependency on (t-4, x) is overwritten by
     (t, x+10) as soon as the smaller interval is known stable — no need to
     wait for intervening announcements. *)
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 1)));
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:2 ~sii:9 ~idx:1 [ (1, e ~inc:2 ~sii:9) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "second waits" 1 (metric d.node "deliveries");
  Alcotest.(check int) "buffered" 1 (Node.receive_buffer_size d.node);
  (* A logging-progress notification makes (0,5) stable: delivery proceeds
     and the entry is overwritten by the lexicographic max. *)
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:6 ]) ]);
  Alcotest.(check int) "unblocked" 2 (metric d.node "deliveries");
  Alcotest.(check (option entry)) "overwritten to the larger incarnation"
    (Some (e ~inc:2 ~sii:9))
    (Dep_vector.get (Node.dep_vector d.node) 1)

let test_delivery_unblocked_by_announcement () =
  (* Corollary 1: the rollback announcement itself says the ending interval
     is stable. *)
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:4 [ (1, e ~inc:0 ~sii:4) ]
                 (App_model.Counter_app.Add 1)));
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:1 ~sii:8 ~idx:1 [ (1, e ~inc:1 ~sii:8) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "conflicting incarnation waits" 1 (metric d.node "deliveries");
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "announcement doubles as stability news" 2
    (metric d.node "deliveries")

let test_wait_announcement_rule () =
  let d = D.make (Config.strom_yemini ~timing:quiet_timing ~n:4 ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:1 ~sii:8 [ (1, e ~inc:1 ~sii:8) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "incarnation 1 needs the announcement for 0" 0
    (metric d.node "deliveries");
  D.packet d (Wire.Ann { Wire.from_ = 1; ending = e ~inc:0 ~sii:4; failure = false });
  Alcotest.(check int) "announcement admits it" 1 (metric d.node "deliveries")

let test_wait_announcement_own_incarnation () =
  (* Regression: a process never receives its own broadcast, yet must accept
     dependencies on its own later incarnations. *)
  let d = D.make (Config.strom_yemini ~timing:quiet_timing ~n:4 ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1);
  D.halt d;
  D.restart d;
  Alcotest.(check int) "in incarnation 1" 1 (Node.current d.node).Entry.inc;
  D.clear d;
  D.packet d
    (Wire.App
       (incoming_from ~src:2 ~inc:0 ~sii:3
          [ (2, e ~inc:0 ~sii:3); (0, e ~inc:1 ~sii:(Node.current d.node).Entry.sii) ]
          (App_model.Counter_app.Add 1)));
  (* one live delivery before the crash, plus this one *)
  Alcotest.(check int) "dep on own incarnation delivered" 2
    (metric d.node "deliveries");
  Alcotest.(check int) "nothing left buffered" 0 (Node.receive_buffer_size d.node)

(* ------------------------------------------------------------------ *)
(* Check_orphan                                                        *)

let test_orphan_discarded_on_arrival () =
  let d = D.make (config ()) counter in
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  D.packet d
    (Wire.App (incoming_from ~src:2 ~inc:0 ~sii:3
                 [ (2, e ~inc:0 ~sii:3); (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "discarded" 1 (metric d.node "orphans_discarded");
  Alcotest.(check int) "not delivered" 0 (metric d.node "deliveries")

let test_orphan_discarded_from_receive_buffer () =
  let d = D.make (config ()) counter in
  (* Undeliverable (incarnation conflict) and also orphan-to-be. *)
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 1)));
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:2 ~sii:9 ~idx:1
                 [ (1, e ~inc:2 ~sii:9); (2, e ~inc:0 ~sii:8) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "one buffered" 1 (Node.receive_buffer_size d.node);
  D.packet d (Wire.Ann (D.ann ~from_:2 ~ending:(e ~inc:0 ~sii:7) ()));
  Alcotest.(check int) "buffered orphan purged" 0 (Node.receive_buffer_size d.node);
  Alcotest.(check int) "counted" 1 (metric d.node "orphans_discarded")

let test_receive_buffer_duplicate_suppressed () =
  (* Regression: a retransmitted copy racing the buffered original must not
     lead to a double delivery. *)
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 1)));
  let blocked =
    incoming_from ~src:1 ~inc:2 ~sii:9 ~idx:1 [ (1, e ~inc:2 ~sii:9) ]
      (App_model.Counter_app.Add 7)
  in
  D.packet d (Wire.App blocked);
  D.packet d (Wire.App blocked);
  Alcotest.(check int) "single buffered copy" 1 (Node.receive_buffer_size d.node);
  Alcotest.(check int) "duplicate counted" 1 (metric d.node "duplicates_dropped");
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:5 ]) ]);
  Alcotest.(check int) "delivered exactly twice in total" 2
    (metric d.node "deliveries")

let test_duplicate_of_delivered_dropped () =
  let d = D.make (config ()) counter in
  let m =
    incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
      (App_model.Counter_app.Add 3)
  in
  D.packet d (Wire.App m);
  D.packet d (Wire.App m);
  Alcotest.(check int) "one delivery" 1 (metric d.node "deliveries");
  Alcotest.(check int) "duplicate dropped" 1 (metric d.node "duplicates_dropped")

(* ------------------------------------------------------------------ *)
(* Receive_failure_ann / Rollback                                      *)

let test_announcement_no_rollback_when_clean () =
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:4 [ (1, e ~inc:0 ~sii:4) ]
                 (App_model.Counter_app.Add 1)));
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "no rollback" 0 (metric d.node "induced_rollbacks");
  (* Corollary 1 applied: (0,4) is now known stable, so the entry is elided
     (Theorem 2). *)
  Alcotest.(check (option entry)) "entry elided" None
    (Dep_vector.get (Node.dep_vector d.node) 1);
  Alcotest.(check bool) "iet recorded" true
    (Entry_set.orphans (Node.iet_row d.node 1) (e ~inc:0 ~sii:5))

let test_announcement_triggers_rollback () =
  let d = D.make (config ()) counter in
  let digest_before = counter.App_intf.digest (Node.app_state d.node) in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 100)));
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "rollback happened" 1 (metric d.node "induced_rollbacks");
  Alcotest.(check int) "orphan delivery undone" 1 (metric d.node "undone_intervals");
  Alcotest.check entry "new incarnation, next index" (e ~inc:1 ~sii:2)
    (Node.current d.node);
  Alcotest.(check int) "state reverted" digest_before
    (counter.App_intf.digest (Node.app_state d.node));
  (* Theorem 1: the induced rollback is not announced. *)
  Alcotest.(check int) "no announcement" 0 (List.length (D.announcements d))

let test_strom_yemini_announces_induced_rollback () =
  let d = D.make (Config.strom_yemini ~timing:quiet_timing ~n:4 ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 100)));
  D.clear d;
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  match D.announcements d with
  | [ a ] ->
    Alcotest.(check bool) "marked as non-failure" false a.Wire.failure;
    Alcotest.(check int) "from this process" 0 a.Wire.from_
  | l -> Alcotest.failf "expected exactly one announcement, got %d" (List.length l)

let test_rollback_requeues_non_orphans () =
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 100)));
  (* A client message delivered after the orphan: undone but not orphan. *)
  D.inject d ~seq:1 (App_model.Counter_app.Add 7);
  Alcotest.(check int) "two deliveries" 2 (metric d.node "deliveries");
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  (* The orphan is discarded; the client message is re-delivered in the new
     incarnation. *)
  Alcotest.(check int) "orphan discarded" 1 (metric d.node "orphans_discarded");
  Alcotest.(check int) "three deliveries total" 3 (metric d.node "deliveries");
  (* rollback continues as the marker interval (1,2); the re-delivery then
     starts (1,3) *)
  Alcotest.check entry "re-delivered at (1,3)" (e ~inc:1 ~sii:3) (Node.current d.node);
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "only the client effect survives" 7 st.total

let test_rollback_restores_matching_checkpoint () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1);
  D.checkpoint d (* clean checkpoint at (0,2) *);
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 100)));
  D.checkpoint d (* checkpoint whose vector depends on the orphan *);
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "rollback" 1 (metric d.node "induced_rollbacks");
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "clean state restored" 1 st.total;
  Alcotest.check entry "continues past the clean checkpoint" (e ~inc:1 ~sii:3)
    (Node.current d.node)

let test_rollback_cancels_pending_orphan_sends () =
  let d = D.make (config ~k:0 ()) counter in
  (* The forwarded send depends on P1's soon-orphan interval; K=0 keeps it
     buffered. *)
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Forward { dst = 2; amount = 1 })));
  Alcotest.(check int) "pending" 1 (Node.send_buffer_size d.node);
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "cancelled" 1 (metric d.node "cancelled_sends");
  Alcotest.(check int) "buffer empty" 0 (Node.send_buffer_size d.node);
  Alcotest.(check (list reject)) "never released" []
    (List.map (fun _ -> ()) (D.released d))

(* ------------------------------------------------------------------ *)
(* Checkpoint (Corollary 2)                                            *)

let test_checkpoint_elides_own_entry () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1);
  Alcotest.(check int) "own entry present" 1
    (Dep_vector.non_null_count (Node.dep_vector d.node));
  D.checkpoint d;
  Alcotest.(check int) "own entry elided" 0
    (Dep_vector.non_null_count (Node.dep_vector d.node));
  Alcotest.check entry "frontier advanced" (e ~inc:0 ~sii:2)
    (Node.stable_frontier d.node)

(* ------------------------------------------------------------------ *)
(* Crash / Restart                                                     *)

let test_restart_announces_and_replays () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 10);
  D.inject d ~seq:2 (App_model.Counter_app.Add 20);
  D.flush d;
  D.inject d ~seq:3 (App_model.Counter_app.Add 40) (* volatile: will be lost *);
  let digest_stable =
    let st : App_model.Counter_app.state = Node.app_state d.node in
    ignore st;
    ()
  in
  ignore digest_stable;
  D.halt d;
  Alcotest.(check bool) "down" false (Node.is_up d.node);
  Alcotest.(check int) "one interval lost" 1 (metric d.node "lost_intervals");
  D.clear d;
  D.restart d;
  Alcotest.(check bool) "up" true (Node.is_up d.node);
  (match D.announcements d with
  | [ a ] ->
    Alcotest.(check bool) "failure announcement" true a.Wire.failure;
    Alcotest.check entry "ending = last stable interval" (e ~inc:0 ~sii:3)
      a.Wire.ending
  | l -> Alcotest.failf "expected one announcement, got %d" (List.length l));
  Alcotest.check entry "new incarnation" (e ~inc:1 ~sii:4) (Node.current d.node);
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "stable prefix replayed, volatile lost" 30 st.total;
  Alcotest.(check int) "replay counted" 2 (metric d.node "replayed")

let test_restart_dedupes_stable_retransmission () =
  let d = D.make (config ()) counter in
  let m =
    incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
      (App_model.Counter_app.Add 3)
  in
  D.packet d (Wire.App m);
  D.flush d;
  D.halt d;
  D.restart d;
  D.packet d (Wire.App m) (* sender retransmits after the announcement *);
  Alcotest.(check int) "replayed delivery recognized, duplicate dropped" 1
    (metric d.node "duplicates_dropped");
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "applied exactly once" 3 st.total

let test_restart_accepts_retransmission_of_lost () =
  let d = D.make (config ()) counter in
  let m =
    incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
      (App_model.Counter_app.Add 3)
  in
  D.packet d (Wire.App m);
  (* no flush: the delivery is volatile and dies with the crash *)
  D.halt d;
  D.restart d;
  D.packet d (Wire.App m);
  Alcotest.(check int) "re-delivered, not a duplicate" 0
    (metric d.node "duplicates_dropped");
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "applied once" 3 st.total

let test_replay_regenerates_sends () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 2; amount = 5 });
  D.flush d;
  Alcotest.(check int) "released live" 1 (List.length (D.released d));
  D.halt d;
  D.clear d;
  D.restart d;
  (* The send is regenerated during replay and re-released; the receiver's
     duplicate suppression keeps this harmless. *)
  match D.released d with
  | [ m ] ->
    Alcotest.(check int) "same destination" 2 m.Wire.dst;
    Alcotest.check entry "same identity interval" (e ~inc:0 ~sii:2)
      m.Wire.id.Wire.origin_interval
  | l -> Alcotest.failf "expected regenerated send, got %d" (List.length l)

let test_committed_output_not_repeated () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 4);
  D.inject d ~seq:2 App_model.Counter_app.Report;
  D.flush d (* own intervals stable: output commits *);
  Alcotest.(check int) "committed" 1 (metric d.node "outputs_committed");
  D.halt d;
  D.restart d;
  Alcotest.(check int) "not re-committed by replay" 1
    (metric d.node "outputs_committed");
  Alcotest.(check (list string)) "ledger intact" [ "p0 total=4" ]
    (List.map fst (committed_outputs d.trace ~pid:0))

let test_incarnations_never_reused () =
  let d = D.make (config ()) counter in
  for seq = 1 to 3 do
    D.inject d ~seq (App_model.Counter_app.Add 1);
    D.halt d;
    D.restart d
  done;
  Alcotest.(check int) "three distinct incarnations consumed" 3
    (Node.current d.node).Entry.inc

let test_checkpointed_pending_send_survives_crash () =
  (* Regression: a send blocked by the K rule when a checkpoint is taken is
     not regenerated by replay (replay starts at the checkpoint); the
     checkpoint must carry it. *)
  let d = D.make (config ~k:0 ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Forward { dst = 2; amount = 9 })));
  Alcotest.(check int) "blocked by K=0" 1 (Node.send_buffer_size d.node);
  D.checkpoint d;
  Alcotest.(check int) "still blocked (P1's interval not stable)" 1
    (Node.send_buffer_size d.node);
  D.halt d;
  D.restart d;
  Alcotest.(check int) "pending send restored from checkpoint" 1
    (Node.send_buffer_size d.node);
  D.clear d;
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:5 ]) ]);
  match D.released d with
  | [ m ] -> Alcotest.(check int) "released to P2 after stability" 2 m.Wire.dst
  | l -> Alcotest.failf "expected 1 release, got %d" (List.length l)

let test_requeued_record_survives_crash () =
  (* Regression: a rollback truncates the log and requeues non-orphans; a
     crash right after must still recover them (Requeued records). *)
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 100)));
  D.inject d ~seq:1 (App_model.Counter_app.Add 7);
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  (* the marker interval is (1,2); the client re-delivery starts (1,3) and
     is volatile *)
  Alcotest.check entry "re-delivered" (e ~inc:1 ~sii:3) (Node.current d.node);
  D.halt d;
  D.restart d;
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "client effect recovered from Requeued record" 7 st.total

(* ------------------------------------------------------------------ *)
(* Output commit                                                       *)

let test_output_waits_for_stability () =
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 2)));
  D.inject d ~seq:1 App_model.Counter_app.Report;
  D.flush d (* own intervals stable, but P1's dependency is not *);
  Alcotest.(check int) "not yet committed" 0 (metric d.node "outputs_committed");
  Alcotest.(check int) "buffered" 1 (Node.output_buffer_size d.node);
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:5 ]) ]);
  Alcotest.(check int) "committed once all dependencies stable" 1
    (metric d.node "outputs_committed");
  Alcotest.(check (list string)) "text" [ "p0 total=2" ]
    (List.map fst (committed_outputs d.trace ~pid:0))

let test_output_driven_logging () =
  let base = config () in
  let cfg =
    {
      base with
      Config.protocol = { base.Config.protocol with output_driven_logging = true };
    }
  in
  let d = D.make cfg counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 2)));
  D.clear d;
  D.inject d ~seq:1 App_model.Counter_app.Report;
  let flush_requests =
    List.filter_map
      (function
        | Node.Unicast { dst; packet = Wire.Flush_request _ } -> Some dst
        | Node.Unicast _ | Node.Broadcast _ -> None)
      (D.actions d)
  in
  Alcotest.(check (list int)) "flush forced at the dependency" [ 1 ] flush_requests

let test_flush_request_answered () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1);
  D.clear d;
  D.packet d (Wire.Flush_request { from_ = 2 });
  let notices =
    List.filter_map
      (function
        | Node.Unicast { dst; packet = Wire.Notice _ } -> Some dst
        | Node.Unicast _ | Node.Broadcast _ -> None)
      (D.actions d)
  in
  Alcotest.(check (list int)) "direct notice back" [ 2 ] notices;
  Alcotest.check entry "flushed" (e ~inc:0 ~sii:2) (Node.stable_frontier d.node)

(* ------------------------------------------------------------------ *)
(* Acks, archive and retransmission                                    *)

let test_flush_acks_senders () =
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:5 [ (1, e ~inc:0 ~sii:5) ]
                 (App_model.Counter_app.Add 1)));
  D.clear d;
  D.flush d;
  let acks =
    List.filter_map
      (function
        | Node.Unicast { dst; packet = Wire.Ack a } -> Some (dst, List.length a.Wire.ids)
        | Node.Unicast _ | Node.Broadcast _ -> None)
      (D.actions d)
  in
  Alcotest.(check (list (pair int int))) "one ack to the sender" [ (1, 1) ] acks

let test_retransmit_on_failure_announcement () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 5 });
  Alcotest.(check int) "released" 1 (List.length (D.released d));
  D.clear d;
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:9) ()));
  (match D.released d with
  | [ m ] -> Alcotest.(check int) "archived copy resent to restarted P1" 1 m.Wire.dst
  | l -> Alcotest.failf "expected 1 retransmission, got %d" (List.length l));
  Alcotest.(check int) "metric" 1 (metric d.node "retransmissions")

let test_ack_stops_retransmission () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 5 });
  let released = D.released d in
  let id = (List.hd released).Wire.id in
  D.packet d (Wire.Ack { Wire.from_ = 1; to_ = 0; ids = [ id ] });
  D.clear d;
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:9) ()));
  Alcotest.(check int) "archive empty, nothing resent" 0
    (List.length (D.released d))

let test_no_retransmission_for_induced_rollback () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 5 });
  D.clear d;
  (* Non-failure announcement (as broadcast by the Strom–Yemini preset):
     the receiver lost nothing, so nothing is retransmitted. *)
  D.packet d (Wire.Ann { Wire.from_ = 1; ending = e ~inc:0 ~sii:9; failure = false });
  Alcotest.(check int) "no retransmission" 0 (List.length (D.released d))

(* ------------------------------------------------------------------ *)
(* Driver-facing details                                               *)

let test_down_node_ignores_packets () =
  let d = D.make (config ()) counter in
  D.halt d;
  D.packet d
    (Wire.App (incoming_from ~src:1 ~inc:0 ~sii:2 [ (1, e ~inc:0 ~sii:2) ]
                 (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "nothing delivered while down" 0 (metric d.node "deliveries")

let test_cost_accounting () =
  let d = D.make (config ()) counter in
  let _, cost = Node.inject d.node ~now:1. ~seq:9 (App_model.Counter_app.Add 1) in
  Alcotest.(check int) "one delivery" 1 cost.Node.deliveries;
  let _, cost = Node.checkpoint d.node ~now:2. in
  Alcotest.(check int) "one checkpoint" 1 cost.Node.checkpoints;
  Alcotest.(check bool) "sync writes counted" true (cost.Node.sync_writes >= 1)

let test_sy_wire_size_is_n () =
  let d = D.make (Config.strom_yemini ~timing:quiet_timing ~n:4 ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 1 });
  Alcotest.(check (float 0.0)) "fixed size-N vector on the wire" 4.
    (match Obs.Snapshot.hist (Obs.Registry.snapshot (Node.obs d.node)) "wire_vector_size" with
    | Some h -> Obs.Snapshot.hist_mean h
    | None -> nan)

(* A node's scrape costs O(series × buckets), never O(traffic): after 100
   deliveries and after 10,000 it holds the same series, within the same
   budget of encoded bytes: per series a fixed cost (its name, labels, tag
   and a histogram's three floats and bucket count, 160 bytes covering
   names up to ~100 characters) plus 16 bytes per non-empty bucket. *)
let test_scrape_bounded () =
  let d = D.make (config ~k:1 ()) counter in
  let drive ~from ~upto =
    for seq = from to upto do
      D.inject d ~seq
        (match seq mod 3 with
        | 0 -> App_model.Counter_app.Forward { dst = 1 + (seq mod 3); amount = 1 }
        | 1 -> App_model.Counter_app.Report
        | _ -> App_model.Counter_app.Add 1);
      if seq mod 10 = 0 then D.flush d;
      D.clear d
    done;
    Obs.Registry.snapshot (Node.obs d.node)
  in
  let small = drive ~from:1 ~upto:100 in
  let large = drive ~from:101 ~upto:10_000 in
  Alcotest.(check (pair int int)) "deliveries counted" (100, 10_000)
    ( Obs.Snapshot.counter small "deliveries_total",
      Obs.Snapshot.counter large "deliveries_total" );
  Alcotest.(check bool) "histograms saw the traffic" true
    (match Obs.Snapshot.hist large "output_latency" with
    | Some h -> Obs.Snapshot.hist_count h > 1000
    | None -> false);
  let series snap = List.map fst (Obs.Snapshot.bindings snap) in
  Alcotest.(check bool) "same series at 100 and 10,000 deliveries" true
    (series small = series large);
  List.iter
    (fun snap ->
      let bytes = String.length (Durable.Form.encode Net.Wire_codec.snapshot snap) in
      let budget = 8 + (List.length (series snap) * (160 + (Obs.Histogram.bucket_count * 16))) in
      if bytes > budget then Alcotest.failf "%d encoded bytes over a budget of %d" bytes budget)
    [ small; large ]

(* The cost of a delivery must not grow with the buffered backlog
   (ROADMAP items 11 and 14).  At K=1 with flushes withheld, each Report's
   output waits on its own interval, so the output buffer grows by one per
   delivery.  Minor words per delivery over deliveries 391-400 may be at
   most 1.5x those over 11-20: a list buffer, appended with [@] and
   re-partitioned on every delivery, allocates per buffered output on each
   one.  A final flush commits every output in the order it was buffered. *)
let test_backlog_cost_flat () =
  let d = D.make (config ~k:1 ~n:1 ()) counter in
  let deliveries = 400 in
  let words = Array.make (deliveries + 1) 0. in
  for seq = 1 to deliveries do
    let w0 = Gc.minor_words () in
    D.inject d ~seq App_model.Counter_app.Report;
    words.(seq) <- Gc.minor_words () -. w0;
    D.clear d
  done;
  Alcotest.(check int) "every output still buffered" deliveries
    (Node.output_buffer_size d.node);
  let per_delivery lo hi =
    let sum = ref 0. in
    for i = lo to hi do
      sum := !sum +. words.(i)
    done;
    !sum /. float_of_int (hi - lo + 1)
  in
  let early = per_delivery 11 20 and late = per_delivery 391 400 in
  if late > 1.5 *. early then
    Alcotest.failf "%.0f minor words per delivery at a backlog of ~400, %.0f at ~15" late early;
  D.flush d;
  Alcotest.(check int) "the flush committed every output" 0 (Node.output_buffer_size d.node);
  let ids f =
    List.filter_map (fun { Recovery.Trace.ev; _ } -> f ev) (Recovery.Trace.events d.trace)
  in
  let buffered = ids (function Recovery.Trace.Output_buffered { id; _ } -> Some id | _ -> None) in
  let committed = ids (function Recovery.Trace.Output_committed { id; _ } -> Some id | _ -> None) in
  Alcotest.(check int) "every output buffered once" deliveries (List.length buffered);
  Alcotest.(check bool) "committed in buffered order" true (committed = buffered)

(* ------------------------------------------------------------------ *)
(* Bounded duplicate suppression                                       *)

let dedup_sizes = Alcotest.(triple int int int)

(* The sender's notice, as its next broadcast would carry it. *)
let notice_from s r =
  match Node.current_notice s.D.node with
  | Some n -> D.packet r (Wire.Notice n)
  | None -> Alcotest.fail "sender is down"

(* Hand the receiver's acks to the sender, so its archive empties. *)
let acks_back r s =
  List.iter
    (function
      | Node.Unicast { dst; packet = Wire.Ack _ as packet } when dst = Node.pid s.D.node ->
        D.packet s packet
      | Node.Unicast _ | Node.Broadcast _ -> ())
    (D.actions r)

let only_release d =
  match D.released d with
  | [ m ] -> m
  | l -> Alcotest.failf "expected one release, got %d" (List.length l)

(* A crashed sender re-releases what its replay regenerates under a fresh
   channel number.  The receiver committed the original before the crash,
   so it no longer sits among the open deliveries — yet both copies must
   still be dropped, before and after the sender's new floor covers the
   origin interval. *)
let test_rerelease_after_commit_dropped () =
  let cfg = config ~k:2 ~n:2 () in
  let s = D.make ~pid:0 cfg counter and r = D.make ~pid:1 cfg counter in
  D.inject s ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 5 });
  D.flush s (* the sending interval is stable: replay will regenerate the send *);
  let original = only_release s in
  D.packet r (Wire.App original);
  notice_from s r;
  D.flush r (* the receiver's vector is all stable: the delivery commits *);
  Alcotest.check dedup_sizes "committed, held by identity" (0, 1, 0)
    (Node.dedup_sizes r.node);
  D.halt s;
  D.clear s;
  D.restart s;
  let again = only_release s in
  Alcotest.(check bool) "same identity" true (again.Wire.id = original.Wire.id);
  Alcotest.(check bool) "fresh channel number" true
    (again.Wire.epoch > original.Wire.epoch);
  D.packet r (Wire.App again);
  Alcotest.(check int) "re-release dropped" 1 (metric r.node "duplicates_dropped");
  (* The sender's first checkpoint after the restart advertises a floor
     above the origin interval; copies of either numbering may still be in
     flight. *)
  D.inject s ~seq:2 (App_model.Counter_app.Add 1);
  D.checkpoint s;
  notice_from s r;
  D.checkpoint r;
  D.packet r (Wire.App again);
  D.packet r (Wire.App original);
  Alcotest.(check int) "both numberings still dropped" 3
    (metric r.node "duplicates_dropped");
  Alcotest.(check int) "delivered once" 1 (metric r.node "deliveries");
  let st : App_model.Counter_app.state = Node.app_state r.node in
  Alcotest.(check int) "applied once" 5 st.total

(* Storage damage drops the sender's anchor checkpoint, the one that set
   the floor the receiver folded by.  The sender's restart replays from
   the checkpoint before it and re-releases the send under a fresh epoch;
   the receiver no longer knows the original by identity or by this
   channel, and must still drop the copy by the floor. *)
let test_anchor_loss_rerelease_dropped () =
  let dir = Durable.Temp.fresh_dir ~prefix:"test-anchor-loss" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf dir)
    (fun () ->
      let cfg = config ~k:2 ~n:2 () in
      let s = D.make ~pid:0 ~store_dir:dir cfg counter and r = D.make ~pid:1 cfg counter in
      D.inject s ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 5 });
      D.flush s;
      let original = only_release s in
      D.packet r (Wire.App original);
      D.flush r;
      acks_back r s;
      (* The anchor: a checkpoint in a later, stable interval, with nothing
         pending or unacked, so the floor passes the send's interval. *)
      D.inject s ~seq:2 (App_model.Counter_app.Add 1);
      D.flush s;
      D.checkpoint s;
      notice_from s r;
      D.checkpoint r;
      Alcotest.check dedup_sizes "original folded" (0, 0, 1) (Node.dedup_sizes r.node);
      Node.halt s.node ~now:100.;
      let anchor = Filename.concat dir "ckpt-000000000001.dat" in
      Alcotest.(check bool) "anchor checkpoint on disk" true (Sys.file_exists anchor);
      Sys.remove anchor;
      let s' = D.make ~pid:0 ~store_dir:dir cfg counter in
      D.restart s';
      let again = only_release s' in
      Alcotest.(check bool) "the send regenerated" true (again.Wire.id = original.Wire.id);
      Alcotest.(check bool) "under a fresh epoch" true
        (again.Wire.epoch > original.Wire.epoch);
      D.packet r (Wire.App again);
      Alcotest.(check int) "re-release dropped" 1 (metric r.node "duplicates_dropped");
      Alcotest.(check int) "delivered once" 1 (metric r.node "deliveries");
      let st : App_model.Counter_app.state = Node.app_state r.node in
      Alcotest.(check int) "applied once" 5 st.total)

(* The floor stops below a release its destination has not acked: here
   the original was lost on the way, so the copy the sender re-releases
   after losing its anchor checkpoint is the only one, and must be
   delivered. *)
let test_unacked_release_bounds_floor () =
  let dir = Durable.Temp.fresh_dir ~prefix:"test-unacked-floor" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf dir)
    (fun () ->
      let cfg = config ~k:2 ~n:2 () in
      let s = D.make ~pid:0 ~store_dir:dir cfg counter and r = D.make ~pid:1 cfg counter in
      D.inject s ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 5 });
      D.flush s;
      ignore (only_release s : App_model.Counter_app.msg Wire.app_message);
      D.inject s ~seq:2 (App_model.Counter_app.Add 1);
      D.flush s;
      D.checkpoint s;
      notice_from s r;
      Node.halt s.node ~now:100.;
      Sys.remove (Filename.concat dir "ckpt-000000000001.dat");
      let s' = D.make ~pid:0 ~store_dir:dir cfg counter in
      D.restart s';
      D.packet r (Wire.App (only_release s'));
      Alcotest.(check int) "delivered" 1 (metric r.node "deliveries");
      let st : App_model.Counter_app.state = Node.app_state r.node in
      Alcotest.(check int) "applied" 5 st.total)

(* The floors a receiver heard outlive its own log GC and restart: the
   collected delivery survives only as a channel run in Gc_stubs, and a
   copy re-released under a later sender epoch is dropped by the floor
   persisted beside it. *)
let test_floors_survive_gc_restart () =
  let cfg =
    let base = config ~k:2 ~n:2 () in
    { base with Config.protocol = { base.Config.protocol with gc_logs = true } }
  in
  let s = D.make ~pid:0 cfg counter and r = D.make ~pid:1 cfg counter in
  D.inject s ~seq:1 (App_model.Counter_app.Forward { dst = 1; amount = 5 });
  D.flush s;
  let original = only_release s in
  D.packet r (Wire.App original);
  D.flush r;
  acks_back r s;
  D.inject s ~seq:2 (App_model.Counter_app.Add 1);
  D.flush s;
  D.checkpoint s;
  notice_from s r;
  D.checkpoint r;
  Alcotest.check dedup_sizes "original folded" (0, 0, 1) (Node.dedup_sizes r.node);
  Alcotest.(check bool) "delivery collected" true
    (Node.live_log_records r.node < Node.stable_log_length r.node);
  D.halt r;
  D.restart r;
  D.packet r (Wire.App { original with Wire.epoch = 1; cseq = 0 });
  D.packet r (Wire.App original);
  Alcotest.(check int) "both copies dropped" 2 (metric r.node "duplicates_dropped");
  let st : App_model.Counter_app.state = Node.app_state r.node in
  Alcotest.(check int) "applied once" 5 st.total

(* A delivery in a stable interval is not committed while it depends on
   another process's non-stable interval: that process's crash rolls it
   back, so it must stay among the open deliveries and vanish with the
   rollback, never fold. *)
let test_stable_orphan_not_folded () =
  let d = D.make (config ()) counter in
  let m =
    D.app_msg ~cseq:0 ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
      ~dep:[ (1, e ~inc:0 ~sii:5) ]
      (App_model.Counter_app.Add 100)
  in
  D.packet d (Wire.App m);
  (* P1's floor covers the send, so only commitment stands in the way. *)
  D.packet d
    (Wire.Notice { Wire.from_ = 1; rows = []; anns = []; floor = e ~inc:0 ~sii:50 });
  D.flush d;
  D.checkpoint d;
  Alcotest.check dedup_sizes "stable but open" (1, 0, 0) (Node.dedup_sizes d.node);
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "rolled back" 1 (metric d.node "induced_rollbacks");
  Alcotest.check dedup_sizes "gone with the rollback" (0, 0, 0) (Node.dedup_sizes d.node);
  let orphans = metric d.node "orphans_discarded" in
  D.packet d (Wire.App m);
  Alcotest.(check int) "a late copy is an orphan" (orphans + 1)
    (metric d.node "orphans_discarded");
  Alcotest.(check int) "not a duplicate" 0 (metric d.node "duplicates_dropped")

(* Committed injections fold into one run per channel; an injection that
   never arrived costs one gap, however many follow it. *)
let test_lost_injection_one_gap () =
  let d = D.make (config ()) counter in
  for cseq = 0 to 99 do
    if cseq <> 3 then D.inject d ~cseq ~seq:(cseq + 1) (App_model.Counter_app.Add 1)
  done;
  D.flush d;
  Alcotest.check dedup_sizes "two runs" (0, 0, 2) (Node.dedup_sizes d.node);
  D.inject d ~cseq:50 ~seq:51 (App_model.Counter_app.Add 1);
  Alcotest.(check int) "retry dropped" 1 (metric d.node "duplicates_dropped");
  D.inject d ~cseq:3 ~seq:4 (App_model.Counter_app.Add 1);
  D.flush d;
  Alcotest.check dedup_sizes "late arrival closes the gap" (0, 0, 1) (Node.dedup_sizes d.node);
  Alcotest.(check int) "every injection delivered once" 100 (metric d.node "deliveries")

let suite =
  [
    Alcotest.test_case "Initialize (Corollary 3)" `Quick test_initial_state;
    Alcotest.test_case "scrape stays bounded as traffic grows" `Quick test_scrape_bounded;
    Alcotest.test_case "delivery cost flat as the output backlog deepens" `Quick
      test_backlog_cost_flat;
    Alcotest.test_case "delivery starts interval" `Quick test_inject_starts_interval;
    Alcotest.test_case "delivery merges piggyback" `Quick test_delivery_merges_piggyback;
    Alcotest.test_case "delivery takes lexicographic max" `Quick test_delivery_takes_lex_max;
    Alcotest.test_case "send released under K" `Quick test_send_released_when_under_k;
    Alcotest.test_case "K=0 blocks until flush" `Quick test_send_blocked_at_k0_until_flush;
    Alcotest.test_case "send blocked by remote dependency" `Quick
      test_send_blocked_by_remote_dependency;
    Alcotest.test_case "per-message K override" `Quick test_per_message_k_override;
    Alcotest.test_case "pessimistic sync logging" `Quick test_pessimistic_sync_logging;
    Alcotest.test_case "deliverable with no local entry (Cor 1)" `Quick
      test_deliverable_no_local_entry;
    Alcotest.test_case "deliverable same incarnation" `Quick test_deliverable_same_incarnation;
    Alcotest.test_case "delivery waits for smaller stability (Cor 1)" `Quick
      test_delivery_waits_for_smaller_stability;
    Alcotest.test_case "announcement unblocks delivery (Cor 1)" `Quick
      test_delivery_unblocked_by_announcement;
    Alcotest.test_case "S&Y wait-for-announcement rule" `Quick test_wait_announcement_rule;
    Alcotest.test_case "S&Y own-incarnation deps (regression)" `Quick
      test_wait_announcement_own_incarnation;
    Alcotest.test_case "orphan discarded on arrival" `Quick test_orphan_discarded_on_arrival;
    Alcotest.test_case "orphan purged from receive buffer" `Quick
      test_orphan_discarded_from_receive_buffer;
    Alcotest.test_case "receive-buffer duplicate suppressed (regression)" `Quick
      test_receive_buffer_duplicate_suppressed;
    Alcotest.test_case "duplicate of delivered dropped" `Quick test_duplicate_of_delivered_dropped;
    Alcotest.test_case "announcement without orphan: no rollback" `Quick
      test_announcement_no_rollback_when_clean;
    Alcotest.test_case "announcement triggers rollback" `Quick test_announcement_triggers_rollback;
    Alcotest.test_case "S&Y announces induced rollbacks" `Quick
      test_strom_yemini_announces_induced_rollback;
    Alcotest.test_case "rollback requeues non-orphans" `Quick test_rollback_requeues_non_orphans;
    Alcotest.test_case "rollback restores matching checkpoint" `Quick
      test_rollback_restores_matching_checkpoint;
    Alcotest.test_case "rollback cancels orphan pending sends" `Quick
      test_rollback_cancels_pending_orphan_sends;
    Alcotest.test_case "checkpoint elides own entry (Cor 2)" `Quick
      test_checkpoint_elides_own_entry;
    Alcotest.test_case "restart announces and replays" `Quick test_restart_announces_and_replays;
    Alcotest.test_case "restart dedupes stable retransmissions" `Quick
      test_restart_dedupes_stable_retransmission;
    Alcotest.test_case "restart accepts retransmission of lost" `Quick
      test_restart_accepts_retransmission_of_lost;
    Alcotest.test_case "replay regenerates sends" `Quick test_replay_regenerates_sends;
    Alcotest.test_case "committed output not repeated" `Quick test_committed_output_not_repeated;
    Alcotest.test_case "incarnations never reused" `Quick test_incarnations_never_reused;
    Alcotest.test_case "checkpointed pending send survives crash (regression)" `Quick
      test_checkpointed_pending_send_survives_crash;
    Alcotest.test_case "requeued record survives crash (regression)" `Quick
      test_requeued_record_survives_crash;
    Alcotest.test_case "output waits for stability" `Quick test_output_waits_for_stability;
    Alcotest.test_case "output-driven logging" `Quick test_output_driven_logging;
    Alcotest.test_case "flush request answered" `Quick test_flush_request_answered;
    Alcotest.test_case "flush acks senders" `Quick test_flush_acks_senders;
    Alcotest.test_case "retransmit on failure announcement" `Quick
      test_retransmit_on_failure_announcement;
    Alcotest.test_case "ack stops retransmission" `Quick test_ack_stops_retransmission;
    Alcotest.test_case "no retransmission for induced rollback" `Quick
      test_no_retransmission_for_induced_rollback;
    Alcotest.test_case "down node ignores packets" `Quick test_down_node_ignores_packets;
    Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
    Alcotest.test_case "S&Y wire size is N" `Quick test_sy_wire_size_is_n;
    Alcotest.test_case "re-release after commit dropped" `Quick
      test_rerelease_after_commit_dropped;
    Alcotest.test_case "re-release after anchor loss dropped" `Quick
      test_anchor_loss_rerelease_dropped;
    Alcotest.test_case "unacked release bounds the floor" `Quick
      test_unacked_release_bounds_floor;
    Alcotest.test_case "floors survive GC and restart" `Quick test_floors_survive_gc_restart;
    Alcotest.test_case "stable orphan not folded" `Quick test_stable_orphan_not_folded;
    Alcotest.test_case "lost injection costs one gap" `Quick test_lost_injection_one_gap;
  ]
