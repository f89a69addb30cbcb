(* Edge cases around the interactions of checkpoints, rollbacks, crashes
   and buffers — the places where Figure 3's sketch needs the DESIGN.md
   §5a refinements. *)

open Depend
open Util
module Node = Recovery.Node
module Wire = Recovery.Wire
module Config = Recovery.Config
module D = Util.Driver

let counter = App_model.Counter_app.app

let config ?(k = 4) ?(n = 4) () = Config.k_optimistic ~timing:quiet_timing ~n ~k ()

let test_rollback_then_crash_then_restart () =
  (* Marker supersede: a crash right after an induced rollback must restart
     into a fresh incarnation, never reusing the rollback's number. *)
  let d = D.make (config ()) counter in
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 100)));
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "rolled back into incarnation 1" 1 (Node.current d.node).Entry.inc;
  D.halt d;
  D.clear d;
  D.restart d;
  Alcotest.(check int) "restart takes incarnation 2" 2 (Node.current d.node).Entry.inc;
  match D.announcements d with
  | [ a ] ->
    Alcotest.(check int) "announcement covers the dead incarnation 1" 1
      a.Wire.ending.Entry.inc
  | l -> Alcotest.failf "expected one announcement, got %d" (List.length l)

let test_double_crash_no_deliveries_between () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 5);
  D.flush d;
  D.halt d;
  D.restart d;
  D.halt d;
  D.restart d;
  Alcotest.(check int) "two distinct incarnations consumed" 2
    (Node.current d.node).Entry.inc;
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "state intact" 5 st.total

let test_kept_pending_send_survives_rollback () =
  (* A K-blocked send from an interval before the rollback point must stay
     buffered through the rollback and release later. *)
  let d = D.make (config ~k:0 ()) counter in
  (* kept interval with a pending send depending on P2 *)
  D.packet d
    (Wire.App
       (D.app_msg ~src:2 ~dst:0 ~send_interval:(e ~inc:0 ~sii:3)
          ~dep:[ (2, e ~inc:0 ~sii:3) ]
          (App_model.Counter_app.Forward { dst = 3; amount = 1 })));
  (* later interval that will be orphaned *)
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 100)));
  Alcotest.(check int) "one pending send" 1 (Node.send_buffer_size d.node);
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "pending send survives the rollback" 1
    (Node.send_buffer_size d.node);
  D.clear d;
  D.packet d (D.notice_packet ~from_:2 ~rows:[ (2, [ e ~inc:0 ~sii:3 ]) ]);
  D.flush d;
  match D.released d with
  | [ m ] -> Alcotest.(check int) "released after stability" 3 m.Wire.dst
  | l -> Alcotest.failf "expected 1 release, got %d" (List.length l)

let test_ann_for_unknown_process_is_noop () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1);
  let before = Node.current d.node in
  D.packet d (Wire.Ann (D.ann ~from_:3 ~ending:(e ~inc:2 ~sii:9) ()));
  Alcotest.check entry "no rollback" before (Node.current d.node);
  Alcotest.(check bool) "iet recorded anyway" true
    (Entry_set.orphans (Node.iet_row d.node 3) (e ~inc:1 ~sii:10))

let test_flush_idempotent_trace () =
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1);
  D.flush d;
  let events_before = Recovery.Trace.length d.trace in
  D.flush d;
  D.flush d;
  (* No new deliveries: repeated flushes must not spam stability events. *)
  Alcotest.(check int) "no trace growth on idle flushes" events_before
    (Recovery.Trace.length d.trace)

let test_checkpointed_output_commits_once_after_crash () =
  let d = D.make (config ()) counter in
  (* Output blocked on a remote dependency, then checkpointed. *)
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 2)));
  D.inject d ~seq:1 App_model.Counter_app.Report;
  D.checkpoint d;
  Alcotest.(check int) "still buffered" 1 (Node.output_buffer_size d.node);
  D.halt d;
  D.restart d;
  Alcotest.(check int) "restored from checkpoint" 1 (Node.output_buffer_size d.node);
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:5 ]) ]);
  Alcotest.(check int) "committed exactly once" 1 (metric d.node "outputs_committed");
  D.halt d;
  D.restart d;
  Alcotest.(check int) "not repeated by the second recovery" 1
    (metric d.node "outputs_committed")

let test_per_incarnation_stability_rows () =
  (* After a rollback, the process's own logging-progress row must keep a
     frontier for the old incarnation (its surviving prefix) and one for
     the new incarnation. *)
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1) (* (0,2) *);
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 100)));
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  let row = Node.log_row d.node 0 in
  Alcotest.(check (option int)) "incarnation 0 stable through the kept prefix"
    (Some 2) (Entry_set.find row ~inc:0);
  Alcotest.(check bool) "new incarnation's marker stable" true
    (Entry_set.covers row (Node.current d.node))

let test_wait_rule_blocks_gap_incarnation () =
  (* Under the S&Y rule a dependency on incarnation 2 needs the announcement
     ending incarnation 1, even if the one ending incarnation 0 arrived. *)
  let d = D.make (Config.strom_yemini ~timing:quiet_timing ~n:4 ()) counter in
  D.packet d (Wire.Ann { Wire.from_ = 1; ending = e ~inc:0 ~sii:3; failure = true });
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:2 ~sii:9)
          ~dep:[ (1, e ~inc:2 ~sii:9) ]
          (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "blocked on the missing announcement" 0
    (metric d.node "deliveries");
  D.packet d (Wire.Ann { Wire.from_ = 1; ending = e ~inc:1 ~sii:6; failure = false });
  Alcotest.(check int) "unblocked" 1 (metric d.node "deliveries")

let test_checkpoint_restore_prefers_latest_clean () =
  (* Figure 3 restores the LATEST checkpoint satisfying condition (I), not
     just any: verify the replay distance is minimal. *)
  let d = D.make (config ()) counter in
  for seq = 1 to 3 do
    D.inject d ~seq (App_model.Counter_app.Add 10)
  done;
  D.checkpoint d (* clean at (0,4) *);
  D.inject d ~seq:4 (App_model.Counter_app.Add 10);
  D.checkpoint d (* clean at (0,5) — the one that must be used *);
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 100)));
  let replayed_before = (metric d.node "replayed") in
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  Alcotest.(check int) "nothing to replay from the latest clean checkpoint"
    replayed_before (metric d.node "replayed");
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "all pre-checkpoint work kept" 40 st.total

let test_archive_survives_sender_checkpoint_and_crash () =
  (* Regression: a released message whose send interval is absorbed into a
     checkpoint is never regenerated by replay; if the sender then crashes,
     only the checkpointed archive can honour a retransmission request from
     a receiver that lost the delivery. *)
  let d = D.make (config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Forward { dst = 2; amount = 9 });
  Alcotest.(check int) "released live" 1 (List.length (D.released d));
  D.checkpoint d (* the send interval is now behind the checkpoint *);
  D.halt d;
  D.clear d;
  D.restart d;
  Alcotest.(check int) "replay regenerates nothing (pre-checkpoint)" 0
    (List.length (D.released d));
  D.clear d;
  (* P2 fails having lost the delivery: the announcement must trigger a
     retransmission from the restored archive. *)
  D.packet d (Wire.Ann (D.ann ~from_:2 ~ending:(e ~inc:0 ~sii:1) ()));
  match D.released d with
  | [ m ] ->
    Alcotest.(check int) "archived copy retransmitted" 2 m.Wire.dst;
    Alcotest.(check int) "counted" 1 (metric d.node "retransmissions")
  | l -> Alcotest.failf "expected 1 retransmission, got %d" (List.length l)

(* The retransmission clock.  A message archived just before a tick is
   not re-sent at that tick (its ack may still be a batch away) but at
   the next one, and then 1, 4, 16 and every 64 ticks after that. *)
let test_archive_first_resend_waits_a_period () =
  let module Archive = Recovery.Archive in
  let archive = Archive.create () in
  let m =
    {
      Wire.id = { Wire.origin = 0; origin_interval = Entry.initial; idx = 0 };
      src = 0;
      dst = 1;
      send_interval = Entry.initial;
      dep = [];
      payload = ();
      epoch = 0;
      cseq = Wire.no_cseq;
    }
  in
  let resent_at = ref [] in
  let tick i = Archive.due_oldest archive (fun _ -> resent_at := i :: !resent_at) in
  Archive.add archive m;
  tick 1;
  Alcotest.(check (list int)) "not re-sent at the next tick" [] !resent_at;
  tick 2;
  Alcotest.(check (list int)) "re-sent at the one after" [ 2 ] !resent_at;
  for i = 3 to 160 do
    tick i
  done;
  Alcotest.(check (list int))
    "backoff schedule, in ticks after release" [ 2; 3; 7; 23; 87; 151 ]
    (List.rev !resent_at)

let suite =
  [
    Alcotest.test_case "rollback then crash then restart" `Quick
      test_rollback_then_crash_then_restart;
    Alcotest.test_case "double crash, no deliveries between" `Quick
      test_double_crash_no_deliveries_between;
    Alcotest.test_case "kept pending send survives rollback" `Quick
      test_kept_pending_send_survives_rollback;
    Alcotest.test_case "announcement for unknown process" `Quick
      test_ann_for_unknown_process_is_noop;
    Alcotest.test_case "idle flushes do not spam the trace" `Quick
      test_flush_idempotent_trace;
    Alcotest.test_case "checkpointed output commits once across crashes" `Quick
      test_checkpointed_output_commits_once_after_crash;
    Alcotest.test_case "per-incarnation stability rows" `Quick
      test_per_incarnation_stability_rows;
    Alcotest.test_case "wait rule blocks gap incarnations" `Quick
      test_wait_rule_blocks_gap_incarnation;
    Alcotest.test_case "restore prefers the latest clean checkpoint" `Quick
      test_checkpoint_restore_prefers_latest_clean;
    Alcotest.test_case "archive survives sender checkpoint + crash (regression)" `Quick
      test_archive_survives_sender_checkpoint_and_crash;
    Alcotest.test_case "archive: first re-send waits a full tick period" `Quick
      test_archive_first_resend_waits_a_period;
  ]
