(* Log and checkpoint garbage collection.

   The GC rule: a checkpoint with an empty dependency vector can never be
   rolled past, so everything before it (older checkpoints, the log
   prefix) is reclaimable; delivered identities are kept as stubs so
   duplicate suppression survives; a still-undelivered Requeued record
   blocks the boundary. *)

open Util
module Node = Recovery.Node
module Wire = Recovery.Wire
module Config = Recovery.Config
module Store = Storage.Stable_store
module D = Util.Driver

let counter = App_model.Counter_app.app

let gc_config ?(k = 4) ?(n = 4) () =
  let base = Config.k_optimistic ~timing:quiet_timing ~n ~k () in
  { base with Config.protocol = { base.Config.protocol with gc_logs = true } }

(* --- storage-level --- *)

let test_store_discard_prefix () =
  let s : (string, string, string) Store.t = Store.create () in
  List.iter (Store.append_volatile s) [ "a"; "b"; "c"; "d" ];
  ignore (Store.flush s : int);
  Alcotest.(check int) "discards two" 2 (Store.discard_log_prefix s ~before:2);
  Alcotest.(check int) "logical length unchanged" 4 (Store.stable_log_length s);
  Alcotest.(check int) "base moved" 2 (Store.log_base s);
  Alcotest.(check int) "physical count" 2 (Store.live_log_records s);
  Alcotest.(check (list string)) "suffix readable" [ "c"; "d" ]
    (Store.stable_log_from s ~pos:2);
  Alcotest.(check int) "idempotent" 0 (Store.discard_log_prefix s ~before:1);
  Alcotest.check_raises "reading into the discarded prefix fails"
    (Invalid_argument "Stable_store.stable_log_from: position out of range")
    (fun () -> ignore (Store.stable_log_from s ~pos:0))

let test_store_grow_after_gc () =
  let s : (string, string, string) Store.t = Store.create () in
  List.iter (Store.append_volatile s) [ "a"; "b" ];
  ignore (Store.flush s : int);
  ignore (Store.discard_log_prefix s ~before:2 : int);
  Store.append_volatile s "c";
  ignore (Store.flush s : int);
  Alcotest.(check (list string)) "positions stay consistent" [ "c" ]
    (Store.stable_log_from s ~pos:2);
  Alcotest.(check int) "length" 3 (Store.stable_log_length s)

let test_store_prune_checkpoints () =
  let s : (string, string, string) Store.t = Store.create () in
  List.iter (Store.save_checkpoint s) [ "c1"; "c2"; "c3" ];
  Alcotest.(check int) "two dropped" 2 (Store.prune_checkpoints s ~keep_latest:1);
  Alcotest.(check (list string)) "latest kept" [ "c3" ] (Store.checkpoints s);
  Alcotest.check_raises "must keep one"
    (Invalid_argument "Stable_store.prune_checkpoints: must keep at least one")
    (fun () -> ignore (Store.prune_checkpoints s ~keep_latest:0))

(* --- node-level --- *)

let test_gc_reclaims_after_clean_checkpoint () =
  let d = D.make (gc_config ()) counter in
  for seq = 1 to 8 do
    D.inject d ~seq (App_model.Counter_app.Add seq)
  done;
  D.checkpoint d;
  (* All eight deliveries are stable and the vector is empty after
     Corollary 2: the whole prefix is reclaimable. *)
  Alcotest.(check int) "log reclaimed" 0 (Node.live_log_records d.node);
  Alcotest.(check int) "logical length preserved" 8 (Node.stable_log_length d.node);
  Alcotest.(check int) "metric" 8 (metric d.node "gc_records")

let test_gc_disabled_by_default () =
  let d = D.make (counter_config ()) counter in
  for seq = 1 to 8 do
    D.inject d ~seq (App_model.Counter_app.Add seq)
  done;
  D.checkpoint d;
  Alcotest.(check int) "nothing reclaimed" 8 (Node.live_log_records d.node)

let test_gc_blocked_by_risky_vector () =
  let d = D.make (gc_config ()) counter in
  (* A dependency on P1's non-stable interval keeps the vector non-empty:
     the checkpoint might be rolled past, so nothing may be collected. *)
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 1)));
  D.checkpoint d;
  Alcotest.(check int) "not reclaimed" 1 (Node.live_log_records d.node);
  (* Once P1's interval is known stable, the next checkpoint collects. *)
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:5 ]) ]);
  D.checkpoint d;
  Alcotest.(check int) "reclaimed after stability" 0 (Node.live_log_records d.node)

let test_gc_survives_crash_with_dedupe () =
  (* The regression GC must not introduce: after collecting a delivery's
     record and crashing, a retransmitted copy must still be recognized as
     a duplicate (via the checkpoint's stub set). *)
  let d = D.make (gc_config ()) counter in
  let m =
    D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
      ~dep:[ (1, e ~inc:0 ~sii:5) ]
      (App_model.Counter_app.Add 3)
  in
  D.packet d (Wire.App m);
  D.packet d (D.notice_packet ~from_:1 ~rows:[ (1, [ e ~inc:0 ~sii:5 ]) ]);
  D.checkpoint d;
  Alcotest.(check int) "record collected" 0 (Node.live_log_records d.node);
  D.crash d;
  D.restart d;
  D.packet d (Wire.App m);
  Alcotest.(check int) "retransmission recognized via stub" 1
    (metric d.node "duplicates_dropped");
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "applied exactly once" 3 st.total

let test_gc_restart_replays_only_retained () =
  let d = D.make (gc_config ()) counter in
  for seq = 1 to 5 do
    D.inject d ~seq (App_model.Counter_app.Add seq)
  done;
  D.checkpoint d (* collects all five *);
  D.inject d ~seq:6 (App_model.Counter_app.Add 60);
  D.flush d;
  D.crash d;
  D.restart d;
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "checkpoint state + retained suffix" 75 st.total;
  Alcotest.(check int) "only the suffix was replayed" 1 (metric d.node "replayed")

let test_gc_blocked_by_undelivered_requeue () =
  (* Build a Requeued record whose message is re-delivered, then force a
     second checkpoint: the requeue has been delivered again by then, so
     GC may proceed; the interesting property is simply that state
     survives a crash afterwards. *)
  let d = D.make (gc_config ()) counter in
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 100)));
  D.inject d ~seq:1 (App_model.Counter_app.Add 7);
  D.packet d (Wire.Ann (D.ann ~from_:1 ~ending:(e ~inc:0 ~sii:4) ()));
  D.checkpoint d;
  D.crash d;
  D.restart d;
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "client effect survives GC + crash" 7 st.total

let test_gc_cluster_run_equivalent () =
  (* A full cluster run with GC must behave identically to one without
     (GC is storage-only), and still satisfy the oracle. *)
  let n = 6 in
  let run gc =
    let base = Recovery.Config.k_optimistic ~n ~k:2 () in
    let config =
      { base with Recovery.Config.protocol = { base.Recovery.Config.protocol with gc_logs = gc } }
    in
    let c =
      Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:77
        ~horizon:3000. ()
    in
    let rng = Sim.Rng.create 78 in
    Harness.Workload.telecom c ~rng ~calls:40 ~hops:3 ~start:10. ~rate:1.5;
    Harness.Cluster.crash_at c ~time:40. ~pid:2;
    Harness.Cluster.run c;
    let report = Harness.Oracle.check ~k:2 ~n (Harness.Cluster.trace c) in
    if not (Harness.Oracle.ok report) then
      Alcotest.failf "oracle: %a" Harness.Oracle.pp_report report;
    let s = Harness.Cluster.stats c in
    let retained =
      Array.fold_left (fun acc nd -> acc + Node.live_log_records nd) 0
        (Harness.Cluster.nodes c)
    in
    (s.outputs_committed, retained)
  in
  let outputs_gc, retained_gc = run true in
  let outputs_plain, retained_plain = run false in
  (* GC adds a (costed) stable write per collection, which can perturb event
     timing, so only timing-independent facts are compared: every call still
     connects, the oracle passes (checked inside [run]), and storage is
     actually reclaimed. *)
  Alcotest.(check int) "all calls connect with GC" 40 outputs_gc;
  Alcotest.(check int) "all calls connect without GC" 40 outputs_plain;
  Alcotest.(check bool)
    (Fmt.str "storage reclaimed (%d < %d)" retained_gc retained_plain)
    true
    (retained_gc < retained_plain)

let suite =
  [
    Alcotest.test_case "store: discard prefix" `Quick test_store_discard_prefix;
    Alcotest.test_case "store: grow after GC" `Quick test_store_grow_after_gc;
    Alcotest.test_case "store: prune checkpoints" `Quick test_store_prune_checkpoints;
    Alcotest.test_case "reclaims after clean checkpoint" `Quick
      test_gc_reclaims_after_clean_checkpoint;
    Alcotest.test_case "disabled by default" `Quick test_gc_disabled_by_default;
    Alcotest.test_case "blocked by risky vector" `Quick test_gc_blocked_by_risky_vector;
    Alcotest.test_case "dedupe survives GC + crash" `Quick test_gc_survives_crash_with_dedupe;
    Alcotest.test_case "restart replays only retained suffix" `Quick
      test_gc_restart_replays_only_retained;
    Alcotest.test_case "requeue + GC + crash" `Quick test_gc_blocked_by_undelivered_requeue;
    Alcotest.test_case "cluster run equivalent under GC" `Slow test_gc_cluster_run_equivalent;
  ]
