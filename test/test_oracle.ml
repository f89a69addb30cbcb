(* The causality oracle itself: it must accept correct histories and reject
   fabricated incorrect ones — otherwise its green light on the protocol
   means nothing. *)

open Depend
open Util
module Trace = Recovery.Trace
module Wire = Recovery.Wire

let n = 3

let id ~origin ~interval ?(idx = 0) () =
  { Wire.origin; origin_interval = interval; idx }

(* Build traces by hand.  Helper emits a fresh trace with initial intervals
   for all processes. *)
let fresh () =
  let tr = Trace.create () in
  for pid = 0 to n - 1 do
    Trace.add tr ~time:0.
      (Trace.Interval_started
         {
           pid;
           interval = Entry.initial;
           pred = None;
           by = None;
           sender_interval = None;
           digest = pid;
           replay = false;
         })
  done;
  tr

let start ?(replay = false) tr ~time ~pid ~interval ~pred ~by ~sender_interval ~digest =
  Trace.add tr ~time
    (Trace.Interval_started { pid; interval; pred; by; sender_interval; digest; replay })

let send tr ~time ~mid ~src ~dst ~send_interval =
  Trace.add tr ~time (Trace.Message_sent { id = mid; src; dst; send_interval })

let deliver tr ~time ~mid ~dst ~interval =
  Trace.add tr ~time (Trace.Message_delivered { id = mid; dst; interval; waited = 0. })

let stable tr ~time ~pid ~upto =
  Trace.add tr ~time (Trace.Stability_advanced { pid; upto })

let crash tr ~time ~pid ~first_lost =
  Trace.add tr ~time (Trace.Crashed { pid; first_lost })

let restarted tr ~time ~pid ~ending ~new_current =
  Trace.add tr ~time
    (Trace.Restarted
       { pid; announced = { Wire.from_ = pid; ending; failure = true }; new_current })

(* A message from P0's (0,2) delivered at P1 starting (0,2)_1. *)
let simple_exchange tr =
  let m = id ~origin:0 ~interval:(e ~inc:0 ~sii:2) () in
  start tr ~time:1. ~pid:0 ~interval:(e ~inc:0 ~sii:2) ~pred:(Some Entry.initial)
    ~by:(Some (id ~origin:(-1) ~interval:(e ~inc:0 ~sii:1) ()))
    ~sender_interval:None ~digest:42;
  send tr ~time:1. ~mid:m ~src:0 ~dst:1 ~send_interval:(e ~inc:0 ~sii:2);
  Trace.add tr ~time:1.5 (Trace.Message_released { id = m; dep_size = 1; wire_vector = 1; blocked = 0. });
  deliver tr ~time:2. ~mid:m ~dst:1 ~interval:(e ~inc:0 ~sii:2);
  start tr ~time:2. ~pid:1 ~interval:(e ~inc:0 ~sii:2) ~pred:(Some Entry.initial)
    ~by:(Some m) ~sender_interval:(Some (e ~inc:0 ~sii:2)) ~digest:7;
  m

let test_clean_history_accepted () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  let report = Harness.Oracle.check ~k:3 ~n tr in
  Alcotest.(check bool) "accepted" true (Harness.Oracle.ok report);
  Alcotest.(check int) "intervals counted" 5 report.Harness.Oracle.intervals

let test_replay_divergence_detected () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  (* replay of P1's (0,2) with a different digest: PWD broken *)
  start tr ~time:5. ~replay:true ~pid:1 ~interval:(e ~inc:0 ~sii:2)
    ~pred:(Some Entry.initial) ~by:None ~sender_interval:None ~digest:999;
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "rejected" false (Harness.Oracle.ok report)

let test_surviving_orphan_detected () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  (* P0 crashes losing (0,2); P1's (0,2) depends on it and is never rolled
     back. *)
  crash tr ~time:3. ~pid:0 ~first_lost:(Some (e ~inc:0 ~sii:2));
  restarted tr ~time:4. ~pid:0 ~ending:(e ~inc:0 ~sii:1)
    ~new_current:(e ~inc:1 ~sii:2);
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "orphan must be flagged" false (Harness.Oracle.ok report);
  Alcotest.(check int) "counted" 1 report.Harness.Oracle.orphans_at_end

let test_orphan_rolled_back_accepted () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  crash tr ~time:3. ~pid:0 ~first_lost:(Some (e ~inc:0 ~sii:2));
  restarted tr ~time:4. ~pid:0 ~ending:(e ~inc:0 ~sii:1)
    ~new_current:(e ~inc:1 ~sii:2);
  Trace.add tr ~time:5.
    (Trace.Rolled_back
       {
         pid = 1;
         restored = Entry.initial;
         first_undone = e ~inc:0 ~sii:2;
         new_current = e ~inc:1 ~sii:2;
         because = { Wire.from_ = 0; ending = e ~inc:0 ~sii:1; failure = true };
       });
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "accepted" true (Harness.Oracle.ok report);
  Alcotest.(check int) "one interval undone" 1 report.Harness.Oracle.undone

let test_unjustified_rollback_detected () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  (* No crash at all, yet P1 rolls back its (non-orphan) interval. *)
  Trace.add tr ~time:5.
    (Trace.Rolled_back
       {
         pid = 1;
         restored = Entry.initial;
         first_undone = e ~inc:0 ~sii:2;
         new_current = e ~inc:1 ~sii:2;
         because = { Wire.from_ = 0; ending = e ~inc:0 ~sii:1; failure = true };
       });
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "flagged" false (Harness.Oracle.ok report)

let test_wrong_discard_detected () =
  let tr = fresh () in
  let m = simple_exchange tr in
  (* The message is not orphan (nothing was lost), yet someone discarded it
     as one. *)
  Trace.add tr ~time:6.
    (Trace.Message_discarded { id = m; dst = 2; reason = Trace.Orphan_message });
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "flagged" false (Harness.Oracle.ok report)

let test_justified_discard_accepted () =
  let tr = fresh () in
  let m = simple_exchange tr in
  crash tr ~time:3. ~pid:0 ~first_lost:(Some (e ~inc:0 ~sii:2));
  restarted tr ~time:4. ~pid:0 ~ending:(e ~inc:0 ~sii:1)
    ~new_current:(e ~inc:1 ~sii:2);
  Trace.add tr ~time:5.
    (Trace.Rolled_back
       {
         pid = 1;
         restored = Entry.initial;
         first_undone = e ~inc:0 ~sii:2;
         new_current = e ~inc:1 ~sii:2;
         because = { Wire.from_ = 0; ending = e ~inc:0 ~sii:1; failure = true };
       });
  Trace.add tr ~time:6.
    (Trace.Message_discarded { id = m; dst = 1; reason = Trace.Orphan_message });
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "accepted" true (Harness.Oracle.ok report)

let test_revoked_output_detected () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  let oid = { Wire.out_interval = e ~inc:0 ~sii:2; out_idx = 0 } in
  Trace.add tr ~time:2.5
    (Trace.Output_buffered { pid = 1; id = oid; text = "out" });
  Trace.add tr ~time:2.6
    (Trace.Output_committed { pid = 1; id = oid; text = "out"; latency = 0.1 });
  crash tr ~time:3. ~pid:0 ~first_lost:(Some (e ~inc:0 ~sii:2));
  restarted tr ~time:4. ~pid:0 ~ending:(e ~inc:0 ~sii:1)
    ~new_current:(e ~inc:1 ~sii:2);
  Trace.add tr ~time:5.
    (Trace.Rolled_back
       {
         pid = 1;
         restored = Entry.initial;
         first_undone = e ~inc:0 ~sii:2;
         new_current = e ~inc:1 ~sii:2;
         because = { Wire.from_ = 0; ending = e ~inc:0 ~sii:1; failure = true };
       });
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "revoked output flagged" false (Harness.Oracle.ok report)

let test_theorem4_bound_checked () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  (* The released message carried a dependency on P0's non-stable (0,2):
     one risky process.  k=0 must flag it, k=1 must not. *)
  let r0 = Harness.Oracle.check ~k:0 ~n tr in
  Alcotest.(check bool) "k=0 flags it" false (Harness.Oracle.ok r0);
  let r1 = Harness.Oracle.check ~k:1 ~n tr in
  Alcotest.(check bool) "k=1 accepts" true (Harness.Oracle.ok r1);
  Alcotest.(check int) "max risk" 1 r1.Harness.Oracle.max_risk

let test_stability_lowers_risk () =
  let tr = fresh () in
  let m = id ~origin:0 ~interval:(e ~inc:0 ~sii:2) () in
  start tr ~time:1. ~pid:0 ~interval:(e ~inc:0 ~sii:2) ~pred:(Some Entry.initial)
    ~by:(Some (id ~origin:(-1) ~interval:(e ~inc:0 ~sii:1) ()))
    ~sender_interval:None ~digest:42;
  send tr ~time:1. ~mid:m ~src:0 ~dst:1 ~send_interval:(e ~inc:0 ~sii:2);
  (* Stability arrives before the release: zero risk at release time. *)
  stable tr ~time:1.2 ~pid:0 ~upto:(e ~inc:0 ~sii:2);
  Trace.add tr ~time:1.5 (Trace.Message_released { id = m; dep_size = 0; wire_vector = 0; blocked = 0.5 });
  let report = Harness.Oracle.check ~k:0 ~n tr in
  Alcotest.(check bool) "k=0 satisfied" true (Harness.Oracle.ok report);
  Alcotest.(check int) "risk zero" 0 report.Harness.Oracle.max_risk

let test_stable_interval_lost_detected () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  stable tr ~time:2.5 ~pid:0 ~upto:(e ~inc:0 ~sii:2);
  (* Storage claims (0,2) stable, then the crash loses it: storage bug. *)
  crash tr ~time:3. ~pid:0 ~first_lost:(Some (e ~inc:0 ~sii:2));
  let report = Harness.Oracle.check ~n tr in
  Alcotest.(check bool) "flagged" false (Harness.Oracle.ok report)

let test_dependencies_extraction () =
  let tr = fresh () in
  ignore (simple_exchange tr : Wire.identity);
  match Harness.Oracle.dependencies ~n tr ~pid:1 (e ~inc:0 ~sii:2) with
  | None -> Alcotest.fail "interval exists"
  | Some deps ->
    Alcotest.(check (list (pair int entry)))
      "transitive closure as per-incarnation maxima"
      [ (0, e ~inc:0 ~sii:2); (1, e ~inc:0 ~sii:2) ]
      deps

let test_dependencies_missing () =
  let tr = fresh () in
  Alcotest.(check bool) "unknown interval" true
    (Harness.Oracle.dependencies ~n tr ~pid:0 (e ~inc:5 ~sii:5) = None)

let suite =
  [
    Alcotest.test_case "clean history accepted" `Quick test_clean_history_accepted;
    Alcotest.test_case "replay divergence detected" `Quick test_replay_divergence_detected;
    Alcotest.test_case "surviving orphan detected" `Quick test_surviving_orphan_detected;
    Alcotest.test_case "orphan rolled back accepted" `Quick test_orphan_rolled_back_accepted;
    Alcotest.test_case "unjustified rollback detected" `Quick test_unjustified_rollback_detected;
    Alcotest.test_case "wrong discard detected" `Quick test_wrong_discard_detected;
    Alcotest.test_case "justified discard accepted" `Quick test_justified_discard_accepted;
    Alcotest.test_case "revoked output detected" `Quick test_revoked_output_detected;
    Alcotest.test_case "Theorem 4 bound checked" `Quick test_theorem4_bound_checked;
    Alcotest.test_case "stability lowers risk" `Quick test_stability_lowers_risk;
    Alcotest.test_case "stable interval lost detected" `Quick test_stable_interval_lost_detected;
    Alcotest.test_case "dependency extraction" `Quick test_dependencies_extraction;
    Alcotest.test_case "dependency extraction missing" `Quick test_dependencies_missing;
  ]
