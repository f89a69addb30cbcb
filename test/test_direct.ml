(* Direct dependency tracking (the Section 5 comparator).

   Failure-free operation is fully supported: one piggybacked entry per
   message, commit-time transitive-dependency assembly by query/reply.
   Failure recovery with only local information is demonstrably divergent
   (the storm test below) — the reason the direct-tracking literature uses
   coordinated recovery. *)

open Depend
open Util
module Node = Recovery.Node
module Wire = Recovery.Wire
module Config = Recovery.Config
module Cluster = Harness.Cluster
module D = Util.Driver

let counter = App_model.Counter_app.app

let direct_config ?(n = 4) () =
  Config.direct_dependency ~timing:quiet_timing ~n ()

let test_preset_validation () =
  let c = Config.direct_dependency ~n:4 () in
  Alcotest.(check bool) "announces all rollbacks" true
    c.Config.protocol.announce_all_rollbacks;
  let bad = { c with Config.protocol = { c.Config.protocol with k = 2 } } in
  Alcotest.(check bool) "k < n rejected" true
    (match Config.validate bad with Error _ -> true | Ok _ -> false);
  let bad = { c with Config.protocol = { c.Config.protocol with gc_logs = true } } in
  Alcotest.(check bool) "gc rejected" true
    (match Config.validate bad with Error _ -> true | Ok _ -> false)

let test_wire_carries_one_entry () =
  let d = D.make (direct_config ()) counter in
  (* Acquire what would be a multi-entry transitive dependency. *)
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Forward { dst = 2; amount = 1 })));
  match D.released d with
  | [ m ] ->
    Alcotest.(check (list (pair int entry)))
      "only the sender's own interval travels"
      [ (0, e ~inc:0 ~sii:2) ]
      m.Wire.dep
  | l -> Alcotest.failf "expected 1 release, got %d" (List.length l)

let test_arrival_orphan_check_direct_only () =
  let d = D.make (direct_config ()) counter in
  D.packet d (Wire.Ann { Wire.from_ = 1; ending = e ~inc:0 ~sii:4; failure = true });
  (* directly orphan: sender interval beyond the announced ending *)
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:6)
          ~dep:[ (1, e ~inc:0 ~sii:6) ]
          (App_model.Counter_app.Add 1)));
  Alcotest.(check int) "direct orphan discarded" 1
    (metric d.node "orphans_discarded")

let test_direct_rollback_on_announcement () =
  let d = D.make (direct_config ()) counter in
  D.packet d
    (Wire.App
       (D.app_msg ~src:1 ~dst:0 ~send_interval:(e ~inc:0 ~sii:5)
          ~dep:[ (1, e ~inc:0 ~sii:5) ]
          (App_model.Counter_app.Add 50)));
  D.clear d;
  D.packet d (Wire.Ann { Wire.from_ = 1; ending = e ~inc:0 ~sii:4; failure = true });
  Alcotest.(check int) "rolled back" 1 (metric d.node "induced_rollbacks");
  let st : App_model.Counter_app.state = Node.app_state d.node in
  Alcotest.(check int) "state reverted" 0 st.total;
  (* direct tracking must announce its own rollback for the cascade *)
  Alcotest.(check int) "cascade announcement" 1 (List.length (D.announcements d))

let test_dep_query_answered () =
  let d = D.make (direct_config ()) counter in
  D.inject d ~seq:1 (App_model.Counter_app.Add 1) (* starts (0,2) *);
  D.clear d;
  D.packet d
    (Wire.Dep_query { from_ = 2; intervals = [ e ~inc:0 ~sii:2; e ~inc:0 ~sii:9 ] });
  let replies =
    List.concat_map
      (function
        | Node.Unicast { dst = 2; packet = Wire.Dep_reply { infos; _ } } -> infos
        | Node.Unicast _ | Node.Broadcast _ -> [])
      (D.actions d)
  in
  (match List.assoc_opt (e ~inc:0 ~sii:2) replies with
  | Some (Wire.Info { stable; parents }) ->
    Alcotest.(check bool) "not yet stable" false stable;
    Alcotest.(check (list (pair int entry))) "parent is the initial interval"
      [ (0, e ~inc:0 ~sii:1) ] parents
  | Some Wire.Gone | None -> Alcotest.fail "expected Info for (0,2)");
  match List.assoc_opt (e ~inc:0 ~sii:9) replies with
  | Some Wire.Gone -> ()
  | Some (Wire.Info _) | None -> Alcotest.fail "unknown interval must be Gone"

let test_initial_interval_answerable () =
  let d = D.make (direct_config ()) counter in
  D.clear d;
  D.packet d (Wire.Dep_query { from_ = 1; intervals = [ Entry.initial ] });
  let replies =
    List.concat_map
      (function
        | Node.Unicast { packet = Wire.Dep_reply { infos; _ }; _ } -> infos
        | Node.Unicast _ | Node.Broadcast _ -> [])
      (D.actions d)
  in
  match List.assoc_opt Entry.initial replies with
  | Some (Wire.Info { stable = true; parents = [] }) -> ()
  | _ -> Alcotest.fail "the initial interval is stable with no parents"

let run_telecom config ~seed ~calls =
  let c =
    Cluster.create ~config ~app:App_model.Telecom_app.app ~seed ~horizon:4000. ()
  in
  let rng = Sim.Rng.create (seed * 13) in
  Harness.Workload.telecom c ~rng ~calls ~hops:3 ~start:10. ~rate:1.5;
  Cluster.run c;
  c

let test_failure_free_end_to_end () =
  let n = 6 in
  let c = run_telecom (Config.direct_dependency ~n ()) ~seed:5 ~calls:40 in
  let s = Cluster.stats c in
  Alcotest.(check int) "all calls connect" 40 s.outputs_committed;
  Alcotest.(check (float 0.001)) "one entry per message" 1.
    (Sim.Summary.mean s.wire_vector_size);
  Alcotest.(check bool) "assembly traffic present" true
    (List.mem_assoc "dep-query" s.packets);
  let report = Harness.Oracle.check ~k:n ~n (Cluster.trace c) in
  if not (Harness.Oracle.ok report) then
    Alcotest.failf "oracle: %a" Harness.Oracle.pp_report report

let test_commit_needs_assembly () =
  (* With notices disabled entirely, transitive stability knowledge never
     spreads — yet direct mode still commits, because assembly queries
     fetch stability point-to-point. *)
  let n = 4 in
  let base = Config.direct_dependency ~n () in
  let config =
    {
      base with
      Config.timing =
        {
          base.Config.timing with
          flush_interval = Some 20.;
          notice_interval = Some 30.;
        };
    }
  in
  let c = run_telecom config ~seed:9 ~calls:10 in
  Alcotest.(check int) "commits via assembly" 10 (Cluster.stats c).outputs_committed

let test_recovery_storm_demonstration () =
  (* The cautionary experiment: a single crash under uncoordinated direct
     tracking triggers far more rollbacks than the transitive protocol
     (which discards in-flight transitive orphans at arrival).  This is the
     behaviour that motivates coordinated recovery in the direct-tracking
     literature. *)
  let n = 6 in
  let rollbacks config =
    let c =
      Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:11 ~horizon:600. ()
    in
    let rng = Sim.Rng.create 12 in
    Harness.Workload.telecom c ~rng ~calls:40 ~hops:3 ~start:10. ~rate:1.5;
    Cluster.crash_at c ~time:30. ~pid:2;
    Cluster.run c;
    (Cluster.stats c).induced_rollbacks
  in
  let direct = rollbacks (Config.direct_dependency ~n ()) in
  let transitive = rollbacks (Config.optimistic ~n ()) in
  Alcotest.(check bool)
    (Fmt.str "direct cascades dwarf transitive rollbacks (%d > 4x%d)" direct transitive)
    true
    (direct > 4 * Stdlib.max 1 transitive)

let suite =
  [
    Alcotest.test_case "preset validation" `Quick test_preset_validation;
    Alcotest.test_case "wire carries one entry" `Quick test_wire_carries_one_entry;
    Alcotest.test_case "arrival orphan check is direct-only" `Quick
      test_arrival_orphan_check_direct_only;
    Alcotest.test_case "rollback + cascade announcement" `Quick
      test_direct_rollback_on_announcement;
    Alcotest.test_case "dep query answered" `Quick test_dep_query_answered;
    Alcotest.test_case "initial interval answerable" `Quick test_initial_interval_answerable;
    Alcotest.test_case "failure-free end to end" `Slow test_failure_free_end_to_end;
    Alcotest.test_case "commit needs assembly" `Slow test_commit_needs_assembly;
    Alcotest.test_case "recovery storm demonstration" `Slow
      test_recovery_storm_demonstration;
  ]
