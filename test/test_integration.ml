(* Whole-system integration tests: every preset, random crash schedules,
   all checked against the offline causality oracle.  These are the tests
   that tie the implementation to the paper's theorems. *)

module Cluster = Harness.Cluster
module Node = Recovery.Node
module Config = Recovery.Config
module Oracle = Harness.Oracle
module Workload = Harness.Workload

let run_telecom ~config ~seed ~failures ~calls () =
  let c = Cluster.create ~config ~app:App_model.Telecom_app.app ~seed ~horizon:4000. () in
  let rng = Sim.Rng.create (seed * 31) in
  Workload.telecom c ~rng ~calls ~hops:3 ~start:10. ~rate:1.5;
  if failures > 0 then
    Workload.random_failures c ~rng:(Sim.Rng.split rng) ~count:failures
      ~window:(30., 120.);
  Cluster.run c;
  c

let assert_oracle ?k ~n c =
  let report = Oracle.check ?k ~n (Cluster.trace c) in
  if not (Oracle.ok report) then
    Alcotest.failf "oracle violations: %a" Oracle.pp_report report;
  report

let assert_quiescent c =
  Array.iter
    (fun nd ->
      Alcotest.(check int)
        (Fmt.str "P%d receive buffer drained" (Node.pid nd))
        0 (Node.receive_buffer_size nd);
      Alcotest.(check int)
        (Fmt.str "P%d send buffer drained" (Node.pid nd))
        0 (Node.send_buffer_size nd);
      Alcotest.(check int)
        (Fmt.str "P%d output buffer drained" (Node.pid nd))
        0 (Node.output_buffer_size nd))
    (Cluster.nodes c)

let count_outputs c =
  Array.fold_left
    (fun acc nd ->
      acc + List.length (Util.committed_outputs (Cluster.trace c) ~pid:(Node.pid nd)))
    0 (Cluster.nodes c)

let presets n =
  [
    ("pessimistic", Config.pessimistic ~n ());
    ("k0", Config.k_optimistic ~n ~k:0 ());
    ("k1", Config.k_optimistic ~n ~k:1 ());
    ("k2", Config.k_optimistic ~n ~k:2 ());
    ("optimistic", Config.optimistic ~n ());
    ("strom-yemini", Config.strom_yemini ~n ());
    ("damani-garg", Config.damani_garg ~n ());
  ]

let test_all_presets_failure_free () =
  let n = 6 in
  let calls = 40 in
  List.iter
    (fun (name, config) ->
      let c = run_telecom ~config ~seed:3 ~failures:0 ~calls () in
      ignore (assert_oracle ~k:config.Config.protocol.k ~n c : Oracle.report);
      assert_quiescent c;
      Alcotest.(check int) (name ^ ": every call connects") calls (count_outputs c);
      Alcotest.(check int) (name ^ ": no rollbacks without failures") 0
        (Util.total (Cluster.stats c) "induced_rollbacks"))
    (presets n)

let test_all_presets_with_crashes () =
  let n = 6 in
  let calls = 60 in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun seed ->
          let c = run_telecom ~config ~seed ~failures:2 ~calls () in
          ignore (assert_oracle ~k:config.Config.protocol.k ~n c : Oracle.report);
          assert_quiescent c;
          Alcotest.(check int)
            (Fmt.str "%s seed %d: every call connects exactly once" name seed)
            calls (count_outputs c))
        [ 1; 2 ])
    (presets n)

let test_k0_and_pessimistic_never_revoke () =
  let n = 6 in
  List.iter
    (fun config ->
      List.iter
        (fun seed ->
          let c = run_telecom ~config ~seed ~failures:3 ~calls:50 () in
          let s = Cluster.stats c in
          Alcotest.(check int) "no induced rollbacks" 0 (Util.total s "induced_rollbacks");
          Alcotest.(check int) "no orphans" 0 (Util.total s "orphans_discarded");
          Alcotest.(check int) "no undone work" 0 (Util.total s "undone_intervals");
          ignore (assert_oracle ~k:0 ~n c : Oracle.report))
        [ 4; 5 ])
    [ Config.pessimistic ~n (); Config.k_optimistic ~n ~k:0 () ]

let test_theorem4_across_k () =
  let n = 6 in
  List.iter
    (fun k ->
      let config = Config.k_optimistic ~n ~k () in
      let c = run_telecom ~config ~seed:7 ~failures:2 ~calls:50 () in
      let report = assert_oracle ~k ~n c in
      Alcotest.(check bool)
        (Fmt.str "risk bound holds for K=%d" k)
        true
        (report.Oracle.max_risk <= k))
    [ 0; 1; 2; 3; 6 ]

let test_pipeline_jobs_all_complete () =
  let n = 5 in
  let config = Config.k_optimistic ~n ~k:2 () in
  let c = Cluster.create ~config ~app:App_model.Pipeline_app.app ~seed:11 ~horizon:4000. () in
  Workload.pipeline c ~jobs:30 ~start:5. ~rate:2.;
  Workload.random_failures c ~rng:(Sim.Rng.create 5) ~count:2 ~window:(10., 40.);
  Cluster.run c;
  ignore (assert_oracle ~k:2 ~n c : Oracle.report);
  Alcotest.(check int) "all jobs emerge exactly once" 30 (count_outputs c)

let test_kvstore_consistent_after_crashes () =
  let n = 4 in
  let config = Config.k_optimistic ~n ~k:2 () in
  let c = Cluster.create ~config ~app:App_model.Kvstore_app.app ~seed:13 ~horizon:4000. () in
  let rng = Sim.Rng.create 17 in
  Workload.kvstore c ~rng ~ops:80 ~keys:10 ~start:5. ~rate:2.;
  Workload.random_failures c ~rng:(Sim.Rng.split rng) ~count:2 ~window:(15., 50.);
  Cluster.run c;
  ignore (assert_oracle ~k:2 ~n c : Oracle.report);
  assert_quiescent c

let test_chatter_stress_many_failures () =
  let n = 8 in
  List.iter
    (fun (k, seed) ->
      let config = Config.k_optimistic ~n ~k () in
      let c = Cluster.create ~config ~app:App_model.Chatter_app.app ~seed ~horizon:5000. () in
      let rng = Sim.Rng.create (seed + 100) in
      Harness.Workload.chatter c ~rng ~tokens:25 ~hops:10 ~start:5. ~rate:2.;
      Workload.random_failures c ~rng:(Sim.Rng.split rng) ~count:4 ~window:(20., 200.);
      Cluster.run c;
      ignore (assert_oracle ~k ~n c : Oracle.report))
    [ (1, 21); (4, 22); (8, 23) ]

let test_concurrent_failures () =
  (* Two processes down at overlapping times. *)
  let n = 6 in
  let config = Config.optimistic ~n () in
  let c = Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:31 ~horizon:4000. () in
  let rng = Sim.Rng.create 33 in
  Workload.telecom c ~rng ~calls:40 ~hops:3 ~start:5. ~rate:2.;
  Cluster.crash_at c ~time:25. ~pid:1;
  Cluster.crash_at c ~time:26. ~pid:2;
  Cluster.crash_at c ~time:60. ~pid:1;
  Cluster.run c;
  ignore (assert_oracle ~k:n ~n c : Oracle.report);
  Alcotest.(check int) "all calls connect" 40 (count_outputs c)

let test_repeated_failures_same_process () =
  let n = 4 in
  let config = Config.k_optimistic ~n ~k:2 () in
  let c = Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:41 ~horizon:5000. () in
  let rng = Sim.Rng.create 43 in
  Workload.telecom c ~rng ~calls:40 ~hops:2 ~start:5. ~rate:2.;
  List.iter (fun t -> Cluster.crash_at c ~time:t ~pid:2) [ 20.; 80.; 140.; 200. ];
  Cluster.run c;
  ignore (assert_oracle ~k:2 ~n c : Oracle.report);
  Alcotest.(check int) "four restarts" 4 (Util.total (Cluster.stats c) "restarts");
  Alcotest.(check int) "all calls connect" 40 (count_outputs c)

let test_output_driven_logging_end_to_end () =
  let n = 6 in
  let base = Config.optimistic ~n () in
  let config =
    {
      base with
      Config.protocol = { base.Config.protocol with output_driven_logging = true };
      Config.timing = { base.Config.timing with notice_interval = Some 500. };
    }
  in
  let plain =
    { base with Config.timing = { base.Config.timing with notice_interval = Some 500. } }
  in
  let latency config =
    let c = run_telecom ~config ~seed:51 ~failures:0 ~calls:30 () in
    ignore (assert_oracle ~k:n ~n c : Oracle.report);
    Sim.Summary.mean (Cluster.stats c).output_latency
  in
  let driven = latency config and undriven = latency plain in
  Alcotest.(check bool)
    (Fmt.str "output-driven logging cuts commit latency (%.1f < %.1f)" driven undriven)
    true (driven < undriven)

(* Randomized property: any small scenario must satisfy the oracle. *)
let gen_scenario =
  QCheck2.Gen.(
    let* n = int_range 3 8 in
    let* k = int_bound n in
    let* seed = int_bound 10_000 in
    let* failures = int_bound 3 in
    let* calls = int_range 10 40 in
    return (n, k, seed, failures, calls))

let random_scenario_sound =
  Util.qtest ~count:25 "random scenarios satisfy the oracle" gen_scenario
    (fun (n, k, seed, failures, calls) ->
      let config = Config.k_optimistic ~n ~k () in
      let c = run_telecom ~config ~seed ~failures ~calls () in
      let report = Oracle.check ~k ~n (Cluster.trace c) in
      Oracle.ok report && report.Oracle.max_risk <= k)

let suite =
  [
    Alcotest.test_case "all presets, failure-free" `Slow test_all_presets_failure_free;
    Alcotest.test_case "all presets, with crashes" `Slow test_all_presets_with_crashes;
    Alcotest.test_case "K=0/pessimistic never revoke" `Slow test_k0_and_pessimistic_never_revoke;
    Alcotest.test_case "Theorem 4 across K" `Slow test_theorem4_across_k;
    Alcotest.test_case "pipeline jobs all complete" `Slow test_pipeline_jobs_all_complete;
    Alcotest.test_case "kvstore consistent after crashes" `Slow
      test_kvstore_consistent_after_crashes;
    Alcotest.test_case "chatter stress, many failures" `Slow test_chatter_stress_many_failures;
    Alcotest.test_case "concurrent failures" `Slow test_concurrent_failures;
    Alcotest.test_case "repeated failures, same process" `Slow
      test_repeated_failures_same_process;
    Alcotest.test_case "output-driven logging end to end" `Slow
      test_output_driven_logging_end_to_end;
    random_scenario_sound;
  ]
