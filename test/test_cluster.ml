(* The simulation engine: routing, timers, failures, retransmission by the
   outside world, statistics. *)

module Cluster = Harness.Cluster
module Node = Recovery.Node
module Config = Recovery.Config
module Counter = App_model.Counter_app

let config ?(k = 4) ?(n = 4) () = Config.k_optimistic ~n ~k ()

let test_inject_and_run () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100. () in
  Cluster.inject_at c ~time:1. ~dst:2 (Counter.Add 5);
  Cluster.inject_at c ~time:2. ~dst:2 (Counter.Add 7);
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 2) in
  Alcotest.(check int) "both applied" 12 st.total;
  Alcotest.(check int) "stats count deliveries" 2
    (Util.total (Cluster.stats c) "deliveries")

let test_forwarding_crosses_network () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100. () in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Forward { dst = 3; amount = 9 });
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 3) in
  Alcotest.(check int) "arrived at P3" 9 st.total

let test_crash_restart_cycle () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:500. () in
  Cluster.inject_at c ~time:1. ~dst:1 (Counter.Add 5);
  Cluster.crash_at c ~time:50. ~pid:1;
  Cluster.run c;
  Alcotest.(check bool) "back up" true (Node.is_up (Cluster.node c 1));
  Alcotest.(check int) "restart counted" 1 (Util.total (Cluster.stats c) "restarts");
  Alcotest.(check int) "announcement broadcast" 1
    (Util.total (Cluster.stats c) "announcements_sent")

(* A second kill of P1 inside its restart delay (30) lands while it is
   down: it is not applied, and it is counted, so a run that schedules N
   kills accounts for all N in restarts plus ignored kills. *)
let test_kill_of_down_pid_counted () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:500. () in
  Cluster.crash_at c ~time:50. ~pid:1;
  Cluster.crash_at c ~time:60. ~pid:1;
  Cluster.run c;
  let stats = Cluster.stats c in
  Alcotest.(check bool) "back up" true (Node.is_up (Cluster.node c 1));
  Alcotest.(check int) "one restart" 1 (Util.total stats "restarts");
  Alcotest.(check int) "one kill ignored" 1 (Util.total stats "kills_ignored")

let test_client_retry_recovers_lost_request () =
  (* Long flush interval: the injected request is still volatile at the
     crash; the outside world retries it after the failure announcement. *)
  let timing =
    { Config.default_timing with flush_interval = Some 1000.; checkpoint_interval = None }
  in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing ~n:4 ~k:4 ())
      ~app:Counter.app ~horizon:2000. ()
  in
  Cluster.inject_at c ~time:1. ~dst:1 (Counter.Add 5);
  Cluster.crash_at c ~time:10. ~pid:1;
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "request recovered exactly once" 5 st.total

let test_packets_to_down_node_held () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:500. () in
  Cluster.crash_at c ~time:5. ~pid:3;
  (* Sent while P3 is down (restart_delay is 30): must arrive after restart. *)
  Cluster.inject_at c ~time:10. ~dst:0 (Counter.Forward { dst = 3; amount = 4 });
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 3) in
  Alcotest.(check int) "held message delivered after restart" 4 st.total

let test_injection_to_down_node_retried () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:500. () in
  Cluster.crash_at c ~time:5. ~pid:3;
  Cluster.inject_at c ~time:10. ~dst:3 (Counter.Add 4);
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 3) in
  Alcotest.(check int) "retried until the node is back" 4 st.total

let test_run_until_is_partial () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100. () in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Add 1);
  Cluster.inject_at c ~time:50. ~dst:0 (Counter.Add 1);
  Cluster.run_until c 10.;
  Alcotest.(check int) "only the first processed" 1
    (Util.total (Cluster.stats c) "deliveries");
  Cluster.run c;
  Alcotest.(check int) "rest follows" 2 (Util.total (Cluster.stats c) "deliveries")

let test_horizon_stops_run () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:20. () in
  Cluster.inject_at c ~time:50. ~dst:0 (Counter.Add 1);
  Cluster.run c;
  Alcotest.(check int) "beyond the horizon" 0 (Util.total (Cluster.stats c) "deliveries")

let test_net_override_controls_latency () =
  let override ~src:_ ~dst:_ ~packet_kind:_ = Some 25. in
  let c =
    Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100.
      ~net_override:override ~auto_timers:false ()
  in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Forward { dst = 1; amount = 1 });
  Cluster.run_until c 20.;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "not yet arrived" 0 st.total;
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "arrived after 25 time units" 1 st.total

let test_fifo_channels () =
  (* With FIFO enforced, two sends on the same channel arrive in order even
     under adversarial jitter. *)
  let timing =
    { Config.default_timing with fifo = true; net_jitter = 10.; net_latency = 1. }
  in
  let c =
    Cluster.create
      ~config:(Config.strom_yemini ~timing ~n:2 ())
      ~app:Counter.app ~horizon:200. ~seed:5 ()
  in
  for i = 1 to 10 do
    Cluster.inject_at c
      ~time:(float_of_int i)
      ~dst:0
      (Counter.Forward { dst = 1; amount = i })
  done;
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "all arrived" 55 st.total;
  (* in-order delivery means the receiver saw them as 1,2,...,10 *)
  Alcotest.(check int) "handled exactly ten" 10 st.handled

let test_determinism_across_runs () =
  let run () =
    let c =
      Cluster.create ~config:(config ()) ~app:App_model.Chatter_app.app ~seed:99
        ~horizon:500. ()
    in
    for i = 0 to 9 do
      Cluster.inject_at c
        ~time:(float_of_int (i + 1))
        ~dst:(i mod 4)
        (App_model.Chatter_app.Token { hops_left = 6; salt = i })
    done;
    Cluster.crash_at c ~time:40. ~pid:2;
    Cluster.run c;
    let s = Cluster.stats c in
    ( Util.total s "deliveries",
      Util.total s "releases",
      Util.total s "induced_rollbacks",
      Recovery.Trace.length (Cluster.trace c) )
  in
  Alcotest.(check (pair (pair int int) (pair int int)))
    "identical runs"
    (let a, b, c_, d = run () in
     ((a, b), (c_, d)))
    (let a, b, c_, d = run () in
     ((a, b), (c_, d)))

let test_seed_changes_schedule () =
  let run seed =
    let c =
      Cluster.create ~config:(config ()) ~app:App_model.Chatter_app.app ~seed
        ~horizon:300. ()
    in
    for i = 0 to 9 do
      Cluster.inject_at c ~time:(float_of_int (i + 1)) ~dst:(i mod 4)
        (App_model.Chatter_app.Token { hops_left = 6; salt = i })
    done;
    Cluster.run c;
    (Cluster.stats c).makespan
  in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

let test_stats_packets () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:200. () in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Forward { dst = 1; amount = 1 });
  Cluster.run c;
  let s = Cluster.stats c in
  let packets kind =
    Obs.Snapshot.counter s.obs ~labels:[ ("kind", kind) ] "net_packets_total"
  in
  Alcotest.(check bool) "app packets counted" true (packets "app" > 0);
  Alcotest.(check bool) "notices counted" true (packets "notice" > 0)

let test_busy_gating_serializes_node () =
  (* With a large per-delivery cost, a node processes back-to-back arrivals
     sequentially: makespan reflects the serialized work. *)
  let timing = { Util.quiet_timing with t_proc = 10. } in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing ~n:2 ~k:2 ())
      ~app:Counter.app ~horizon:500. ~auto_timers:false ()
  in
  for _ = 1 to 5 do
    Cluster.inject_at c ~time:1. ~dst:0 (Counter.Add 1)
  done;
  Cluster.run c;
  Alcotest.(check bool) "serialized work visible in makespan" true
    (Cluster.now c >= 41.);
  let st : Counter.state = Node.app_state (Cluster.node c 0) in
  Alcotest.(check int) "all processed" 5 st.total

(* [Cluster.stats] reads its counters from the per-pid registries, while
   the trace records each of those events as well.  Under loss,
   duplication, a crash, a cascade and two kills respawned from disk, the
   two sources must agree exactly. *)
let test_stats_agree_with_trace () =
  let config = Config.harden (Config.k_optimistic ~n:4 ~k:2 ()) in
  let fault_plan =
    { Harness.Netmodel.benign with loss = 0.05; duplicate = 0.05; reorder = 0.1;
      reorder_spread = 5. }
  in
  let c =
    Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:21 ~horizon:1500.
      ~fault_plan ()
  in
  Harness.Workload.telecom c ~rng:(Sim.Rng.create 21) ~calls:60 ~hops:4 ~start:10.
    ~rate:1.0;
  Cluster.crash_at c ~time:30. ~pid:1;
  List.iter
    (fun (pid, time) -> Cluster.crash_at c ~time ~pid)
    (Harness.Schedule.crash_times ~restart_delay:config.Config.timing.restart_delay ~time:45.
       (Harness.Schedule.Cascade [ 2; 3 ]));
  Cluster.kill_at c ~time:60. ~pid:0 ();
  Cluster.kill_at c ~time:80. ~pid:2 ();
  Cluster.run c;
  let oracle = Harness.Oracle.check ~k:2 ~n:4 (Cluster.trace c) in
  Alcotest.(check (list string)) "certified" [] oracle.Harness.Oracle.violations;
  Alcotest.(check int) "every crash and kill respawned" 5
    (Obs.Snapshot.counter (Cluster.stats c).Cluster.obs "storage_reopens_total");
  let count p =
    List.length
      (List.filter (fun e -> p e.Recovery.Trace.ev) (Recovery.Trace.events (Cluster.trace c)))
  in
  let s = Cluster.stats c in
  let deliveries = Util.total s "deliveries" in
  Alcotest.(check bool) "crashes and kills restarted nodes" true
    (Util.total s "restarts" >= 5);
  Alcotest.(check int) "deliveries = live Message_delivered" deliveries
    (count (function Recovery.Trace.Message_delivered _ -> true | _ -> false));
  Alcotest.(check int) "releases = Message_released" (Util.total s "releases")
    (count (function Recovery.Trace.Message_released _ -> true | _ -> false));
  Alcotest.(check int) "outputs_committed = Output_committed"
    (Util.total s "outputs_committed")
    (count (function Recovery.Trace.Output_committed _ -> true | _ -> false));
  Alcotest.(check int) "one delay sample per delivery" deliveries
    (Sim.Summary.count s.delivery_delay)

let suite =
  [
    Alcotest.test_case "inject and run" `Quick test_inject_and_run;
    Alcotest.test_case "stats counters agree with the trace under chaos" `Quick
      test_stats_agree_with_trace;
    Alcotest.test_case "forwarding crosses network" `Quick test_forwarding_crosses_network;
    Alcotest.test_case "crash/restart cycle" `Quick test_crash_restart_cycle;
    Alcotest.test_case "a kill of a down pid is counted, not applied" `Quick
      test_kill_of_down_pid_counted;
    Alcotest.test_case "client retry recovers lost request" `Quick
      test_client_retry_recovers_lost_request;
    Alcotest.test_case "packets to down node held" `Quick test_packets_to_down_node_held;
    Alcotest.test_case "injection to down node retried" `Quick
      test_injection_to_down_node_retried;
    Alcotest.test_case "run_until is partial" `Quick test_run_until_is_partial;
    Alcotest.test_case "horizon stops run" `Quick test_horizon_stops_run;
    Alcotest.test_case "net override controls latency" `Quick test_net_override_controls_latency;
    Alcotest.test_case "fifo channels" `Quick test_fifo_channels;
    Alcotest.test_case "determinism across runs" `Quick test_determinism_across_runs;
    Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
    Alcotest.test_case "stats packets" `Quick test_stats_packets;
    Alcotest.test_case "busy gating serializes a node" `Quick test_busy_gating_serializes_node;
  ]
