(* Money conservation under crashes: the sharpest end-to-end check.

   Deposits inject a known amount of money; transfers shuffle it across
   shards.  Whatever the protocol does — rollbacks, replays, requeues,
   retransmissions — once the system quiesces, the global balance must be
   exactly the amount deposited: nothing lost, nothing duplicated. *)

module Cluster = Harness.Cluster
module Node = Recovery.Node
module Config = Recovery.Config
module Bank = App_model.Bank_app

let global_total cluster =
  Array.fold_left
    (fun acc nd -> acc + Bank.total (Node.app_state nd))
    0 (Cluster.nodes cluster)

let run_scenario ~config ~seed ~crashes =
  let n = config.Config.n in
  let cluster = Cluster.create ~config ~app:Bank.app ~seed ~horizon:5000. () in
  let rng = Sim.Rng.create (seed * 997) in
  (* Deposits: 1000 units spread over the shards. *)
  let deposited = ref 0 in
  for i = 1 to 20 do
    let amount = 10 + Sim.Rng.int rng 90 in
    deposited := !deposited + amount;
    Cluster.inject_at cluster
      ~time:(float_of_int i)
      ~dst:(i mod n)
      (Bank.Deposit { account = i; amount })
  done;
  (* Transfers between random shards/accounts. *)
  for i = 1 to 60 do
    let from_shard = Sim.Rng.int rng n in
    let to_shard = Sim.Rng.int rng n in
    Cluster.inject_at cluster
      ~time:(25. +. float_of_int i)
      ~dst:from_shard
      (Bank.Transfer
         {
           from_account = Sim.Rng.int rng 20;
           to_shard;
           to_account = Sim.Rng.int rng 20;
           amount = 1 + Sim.Rng.int rng 50;
         })
  done;
  List.iter (fun (time, pid) -> Cluster.crash_at cluster ~time ~pid) crashes;
  Cluster.run cluster;
  let report =
    Harness.Oracle.check ~k:config.Config.protocol.k ~n (Cluster.trace cluster)
  in
  if not (Harness.Oracle.ok report) then
    Alcotest.failf "oracle: %a" Harness.Oracle.pp_report report;
  Alcotest.(check int) "money conserved" !deposited (global_total cluster)

let test_conservation_failure_free () =
  List.iter
    (fun config -> run_scenario ~config ~seed:1 ~crashes:[])
    [
      Config.pessimistic ~n:5 ();
      Config.k_optimistic ~n:5 ~k:2 ();
      Config.optimistic ~n:5 ();
      Config.strom_yemini ~n:5 ();
    ]

let test_conservation_one_crash () =
  List.iter
    (fun config ->
      List.iter
        (fun seed -> run_scenario ~config ~seed ~crashes:[ (40., 2) ])
        [ 2; 3 ])
    [
      Config.pessimistic ~n:5 ();
      Config.k_optimistic ~n:5 ~k:1 ();
      Config.k_optimistic ~n:5 ~k:3 ();
      Config.optimistic ~n:5 ();
    ]

let test_conservation_crash_storm () =
  List.iter
    (fun config ->
      run_scenario ~config ~seed:7
        ~crashes:[ (30., 0); (45., 3); (60., 0); (75., 4) ])
    [ Config.k_optimistic ~n:5 ~k:2 (); Config.optimistic ~n:5 () ]

let test_conservation_with_gc () =
  let base = Config.k_optimistic ~n:5 ~k:2 () in
  let config =
    { base with Config.protocol = { base.Config.protocol with gc_logs = true } }
  in
  run_scenario ~config ~seed:9 ~crashes:[ (40., 1); (70., 2) ]

let test_audit_outputs () =
  let n = 4 in
  let config = Config.k_optimistic ~n ~k:2 () in
  let cluster = Cluster.create ~config ~app:Bank.app ~seed:4 ~horizon:2000. () in
  Cluster.inject_at cluster ~time:1. ~dst:0 (Bank.Deposit { account = 1; amount = 500 });
  Cluster.inject_at cluster ~time:2. ~dst:0
    (Bank.Transfer { from_account = 1; to_shard = 2; to_account = 5; amount = 200 });
  Cluster.inject_at cluster ~time:50. ~dst:0 Bank.Audit;
  Cluster.inject_at cluster ~time:50. ~dst:2 Bank.Audit;
  Cluster.run cluster;
  let outputs =
    Array.to_list (Cluster.nodes cluster)
    |> List.concat_map (fun nd ->
           List.map fst (Util.committed_outputs (Cluster.trace cluster) ~pid:(Node.pid nd)))
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "audited balances"
    [ "shard 0 total=300"; "shard 2 total=200" ]
    outputs

let suite =
  [
    Alcotest.test_case "conservation, failure-free" `Slow test_conservation_failure_free;
    Alcotest.test_case "conservation, one crash" `Slow test_conservation_one_crash;
    Alcotest.test_case "conservation, crash storm" `Slow test_conservation_crash_storm;
    Alcotest.test_case "conservation with GC" `Slow test_conservation_with_gc;
    Alcotest.test_case "audit outputs" `Quick test_audit_outputs;
  ]
