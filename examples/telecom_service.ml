(* The paper's motivating application: a continuously-running
   service-providing system (a telecom switch fabric).

   "A telecommunications system needs to choose a parameter to control the
   overhead so that it can be responsive during normal operation, and also
   control the rollback scope so that it can recover reasonably fast upon a
   failure."  (Section 1)

   This example runs the same call workload under three settings —
   pessimistic, K=2 and fully optimistic — injects two switch failures, and
   prints the service-quality metrics an operator would look at: call setup
   work, output (call-connected) latency, and how far each failure
   propagated.

     dune exec examples/telecom_service.exe
*)

module Config = Recovery.Config
module Cluster = Harness.Cluster
module Workload = Harness.Workload

let switches = 8
let calls = 120

let run name config =
  let cluster =
    Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:2026 ~horizon:4000. ()
  in
  let rng = Sim.Rng.create 555 in
  Workload.telecom cluster ~rng ~calls ~hops:4 ~start:10. ~rate:1.5;
  Cluster.crash_at cluster ~time:45. ~pid:2;
  Cluster.crash_at cluster ~time:95. ~pid:5;
  Cluster.run cluster;
  let s = Cluster.stats cluster in
  let count = Obs.Snapshot.counter s.obs in
  Fmt.pr
    "%-12s calls connected %3d/%d | blocked %6.2f | connect latency %7.2f | sync \
     writes %4d | rollbacks %2d | undone work %3d intervals@."
    name (count "outputs_committed_total") calls
    (Sim.Summary.mean s.blocked_time)
    (Sim.Summary.mean s.output_latency)
    (count "storage_sync_writes_total") (count "induced_rollbacks_total")
    (count "undone_intervals_total");
  let report =
    Harness.Oracle.check ~k:config.Config.protocol.k ~n:switches
      (Cluster.trace cluster)
  in
  if not (Harness.Oracle.ok report) then begin
    Fmt.pr "%a@." Harness.Oracle.pp_report report;
    exit 1
  end

let () =
  Fmt.pr "=== telecom switch fabric: %d switches, %d calls, 2 failures ===@.@."
    switches calls;
  run "pessimistic" (Config.pessimistic ~n:switches ());
  run "K=2" (Config.k_optimistic ~n:switches ~k:2 ());
  run "optimistic" (Config.optimistic ~n:switches ());
  Fmt.pr
    "@.K tunes the operating point: pessimistic pays synchronous logging on \
     every call hop, optimistic pays wide rollbacks on every failure, and a \
     small K buys most of both worlds.@."
