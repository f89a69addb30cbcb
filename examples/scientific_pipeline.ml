(* The paper's other motivating workload: a long-running scientific
   computation, where the goal is to minimize total execution time and
   failures mainly cost lost work.

   A staged pipeline pushes jobs through every process.  We compare total
   completion time and lost work across the K spectrum with a couple of
   failures injected, illustrating Section 4.1: for throughput-oriented
   jobs, optimistic logging (large K) wins as long as failures are rare.

     dune exec examples/scientific_pipeline.exe
*)

module Config = Recovery.Config
module Cluster = Harness.Cluster
module Workload = Harness.Workload

let stages = 6
let jobs = 80

let last_output_time cluster =
  List.fold_left
    (fun acc { Recovery.Trace.time; ev; _ } ->
      match ev with
      | Recovery.Trace.Output_committed _ -> Float.max acc time
      | _ -> acc)
    0.
    (Recovery.Trace.events (Cluster.trace cluster))

let run name config ~failures =
  let cluster =
    Cluster.create ~config ~app:App_model.Pipeline_app.app ~seed:99 ~horizon:6000. ()
  in
  Workload.pipeline cluster ~jobs ~start:5. ~rate:2.;
  if failures then begin
    Cluster.crash_at cluster ~time:30. ~pid:2;
    Cluster.crash_at cluster ~time:70. ~pid:4
  end;
  Cluster.run cluster;
  let s = Cluster.stats cluster in
  let count = Obs.Snapshot.counter s.obs in
  Fmt.pr
    "%-12s %s | jobs done %3d/%d | last result at %7.1f | busy time %8.1f | \
     replayed %4d | lost+undone %3d@."
    name
    (if failures then "2 crashes " else "no crashes")
    (count "outputs_committed_total") jobs (last_output_time cluster) s.busy_time
    (count "replayed_total")
    (count "lost_intervals_total" + count "undone_intervals_total");
  let report =
    Harness.Oracle.check ~k:config.Config.protocol.k ~n:stages (Cluster.trace cluster)
  in
  if not (Harness.Oracle.ok report) then exit 1

let () =
  Fmt.pr "=== scientific pipeline: %d stages, %d jobs ===@.@." stages jobs;
  List.iter
    (fun failures ->
      run "pessimistic" (Config.pessimistic ~n:stages ()) ~failures;
      run "K=1" (Config.k_optimistic ~n:stages ~k:1 ()) ~failures;
      run "K=3" (Config.k_optimistic ~n:stages ~k:3 ()) ~failures;
      run "optimistic" (Config.optimistic ~n:stages ()) ~failures;
      Fmt.pr "@.")
    [ false; true ];
  Fmt.pr
    "Failure-free, larger K means less logging stall per hop (lower busy \
     time); with crashes, it pays in replayed and discarded work.@."
