(* Quickstart: a 4-process cluster running K-optimistic logging.

   We inject a handful of counter operations, crash a process in the middle
   of the run, and watch the system recover: the failed process replays its
   stable log, the outside world retries the lost request, and the final
   state is exactly what a failure-free run would have produced.

     dune exec examples/quickstart.exe
*)

module Config = Recovery.Config
module Node = Recovery.Node
module Cluster = Harness.Cluster
module Counter = App_model.Counter_app

let () =
  let n = 4 in
  (* Degree of optimism K = 2: a message may leave while at most two
     processes' failures could still revoke it. *)
  let config = Config.k_optimistic ~n ~k:2 () in
  let cluster = Cluster.create ~config ~app:Counter.app ~seed:7 ~horizon:2000. () in

  (* The outside world sends work: additions to processes, some forwarding
     between them, and finally a report (an output that must never be
     revoked). *)
  for i = 1 to 10 do
    Cluster.inject_at cluster
      ~time:(float_of_int (5 * i))
      ~dst:(i mod n)
      (Counter.Add i)
  done;
  Cluster.inject_at cluster ~time:60. ~dst:0 (Counter.Forward { dst = 3; amount = 100 });
  Cluster.inject_at cluster ~time:70. ~dst:3 Counter.Report;

  (* Process 3 fails mid-run. *)
  Cluster.crash_at cluster ~time:40. ~pid:3;

  Cluster.run cluster;

  Fmt.pr "=== quickstart: %s, N=%d ===@." (Config.describe config) n;
  Array.iter
    (fun node ->
      let st : Counter.state = Node.app_state node in
      Fmt.pr "P%d: total=%-4d current interval %a (stable through %a)@."
        (Node.pid node) st.total Depend.Entry.pp (Node.current node)
        Depend.Entry.pp (Node.stable_frontier node))
    (Cluster.nodes cluster);

  let count = Obs.Snapshot.counter (Cluster.stats cluster).obs in
  Fmt.pr "@.deliveries=%d released=%d restarts=%d rollbacks=%d replayed=%d@."
    (count "deliveries_total") (count "releases_total") (count "restarts_total")
    (count "induced_rollbacks_total") (count "replayed_total");
  List.iter
    (fun { Recovery.Trace.time; ev; _ } ->
      match ev with
      | Recovery.Trace.Output_committed { text; _ } ->
        Fmt.pr "output committed at %.1f: %s@." time text
      | _ -> ())
    (Recovery.Trace.events (Cluster.trace cluster));

  (* The offline oracle re-derives the true causal order and certifies the
     run: no orphan survived, no output was revoked, and Theorem 4's bound
     held for every released message. *)
  let report = Harness.Oracle.check ~k:2 ~n (Cluster.trace cluster) in
  Fmt.pr "@.%a@." Harness.Oracle.pp_report report;
  if not (Harness.Oracle.ok report) then exit 1
