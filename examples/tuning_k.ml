(* Sweep the degree of optimism K and print the two curves the paper's
   tradeoff is about: failure-free overhead (send-buffer blocking,
   piggyback size) against recovery efficiency (rollback scope).

   This is the "ne-grain tradeoff" knob of Section 4 in action: an
   operator picks the K where the overhead they can afford meets the
   recovery time they can tolerate.

     dune exec examples/tuning_k.exe
*)

module Config = Recovery.Config
module Cluster = Harness.Cluster
module Workload = Harness.Workload

let n = 8

let measure ~k ~failures =
  let config = Config.k_optimistic ~n ~k () in
  let cluster =
    Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:4242 ~horizon:4000. ()
  in
  let rng = Sim.Rng.create 77 in
  Workload.telecom cluster ~rng ~calls:100 ~hops:4 ~start:10. ~rate:1.5;
  if failures then
    Workload.random_failures cluster ~rng:(Sim.Rng.split rng) ~count:3
      ~window:(30., 100.);
  Cluster.run cluster;
  let report = Harness.Oracle.check ~k ~n (Cluster.trace cluster) in
  if not (Harness.Oracle.ok report) then exit 1;
  Cluster.stats cluster

let () =
  Fmt.pr "=== tuning K: N=%d, telecom workload ===@.@." n;
  Fmt.pr
    "  K | blocked mean | vector mean | max revokers |  rollbacks | undone work@.";
  Fmt.pr "----+--------------+-------------+--------------+------------+------------@.";
  List.iter
    (fun k ->
      let free = measure ~k ~failures:false in
      let faulty = measure ~k ~failures:true in
      Fmt.pr " %2d | %12.2f | %11.2f | %12d | %10d | %11d@." k
        (Sim.Summary.mean free.blocked_time)
        (Sim.Summary.mean free.wire_vector_size)
        k
        (Obs.Snapshot.counter faulty.obs "induced_rollbacks_total")
        (Obs.Snapshot.counter faulty.obs "undone_intervals_total"))
    [ 0; 1; 2; 3; 4; 6; 8 ];
  Fmt.pr
    "@.Left columns: failure-free run (overhead falls as K grows).@.Right \
     columns: same workload with 3 crashes (rollback scope grows with K).@.\
     Pessimistic logging is the K=0 row; classical optimistic logging is K=N.@."
