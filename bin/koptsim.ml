(* Interactive simulator CLI: run one configurable cluster simulation and
   print stats, committed outputs, the oracle's verdict, and optionally the
   full event trace.

     dune exec bin/koptsim.exe -- --help
     dune exec bin/koptsim.exe -- -n 8 -k 2 --workload telecom --calls 100 \
       --failures 3 --seed 42 --trace
*)

open Cmdliner
module Config = Recovery.Config
module Cluster = Harness.Cluster
module Workload = Harness.Workload

type workload = Telecom | Pipeline | Chatter | Kvstore

let workload_conv =
  let parse = function
    | "telecom" -> Ok Telecom
    | "pipeline" -> Ok Pipeline
    | "chatter" -> Ok Chatter
    | "kvstore" -> Ok Kvstore
    | s -> Error (`Msg (Fmt.str "unknown workload %S" s))
  in
  let print ppf w =
    Fmt.string ppf
      (match w with
      | Telecom -> "telecom"
      | Pipeline -> "pipeline"
      | Chatter -> "chatter"
      | Kvstore -> "kvstore")
  in
  Arg.conv (parse, print)

type preset =
  | Koptimistic
  | Pessimistic
  | Optimistic
  | Strom_yemini
  | Damani_garg
  | Direct

let preset_conv =
  let parse = function
    | "k-optimistic" -> Ok Koptimistic
    | "pessimistic" -> Ok Pessimistic
    | "optimistic" -> Ok Optimistic
    | "strom-yemini" -> Ok Strom_yemini
    | "damani-garg" -> Ok Damani_garg
    | "direct" -> Ok Direct
    | s -> Error (`Msg (Fmt.str "unknown preset %S" s))
  in
  let print ppf p =
    Fmt.string ppf
      (match p with
      | Koptimistic -> "k-optimistic"
      | Pessimistic -> "pessimistic"
      | Optimistic -> "optimistic"
      | Strom_yemini -> "strom-yemini"
      | Damani_garg -> "damani-garg"
      | Direct -> "direct")
  in
  Arg.conv (parse, print)

let config_of ~preset ~n ~k =
  match preset with
  | Koptimistic -> Config.k_optimistic ~n ~k ()
  | Pessimistic -> Config.pessimistic ~n ()
  | Optimistic -> Config.optimistic ~n ()
  | Strom_yemini -> Config.strom_yemini ~n ()
  | Damani_garg -> Config.damani_garg ~n ()
  | Direct -> Config.direct_dependency ~n ()

let pp_stats (s : Cluster.stats) =
  let count name = Obs.Snapshot.counter s.obs name in
  let packets =
    List.filter_map
      (function
        | ("net_packets_total", [ ("kind", kind) ]), Obs.Snapshot.Counter v ->
          Some (kind, v)
        | _ -> None)
      (Obs.Snapshot.bindings s.obs)
  in
  Fmt.pr "makespan            %10.1f@." s.makespan;
  Fmt.pr "deliveries          %10d@." (count "deliveries_total");
  Fmt.pr "messages released   %10d@." (count "releases_total");
  Fmt.pr "sync writes         %10d@." (count "storage_sync_writes_total");
  Fmt.pr "send blocked        %a@." Sim.Summary.pp s.blocked_time;
  Fmt.pr "wire vector size    %a@." Sim.Summary.pp s.wire_vector_size;
  Fmt.pr "delivery delay      %a@." Sim.Summary.pp s.delivery_delay;
  Fmt.pr "outputs committed   %10d@." (count "outputs_committed_total");
  Fmt.pr "output latency      %a@." Sim.Summary.pp s.output_latency;
  Fmt.pr "restarts            %10d@." (count "restarts_total");
  if count "kills_ignored_total" > 0 then
    Fmt.pr "kills ignored       %10d@." (count "kills_ignored_total");
  Fmt.pr "induced rollbacks   %10d@." (count "induced_rollbacks_total");
  Fmt.pr "intervals lost      %10d@." (count "lost_intervals_total");
  Fmt.pr "intervals undone    %10d@." (count "undone_intervals_total");
  Fmt.pr "orphan msgs dropped %10d@." (count "orphans_discarded_total");
  Fmt.pr "duplicates dropped  %10d@." (count "duplicates_dropped_total");
  Fmt.pr "replayed            %10d@." (count "replayed_total");
  Fmt.pr "retransmissions     %10d@." (count "retransmissions_total");
  Fmt.pr "packets             %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
    packets

let simulate preset n k workload items failures seed horizon show_trace =
  let config = config_of ~preset ~n ~k in
  let report_k = config.Config.protocol.k in
  let oracle_check trace =
    let report = Harness.Oracle.check ~k:report_k ~n trace in
    Fmt.pr "@.%a@." Harness.Oracle.pp_report report;
    if Harness.Oracle.ok report then 0 else 1
  in
  let rng = Sim.Rng.create (seed * 131) in
  let finish cluster =
    Cluster.run cluster;
    Fmt.pr "=== %s | N=%d | workload items=%d | failures=%d | seed=%d ===@."
      (Config.describe config) n items failures seed;
    pp_stats (Cluster.stats cluster);
    if show_trace then
      Fmt.pr "@.--- trace ---@.%a@." Recovery.Pp.trace (Cluster.trace cluster);
    oracle_check (Cluster.trace cluster)
  in
  let inject_failures cluster =
    if failures > 0 then
      Workload.random_failures cluster ~rng:(Sim.Rng.split rng) ~count:failures
        ~window:(20., 20. +. (float_of_int items /. 1.5))
  in
  match workload with
  | Telecom ->
    let c = Cluster.create ~config ~app:App_model.Telecom_app.app ~seed ~horizon () in
    Workload.telecom c ~rng ~calls:items ~hops:4 ~start:10. ~rate:1.5;
    inject_failures c;
    finish c
  | Pipeline ->
    let c = Cluster.create ~config ~app:App_model.Pipeline_app.app ~seed ~horizon () in
    Workload.pipeline c ~jobs:items ~start:10. ~rate:1.5;
    inject_failures c;
    finish c
  | Chatter ->
    let c = Cluster.create ~config ~app:App_model.Chatter_app.app ~seed ~horizon () in
    Workload.chatter c ~rng ~tokens:items ~hops:10 ~start:10. ~rate:1.5;
    inject_failures c;
    finish c
  | Kvstore ->
    let c = Cluster.create ~config ~app:App_model.Kvstore_app.app ~seed ~horizon () in
    Workload.kvstore c ~rng ~ops:items ~keys:(Stdlib.max 4 (items / 5)) ~start:10.
      ~rate:1.5;
    inject_failures c;
    finish c

let cmd =
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of processes.") in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Degree of optimism.") in
  let preset =
    Arg.(
      value
      & opt preset_conv Koptimistic
      & info [ "preset" ]
          ~doc:
            "Protocol: k-optimistic, pessimistic, optimistic, strom-yemini, \
             damani-garg, direct (direct tracking is failure-free only: pass \
             --failures 0).")
  in
  let workload =
    Arg.(
      value
      & opt workload_conv Telecom
      & info [ "workload" ] ~doc:"Workload: telecom, pipeline, chatter, kvstore.")
  in
  let items =
    Arg.(value & opt int 100 & info [ "items"; "calls"; "jobs" ] ~doc:"Workload size.")
  in
  let failures =
    Arg.(
      value & opt int 2
      & info [ "failures" ]
          ~doc:
            "Number of kills to schedule, each at a random time on a random process. A \
             kill that lands while its process is still down is not applied: it is \
             counted, and printed as $(b,kills ignored).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let horizon =
    Arg.(value & opt float 5000. & info [ "horizon" ] ~doc:"Simulated-time bound.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full event trace.") in
  let doc = "Simulate an N-process cluster under K-optimistic logging." in
  Cmd.v
    (Cmd.info "koptsim" ~version:"1.0" ~doc)
    Term.(
      const simulate $ preset $ n $ k $ workload $ items $ failures $ seed $ horizon
      $ trace)

let () = exit (Cmd.eval' cmd)
