(* E14: the multi-process deployment under faults.

   Each run launches real daemons behind the fault proxy, drives a
   kvstore workload, SIGKILLs and respawns daemons mid-workload, scrapes
   every live daemon's Stats arm, and certifies the merged trace with the
   causality oracle. *)

(* The partition cuts pid 0 off from launch until well after the
   workload's last injection (~100 ms in), so it always meets the
   daemons' first dials and the traffic of the run. *)
let fault_plan ~with_partition =
  {
    Harness.Netmodel.loss = 0.05;
    duplicate = 0.05;
    reorder = 0.10;
    reorder_spread = 5.;
    partitions =
      (if with_partition then
         [
           {
             Harness.Netmodel.group = [ 0 ];
             from_ = 0.;
             until = 200.;
             mode = Harness.Netmodel.Drop_packets;
           };
         ]
       else []);
  }

(* Live stats plane, exercised mid-run (daemons still busy, one of them a
   post-SIGKILL successor): every daemon must answer the Stats arm with a
   snapshot that decodes, and the cluster-wide merge must show
   deliveries — this is the gate the CI net smoke relies on. *)
let check_live_stats t ~kills =
  let live =
    List.init (Deployment.n t) (fun pid ->
        match Deployment.scrape t ~dst:pid with
        | Some (Ok snap) -> snap
        | Some (Error e) ->
          failwith (Fmt.str "E14: pid %d Stats snapshot does not decode: %s" pid e)
        | None -> failwith (Fmt.str "E14: pid %d did not answer Stats_req" pid))
    |> Obs.Snapshot.merge_all
  in
  if Obs.Snapshot.counter live "deliveries_total" = 0 then
    failwith "E14: live Stats scrape shows zero deliveries_total";
  (* Each victim's successor reopened its store once. *)
  let reopens = Obs.Snapshot.counter live "storage_reopens_total"
  and victims = List.length (List.sort_uniq Int.compare kills) in
  if reopens <> victims then
    failwith
      (Fmt.str "E14: live Stats scrape shows storage_reopens_total %d after %d kill(s)"
         reopens victims)

let one_run ~n ~k ~ops ~kills ~plan ~seed report =
  let t = Deployment.launch ~n ~k ~plan ~seed () in
  let r =
    Deployment.run t (fun () ->
        Deployment.run_workload t ~ops:(ops / 2) ~seed;
        List.iter
          (fun victim ->
            Deployment.kill t ~dst:victim;
            Deployment.run_workload t
              ~ops:(ops / (2 * List.length kills))
              ~seed:(seed + victim))
          kills;
        check_live_stats t ~kills)
  in
  let outcome = r.Deployment.outcome and label = Fmt.str "K=%d" k in
  if not r.Deployment.settled then
    Harness.Report.note report (Fmt.str "%s: settle timed out" label);
  Deployment.certify ~report ~exp:"E14" ~label outcome;
  let o = outcome.Deployment.oracle in
  let count name = Obs.Snapshot.counter outcome.Deployment.obs (name ^ "_total") in
  let proxied name = count ("proxy_" ^ name) in
  Harness.Report.note report
    (Fmt.str
       "K=%d proxy: %d forwarded, %d dropped (%d by the partition), %d duplicated, %d \
        delayed, %d severed"
       k (proxied "forwarded") (proxied "dropped") (proxied "cut") (proxied "duplicated")
       (proxied "delayed") (proxied "severed"));
  if plan.Harness.Netmodel.partitions <> [] && proxied "severed" + proxied "cut" = 0 then
    Harness.Report.note report
      (Fmt.str "K=%d: WARNING the partition window met no traffic (nothing severed or cut)" k);
  Harness.Report.add_row report
    [
      string_of_int k;
      string_of_int (List.length kills);
      string_of_int (count "deliveries");
      string_of_int (count "releases");
      string_of_int (count "restarts");
      string_of_int outcome.Deployment.synthesized_crashes;
      string_of_int (count "orphans_discarded");
      string_of_int (count "duplicates_dropped");
      string_of_int (count "retransmissions");
      string_of_int (count "outputs_committed");
      string_of_int (count "transport_decode_errors");
      string_of_int (count "transport_frames_dropped");
      string_of_int o.Harness.Oracle.lost;
      string_of_int o.Harness.Oracle.undone;
      string_of_int o.Harness.Oracle.max_risk;
      string_of_int (List.length o.Harness.Oracle.violations);
    ];
  Durable.Temp.rm_rf (Deployment.root t)

let experiment ?(smoke = false) () =
  let report =
    Harness.Report.create
      ~title:
        (if smoke then "E14-smoke: multi-process deployment (loopback TCP)"
         else "E14: multi-process deployment (loopback TCP, SIGKILL + proxy faults)")
      ~columns:
        [
          "K"; "kills"; "delivs"; "released"; "restarts"; "synth"; "orphans";
          "dups"; "retrans"; "outputs"; "dec_err"; "drops"; "lost"; "undone";
          "risk"; "violations";
        ]
  in
  if smoke then
    one_run ~n:3 ~k:1 ~ops:48 ~kills:[ 1 ]
      ~plan:(fault_plan ~with_partition:false)
      ~seed:7 report
  else begin
    let n = 4 in
    List.iter
      (fun k ->
        one_run ~n ~k ~ops:120 ~kills:[ 1 ]
          ~plan:(fault_plan ~with_partition:true)
          ~seed:(100 + k) report)
      [ 0; 2; n ]
  end;
  Harness.Report.note report
    "every run: real OS processes on loopback TCP, durable stores, \
     SIGKILL mid-workload, all traffic through the fault proxy; merged \
     trace certified by the causality oracle";
  (report, [])
