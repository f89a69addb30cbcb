(* E17: membership churn and degraded modes on the live deployment.

   One run walks a cluster through every membership transition the
   protocol supports, with the workload running throughout:

     join       — a fourth daemon is added mid-run ([Deployment.add_node]);
                  incumbents widen their dependency vectors when its Join
                  broadcast arrives (Corollary 3: a fresh process carries
                  no dependency entries, so the wide vector is
                  trivially conservative)
     SIGKILL    — an incumbent is killed and respawned mid-churn, so
                  crash recovery and vector widening compose
     retire     — a daemon leaves gracefully ([Deployment.retire]): it
                  flushes, broadcasts its final frontier, and survivors
                  treat its entries as stable forever (Theorem 2)
     rejoin     — the retired pid comes back over its own store directory,
                  announcing itself like any joiner
     rolling    — every live daemon is SIGKILLed + respawned in turn,
                  the cluster settling between victims
     brownout   — one daemon's disk refuses ordinary flushes for a
                  window (ENOSPC); refused records stay volatile and the
                  K-rule keeps its sends gated, so the degradation is
                  visible in the [storage_degraded_flushes] counter but
                  never in the oracle report

   The merged trace is certified at the *final* membership width: zero
   violations and measured risk at most K across the whole timeline,
   churn included. *)

module App = App_model.Kvstore_app

type measure = {
  width : int;  (** final membership width (launch n + joins) *)
  deliveries : int;
  degraded : int;  (** flushes refused during the brownout window *)
  risk : int;  (** max measured risk over the merged trace *)
}

(* A burst of Puts at one daemon, keys tagged per churn phase so the
   merged trace reads chronologically. *)
let burst t ~dst ~tag ~count ~seed =
  for i = 0 to count - 1 do
    Deployment.inject t ~dst
      (App.Put { key = Fmt.str "e17-%s-%d" tag i; value = seed + i });
    if i mod 16 = 15 then Unix.sleepf 0.002
  done

let settle_or_note t report ~label ~stage =
  if not (Deployment.settle ~timeout:120. t) then
    Harness.Report.note report (Fmt.str "%s: settle after %s timed out" label stage)

(* One oracle-certified churn run. *)
let e17_run ~k ~ops ~brownout_rounds ~seed ~label report =
  let n = 3 in
  let t = Deployment.launch ~n ~k ~seed () in
  match
    (fun () ->
      let settle = settle_or_note t report ~label in
      (* Steady state at the launch membership. *)
      for dst = 0 to n - 1 do
        burst t ~dst ~tag:(Fmt.str "pre%d" dst) ~count:ops ~seed
      done;
      settle ~stage:"launch workload";
      (* Join: membership grows to four under load. *)
      let joiner = Deployment.add_node t in
      burst t ~dst:joiner ~tag:"join" ~count:ops ~seed;
      burst t ~dst:0 ~tag:"postjoin" ~count:ops ~seed;
      settle ~stage:"join";
      (* Crash recovery composed with the widened membership. *)
      Deployment.kill t ~dst:1;
      burst t ~dst:1 ~tag:"postkill" ~count:ops ~seed;
      settle ~stage:"kill";
      (* Graceful leave, then traffic among the survivors only. *)
      Deployment.retire t ~dst:2;
      burst t ~dst:0 ~tag:"postretire" ~count:ops ~seed;
      burst t ~dst:joiner ~tag:"postretire2" ~count:ops ~seed;
      settle ~stage:"retire";
      (* The retired pid rejoins over its own store. *)
      Deployment.rejoin t ~dst:2;
      burst t ~dst:2 ~tag:"rejoin" ~count:ops ~seed;
      settle ~stage:"rejoin";
      (* Rolling restart of the whole (now four-wide) cluster. *)
      if not (Deployment.rolling_restart ~timeout:120. t) then
        Harness.Report.note report
          (Fmt.str "%s: rolling restart settle timed out" label);
      (* Disk-full brownout at daemon 0: ordinary flushes refuse for a
         window.  The post-window burst outnumbers the window so the
         backlog provably drains through a succeeding flush before the
         run ends. *)
      Deployment.arm_brownout t ~dst:0 ~rounds:brownout_rounds;
      burst t ~dst:0 ~tag:"brownout" ~count:ops ~seed;
      burst t ~dst:0 ~tag:"drain" ~count:(brownout_rounds + 8) ~seed;
      settle ~stage:"brownout";
      Deployment.finish t)
      ()
  with
  | exception e ->
    (try Deployment.destroy t with _ -> ());
    raise e
  | outcome ->
    Deployment.certify ~report ~exp:"E17" ~label outcome;
    let o = outcome.Deployment.oracle in
    let counter = Obs.Snapshot.counter outcome.Deployment.obs in
    let degraded = counter "storage_degraded_flushes_total" in
    if degraded = 0 then
      failwith
        (Fmt.str "E17 %s: brownout window armed but no flush was refused" label);
    let m =
      {
        width = Deployment.width t;
        deliveries = counter "deliveries_total";
        degraded;
        risk = o.Harness.Oracle.max_risk;
      }
    in
    Harness.Report.add_row report
      [
        string_of_int k;
        string_of_int m.width;
        string_of_int (List.length (Deployment.retired t));
        string_of_int (counter "restarts_total");
        string_of_int m.deliveries;
        string_of_int m.degraded;
        string_of_int m.risk;
        string_of_int (List.length o.Harness.Oracle.violations);
      ];
    Durable.Temp.rm_rf (Deployment.root t);
    m

let experiment ?(smoke = false) () =
  let report =
    Harness.Report.create
      ~title:
        (if smoke then "E17-smoke: membership churn (live cluster)"
         else
           "E17: membership churn — join, kill, retire, rejoin, rolling \
            restart, disk-full brownout (live clusters)")
      ~columns:
        [
          "K"; "width"; "retired"; "restarts"; "delivs"; "degraded"; "risk";
          "violations";
        ]
  in
  let bench = ref [] in
  if smoke then
    ignore
      (e17_run ~k:1 ~ops:16 ~brownout_rounds:3 ~seed:17 ~label:"smoke" report
        : measure)
  else
    List.iter
      (fun k ->
        let m =
          e17_run ~k ~ops:48 ~brownout_rounds:5 ~seed:(1700 + k)
            ~label:(Fmt.str "k=%d" k) report
        in
        if k = 2 then
          bench :=
            [
              (Fmt.str "E17 deliveries k=%d" k, float_of_int m.deliveries);
              (Fmt.str "E17 degraded flushes k=%d" k, float_of_int m.degraded);
              (Fmt.str "E17 max risk k=%d" k, float_of_int m.risk);
              (Fmt.str "E17 membership width k=%d" k, float_of_int m.width);
            ])
      [ 0; 2 ];
  Harness.Report.note report
    "per run: workload at n=3, then under continued load: add a fourth \
     daemon (Join handshake widens incumbent vectors), SIGKILL+respawn an \
     incumbent, retire a daemon (frontier broadcast, Theorem 2), rejoin it \
     over its own store, rolling-restart all four, and arm a disk-full \
     brownout window (refused flushes stay volatile; the K-rule gates \
     sends until the backlog drains).  The merged trace is certified at \
     the final width: zero violations, risk <= K throughout.";
  (report, List.rev !bench)
