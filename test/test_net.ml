(* Multi-process deployment over real loopback TCP: fork koptnode daemons,
   drive a workload, SIGKILL one mid-run, and certify the merged trace with
   the causality oracle — the subsystem's end-to-end argument, exercised
   from the test suite at a small scale.  The recovery-window tests re-kill
   a successor mid-replay and flood one with client load during replay. *)

module Deployment = Net.Deployment
module App = App_model.Kvstore_app

let counter outcome name =
  try List.assoc name outcome.Deployment.counters with Not_found -> 0

(* Every test gets its own named temp root and removes it however the test
   exits; [destroy] also reaps any daemon a failing assertion left behind. *)
let with_deployment ~prefix launch f =
  let root = Durable.Temp.fresh_dir ~prefix () in
  let t = launch ~root in
  Fun.protect
    ~finally:(fun () -> try Deployment.destroy t with _ -> ())
    (fun () -> f t)

(* Benign network (no proxy): the transport's own framing/reconnect path. *)
let test_cluster_benign () =
  with_deployment ~prefix:"test-net-benign"
    (fun ~root -> Deployment.launch ~n:3 ~k:1 ~seed:11 ~root ())
    (fun t ->
      Deployment.run_workload t ~ops:30 ~seed:3;
      Alcotest.(check bool) "settles" true (Deployment.settle t);
      let outcome = Deployment.finish t in
      Alcotest.(check (list string)) "no trace damage" [] outcome.Deployment.damage;
      Alcotest.(check (list string))
        "oracle certifies" []
        outcome.Deployment.oracle.Harness.Oracle.violations;
      Alcotest.(check bool) "work happened" true (counter outcome "deliveries_total" > 0);
      Alcotest.(check int)
        "no crash synthesized" 0 outcome.Deployment.synthesized_crashes;
      (* Fault-free certification tightening: a benign network decodes every
         frame, and every daemon's graceful quit flushed first, so each wrote
         a clean [Crashed] (no lost interval) instead of leaving a torn tail. *)
      Deployment.check_fault_free outcome;
      let clean_quits =
        List.length
          (List.filter
             (fun { Recovery.Trace.ev; _ } ->
               match ev with
               | Recovery.Trace.Crashed { first_lost = None; _ } -> true
               | _ -> false)
             (Recovery.Trace.events outcome.Deployment.trace))
      in
      Alcotest.(check int) "every daemon quit cleanly" 3 clean_quits)

(* SIGKILL one daemon mid-workload; the respawned incarnation must recover
   from its durable store and the merge must synthesize the Crashed event
   the killed incarnation never wrote. *)
let test_cluster_kill () =
  with_deployment ~prefix:"test-net-kill"
    (fun ~root -> Deployment.launch ~n:3 ~k:3 ~seed:12 ~root ())
    (fun t ->
      Deployment.run_workload t ~ops:24 ~seed:5;
      Deployment.kill t ~dst:1;
      Deployment.run_workload t ~ops:24 ~seed:6;
      ignore (Deployment.settle t : bool);
      let outcome = Deployment.finish t in
      Alcotest.(check (list string))
        "oracle certifies" []
        outcome.Deployment.oracle.Harness.Oracle.violations;
      Alcotest.(check int)
        "one synthesized crash" 1 outcome.Deployment.synthesized_crashes;
      Alcotest.(check bool) "restart recorded" true (counter outcome "restarts_total" >= 1))

(* The E14 smoke path (kill + proxy faults) is what CI runs; keep a tiny
   proxied run here so `dune runtest` covers the fault-injection relay. *)
let test_cluster_proxy () =
  let plan =
    {
      Harness.Netmodel.benign with
      Harness.Netmodel.loss = 0.05;
      duplicate = 0.05;
      reorder = 0.05;
      reorder_spread = 3.;
    }
  in
  with_deployment ~prefix:"test-net-proxy"
    (fun ~root -> Deployment.launch ~n:2 ~k:2 ~plan ~seed:13 ~root ())
    (fun t ->
      Deployment.run_workload t ~ops:30 ~seed:9;
      ignore (Deployment.settle t : bool);
      let outcome = Deployment.finish t in
      Alcotest.(check (list string))
        "oracle certifies" []
        outcome.Deployment.oracle.Harness.Oracle.violations;
      match outcome.Deployment.proxy with
      | Some p ->
        Alcotest.(check bool) "proxy relayed" true (p.Net.Proxy.forwarded > 0)
      | None -> Alcotest.fail "expected proxy stats")

(* ------------------------------------------------------------------ *)
(* Recovery-window chaos: what happens *during* a fast restart's replay. *)

let victim = 1

(* Keys the victim owns: Puts injected at it are applied locally, one log
   record each — so the victim's replay after a kill has a known length. *)
let victim_keys ~n ~count =
  let rec collect i acc = function
    | 0 -> List.rev acc
    | left ->
      let key = Fmt.str "chaos-%d" i in
      if App.owner ~n key = victim then collect (i + 1) (key :: acc) (left - 1)
      else collect (i + 1) acc left
  in
  collect 0 [] count

(* The replay pump paces itself at t_replay abstract units per record; the
   10x coarser clock stretches a ~200-record replay to ~100 ms of wall
   clock, wide enough for the driver to land a second kill (or a flood of
   client load) inside the recovery window. *)
let chaos_time_scale = 10. *. Recovery.Config.default_time_scale

let load_victim t keys =
  List.iteri
    (fun i key ->
      Deployment.inject t ~dst:victim (App.Put { key; value = i });
      if i mod 16 = 15 then Thread.delay 0.002)
    keys

(* Poll until the successor reports an active replay; [false] if the
   window closed before we caught it (small machines can finish the replay
   between polls — the test still re-kills, just without the guarantee). *)
let await_recovering t =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    match Deployment.status t ~dst:victim with
    | Some s when s.Net.Wire_codec.st_recovering -> true
    | _ -> Unix.gettimeofday () < deadline && (Thread.delay 0.005; loop ())
  in
  loop ()

let certify ~k outcome =
  Alcotest.(check (list string))
    "oracle certifies" []
    outcome.Deployment.oracle.Harness.Oracle.violations;
  Alcotest.(check bool)
    "risk within K" true
    (outcome.Deployment.oracle.Harness.Oracle.max_risk <= k)

(* SIGKILL, then SIGKILL the successor again mid-replay: the third
   incarnation recovers from a store that already holds a failure
   announcement for the second, and the merged trace must still certify. *)
let test_kill_during_replay () =
  let k = 2 in
  with_deployment ~prefix:"test-net-rekill"
    (fun ~root ->
      Deployment.launch ~n:3 ~k ~ckpt_interval:0. ~time_scale:chaos_time_scale
        ~seed:31 ~root ())
    (fun t ->
      load_victim t (victim_keys ~n:3 ~count:200);
      Alcotest.(check bool) "settles before kill" true
        (Deployment.settle ~timeout:120. t);
      Deployment.kill_only t ~dst:victim;
      Deployment.respawn t ~dst:victim;
      let caught = await_recovering t in
      Deployment.kill_only t ~dst:victim;
      Deployment.respawn t ~dst:victim;
      Alcotest.(check bool) "settles after re-kill" true
        (Deployment.settle ~timeout:120. t);
      let outcome = Deployment.finish t in
      certify ~k outcome;
      Alcotest.(check int)
        "two synthesized crashes" 2 outcome.Deployment.synthesized_crashes;
      (* Metrics files are written on graceful quit only, so the summed
         restart counter sees just the surviving incarnation. *)
      Alcotest.(check bool) "restart recorded" true (counter outcome "restarts_total" >= 1);
      (* [caught] means the second kill was fired while the status socket
         reported an active replay; either way the final incarnation must
         have certified a completed recovery.  (When the window was hit,
         the second incarnation died before its own [Recovery_completed],
         so at most the first and third wrote one.) *)
      let completions =
        List.length
          (List.filter
             (fun { Recovery.Trace.ev; _ } ->
               match ev with
               | Recovery.Trace.Recovery_completed { pid; _ } -> pid = victim
               | _ -> false)
             (Recovery.Trace.events outcome.Deployment.trace))
      in
      Alcotest.(check bool) "final incarnation completed recovery" true
        (completions >= 1);
      if caught then
        Alcotest.(check bool) "mid-replay kill left at most two completions" true
          (completions <= 2))

(* Flood the successor with client load while it replays: parked requests
   for unrecovered partitions must all drain, and certification must hold
   with the replay and the fresh deliveries interleaved in the trace. *)
let test_flood_during_replay () =
  let k = 2 in
  with_deployment ~prefix:"test-net-flood"
    (fun ~root ->
      Deployment.launch ~n:3 ~k ~ckpt_interval:0. ~time_scale:chaos_time_scale
        ~seed:32 ~root ())
    (fun t ->
      let keys = victim_keys ~n:3 ~count:200 in
      load_victim t keys;
      Alcotest.(check bool) "settles before kill" true
        (Deployment.settle ~timeout:120. t);
      Deployment.kill_only t ~dst:victim;
      Deployment.respawn t ~dst:victim;
      (* No waiting: the flood races the replay — overwrites of replayed
         keys plus Gets that park on unrecovered partitions. *)
      List.iteri
        (fun i key ->
          Deployment.inject t ~dst:victim
            (if i mod 3 = 2 then App.Get key
             else App.Put { key; value = 10_000 + i }))
        (List.filteri (fun i _ -> i mod 4 = 0) keys);
      Alcotest.(check bool) "settles after flood" true
        (Deployment.settle ~timeout:120. t);
      let outcome = Deployment.finish t in
      certify ~k outcome;
      Alcotest.(check bool) "flood was delivered" true
        (counter outcome "outputs_committed_total" > 0);
      Alcotest.(check bool) "replay happened" true (counter outcome "replayed_total" > 0))

(* The live stats plane end to end: every daemon must answer the control
   socket's Stats arm mid-load with a parseable exposition covering the
   delivery, flush, transport and recovery metric families; a SIGKILLed
   daemon's successor must answer again; and the Quit-time metrics files
   must merge into the outcome snapshot with the always-on phase spans
   aboard. *)
let test_stats_plane_live () =
  let k = 2 in
  with_deployment ~prefix:"test-net-stats"
    (fun ~root -> Deployment.launch ~n:3 ~k ~seed:14 ~root ())
    (fun t ->
      Deployment.run_workload t ~ops:30 ~seed:4;
      let scrape_ok pid =
        match Deployment.scrape t ~dst:pid with
        | Some (Ok snap) -> snap
        | Some (Error e) ->
          Alcotest.fail (Fmt.str "pid %d: unparseable exposition: %s" pid e)
        | None -> Alcotest.fail (Fmt.str "pid %d: no Stats reply" pid)
      in
      let live = Obs.Snapshot.merge_all (List.map scrape_ok [ 0; 1; 2 ]) in
      Alcotest.(check bool) "mid-load deliveries scraped" true
        (Obs.Snapshot.counter live "deliveries_total" > 0);
      Alcotest.(check bool) "flush family present" true
        (Obs.Snapshot.counter live "flush_rounds_total" > 0);
      Alcotest.(check bool) "transport family present" true
        (Obs.Snapshot.counter live "transport_frames_sent_total" > 0);
      Alcotest.(check bool) "recovery gauge present" true
        (List.exists
           (fun ((name, _), _) -> name = "recovery_active")
           (Obs.Snapshot.bindings live));
      (match Obs.Snapshot.hist live "fsync_seconds" with
      | Some h ->
        Alcotest.(check bool) "fsyncs timed" true (Obs.Snapshot.hist_count h > 0)
      | None -> Alcotest.fail "fsync_seconds histogram missing");
      Deployment.kill t ~dst:1;
      Deployment.run_workload t ~ops:12 ~seed:5;
      let after = scrape_ok 1 in
      Alcotest.(check bool) "successor answers Stats after SIGKILL" true
        (Obs.Snapshot.counter after "batches_total" > 0);
      ignore (Deployment.settle t : bool);
      let outcome = Deployment.finish t in
      certify ~k outcome;
      Alcotest.(check bool) "outcome merges daemon snapshots" true
        (Obs.Snapshot.counter outcome.Deployment.obs "deliveries_total" > 0);
      match
        Obs.Snapshot.hist outcome.Deployment.obs
          ~labels:[ ("phase", "handle") ]
          "phase_seconds"
      with
      | Some h ->
        Alcotest.(check bool) "phase spans always on" true
          (Obs.Snapshot.hist_count h > 0)
      | None -> Alcotest.fail "phase_seconds{phase=\"handle\"} missing")

(* An in-process [Crash] builds a fresh node over the daemon's registry.
   Its counters must carry on from the crashed node's values: no [_total]
   series may fall, and the status plane's delivery count (what [settle]
   watches for progress) must not fall either. *)
let test_counters_survive_crash () =
  let k = 1 in
  with_deployment ~prefix:"test-net-crash-counters"
    (fun ~root -> Deployment.launch ~n:3 ~k ~seed:16 ~root ())
    (fun t ->
      let scrape pid =
        match Deployment.scrape t ~dst:pid with
        | Some (Ok snap) -> snap
        | Some (Error e) -> Alcotest.fail (Fmt.str "unparseable exposition: %s" e)
        | None -> Alcotest.fail "no Stats reply"
      in
      let delivered () =
        match Deployment.status t ~dst:1 with
        | Some s -> s.Net.Wire_codec.st_deliveries
        | None -> Alcotest.fail "no Status reply"
      in
      Deployment.run_workload t ~ops:30 ~seed:6;
      Alcotest.(check bool) "settles before the crash" true (Deployment.settle t);
      let before = scrape 1 and delivered_before = delivered () in
      Alcotest.(check bool) "pid 1 delivered work" true
        (Obs.Snapshot.counter before "deliveries_total" > 0);
      Deployment.crash t ~dst:1;
      Deployment.run_workload t ~ops:30 ~seed:7;
      Alcotest.(check bool) "settles after the crash" true (Deployment.settle t);
      let after = scrape 1 in
      List.iter
        (fun ((name, labels), v) ->
          match v with
          | Obs.Snapshot.Counter c when String.ends_with ~suffix:"_total" name ->
            let c' = Obs.Snapshot.counter after ~labels name in
            if c' < c then Alcotest.failf "%s fell from %d to %d across Crash" name c c'
          | _ -> ())
        (Obs.Snapshot.bindings before);
      Alcotest.(check int) "the crash restarted the node once" 1
        (Obs.Snapshot.counter after "restarts_total"
        - Obs.Snapshot.counter before "restarts_total");
      Alcotest.(check bool) "status delivery count did not fall" true
        (delivered () >= delivered_before);
      certify ~k (Deployment.finish t))

(* Satellite of the churn work: a writer parked in a multi-second dial
   backoff must notice [close]'s stop flag within a slice, not sleep out
   the rest of its nap.  We point the transport at a port nothing listens
   on with a 3 s backoff floor, let the writer fail its first dial and
   park, then close and require the queued frame to be accounted (sent +
   dropped covers every accepted frame) well inside one second. *)
let test_shutdown_latency_bounded () =
  let reserve_port () =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    Unix.close sock;
    port
  in
  let dead_port = reserve_port () in
  let obs = Obs.Registry.create () in
  let transport =
    Net.Transport.create ~self:0 ~listen_port:(reserve_port ())
      ~peers:[ (1, dead_port) ]
      ~on_frame:(fun ~src:_ ~kind:_ ~body:_ -> ())
      ~backoff_base:3.0 ~backoff_cap:3.0 ~obs ()
  in
  let count name =
    Obs.Snapshot.counter (Obs.Registry.snapshot obs) ("transport_" ^ name ^ "_total")
  in
  Net.Transport.send transport ~dst:1 "doomed frame";
  (* Let the writer pop the frame, fail the dial, and park in backoff. *)
  Thread.delay 0.3;
  let t0 = Unix.gettimeofday () in
  Net.Transport.close transport;
  let deadline = t0 +. 1.0 in
  let rec await_accounting () =
    if count "frames_sent" + count "frames_dropped" >= 1 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail
        "shutdown latency unbounded: frame still unaccounted 1 s after close \
         (writer slept out its backoff)"
    else begin
      Thread.delay 0.01;
      await_accounting ()
    end
  in
  await_accounting ();
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Fmt.str "close interrupted a 3 s backoff in %.3f s" elapsed)
    true
    (elapsed < 1.0);
  Alcotest.(check int) "frame counted dropped, not lost" 1 (count "frames_dropped")

let suite =
  [
    Alcotest.test_case "shutdown interrupts dial backoff" `Quick
      test_shutdown_latency_bounded;
    Alcotest.test_case "3 daemons on loopback, oracle-certified" `Slow
      test_cluster_benign;
    Alcotest.test_case "SIGKILL + respawn from durable store" `Slow test_cluster_kill;
    Alcotest.test_case "live stats plane: scrape, kill, merge" `Slow
      test_stats_plane_live;
    Alcotest.test_case "counters carry on across an in-process Crash" `Slow
      test_counters_survive_crash;
    Alcotest.test_case "through the fault proxy" `Slow test_cluster_proxy;
    Alcotest.test_case "SIGKILL again mid-replay, certified" `Slow
      test_kill_during_replay;
    Alcotest.test_case "client flood during replay, certified" `Slow
      test_flood_during_replay;
  ]
