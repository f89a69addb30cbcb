(* Experiment runner: regenerates each table of EXPERIMENTS.md.

     dune exec bin/experiments.exe -- list
     dune exec bin/experiments.exe -- run overhead_vs_k
     dune exec bin/experiments.exe -- run --all
*)

open Cmdliner

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter print_endline Harness.Experiments.names;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write the produced tables (title, columns, rows, notes — \
           cells exactly as rendered) as a JSON array to $(docv).")

let write_json json reports =
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Harness.Report.json_of_reports reports);
      close_out oc;
      Fmt.pr "json written to %s@." file)
    json

let run_cmd =
  let doc = "Run one experiment (or --all) and print its table." in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment in order.")
  in
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment names.")
  in
  let run all names json =
    if all then begin
      let reports = Harness.Experiments.all () in
      List.iter Harness.Report.print reports;
      write_json json reports;
      0
    end
    else if names = [] then begin
      prerr_endline "no experiment given; try `list` or `run --all`";
      2
    end
    else begin
      let code, reports =
        List.fold_left
          (fun (code, reports) name ->
            match Harness.Experiments.by_name name with
            | Some f ->
              let r = f () in
              Harness.Report.print r;
              (code, r :: reports)
            | None ->
              Fmt.epr "unknown experiment %S (see `list`)@." name;
              (2, reports))
          (0, []) names
      in
      write_json json (List.rev reports);
      code
    end
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ all $ names $ json_arg)

(* E14 and E17 are schedule files of test/corpus (the corpus test
   replays them in the simulator) played on live daemons, one
   oracle-certified run per K: the file's own K for --smoke, a sweep
   otherwise.  [row] reads a run's cells after K off the outcome and the
   deployment, which stays inspectable after [finish]. *)
let play_file ~exp ~title ~columns ~sweep ~note ~row text smoke =
  let report = Harness.Report.create ~title ~columns in
  let sched =
    match Harness.Schedule.of_string text with Ok s -> s | Error e -> failwith e
  in
  let case, calls = Net.Deployment.live_case sched in
  let ks = if smoke then [ case.Harness.Schedule.k ] else sweep case in
  let rows =
    List.map
      (fun k ->
        let case = { case with Harness.Schedule.k } and label = Fmt.str "K=%d" k in
        let t = Net.Deployment.launch_case case in
        let r =
          Net.Deployment.run ~timeout:120. t (fun () -> Net.Deployment.play t case ~calls)
        in
        if not r.Net.Deployment.settled then
          Harness.Report.note report (Fmt.str "%s: settle timed out" label);
        Net.Deployment.certify ~report ~exp ~label r.Net.Deployment.outcome;
        Durable.Temp.rm_rf (Net.Deployment.root t);
        let cells = row report case t r.Net.Deployment.outcome in
        Harness.Report.add_row report (List.map string_of_int (k :: cells));
        (k, cells))
      ks
  in
  Harness.Report.note report (Fmt.str "every run plays %s: %s" sched.Harness.Schedule.name note);
  (report, rows)

let counter (o : Net.Deployment.outcome) name =
  Obs.Snapshot.counter o.Net.Deployment.obs (name ^ "_total")

let e14 ?(smoke = false) () =
  let row report (case : Harness.Schedule.case) _ (o : Net.Deployment.outcome) =
    let count = counter o and oracle = o.Net.Deployment.oracle in
    let proxied name = count ("proxy_" ^ name) in
    Harness.Report.note report
      (Fmt.str
         "K=%d proxy: %d forwarded, %d dropped (%d by the partition), %d duplicated, \
          %d delayed, %d severed"
         case.k (proxied "forwarded") (proxied "dropped") (proxied "cut")
         (proxied "duplicated") (proxied "delayed") (proxied "severed"));
    if
      List.exists (function Harness.Schedule.Partition _ -> true | _ -> false) case.faults
      && proxied "severed" + proxied "cut" = 0
    then
      Harness.Report.note report
        (Fmt.str "K=%d: WARNING the partition window met no traffic (nothing severed or cut)"
           case.k);
    let kills =
      List.filter
        (function Harness.Schedule.Kill _ | Harness.Schedule.Crash _ -> true | _ -> false)
        case.faults
    in
    [
      List.length kills; count "deliveries"; count "releases"; count "restarts";
      o.Net.Deployment.synthesized_crashes; count "orphans_discarded";
      count "duplicates_dropped"; count "retransmissions"; count "outputs_committed";
      count "transport_decode_errors"; count "transport_frames_dropped";
      oracle.Harness.Oracle.lost; oracle.Harness.Oracle.undone;
      oracle.Harness.Oracle.max_risk; List.length oracle.Harness.Oracle.violations;
    ]
  in
  let report, _ =
    play_file ~exp:"E14"
      ~title:
        (if smoke then "E14-smoke: multi-process deployment (loopback TCP)"
         else "E14: multi-process deployment (loopback TCP, SIGKILL + proxy faults)")
      ~columns:
        [
          "K"; "kills"; "delivs"; "released"; "restarts"; "synth"; "orphans"; "dups";
          "retrans"; "outputs"; "dec_err"; "drops"; "lost"; "undone"; "risk"; "violations";
        ]
      ~sweep:(fun case -> [ 0; 2; case.n ])
      ~note:
        "real OS processes on loopback TCP, durable stores, SIGKILL + respawn \
         mid-workload, all traffic through the fault proxy; merged trace certified \
         by the causality oracle"
      ~row
      (if smoke then Live_schedules.e14_smoke else Live_schedules.e14)
      smoke
  in
  (report, [])

let e17 ?(smoke = false) () =
  let row _ _ t (o : Net.Deployment.outcome) =
    let degraded = counter o "storage_degraded_flushes" in
    if degraded = 0 then failwith "E17: brownout window armed but no flush was refused";
    [
      Net.Deployment.width t; List.length (Net.Deployment.retired t); counter o "restarts";
      counter o "deliveries"; degraded; o.Net.Deployment.oracle.Harness.Oracle.max_risk;
      List.length o.Net.Deployment.oracle.Harness.Oracle.violations;
    ]
  in
  let report, rows =
    play_file ~exp:"E17"
      ~title:
        (if smoke then "E17-smoke: membership churn (live cluster)"
         else
           "E17: membership churn — join, kill, retire, rejoin, rolling restart, \
            disk-full brownout (live clusters)")
      ~columns:
        [ "K"; "width"; "retired"; "restarts"; "delivs"; "degraded"; "risk"; "violations" ]
      ~sweep:(fun _ -> [ 0; 2 ])
      ~note:
        "under load at n=3, a join, a SIGKILL, a retire and its rejoin, four \
         spaced crashes and a disk-full brownout; the merged trace is certified at \
         the final width: zero violations, risk <= K throughout"
      ~row
      (if smoke then Live_schedules.e17_smoke else Live_schedules.e17)
      smoke
  in
  let bench =
    match List.assoc_opt 2 rows with
    | Some [ width; _; _; delivs; degraded; risk; _ ] when not smoke ->
      List.map
        (fun (key, v) -> (Fmt.str "E17 %s k=2" key, float_of_int v))
        [
          ("deliveries", delivs); ("degraded flushes", degraded); ("max risk", risk);
          ("membership width", width);
        ]
    | _ -> []
  in
  (report, bench)

(* The live experiments: real koptnode daemons on loopback TCP, each run
   through [Net.Deployment.run].  One row per subcommand: its name, the
   experiment, and the doc texts of the command and of its [--smoke]. *)
let live_cmd (name, exp, (experiment : ?smoke:bool -> unit -> _), doc, smoke_doc) =
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:smoke_doc) in
  let run smoke json =
    match experiment ~smoke () with
    | report, bench ->
      Harness.Report.print report;
      if bench <> [] then begin
        Harness.Report.merge_bench "BENCH_net.json" bench;
        Fmt.pr "merged %d %s keys into BENCH_net.json@." (List.length bench) exp
      end;
      write_json json [ report ];
      0
    | exception Failure msg ->
      Fmt.epr "FAIL: %s@." msg;
      1
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ smoke $ json_arg)

let live_cmds =
  List.map live_cmd
    [
      ( "net", "E14", e14,
        "Run E14: a real multi-process cluster on loopback TCP — forked koptnode \
         daemons over durable stores, SIGKILLed and respawned mid-workload, all \
         traffic through the fault-injecting proxy; per-process trace files are \
         merged and certified by the causality oracle.",
        "Time-capped CI mode: one small cluster, one SIGKILL, oracle must \
         certify the merged trace." );
      ( "kv", "E15", Shardkv.Service.experiment,
        "Run E15: the sharded KV service on live clusters — consistent-hash \
         routing, Zipfian open-loop load, cross-shard multi-puts whose acks are \
         K-rule output commits; baseline runs feed throughput and ack-latency \
         percentiles into BENCH_net.json, faulted runs (SIGKILLs + proxy) must \
         certify with risk at most K.",
        "Time-capped CI mode: one 4-shard cluster (baseline + one-kill \
         faulted run), oracle-certified." );
      ( "recovery", "E16", Net.Recovery_exp.experiment,
        "Run E16: fast recovery on live clusters — SIGKILL a daemon, respawn it \
         immediately, and race a probe Get against the replay; measures ttfr \
         (time to first answered request, served from the probe's hot partition \
         while the rest of the log replays) and ttfull (time to full recovery) \
         across log lengths, with and without incremental per-partition \
         checkpoints; baseline rows feed ttfr/ttfull into BENCH_net.json and \
         every run must oracle-certify with risk at most K.",
        "Time-capped CI mode: one small cluster, one SIGKILL + probe, \
         oracle-certified." );
      ( "churn", "E17", e17,
        "Run E17: membership churn and degraded modes on live clusters — add a \
         daemon mid-run (Join handshake widens incumbent dependency vectors), \
         SIGKILL+respawn an incumbent, retire a daemon gracefully (frontier \
         broadcast), rejoin it over its own store, rolling-restart the widened \
         cluster, and arm a disk-full brownout window on one store; every run \
         must oracle-certify at the final membership width with risk at most K, \
         and the brownout must be reported (refused-flush counter) without ever \
         being visible to the oracle.",
        "Time-capped CI mode: one small k=1 run covering the full churn \
         sequence, oracle-certified." );
    ]

let breakage_conv =
  Arg.enum
    [
      ("none", Recovery.Config.no_breakage);
      ("orphan-check", { Recovery.Config.no_breakage with break_orphan_check = true });
      ( "dup-suppression",
        { Recovery.Config.no_breakage with break_dup_suppression = true } );
      ("send-gate", { Recovery.Config.no_breakage with break_send_gate = true });
    ]

let break_arg =
  Arg.(
    value
    & opt breakage_conv Recovery.Config.no_breakage
    & info [ "break" ] ~docv:"SAFEGUARD"
        ~doc:
          "Deliberately disable a protocol safeguard (orphan-check, \
           dup-suppression or send-gate) to demonstrate that the oracle catches \
           the corruption.")

let chaos_cmd =
  let doc =
    "Run an oracle-certified chaos campaign: randomized fault plans (loss, \
     duplication, reordering, partitions, correlated crashes) against the \
     hardened K-optimistic protocol.  On a failure, a greedy shrinker prints \
     a 1-minimal counterexample."
  in
  let runs =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N" ~doc:"Number of randomized cases.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign master seed.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Write the minimized counterexample as a replayable schedule file \
             (see PROTOCOL.md for the format; replay with $(b,explore --replay)).")
  in
  let storage_faults =
    Arg.(
      value & flag
      & info [ "storage-faults" ]
          ~doc:
            "Also kill one process per case over its in-memory store and \
             damage its files before the respawn (torn final write, bit flip, \
             truncated segment, lying fsync).  Runs whose oracle violations \
             are matched by storage damage reported at reopen count as \
             detected data loss, not protocol failures.")
  in
  let run runs seed breakage storage_faults save =
    Fmt.pr "chaos campaign: %d runs, master seed %d%s@." runs seed
      (if storage_faults then " (with storage faults)" else "");
    let progress i = if i mod 25 = 0 then Fmt.pr "  ... %d/%d runs@." i runs in
    let summary =
      Harness.Chaos.campaign ~breakage ~storage_faults ~progress ~runs ~seed ()
    in
    let count = Obs.Snapshot.counter summary.Harness.Chaos.obs in
    Fmt.pr
      "certified %d/%d runs, %d with detected storage data loss (max risk seen \
       %d; wire faults injected: %d lost, %d duplicated; %d protocol \
       retransmissions)@."
      summary.Harness.Chaos.certified summary.runs summary.Harness.Chaos.detected
      summary.max_risk_seen (count "net_lost_total") (count "net_duplicated_total")
      (count "retransmissions_total");
    match summary.Harness.Chaos.failures with
    | [] ->
      Fmt.pr "all runs oracle-certified.@.";
      0
    | (case, verdict) :: rest ->
      Fmt.pr "@.%d FAILING run(s).  First failure:@.%a@.%a@." (1 + List.length rest)
        Harness.Chaos.pp_case case Harness.Chaos.pp_verdict verdict;
      Fmt.pr "@.shrinking (greedy, 1-minimal) ...@.";
      let minimal = Harness.Chaos.shrink ~breakage case in
      let outcome = Harness.Chaos.run_case ~breakage minimal in
      let sched =
        Harness.Chaos.to_schedule ~breakage ~name:(Fmt.str "chaos-seed%d-minimal" seed)
          minimal outcome.Harness.Chaos.verdict
      in
      Fmt.pr "minimal counterexample (replayable schedule):@.%a%a@."
        Harness.Schedule.pp sched Harness.Chaos.pp_verdict
        outcome.Harness.Chaos.verdict;
      Option.iter
        (fun file ->
          Harness.Schedule.save sched ~file;
          Fmt.pr "schedule written to %s (replay with `explore --replay %s`)@." file
            file)
        save;
      1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ runs $ seed $ break_arg $ storage_faults $ save)

let explore_cmd =
  let doc =
    "Exhaustively model-check a bounded configuration: enumerate every \
     schedule (up to partial-order equivalence) of a small cluster with all \
     messages, crashes and flushes enabled from time zero, certifying each \
     complete execution with the causality oracle and the Theorem-4 K-risk \
     bound.  Counter-examples are written as replayable schedule files."
  in
  let iopt name v d = Arg.(value & opt int v & info [ name ] ~docv:"N" ~doc:d) in
  let n =
    Arg.(value & opt int 2 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let k =
    Arg.(
      value & opt int 1
      & info [ "k"; "optimism" ] ~docv:"K" ~doc:"Degree of optimism (0 <= K <= n).")
  in
  let messages = iopt "messages" 3 "Client injections (one-hop Forward chains)." in
  let crashes = iopt "crashes" 1 "Fail-stop crashes, all enabled from time 0." in
  let flushes = iopt "flushes" 1 "Explicit flush events (stability progress)." in
  let seed = iopt "seed" 1 "Simulator seed (storage/jitter streams; unused draws)." in
  let depth =
    iopt "depth" Harness.Explore.default_bounds.Harness.Explore.max_depth
      "Schedule-length bound; deeper branches are truncated."
  in
  let max_schedules =
    iopt "max-schedules" Harness.Explore.default_bounds.Harness.Explore.max_schedules
      "Stop after this many complete executions."
  in
  let preemptions =
    Arg.(
      value
      & opt (some int) None
      & info [ "preemptions" ] ~docv:"P"
          ~doc:
            "Context bound: maximum number of switches away from a process \
             that still has a runnable event (default: unbounded, i.e. \
             exhaustive).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the first counter-example schedule to FILE.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of exploring, replay the schedule in FILE and check that \
             it reproduces its recorded verdict.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Time-capped CI mode: exhaust one small clean configuration \
             (expecting zero violations) and one with the send gate \
             deliberately broken (expecting a counter-example that replays to \
             the same verdict).")
  in
  let run_replay file =
    match Harness.Schedule.load ~file with
    | Error msg ->
      Fmt.epr "cannot load %s: %s@." file msg;
      2
    | Ok sched ->
      let verdict = Harness.Explore.replay sched in
      let matches =
        Harness.Explore.verdict_matches sched.Harness.Schedule.expect verdict
      in
      Fmt.pr "%s: recorded %a, replayed %a -> %s@." sched.Harness.Schedule.name
        Harness.Schedule.pp_expect sched.Harness.Schedule.expect
        Harness.Chaos.pp_verdict verdict
        (if matches then "MATCH" else "MISMATCH");
      if matches then 0 else 1
  in
  let report ?save r =
    Fmt.pr "%a@." Harness.Explore.pp_result r;
    match r.Harness.Explore.violations with
    | [] -> 0
    | (sched, notes) :: _ as all ->
      Fmt.pr "@.%d counter-example(s); first:@.%a@.%a@." (List.length all)
        Harness.Schedule.pp sched
        Fmt.(list ~sep:cut string)
        notes;
      Option.iter
        (fun file ->
          Harness.Schedule.save sched ~file;
          Fmt.pr "schedule written to %s (replay with `explore --replay %s`)@." file
            file)
        (Option.join save);
      1
  in
  let run_smoke () =
    (* Small enough to exhaust in seconds; the cap is a safety net only. *)
    let p =
      {
        Harness.Schedule.n = 2;
        k = 1;
        messages = 2;
        crashes = 1;
        flushes = 1;
        seed = 1;
      }
    in
    let bounds =
      { Harness.Explore.default_bounds with Harness.Explore.max_schedules = 50_000 }
    in
    let clean = Harness.Explore.run ~bounds p in
    Fmt.pr "clean: %a@.@." Harness.Explore.pp_result clean;
    let breakage = { Recovery.Config.no_breakage with break_send_gate = true } in
    let broken = Harness.Explore.run ~breakage ~bounds p in
    Fmt.pr "broken send gate: %a@." Harness.Explore.pp_result broken;
    if not (Harness.Explore.ok clean) then begin
      Fmt.epr "FAIL: clean configuration has violations@.";
      1
    end
    else if Harness.Explore.ok broken then begin
      Fmt.epr "FAIL: broken send gate produced no counter-example@.";
      1
    end
    else begin
      let sched, _ = List.hd broken.Harness.Explore.violations in
      let verdict = Harness.Explore.replay sched in
      if Harness.Explore.verdict_matches sched.Harness.Schedule.expect verdict
      then begin
        Fmt.pr "counter-example %s replays to its recorded verdict.@."
          sched.Harness.Schedule.name;
        0
      end
      else begin
        Fmt.epr "FAIL: counter-example did not replay to its recorded verdict@.";
        1
      end
    end
  in
  let run n k messages crashes flushes seed depth max_schedules preemptions
      breakage save replay smoke =
    match replay with
    | Some file -> run_replay file
    | None ->
      if smoke then run_smoke ()
      else begin
        let p =
          { Harness.Schedule.n; k; messages; crashes; flushes; seed }
        in
        let bounds =
          {
            Harness.Explore.max_depth = depth;
            max_schedules;
            preemptions;
          }
        in
        report ~save (Harness.Explore.run ~breakage ~bounds p)
      end
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ n $ k $ messages $ crashes $ flushes $ seed $ depth
      $ max_schedules $ preemptions $ break_arg $ save $ replay $ smoke)

let () =
  let doc = "K-optimistic logging experiment suite (ICDCS '97 reproduction)" in
  let info = Cmd.info "experiments" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          ([ list_cmd; run_cmd; chaos_cmd; explore_cmd ] @ live_cmds)))
