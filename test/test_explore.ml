(* The bounded model checker and the serialized schedule format. *)

module Config = Recovery.Config
module Schedule = Harness.Schedule
module Explore = Harness.Explore
module Chaos = Harness.Chaos
module Counter = App_model.Counter_app

let tiny : Schedule.explore_params =
  { Schedule.n = 2; k = 1; messages = 2; crashes = 1; flushes = 1; seed = 1 }

let send_gate_broken = { Config.no_breakage with Config.break_send_gate = true }

let test_exhausts_and_certifies () =
  let r = Explore.run tiny in
  Alcotest.(check bool) "state space exhausted" true r.Explore.complete;
  Alcotest.(check bool) "no violations" true (Explore.ok r);
  Alcotest.(check bool) "non-trivial space" true (r.Explore.schedules > 100);
  Alcotest.(check bool) "POR pruned more than one schedule" true
    (r.Explore.sleep_pruned > 1);
  Alcotest.(check bool) "risk within K" true (r.Explore.max_risk <= tiny.Schedule.k)

let test_exploration_deterministic () =
  let strip r = { r with Explore.violations = [] } in
  let r1 = Explore.run tiny and r2 = Explore.run tiny in
  Alcotest.(check bool) "identical statistics on identical runs" true
    (strip r1 = strip r2 && r1.Explore.violations = r2.Explore.violations)

let test_k_boundaries () =
  (* K=0 is the pessimistic end: no released message can be revoked by
     anyone, in *every* schedule.  K=N never gates, so the risk bound is
     the trivial one — but still must hold. *)
  let r0 = Explore.run { tiny with Schedule.k = 0 } in
  Alcotest.(check bool) "K=0 complete+clean" true
    (r0.Explore.complete && Explore.ok r0);
  Alcotest.(check int) "K=0: zero risk in every schedule" 0 r0.Explore.max_risk;
  let rn = Explore.run { tiny with Schedule.k = 2 } in
  Alcotest.(check bool) "K=N complete+clean" true
    (rn.Explore.complete && Explore.ok rn);
  Alcotest.(check bool) "K=N: risk bounded by N" true (rn.Explore.max_risk <= 2)

let test_broken_send_gate_caught () =
  let r = Explore.run ~breakage:send_gate_broken tiny in
  Alcotest.(check bool) "violations found" true (r.Explore.violations <> []);
  let sched, notes = List.hd r.Explore.violations in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "oracle names Theorem 4" true
    (List.exists (contains ~needle:"Theorem 4") notes);
  Alcotest.(check bool) "counter-example records its choices" true
    (sched.Schedule.choices <> []);
  (* The schedule round-trips through the codec byte-for-byte ... *)
  (match Schedule.of_string (Schedule.to_string sched) with
  | Ok sched' ->
    Alcotest.(check bool) "codec round-trip" true (sched' = sched);
    Alcotest.(check string) "byte-stable re-encoding"
      (Schedule.to_string sched) (Schedule.to_string sched')
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg);
  (* ... and replays to the verdict class it recorded. *)
  let verdict = Explore.replay sched in
  Alcotest.(check bool) "replays to recorded verdict" true
    (Explore.verdict_matches sched.Schedule.expect verdict)

let test_preemption_bound_truncates () =
  let bounds =
    { Explore.default_bounds with Explore.preemptions = Some 1 }
  in
  let r = Explore.run ~bounds tiny in
  Alcotest.(check bool) "bounded search is a strict under-approximation" true
    (r.Explore.truncated > 0 && not r.Explore.complete);
  Alcotest.(check bool) "still clean" true (Explore.ok r);
  let full = Explore.run tiny in
  Alcotest.(check bool) "explores fewer schedules than the full search" true
    (r.Explore.schedules < full.Explore.schedules)

let test_replay_canonical_drain () =
  (* An empty choice list means: drain in canonical order.  That replay is
     deterministic and certified. *)
  match Explore.replay_explore tiny ~choices:[] with
  | Chaos.Certified _ -> ()
  | v -> Alcotest.failf "canonical drain not certified: %a" Chaos.pp_verdict v

let test_schedule_codec_errors () =
  let bad s =
    match Schedule.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "bad magic" true (bad "koptlog-schedule v0\nname: x\n");
  Alcotest.(check bool) "missing scenario" true
    (bad "koptlog-schedule v1\nname: x\nexpect: certified\n");
  Alcotest.(check bool) "unknown expect" true
    (bad
       "koptlog-schedule v1\nname: x\nexpect: maybe\nscenario: figure1 improved\n");
  Alcotest.(check bool) "fault line under explore" true
    (bad
       "koptlog-schedule v1\nname: x\nexpect: certified\nscenario: explore n=2 \
        k=1 messages=1 crashes=0 flushes=0 seed=1\nfault: loss 0.5\n")

let test_chaos_schedule_roundtrip () =
  (* Every fault constructor, odd floats included, survives the codec. *)
  let case =
    {
      Schedule.n = 5;
      k = 2;
      seed = 10_007;
      faults =
        [
          Schedule.Loss 0.037_000_000_000_000_005;
          Schedule.Duplication (1. /. 3.);
          Schedule.Reorder (0.2, 17.25);
          Schedule.Partition
            { group = [ 0; 2; 4 ]; from_ = 40.5; until = 90.125; drop = false };
          Schedule.Crash { kind = Schedule.Single 1; time = 55. };
          Schedule.Crash { kind = Schedule.Group [ 0; 3 ]; time = 60. };
          Schedule.Crash { kind = Schedule.Cascade [ 1; 2; 3 ]; time = 70. };
          Schedule.Crash { kind = Schedule.In_checkpoint 2; time = 80. };
          Schedule.Crash { kind = Schedule.In_flush 4; time = 85. };
          Schedule.Kill { pid = 3; time = 100.; storage = None };
          Schedule.Kill
            {
              pid = 1;
              time = 120.;
              storage = Some (List.hd Durable.Fault.all);
            };
        ];
    }
  in
  let sched =
    {
      Schedule.name = "roundtrip-all-faults";
      expect = Schedule.Violated;
      breakage =
        { Config.no_breakage with
          Config.break_orphan_check = true;
          break_send_gate = true;
        };
      scenario = Schedule.Chaos { case; calls = 42 };
      choices = [];
    }
  in
  match Schedule.of_string (Schedule.to_string sched) with
  | Ok sched' -> Alcotest.(check bool) "round-trip" true (sched = sched')
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg

(* A kill's storage fault is one of the four that a kill injects; the
   live-store brownouts are not kill faults, so a schedule naming one does
   not parse. *)
let test_kill_storage_names () =
  let case storage =
    { Schedule.n = 3; k = 1; seed = 1; faults = [ Schedule.Kill { pid = 1; time = 50.; storage } ] }
  in
  let text =
    Schedule.to_string
      {
        Schedule.name = "kill-fault";
        expect = Schedule.Certified;
        breakage = Config.no_breakage;
        scenario = Schedule.Chaos { case = case (Some Durable.Fault.Failed_fsync); calls = 1 };
        choices = [];
      }
  in
  let with_fault name =
    let sub = "storage=failed-fsync" in
    let n = String.length sub in
    let rec at i = if String.sub text i n = sub then i else at (i + 1) in
    let i = at 0 in
    String.sub text 0 i ^ "storage=" ^ name
    ^ String.sub text (i + n) (String.length text - i - n)
  in
  List.iter
    (fun f ->
      let name = Durable.Fault.to_string f in
      Alcotest.(check bool) (name ^ " parses") true
        (Result.is_ok (Schedule.of_string (with_fault name))))
    Durable.Fault.all;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " does not parse") true
        (Result.is_error (Schedule.of_string (with_fault name))))
    [ "disk-full"; "slow-fsync" ]

(* A brownout refuses a count of flushes: [rounds=0] parses, a negative
   count does not. *)
let test_negative_brownout_rounds () =
  let text rounds =
    Schedule.to_string
      {
        Schedule.name = "brownout";
        expect = Schedule.Certified;
        breakage = Config.no_breakage;
        scenario =
          Schedule.Chaos
            {
              case =
                {
                  Schedule.n = 3;
                  k = 1;
                  seed = 1;
                  faults = [ Schedule.Brownout { pid = 1; time = 50.; rounds } ];
                };
              calls = 1;
            };
        choices = [];
      }
  in
  Alcotest.(check bool) "rounds=0 parses" true (Result.is_ok (Schedule.of_string (text 0)));
  Alcotest.(check bool) "rounds=-1 does not parse" true
    (Result.is_error (Schedule.of_string (text (-1))))

let test_chaos_to_schedule_replays () =
  (* A deliberately broken protocol fails a chaos case; the shrunk case
     wrapped as a schedule must replay to the same verdict class. *)
  let rng = Sim.Rng.create 7 in
  let case = Chaos.random_case rng ~index:0 in
  let outcome = Chaos.run_case ~breakage:send_gate_broken ~calls:20 case in
  if Chaos.verdict_failed outcome.Chaos.verdict then begin
    let minimal = Chaos.shrink ~breakage:send_gate_broken case in
    let verdict =
      (Chaos.run_case ~breakage:send_gate_broken minimal).Chaos.verdict
    in
    let sched =
      Chaos.to_schedule ~breakage:send_gate_broken ~calls:60 ~name:"shrunk" minimal
        verdict
    in
    let replayed = Explore.replay sched in
    Alcotest.(check bool) "minimized chaos case replays via schedule" true
      (Explore.verdict_matches sched.Schedule.expect replayed)
  end
  (* If this particular case happens to pass even when broken, the corpus
     test still covers the chaos replay path with a pinned failing case. *)

let suite =
  [
    Alcotest.test_case "exhausts a tiny config, POR prunes, oracle clean" `Slow
      test_exhausts_and_certifies;
    Alcotest.test_case "exploration is deterministic" `Slow
      test_exploration_deterministic;
    Alcotest.test_case "K=0 and K=N boundaries" `Slow test_k_boundaries;
    Alcotest.test_case "broken send gate yields replayable counter-example" `Slow
      test_broken_send_gate_caught;
    Alcotest.test_case "preemption bound under-approximates" `Slow
      test_preemption_bound_truncates;
    Alcotest.test_case "empty choices = canonical drain, certified" `Quick
      test_replay_canonical_drain;
    Alcotest.test_case "codec rejects malformed schedules" `Quick
      test_schedule_codec_errors;
    Alcotest.test_case "chaos schedule round-trips all fault kinds" `Quick
      test_chaos_schedule_roundtrip;
    Alcotest.test_case "a kill's storage fault is a kill fault" `Quick
      test_kill_storage_names;
    Alcotest.test_case "shrunk chaos case replays via schedule" `Slow
      test_chaos_to_schedule_replays;
    Alcotest.test_case "a negative brownout round count does not parse" `Quick
      test_negative_brownout_rounds;
  ]
