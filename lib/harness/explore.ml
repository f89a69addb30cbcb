module Config = Recovery.Config
module Counter = App_model.Counter_app

type bounds = {
  max_depth : int;
  max_schedules : int;
  preemptions : int option;
}

let default_bounds = { max_depth = 400; max_schedules = 200_000; preemptions = None }

type result = {
  params : Schedule.explore_params;
  schedules : int;
  truncated : int;
  sleep_pruned : int;
  sleep_terminals : int;
  transitions : int;
  replayed_transitions : int;
  max_depth_seen : int;
  max_enabled : int;
  max_risk : int;
  complete : bool;
  violations : (Schedule.t * string list) list;
}

let ok r = r.violations = []

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>n=%d K=%d messages=%d crashes=%d flushes=%d seed=%d:@,\
     %d schedule(s) certified%s, %d truncated by bounds@,\
     POR: %d candidate(s) slept, %d subtree(s) fully pruned@,\
     %d transition(s) executed + %d replayed (stateless-DFS overhead)@,\
     max depth %d, widest choice point %d, max Theorem-4 risk %d@,\
     violations: %d@]"
    r.params.Schedule.n r.params.Schedule.k r.params.Schedule.messages
    r.params.Schedule.crashes r.params.Schedule.flushes r.params.Schedule.seed
    r.schedules
    (if r.complete then " (state space exhausted)" else "")
    r.truncated r.sleep_pruned r.sleep_terminals r.transitions
    r.replayed_transitions r.max_depth_seen r.max_enabled r.max_risk
    (List.length r.violations)

(* ------------------------------------------------------------------ *)
(* Scenario construction *)

(* Untimed: every cost, interval and latency collapses to zero, so all
   events sit at time 0 and the canonical (time, seq) order degenerates to
   insertion order — the clock stops mattering and only the choice of
   which pending event to step ([Cluster.step_nth]) distinguishes
   executions.  Periodic timers are off (they would re-arm forever);
   stability progress comes from the scenario's explicit flush events
   instead. *)
let untimed =
  {
    Config.t_proc = 0.;
    t_sync_write = 0.;
    t_replay = 0.;
    t_checkpoint = 0.;
    per_entry_overhead = 0.;
    flush_interval = None;
    checkpoint_interval = None;
    notice_interval = None;
    retransmit_interval = None;
    restart_delay = 0.;
    net_latency = 0.;
    net_jitter = 0.;
    fifo = false;
  }

let build ?(breakage = Config.no_breakage) (p : Schedule.explore_params) =
  let config =
    Config.k_optimistic ~timing:untimed ~n:p.Schedule.n ~k:p.Schedule.k ()
  in
  let config =
    { config with Config.protocol = { config.Config.protocol with breakage } }
  in
  let cluster =
    Cluster.create ~config ~app:Counter.app ~seed:p.Schedule.seed
      ~auto_timers:false
      (* Pinning transit to zero bypasses the timing RNG entirely (see
         Netmodel.transit), so executing a packet event consumes no
         randomness — required for the commutation argument. *)
      ~net_override:(fun ~src:_ ~dst:_ ~packet_kind:_ -> Some 0.)
      ()
  in
  for i = 0 to p.Schedule.messages - 1 do
    let src = i mod p.Schedule.n in
    Cluster.inject_at cluster ~time:0. ~dst:src
      (Counter.Forward { dst = (src + 1) mod p.Schedule.n; amount = i + 1 })
  done;
  for c = 0 to p.Schedule.crashes - 1 do
    Cluster.crash_at cluster ~time:0. ~pid:(c mod p.Schedule.n)
  done;
  for f = 0 to p.Schedule.flushes - 1 do
    Cluster.flush_at cluster ~time:0. ~pid:(f mod p.Schedule.n)
  done;
  cluster

(* ------------------------------------------------------------------ *)
(* Independence *)

(* Sound for the untimed scenario above: an event with [pid = Some p]
   reads and writes only process p's protocol state (plus the write-only
   trace and, for the flagged events, the outside world's request log).
   Crash/restart/kill events carry no pid and are dependent with
   everything.  Request-log reads (failure announcements, which trigger
   client retransmission) conflict with writes (fresh injections), and
   writes with writes (the log is an ordered list). *)
let independent (a : Cluster.enabled) (b : Cluster.enabled) =
  (match (a.Cluster.pid, b.Cluster.pid) with
  | Some p, Some q -> p <> q
  | _ -> false)
  && (not (a.Cluster.log_write && b.Cluster.log_write))
  && (not (a.Cluster.log_write && b.Cluster.log_read))
  && not (a.Cluster.log_read && b.Cluster.log_write)

(* ------------------------------------------------------------------ *)
(* Stateless sleep-set DFS *)

let run ?(breakage = Config.no_breakage) ?(bounds = default_bounds)
    (p : Schedule.explore_params) =
  let schedules = ref 0
  and truncated = ref 0
  and sleep_pruned = ref 0
  and sleep_terminals = ref 0
  and transitions = ref 0
  and replayed = ref 0
  and max_depth_seen = ref 0
  and max_enabled = ref 0
  and max_risk = ref 0
  and violations = ref []
  and stop = ref false in
  let counterexample prefix_rev expect notes =
    (* At most 16 counter-examples are kept; the search runs on. *)
    if List.length !violations < 16 then begin
      let name =
        Fmt.str "explore-n%d-k%d-m%d-c%d-%s-%d" p.Schedule.n p.Schedule.k
          p.Schedule.messages p.Schedule.crashes
          (match expect with Schedule.Crashed -> "crash" | _ -> "violation")
          (List.length !violations + 1)
      in
      let sched =
        {
          Schedule.name;
          expect;
          breakage;
          scenario = Schedule.Explore p;
          choices = List.rev prefix_rev;
        }
      in
      violations := (sched, notes) :: !violations
    end
  in
  (* Rebuild the cluster at a prefix by replaying the recorded positions —
     the simulator is deterministic, so this reproduces the exact state
     (including event-queue sequence numbers, which sleep sets key on). *)
  let rebuild prefix_rev =
    let cluster = build ~breakage p in
    List.iter
      (fun pos ->
        incr replayed;
        if not (Cluster.step_nth cluster pos) then
          failwith "Explore: replay diverged (position out of range)")
      (List.rev prefix_rev);
    cluster
  in
  let terminal cluster prefix_rev =
    incr schedules;
    if !schedules >= bounds.max_schedules then stop := true;
    match Oracle.check ~k:p.Schedule.k ~n:p.Schedule.n (Cluster.trace cluster) with
    | oracle ->
      max_risk := Stdlib.max !max_risk oracle.Oracle.max_risk;
      if not (Oracle.ok oracle) then
        counterexample prefix_rev Schedule.Violated oracle.Oracle.violations
    | exception exn ->
      counterexample prefix_rev Schedule.Crashed [ Printexc.to_string exn ]
  in
  (* [sleep] holds pending events (stable seq identity) whose execution
     here would reproduce a trace already covered by an earlier sibling.
     [last_pid] is the process of the last executed event, for the
     preemption bound. *)
  let rec visit cluster prefix_rev ~depth ~preempts ~last_pid sleep =
    if not !stop then begin
      max_depth_seen := Stdlib.max !max_depth_seen depth;
      let enabled = Cluster.enabled_events cluster in
      max_enabled := Stdlib.max !max_enabled (List.length enabled);
      let indexed = List.mapi (fun pos ev -> (pos, ev)) enabled in
      (* Events whose target process is down are skipped, not executed:
         they would only requeue behind the (always pending, pid-less)
         restart event, which unblocks them once it runs. *)
      let runnable = List.filter (fun (_, ev) -> not ev.Cluster.blocked) indexed in
      if runnable = [] then terminal cluster prefix_rev
      else begin
        let slept, awake =
          List.partition
            (fun (_, ev) ->
              List.exists (fun s -> s.Cluster.key = ev.Cluster.key) sleep)
            runnable
        in
        sleep_pruned := !sleep_pruned + List.length slept;
        if awake = [] then incr sleep_terminals
        else if depth >= bounds.max_depth then incr truncated
        else begin
          let last_runnable =
            match last_pid with
            | None -> false
            | Some lp ->
              List.exists (fun (_, ev) -> ev.Cluster.pid = Some lp) runnable
          in
          (* A candidate is a preemption when it moves off a process that
             could still run; environment events (no pid) never count. *)
          let preempting ev =
            last_runnable && ev.Cluster.pid <> None && ev.Cluster.pid <> last_pid
          in
          let admissible, cut =
            match bounds.preemptions with
            | None -> (awake, [])
            | Some bound ->
              List.partition
                (fun (_, ev) -> (not (preempting ev)) || preempts < bound)
                awake
          in
          if cut <> [] then incr truncated;
          let n_adm = List.length admissible in
          List.iteri
            (fun i (pos, ev) ->
              if not !stop then begin
                (* Sleep set for the child: earlier siblings' subtrees have
                   covered every trace reaching this state through them, so
                   they sleep — unless dependent with [ev], whose execution
                   invalidates that coverage. *)
                let done_before =
                  List.filteri (fun j _ -> j < i) admissible |> List.map snd
                in
                let sleep' =
                  List.filter (fun s -> independent s ev) (sleep @ done_before)
                in
                let preempts' = preempts + if preempting ev then 1 else 0 in
                let last_pid' =
                  match ev.Cluster.pid with Some _ as pid -> pid | None -> last_pid
                in
                (* Stateless DFS: every sibling but the last replays the
                   prefix into a fresh cluster; the last reuses this one. *)
                let cl = if i = n_adm - 1 then cluster else rebuild prefix_rev in
                incr transitions;
                match Cluster.step_nth cl pos with
                | true ->
                  visit cl (pos :: prefix_rev) ~depth:(depth + 1)
                    ~preempts:preempts' ~last_pid:last_pid' sleep'
                | false -> failwith "Explore: chosen position vanished"
                | exception exn ->
                  (* The protocol (or a deliberate breakage) raised:
                     that terminates this schedule as a counter-example. *)
                  incr schedules;
                  if !schedules >= bounds.max_schedules then stop := true;
                  counterexample (pos :: prefix_rev) Schedule.Crashed
                    [ Printexc.to_string exn ]
              end)
            admissible
        end
      end
    end
  in
  visit (build ~breakage p) [] ~depth:0 ~preempts:0 ~last_pid:None [];
  {
    params = p;
    schedules = !schedules;
    truncated = !truncated;
    sleep_pruned = !sleep_pruned;
    sleep_terminals = !sleep_terminals;
    transitions = !transitions;
    replayed_transitions = !replayed;
    max_depth_seen = !max_depth_seen;
    max_enabled = !max_enabled;
    max_risk = !max_risk;
    complete = (!truncated = 0) && not !stop;
    violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Replay *)

let replay_explore ?(breakage = Config.no_breakage) (p : Schedule.explore_params)
    ~choices =
  try
    let cluster = build ~breakage p in
    List.iter
      (fun pos ->
        if not (Cluster.step_nth cluster pos) then
          failwith
            (Fmt.str "Explore.replay: choice %d out of range (schedule stale?)" pos))
      choices;
    let first_runnable () =
      let rec go i = function
        | [] -> None
        | ev :: rest -> if ev.Cluster.blocked then go (i + 1) rest else Some i
      in
      go 0 (Cluster.enabled_events cluster)
    in
    let rec drain () =
      match first_runnable () with
      | None -> ()
      | Some i ->
        ignore (Cluster.step_nth cluster i);
        drain ()
    in
    drain ();
    let oracle = Oracle.check ~k:p.Schedule.k ~n:p.Schedule.n (Cluster.trace cluster) in
    if Oracle.ok oracle then Chaos.Certified oracle else Chaos.Violated oracle
  with exn -> Chaos.Crashed (Printexc.to_string exn)

let replay (s : Schedule.t) =
  match s.Schedule.scenario with
  | Schedule.Explore p ->
    replay_explore ~breakage:s.Schedule.breakage p ~choices:s.Schedule.choices
  | Schedule.Chaos { case; calls } ->
    (Chaos.run_case ~breakage:s.Schedule.breakage ~calls case).Chaos.verdict
  | Schedule.Figure1 flavour -> (
    try
      let flavour =
        match flavour with
        | `Improved -> Figure1.Improved
        | `Strom_yemini -> Figure1.Strom_yemini
      in
      let outcome = Figure1.run flavour in
      let oracle = outcome.Figure1.oracle in
      if outcome.Figure1.failures = [] && Oracle.ok oracle then
        Chaos.Certified oracle
      else
        Chaos.Violated
          {
            oracle with
            Oracle.violations = outcome.Figure1.failures @ oracle.Oracle.violations;
          }
    with exn -> Chaos.Crashed (Printexc.to_string exn))

let verdict_matches expect verdict = Chaos.expect_of_verdict verdict = expect
