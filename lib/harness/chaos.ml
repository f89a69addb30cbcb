module Config = Recovery.Config

(* A fault directive: one removable unit of adversity.  A campaign case is
   a list of directives; the shrinker minimizes a failing case by dropping
   directives one at a time, so each directive must be independently
   removable.  The types live in {!Schedule} (which serializes them) and
   are re-exported here so existing campaign code is unaffected. *)
type crash_kind = Schedule.crash_kind =
  | Single of int
  | Group of int list
  | Cascade of int list
  | In_checkpoint of int
  | In_flush of int

type fault = Schedule.fault =
  | Loss of float
  | Duplication of float
  | Reorder of float * float  (* probability, spread *)
  | Partition of { group : int list; from_ : float; until : float; drop : bool }
  | Crash of { kind : crash_kind; time : float }
  | Kill of { pid : int; time : float; storage : Durable.Fault.t option }
  | Join of { pid : int; time : float }
  | Retire of { pid : int; time : float }
  | Brownout of { pid : int; time : float; rounds : int }

type case = Schedule.case = { n : int; k : int; seed : int; faults : fault list }

let pp_pids = Fmt.(brackets (list ~sep:comma int))

let pp_fault ppf = function
  | Loss p -> Fmt.pf ppf "loss %.1f%%" (100. *. p)
  | Duplication p -> Fmt.pf ppf "duplication %.1f%%" (100. *. p)
  | Reorder (p, spread) -> Fmt.pf ppf "reorder %.1f%% (spread %.1f)" (100. *. p) spread
  | Partition { group; from_; until; drop } ->
    Fmt.pf ppf "partition %a %s [%.0f, %.0f)" pp_pids group
      (if drop then "dropping" else "queueing")
      from_ until
  | Crash { kind; time } -> (
    match kind with
    | Single pid -> Fmt.pf ppf "crash P%d at %.0f" pid time
    | Group pids -> Fmt.pf ppf "simultaneous crash %a at %.0f" pp_pids pids time
    | Cascade pids -> Fmt.pf ppf "cascading crash %a from %.0f" pp_pids pids time
    | In_checkpoint pid -> Fmt.pf ppf "crash P%d during checkpoint at %.0f" pid time
    | In_flush pid -> Fmt.pf ppf "crash P%d during flush at %.0f" pid time)
  | Kill { pid; time; storage } ->
    Fmt.pf ppf "kill P%d at %.0f%a" pid time
      Fmt.(option (any " + storage fault " ++ Durable.Pp.fault))
      storage
  | Join { pid; time } -> Fmt.pf ppf "join P%d at %.0f" pid time
  | Retire { pid; time } -> Fmt.pf ppf "retire P%d at %.0f" pid time
  | Brownout { pid; time; rounds } ->
    Fmt.pf ppf "brownout P%d at %.0f for %d flushes" pid time rounds

let pp_case ppf c =
  Fmt.pf ppf "@[<v2>n=%d K=%d seed=%d, %d fault(s):@,%a@]" c.n c.k c.seed
    (List.length c.faults)
    Fmt.(list ~sep:cut pp_fault)
    c.faults

(* Fold the wire-level directives into one Netmodel plan.  Multiple
   directives of the same probabilistic kind combine by max, so dropping
   any one of them weakens the plan monotonically. *)
let plan_of_faults faults =
  List.fold_left
    (fun (plan : Netmodel.fault_plan) fault ->
      match fault with
      | Loss p -> { plan with loss = Stdlib.max plan.loss p }
      | Duplication p -> { plan with duplicate = Stdlib.max plan.duplicate p }
      | Reorder (p, spread) ->
        {
          plan with
          reorder = Stdlib.max plan.reorder p;
          reorder_spread = Stdlib.max plan.reorder_spread spread;
        }
      | Partition { group; from_; until; drop } ->
        {
          plan with
          partitions =
            {
              Netmodel.group;
              from_;
              until;
              mode = (if drop then Netmodel.Drop_packets else Netmodel.Queue_packets);
            }
            :: plan.partitions;
        }
      | Crash _ | Kill _ | Join _ | Retire _ | Brownout _ -> plan)
    Netmodel.benign faults

let schedule_crashes cluster faults =
  List.iter
    (function
      | Loss _ | Duplication _ | Reorder _ | Partition _ -> ()
      | Kill { pid; time; storage } ->
        Cluster.kill_at cluster ~time ~pid ?storage_fault:storage ()
      | Crash { kind = In_checkpoint pid; time } ->
        Cluster.crash_during_checkpoint_at cluster ~time ~pid
      | Crash { kind = In_flush pid; time } -> Cluster.crash_during_flush_at cluster ~time ~pid
      | Crash { kind; time } ->
        let restart_delay = (Cluster.config cluster).Config.timing.restart_delay in
        List.iter
          (fun (pid, time) -> Cluster.crash_at cluster ~time ~pid)
          (Schedule.crash_times ~restart_delay ~time kind)
      | Join { pid; time } -> Cluster.join_at cluster ~time ~pid
      | Retire { pid; time } -> Cluster.retire_at cluster ~time ~pid
      | Brownout { pid; time; rounds } ->
        Cluster.arm_disk_full_at cluster ~time ~pid ~rounds)
    faults

type verdict =
  | Certified of Oracle.report
  | Detected of { oracle : Oracle.report; damage : string list }
      (* oracle violations, but storage faults were injected or a reopen
         counted lost data: loud data loss, not silent wrong state *)
  | Violated of Oracle.report
  | Crashed of string  (* the harness or protocol raised *)

type outcome = { verdict : verdict; stats : Cluster.stats option }

let verdict_failed = function
  | Certified _ | Detected _ -> false
  | Violated _ | Crashed _ -> true

let pp_verdict ppf = function
  | Certified r -> Fmt.pf ppf "certified (%a)" Oracle.pp_report r
  | Detected { oracle; damage } ->
    Fmt.pf ppf "@[<v2>detected storage damage (%a):@,%a@]" Oracle.pp_report oracle
      Fmt.(list ~sep:cut string)
      damage
  | Violated r -> Fmt.pf ppf "VIOLATED: %a" Oracle.pp_report r
  | Crashed msg -> Fmt.pf ppf "HARNESS EXCEPTION: %s" msg

(* Run one case end to end: hardened K-optimistic protocol (periodic
   retransmission + announcement gossip), telecom workload, the case's
   fault plan and crash schedule, then the offline causality oracle over
   the full trace.  A deliberately broken protocol ([breakage]) may also
   make the run raise — that counts as a failure, not a campaign abort. *)
let run_case ?(breakage = Config.no_breakage) ?(calls = 60) case =
  try
    let config = Config.harden (Config.k_optimistic ~n:case.n ~k:case.k ()) in
    let config =
      { config with Config.protocol = { config.Config.protocol with breakage } }
    in
    let cluster =
      Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:case.seed
        ~horizon:1500. ~fault_plan:(plan_of_faults case.faults) ()
    in
    let rng = Sim.Rng.create (case.seed * 7919) in
    Workload.telecom cluster ~rng ~calls ~hops:4 ~start:10. ~rate:1.0;
    schedule_crashes cluster case.faults;
    Cluster.run cluster;
    (* A [Join] directive can grow membership mid-run; certify at the
       cluster's final width, not the case's starting one. *)
    let oracle = Oracle.check ~k:case.k ~n:(Cluster.n cluster) (Cluster.trace cluster) in
    let stats = Cluster.stats cluster in
    (* Loud loss: every fault the run injected, every loss a reopen counted. *)
    let damage =
      List.map (fun (pid, time, note) -> Fmt.str "P%d killed at %.0f: %s" pid time note)
        (Cluster.fault_notes cluster)
      @ List.map (fun (name, v) -> Fmt.str "%s %d" name v)
          (Durable.Durable_store.losses stats.obs)
    in
    let stats = Some stats in
    if Oracle.ok oracle then { verdict = Certified oracle; stats }
    else if damage <> [] then { verdict = Detected { oracle; damage }; stats }
    else { verdict = Violated oracle; stats }
  with exn -> { verdict = Crashed (Printexc.to_string exn); stats = None }

(* ------------------------------------------------------------------ *)
(* Randomized campaign                                                 *)

let distinct_pids rng ~n ~count =
  let pids = Array.init n Fun.id in
  Sim.Rng.shuffle rng pids;
  Array.to_list (Array.sub pids 0 (Stdlib.min count n))

(* One randomized case.  Every case carries loss, duplication and
   reordering; half add a partition; every case has at least one crash
   directive, cycling through the correlated-failure kinds so each kind
   appears throughout a campaign.  K cycles through {0, 2, N}.  With
   [storage_faults] every case additionally kills one process — cycling
   through no damage and the four storage faults — so the campaign also
   exercises restart-from-disk under file corruption. *)
let random_case ?(storage_faults = false) rng ~index =
  let n = 4 + Sim.Rng.int rng 5 in
  let k = match index mod 3 with 0 -> 0 | 1 -> Stdlib.min 2 n | _ -> n in
  let seed = 10_000 + index in
  let faults = ref [] in
  let add f = faults := f :: !faults in
  add (Loss (Sim.Rng.uniform rng ~lo:0.01 ~hi:0.10));
  add (Duplication (Sim.Rng.uniform rng ~lo:0.01 ~hi:0.10));
  add (Reorder (Sim.Rng.uniform rng ~lo:0.02 ~hi:0.20, Sim.Rng.uniform rng ~lo:5. ~hi:25.));
  if Sim.Rng.bool rng then begin
    let side = distinct_pids rng ~n ~count:(1 + Sim.Rng.int rng (n - 1)) in
    let from_ = Sim.Rng.uniform rng ~lo:40. ~hi:150. in
    let duration = Sim.Rng.uniform rng ~lo:20. ~hi:80. in
    add (Partition { group = side; from_; until = from_ +. duration; drop = Sim.Rng.bool rng })
  end;
  let crash_time () = Sim.Rng.uniform rng ~lo:40. ~hi:220. in
  (match index mod 5 with
  | 0 -> add (Crash { kind = Single (Sim.Rng.int rng n); time = crash_time () })
  | 1 -> add (Crash { kind = Group (distinct_pids rng ~n ~count:2); time = crash_time () })
  | 2 -> add (Crash { kind = Cascade (distinct_pids rng ~n ~count:3); time = crash_time () })
  | 3 -> add (Crash { kind = In_checkpoint (Sim.Rng.int rng n); time = crash_time () })
  | _ -> add (Crash { kind = In_flush (Sim.Rng.int rng n); time = crash_time () }));
  (* Occasionally a second, independent crash late in the run. *)
  if Sim.Rng.bool rng then
    add (Crash { kind = Single (Sim.Rng.int rng n); time = Sim.Rng.uniform rng ~lo:220. ~hi:320. });
  if storage_faults then begin
    let storage =
      match index mod 5 with
      | 0 -> None
      | i -> Some (List.nth Durable.Fault.all (i - 1))
    in
    add (Kill { pid = Sim.Rng.int rng n; time = crash_time (); storage })
  end;
  (* A quarter of cases add membership churn on top of everything else,
     cycling through the three shapes: a brand-new joiner, a graceful
     retirement followed by a later rejoin, and a disk-full brownout.
     Each directive is still independently removable: a rejoin of a pid
     that never retired is just a re-announcement, and a retirement whose
     rejoin is dropped leaves a permanently silent (but certified) node. *)
  if index mod 4 = 3 then begin
    match index / 4 mod 3 with
    | 0 -> add (Join { pid = n; time = Sim.Rng.uniform rng ~lo:60. ~hi:180. })
    | 1 ->
      let pid = Sim.Rng.int rng n in
      let leave = Sim.Rng.uniform rng ~lo:60. ~hi:140. in
      add (Retire { pid; time = leave });
      add (Join { pid; time = leave +. Sim.Rng.uniform rng ~lo:60. ~hi:120. })
    | _ ->
      add
        (Brownout
           {
             pid = Sim.Rng.int rng n;
             time = Sim.Rng.uniform rng ~lo:40. ~hi:120.;
             rounds = 2 + Sim.Rng.int rng 4;
           })
  end;
  { n; k; seed; faults = List.rev !faults }

type summary = {
  runs : int;
  certified : int;
  detected : int;  (* storage damage reported instead of silent wrong state *)
  failures : (case * verdict) list;  (* oldest first *)
  obs : Obs.Snapshot.t;  (* every run's counts, merged *)
  max_risk_seen : int;
}

let campaign ?(breakage = Config.no_breakage) ?(storage_faults = false) ?progress
    ~runs ~seed () =
  let rng = Sim.Rng.create seed in
  let certified = ref 0 in
  let detected = ref 0 in
  let failures = ref [] in
  let obs = ref Obs.Snapshot.empty and risk = ref 0 in
  for index = 0 to runs - 1 do
    let case = random_case ~storage_faults rng ~index in
    let { verdict; stats } = run_case ~breakage case in
    Option.iter (fun (s : Cluster.stats) -> obs := Obs.Snapshot.merge !obs s.obs) stats;
    (match verdict with
    | Certified r ->
      incr certified;
      risk := Stdlib.max !risk r.Oracle.max_risk
    | Detected _ -> incr detected
    | Violated _ | Crashed _ -> failures := (case, verdict) :: !failures);
    match progress with Some f -> f (index + 1) | None -> ()
  done;
  {
    runs;
    certified = !certified;
    detected = !detected;
    failures = List.rev !failures;
    obs = !obs;
    max_risk_seen = !risk;
  }

(* ------------------------------------------------------------------ *)
(* Greedy shrinker                                                     *)

(* Minimize a failing case: repeatedly try dropping one fault directive;
   keep any drop under which the case still fails.  The result is
   1-minimal — removing any remaining directive makes the run pass. *)
let shrink ?(breakage = Config.no_breakage) case =
  let still_fails faults =
    verdict_failed (run_case ~breakage { case with faults }).verdict
  in
  let rec fixpoint faults =
    let rec try_drop i =
      if i >= List.length faults then None
      else
        let without = List.filteri (fun j _ -> j <> i) faults in
        if still_fails without then Some without else try_drop (i + 1)
    in
    match try_drop 0 with Some faults' -> fixpoint faults' | None -> faults
  in
  { case with faults = fixpoint case.faults }

(* ------------------------------------------------------------------ *)
(* Bridge to the serialized schedule format *)

let expect_of_verdict = function
  | Certified _ -> Schedule.Certified
  | Detected _ -> Schedule.Detected
  | Violated _ -> Schedule.Violated
  | Crashed _ -> Schedule.Crashed

let to_schedule ?(breakage = Config.no_breakage) ?(calls = 60) ~name case verdict =
  {
    Schedule.name;
    expect = expect_of_verdict verdict;
    breakage;
    scenario = Schedule.Chaos { case; calls };
    (* The timed simulator is deterministic given the case's seeds; there
       are no recorded choice points to replay. *)
    choices = [];
  }
