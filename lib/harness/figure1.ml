open Depend
module Trace = Recovery.Trace
module Wire = Recovery.Wire
module Config = Recovery.Config
module Script = App_model.Script_app
module App_intf = App_model.App_intf

type flavour = Improved | Strom_yemini

type outcome = {
  flavour : flavour;
  failures : string list;
  trace : Recovery.Trace.t;
  oracle : Oracle.report;
  m6_delivered_at : float option;
  m7_delivered_at : float option;
  r1_at_p4 : float option;
  r1_at_p5 : float option;
  output_committed_at : float option;
}

let n = 6

let e = Entry.make

(* The message chains of Figure 1, encoded as a Script_app plan.  Labels
   match the paper's message names; fA/fB/f1/f2/fC/f3/go* are filler or
   trigger deliveries that position each process at the interval index the
   figure shows. *)
let plan () =
  Script.make_plan
    [
      (0, "go0", [ App_intf.send 1 "m1" ]);
      (1, "m1", [ App_intf.send 3 "m2a" ]);
      (3, "m2a", [ App_intf.send 4 "m2" ]);
      (4, "m2", [ App_intf.output "call-connected" ]);
      (1, "go1", [ App_intf.send 3 "m3" ]);
      (2, "m5", [ App_intf.send 4 "m6" ]);
    ]

let timing =
  {
    Config.default_timing with
    t_proc = 0.01;
    t_sync_write = 0.01;
    t_replay = 0.001;
    t_checkpoint = 0.01;
    per_entry_overhead = 0.;
    flush_interval = None;
    checkpoint_interval = None;
    notice_interval = None;
    restart_delay = 2.;
    net_latency = 1.;
    net_jitter = 0.;
  }

(* Deterministic transit times.  r1 (P1's failure announcement) is slowed
   down selectively so that m6 reaches P4 and m7 reaches P5 before it —
   the race the paper uses to contrast the two delivery rules. *)
let net_override ~src ~dst ~packet_kind =
  if packet_kind = "ann" && src = 1 then
    Some
      (match dst with
      | 0 -> 2.0
      | 2 -> 2.5
      | 3 -> 3.0
      | 4 -> 40.0
      | 5 -> 23.2
      | _ -> 1.0)
  else Some 1.0

let config = function
  | Improved ->
    Config.k_optimistic ~timing ~n ~k:n ()
  | Strom_yemini -> Config.strom_yemini ~timing ~n ()

(* --- trace queries ------------------------------------------------- *)

let find_time trace pred =
  List.find_map
    (fun (entry : Trace.entry) -> if pred entry.ev then Some entry.time else None)
    (Trace.events trace)

let delivery_time trace ~pid ~interval =
  find_time trace (function
    | Trace.Interval_started { pid = p; interval = i; replay = false; _ } ->
      p = pid && Entry.equal i interval
    | _ -> false)

let r1_receipt trace ~pid =
  find_time trace (function
    | Trace.Announcement_received { pid = p; ann } ->
      p = pid && ann.Wire.from_ = 1 && ann.Wire.failure
    | _ -> false)

(* --- scenario ------------------------------------------------------ *)

type probe = {
  mutable p4_after_m2 : Dep_vector.t option;
  mutable p4_after_m6 : Dep_vector.t option;
}

let run flavour =
  let cluster =
    Cluster.create ~config:(config flavour) ~app:(Script.app (plan ())) ~seed:1
      ~horizon:120. ~net_override ~auto_timers:false ()
  in
  let inject time dst label = Cluster.inject_at cluster ~time ~dst label in
  (* Pre-phase: position every process at its Figure 1 starting interval.
     P0 reaches incarnation 1 through an early crash; P3 reaches
     incarnation 2 through two. *)
  Cluster.crash_at cluster ~time:1.0 ~pid:0;
  Cluster.crash_at cluster ~time:1.0 ~pid:3;
  Cluster.crash_at cluster ~time:5.0 ~pid:3;
  inject 8.0 1 "fA";
  inject 9.0 1 "fB";
  inject 10.0 3 "f1";
  inject 11.0 3 "f2";
  inject 12.0 2 "fC";
  (* The window of Figure 1. *)
  inject 20.0 0 "go0" (* (1,3)_0 sends m1 *);
  Cluster.flush_at cluster ~time:30.0 ~pid:1 (* (0,4)_1 becomes stable *);
  inject 32.0 1 "go1" (* (0,5)_1 sends m3 *);
  inject 35.0 3 "f3" (* (2,8)_3 *);
  Cluster.crash_at cluster ~time:40.0 ~pid:1 (* the X: (0,5)_1 is lost *);
  (* P1 continues inside its post-restart interval (1,5)_1. *)
  Cluster.perform_at cluster ~time:44.8 ~pid:1
    [ App_intf.send 2 "m5"; App_intf.send 5 "m7" ];
  (* Logging-progress traffic that lets P4 commit its output. *)
  Cluster.flush_at cluster ~time:85.0 ~pid:0;
  Cluster.notice_at cluster ~time:86.0 ~pid:0;
  Cluster.notice_at cluster ~time:87.0 ~pid:3;
  Cluster.flush_at cluster ~time:89.0 ~pid:4;
  let probe = { p4_after_m2 = None; p4_after_m6 = None } in
  Cluster.run_until cluster 28.;
  probe.p4_after_m2 <- Some (Recovery.Node.dep_vector (Cluster.node cluster 4));
  Cluster.run_until cluster 84.;
  probe.p4_after_m6 <- Some (Recovery.Node.dep_vector (Cluster.node cluster 4));
  Cluster.run cluster;
  let trace = Cluster.trace cluster in
  let oracle = Oracle.check ~k:n ~n trace in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let expect cond fmt = Fmt.kstr (fun s -> if not cond then failures := s :: !failures) fmt in
  (* -- facts common to both flavours -------------------------------- *)
  expect (Oracle.ok oracle) "oracle found violations: %a" Oracle.pp_report oracle;
  (* P1 fails having lost (0,5)_1 ... *)
  expect
    (List.exists
       (fun (entry : Trace.entry) ->
         match entry.ev with
         | Trace.Crashed { pid = 1; first_lost = Some fl } -> Entry.equal fl (e ~inc:0 ~sii:5)
         | _ -> false)
       (Trace.events trace))
    "P1's crash did not lose exactly interval (0,5)_1";
  (* ... rolls back to (0,4)_1, announces r1 containing (0,4), and
     continues as (1,5)_1. *)
  expect
    (List.exists
       (fun (entry : Trace.entry) ->
         match entry.ev with
         | Trace.Restarted { pid = 1; announced; new_current } ->
           Entry.equal announced.Wire.ending (e ~inc:0 ~sii:4)
           && Entry.equal new_current (e ~inc:1 ~sii:5)
         | _ -> false)
       (Trace.events trace))
    "P1 did not announce ending (0,4) and continue as (1,5)";
  (* P3 rolls back to (2,6)_3 and continues as incarnation 3. *)
  expect
    (List.exists
       (fun (entry : Trace.entry) ->
         match entry.ev with
         | Trace.Rolled_back { pid = 3; restored; new_current; _ } ->
           Entry.equal restored (e ~inc:2 ~sii:6) && new_current.Entry.inc = 3
         | _ -> false)
       (Trace.events trace))
    "P3 did not roll back to (2,6)_3";
  (* P4 survives r1. *)
  expect
    (not
       (List.exists
          (fun (entry : Trace.entry) ->
            match entry.ev with Trace.Rolled_back { pid = 4; _ } -> true | _ -> false)
          (Trace.events trace)))
    "P4 rolled back although its state does not depend on a rolled-back interval";
  (* f3, undone at P3's rollback but not orphaned, is re-delivered as
     (3,8)_3 — the figure's post-rollback intervals. *)
  expect
    (delivery_time trace ~pid:3 ~interval:(e ~inc:3 ~sii:8) <> None)
    "P3 did not re-deliver the undone non-orphan message at (3,8)_3";
  (* The multi-incarnation dependency sets of Section 2, checked against
     the causality oracle.  Pre-window incarnations (P0's 0th, P3's 0th and
     1st, and other processes' initial intervals) are allowed extras. *)
  let check_dep_set ~interval ~expected ~allowed_extra label =
    match Oracle.dependencies ~n trace ~pid:4 interval with
    | None -> fail "interval %a of P4 was never created" Depend.Pp.entry interval
    | Some actual ->
      List.iter
        (fun (pid, exp_entry) ->
          let got =
            List.find_opt
              (fun (p, (a : Entry.t)) -> p = pid && a.inc = exp_entry.Entry.inc)
              actual
          in
          match got with
          | Some (_, a) when Entry.equal a exp_entry -> ()
          | Some (_, a) ->
            fail "%s: dependency on P%d incarnation %d is %a, paper says %a" label
              pid exp_entry.Entry.inc Depend.Pp.entry a Depend.Pp.entry exp_entry
          | None ->
            fail "%s: missing dependency %a on P%d" label Depend.Pp.entry exp_entry pid)
        expected;
      List.iter
        (fun (pid, (a : Entry.t)) ->
          let in_expected =
            List.exists
              (fun (p, (x : Entry.t)) -> p = pid && x.inc = a.inc)
              expected
          in
          let in_allowed = List.mem (pid, a.inc) allowed_extra in
          if not (in_expected || in_allowed) then
            fail "%s: unexpected dependency %a on P%d" label Depend.Pp.entry a pid)
        actual
  in
  let prehistory = [ (0, 0); (3, 0); (3, 1); (1, -1) ] in
  check_dep_set ~interval:(e ~inc:0 ~sii:2)
    ~expected:
      [ (0, e ~inc:1 ~sii:3); (1, e ~inc:0 ~sii:4); (3, e ~inc:2 ~sii:6); (4, e ~inc:0 ~sii:2) ]
    ~allowed_extra:prehistory "dep set of (0,2)_4 after m2";
  check_dep_set ~interval:(e ~inc:0 ~sii:3)
    ~expected:
      [
        (0, e ~inc:1 ~sii:3);
        (1, e ~inc:0 ~sii:4);
        (1, e ~inc:1 ~sii:5);
        (2, e ~inc:0 ~sii:3);
        (3, e ~inc:2 ~sii:6);
        (4, e ~inc:0 ~sii:3);
      ]
    ~allowed_extra:prehistory "dep set of (0,3)_4 after m6";
  (* -- the delivery-rule race ---------------------------------------- *)
  let m6_delivered_at = delivery_time trace ~pid:4 ~interval:(e ~inc:0 ~sii:3) in
  let m7_delivered_at = delivery_time trace ~pid:5 ~interval:(e ~inc:0 ~sii:2) in
  let r1_at_p4 = r1_receipt trace ~pid:4 in
  let r1_at_p5 = r1_receipt trace ~pid:5 in
  let before what a b =
    match a, b with
    | Some a, Some b -> expect (a < b) "%s" what
    | _, _ -> fail "%s: missing events" what
  in
  let after what a b =
    match a, b with
    | Some a, Some b -> expect (a >= b) "%s" what
    | _, _ -> fail "%s: missing events" what
  in
  (match flavour with
  | Improved ->
    before "Corollary 1: m6 should be delivered at P4 without waiting for r1"
      m6_delivered_at r1_at_p4;
    before "Corollary 1: m7 should be delivered at P5 without waiting for r1"
      m7_delivered_at r1_at_p5
  | Strom_yemini ->
    after "Strom-Yemini: m6 must wait at P4 for r1" m6_delivered_at r1_at_p4;
    after "Strom-Yemini: m7 must wait at P5 for r1" m7_delivered_at r1_at_p5;
    (* The single-entry dependency vector P4 "records" after m2 and the
       post-r1 vector after m6 (with the lexicographic maximum applied). *)
    let expect_vec label actual expected =
      match actual with
      | None -> fail "%s: no probe" label
      | Some v ->
        let got = Dep_vector.non_null v in
        let want = List.map (fun (p, en) -> (p, en)) expected in
        if
          not
            (List.length got = List.length want
            && List.for_all2
                 (fun (p1, e1) (p2, e2) -> p1 = p2 && Entry.equal e1 e2)
                 got want)
        then
          fail "%s: vector is %a, paper says {%a}" label Depend.Pp.dep_vector v
            Fmt.(list ~sep:(any "; ") (fun ppf (p, en) -> Depend.Pp.entry_at p ppf en))
            want
    in
    expect_vec "P4's vector after m2" probe.p4_after_m2
      [ (0, e ~inc:1 ~sii:3); (1, e ~inc:0 ~sii:4); (3, e ~inc:2 ~sii:6); (4, e ~inc:0 ~sii:2) ];
    expect_vec "P4's vector after m6 (lexicographic max applied)" probe.p4_after_m6
      [
        (0, e ~inc:1 ~sii:3);
        (1, e ~inc:1 ~sii:5);
        (2, e ~inc:0 ~sii:3);
        (3, e ~inc:2 ~sii:6);
        (4, e ~inc:0 ~sii:3);
      ];
    (* Pre-Theorem 1, P3's induced rollback is announced. *)
    expect
      (List.exists
         (fun (entry : Trace.entry) ->
           match entry.ev with
           | Trace.Announcement_received { ann; _ } ->
             ann.Wire.from_ = 3 && (not ann.Wire.failure) && entry.time > 44.
           | _ -> false)
         (Trace.events trace))
      "Strom-Yemini: P3's induced rollback was not announced");
  (* Theorem 1 applied: the improved protocol announces failures only. *)
  (match flavour with
  | Improved ->
    expect
      (not
         (List.exists
            (fun (entry : Trace.entry) ->
              match entry.ev with
              | Trace.Announcement_received { ann; _ } -> not ann.Wire.failure
              | _ -> false)
            (Trace.events trace)))
      "improved protocol announced a non-failure rollback"
  | Strom_yemini -> ());
  (* -- output commit -------------------------------------------------- *)
  let output_committed_at =
    find_time trace (function
      | Trace.Output_committed { pid = 4; _ } -> true
      | _ -> false)
  in
  (match output_committed_at with
  | None -> fail "P4's output from (0,2)_4 was never committed"
  | Some tc ->
    expect (tc >= 88.9) "output committed at %.2f, before all notifications" tc;
    (match r1_at_p4 with
    | Some tr -> expect (tc > tr) "output committed before r1 reached P4"
    | None -> fail "r1 never reached P4"));
  {
    flavour;
    failures = List.rev !failures;
    trace;
    oracle;
    m6_delivered_at;
    m7_delivered_at;
    r1_at_p4;
    r1_at_p5;
    output_committed_at;
  }

let check () =
  let a = run Improved in
  let b = run Strom_yemini in
  List.map (fun f -> "improved: " ^ f) a.failures
  @ List.map (fun f -> "strom-yemini: " ^ f) b.failures

let walkthrough ppf =
  let outcome = run Improved in
  Fmt.pf ppf
    "Figure 1 walkthrough (improved protocol).@\n\
     m6 delivered at P4 at %a; r1 reached P4 at %a.@\n\
     m7 delivered at P5 at %a; r1 reached P5 at %a.@\n\
     P4's output committed at %a.@\n\
     %a@\n\
     --- full trace ---@\n\
     %a@."
    Fmt.(option ~none:(any "-") float)
    outcome.m6_delivered_at
    Fmt.(option ~none:(any "-") float)
    outcome.r1_at_p4
    Fmt.(option ~none:(any "-") float)
    outcome.m7_delivered_at
    Fmt.(option ~none:(any "-") float)
    outcome.r1_at_p5
    Fmt.(option ~none:(any "-") float)
    outcome.output_committed_at Oracle.pp_report outcome.oracle Recovery.Pp.trace
    outcome.trace
