(* E16: fast recovery on the live deployment.

   Each run builds a log of known length at one daemon (Puts whose keys it
   owns), SIGKILLs it, respawns it immediately and fires a probe Get at it
   while the successor is still replaying.  Two clocks are read off the
   merged trace, both relative to the successor's [Restarted] event:

     ttfr   — time to first request: the probe's [Output_committed]
     ttfull — time to full recovery: the successor's [Recovery_completed]

   With on-demand replay the probe's partition is replayed first (it is
   the hottest parked request), so ttfr tracks one partition's share of
   the log while ttfull pays for all of it; with incremental
   per-partition checkpoints ([--part-ckpt]) the replay range collapses
   to the records after each partition's last snapshot and ttfull goes
   roughly flat in log length.  Every run is oracle-certified the same
   way E14/E15 are: zero violations, measured risk at most K. *)

module App = App_model.Kvstore_app
module Trace = Recovery.Trace

(* The replay pump paces itself at [t_replay] abstract units per
   re-executed record (bin/koptnode.ml).  At the default 1 ms/unit clock a
   whole-log replay finishes inside the driver's first control-socket
   redial, making ttfr unmeasurable; the 10x coarser clock stretches
   replay into the hundreds-of-milliseconds range the probe can actually
   interrupt — same protocol, same certification, slower abstract time. *)
let e16_time_scale = 10. *. Recovery.Config.default_time_scale

let victim = 1

(* Keys the victim owns: every Put injected at the victim is applied
   there (one log record each), never forwarded — so [ops] is the
   victim's log length, spread across its recovery partitions by the
   second, independent key hash. *)
let victim_keys ~n ~count =
  let rec collect i acc = function
    | 0 -> List.rev acc
    | left ->
      let key = Fmt.str "e16-%d" i in
      if App.owner ~n key = victim then collect (i + 1) (key :: acc) (left - 1)
      else collect (i + 1) acc left
  in
  collect 0 [] count

type measure = {
  ttfr : float;  (** seconds, [Restarted] -> probe [Output_committed] *)
  ttfull : float;  (** seconds, [Restarted] -> [Recovery_completed] *)
  replayed : int;  (** records re-executed by the successor *)
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Read both clocks off the merged trace.  The victim has exactly one
   [Restarted] (daemons booting over a fresh store start up without one);
   wall clock is [epoch +. time *. scale], the same conversion E15 uses
   for client-visible ack latency. *)
let analyze t trace ~probe ~label =
  let epoch = Deployment.epoch t in
  let scale = Deployment.time_scale t in
  let wall time = epoch +. (time *. scale) in
  let prefix = Fmt.str "get %s ->" probe in
  let restarted = ref None in
  let ttfr = ref None in
  let ttfull = ref None in
  let replayed = ref 0 in
  List.iter
    (fun { Trace.time; ev; _ } ->
      match ev with
      | Trace.Restarted { pid; _ } when pid = victim ->
        restarted := Some (wall time)
      | Trace.Output_committed { pid; text; _ }
        when pid = victim && !ttfr = None && starts_with ~prefix text -> (
        match !restarted with
        | Some r0 -> ttfr := Some (wall time -. r0)
        | None -> ())
      | Trace.Recovery_completed { pid; replayed = rep }
        when pid = victim && !ttfull = None -> (
        match !restarted with
        | Some r0 ->
          ttfull := Some (wall time -. r0);
          replayed := rep
        | None -> ())
      | _ -> ())
    (Trace.events trace);
  match (!ttfr, !ttfull) with
  | Some ttfr, Some ttfull -> { ttfr; ttfull; replayed = !replayed }
  | None, _ -> failwith (Fmt.str "E16 %s: probe Get was never answered" label)
  | _, None ->
    failwith (Fmt.str "E16 %s: successor never completed recovery" label)

(* One oracle-certified run; returns the measured clocks for the caller's
   bench keys. *)
let e16_run ~k ~ops ~part_ckpt ~seed ~label report =
  let n = 3 in
  let t =
    Deployment.launch ~n ~k ~ckpt_interval:0. ?part_ckpt
      ~time_scale:e16_time_scale ~seed ()
  in
  let r =
    Deployment.run ~timeout:120. t (fun () ->
        let keys = victim_keys ~n ~count:ops in
        List.iteri
          (fun i key ->
            Deployment.inject t ~dst:victim (App.Put { key; value = i + seed });
            if i mod 16 = 15 then Unix.sleepf 0.002)
          keys;
        if not (Deployment.settle ~timeout:120. t) then
          Harness.Report.note report (Fmt.str "%s: pre-kill settle timed out" label);
        (* The snapshot timer covers one dirty partition per tick; give the
           rotation enough idle ticks to visit all of them, so the pckpt
           rows measure bounded replay rather than snapshot-timer luck. *)
        (match part_ckpt with
        | Some period -> Unix.sleepf (12. *. period *. e16_time_scale)
        | None -> ());
        let probe = List.nth keys (ops - 1) in
        (* The crash, the immediate respawn, and the probe racing the
           replay: kill_only/respawn skip the usual restart-delay sleep so
           the probe lands while partitions are still pending. *)
        Deployment.kill_only t ~dst:victim;
        Deployment.respawn t ~dst:victim;
        Deployment.inject t ~dst:victim (App.Get probe);
        let deadline = Unix.gettimeofday () +. 120. in
        let rec await_recovery () =
          match Deployment.status t ~dst:victim with
          | Some s when s.Wire_codec.st_up && not s.Wire_codec.st_recovering -> ()
          | _ ->
            if Unix.gettimeofday () < deadline then begin
              Unix.sleepf 0.02;
              await_recovery ()
            end
        in
        await_recovery ();
        probe)
  in
  if not r.Deployment.settled then
    Harness.Report.note report (Fmt.str "%s: post-kill settle timed out" label);
  let probe = r.Deployment.value and outcome = r.Deployment.outcome in
  Deployment.certify ~report ~exp:"E16" ~label outcome;
  let o = outcome.Deployment.oracle in
  let m = analyze t outcome.Deployment.trace ~probe ~label in
  let ms v = 1000. *. v in
  Harness.Report.add_row report
    [
      string_of_int ops;
      string_of_int k;
      (match part_ckpt with None -> "-" | Some p -> Fmt.str "%g" p);
      Harness.Report.cell_f (ms m.ttfr);
      Harness.Report.cell_f (ms m.ttfull);
      string_of_int m.replayed;
      string_of_int (Obs.Snapshot.counter outcome.Deployment.obs "restarts_total");
      string_of_int o.Harness.Oracle.max_risk;
      string_of_int (List.length o.Harness.Oracle.violations);
    ];
  Durable.Temp.rm_rf (Deployment.root t);
  m

let experiment ?(smoke = false) () =
  let report =
    Harness.Report.create
      ~title:
        (if smoke then "E16-smoke: fast recovery (live cluster)"
         else
           "E16: fast recovery — on-demand replay and incremental checkpoints \
            (live clusters)")
      ~columns:
        [
          "ops"; "K"; "pckpt"; "ttfr_ms"; "ttfull_ms"; "replayed"; "restarts";
          "risk"; "violations";
        ]
  in
  let bench = ref [] in
  if smoke then
    ignore
      (e16_run ~k:1 ~ops:120 ~part_ckpt:None ~seed:16 ~label:"smoke" report
        : measure)
  else begin
    let sizes = [ 300; 600; 1200 ] in
    (* Pure on-demand replay: ttfr (one hot partition + probe transit)
       stays well below ttfull (the whole log), which grows linearly. *)
    List.iter
      (fun k ->
        List.iter
          (fun ops ->
            let m =
              e16_run ~k ~ops ~part_ckpt:None ~seed:(1600 + ops + k)
                ~label:(Fmt.str "ops=%d k=%d" ops k) report
            in
            bench :=
              (Fmt.str "E16 ttfull ms ops=%d k=%d" ops k, 1000. *. m.ttfull)
              :: (Fmt.str "E16 ttfr ms ops=%d k=%d" ops k, 1000. *. m.ttfr)
              :: !bench)
          sizes)
      [ 0; 2 ];
    (* Incremental per-partition checkpoints bound every partition's
       replay range by the snapshot period, flattening ttfull in log
       length. *)
    List.iter
      (fun ops ->
        let m =
          e16_run ~k:2 ~ops ~part_ckpt:(Some 5.) ~seed:(2600 + ops)
            ~label:(Fmt.str "ops=%d k=2 pckpt" ops) report
        in
        bench :=
          (Fmt.str "E16 ttfull ms ops=%d k=2 pckpt" ops, 1000. *. m.ttfull)
          :: !bench)
      sizes
  end;
  Harness.Report.note report
    "per run: build a log of `ops` records at one daemon, SIGKILL it, \
     respawn immediately, probe with a Get during replay; ttfr = Restarted \
     -> probe's output commit, ttfull = Restarted -> Recovery_completed \
     (merged-trace wall clock).  pckpt rows arm incremental per-partition \
     checkpoints.  Every run oracle-certified: zero violations, risk <= K.";
  (report, List.rev !bench)
