type ack_latency = {
  acked : int;
  outstanding : int;
  p50 : float;
  p99 : float;
  max : float;
}

(* The tag is the output text's first token ("get:12", "mp:7"). *)
let tag_of_output text =
  match String.index_opt text ' ' with
  | Some i -> String.sub text 0 i
  | None -> text

(* Client-side ack latency, histogram-backed: injection times are recorded
   per tag, commits are matched from a merged trace, and each matched ack
   is a single [kv_ack_seconds] observation — the former full-trace rescan
   that re-sorted every sample per query is gone.  Pure over the issued
   table plus (epoch, time_scale), so the ingest/stats path is testable
   without a deployment. *)
module Latency = struct
  type t = {
    epoch : float;
    time_scale : float;
    issued : (string, float) Hashtbl.t;  (* output tag -> injection wall time *)
    acked_tags : (string, unit) Hashtbl.t;
    obs : Obs.Registry.t;
    hist : Obs.Histogram.t;
    c_issued : Obs.Counter.t;
    c_acked : Obs.Counter.t;
  }

  let create ?obs ~epoch ~time_scale () =
    let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
    {
      epoch;
      time_scale;
      issued = Hashtbl.create 256;
      acked_tags = Hashtbl.create 256;
      obs;
      hist = Obs.Registry.histogram obs "kv_ack_seconds";
      c_issued = Obs.Registry.counter obs "kv_issued_total";
      c_acked = Obs.Registry.counter obs "kv_acked_total";
    }

  let issue t ~tag ~at =
    if not (Hashtbl.mem t.issued tag) then begin
      Hashtbl.replace t.issued tag at;
      Obs.Counter.incr t.c_issued
    end

  (* Absorb every committed output in [trace] that answers a recorded
     injection and has not been counted yet; idempotent across repeated
     calls and across traces sharing a prefix (replayed duplicates of an
     output commit only count once, matching exactly-once ack
     semantics). *)
  let ingest t trace =
    List.iter
      (fun { Recovery.Trace.time; ev; _ } ->
        match ev with
        | Recovery.Trace.Output_committed { text; _ } -> (
          let tag = tag_of_output text in
          match Hashtbl.find_opt t.issued tag with
          | Some issued_at when not (Hashtbl.mem t.acked_tags tag) ->
            Hashtbl.replace t.acked_tags tag ();
            Obs.Counter.incr t.c_acked;
            Obs.Histogram.observe t.hist
              ((t.epoch +. (time *. t.time_scale)) -. issued_at)
          | _ -> ())
        | _ -> ())
      (Recovery.Trace.events trace)

  (* Percentiles are read from the histogram, so they are upper bucket
     bounds (within one power-of-two of the exact order statistic);
     acked/outstanding/max are exact. *)
  let stats t =
    let snap = Obs.Registry.snapshot t.obs in
    let q =
      match Obs.Snapshot.hist snap "kv_ack_seconds" with
      | Some h -> fun p -> Option.value ~default:Float.nan (Obs.Snapshot.quantile h p)
      | None -> fun _ -> Float.nan
    in
    let acked = Obs.Counter.value t.c_acked in
    {
      acked;
      outstanding = Obs.Counter.value t.c_issued - acked;
      p50 = q 50.;
      p99 = q 99.;
      max =
        (if acked = 0 then Float.nan else Obs.Histogram.max_value t.hist);
    }
end

type t = {
  dep : Net.Deployment.t;
  mutable ring : Ring.t;
  lat : Latency.t;
  mutable next_get : int;
  mutable next_mp : int;
}

let connect ?obs dep =
  {
    dep;
    ring = Ring.make ~shards:(Net.Deployment.n dep) ();
    lat =
      Latency.create ?obs ~epoch:(Net.Deployment.epoch dep)
        ~time_scale:(Net.Deployment.time_scale dep) ();
    next_get = 0;
    next_mp = 0;
  }

let latency t = t.lat

let ring t = t.ring

let key_of_rank r = Fmt.str "key-%d" r

let inject t ~dst msg =
  Net.Deployment.inject_app t.dep ~dst ~wire:Shard_app.wire msg

let put t ~key ~value =
  inject t ~dst:(Ring.owner t.ring key) (Shard_app.Put { key; value })

let get t ~key =
  let g = t.next_get in
  t.next_get <- g + 1;
  Latency.issue t.lat ~tag:(Fmt.str "get:%d" g) ~at:(Unix.gettimeofday ());
  inject t ~dst:(Ring.owner t.ring key) (Shard_app.Get { g; key })

let live_shards t =
  let retired = Net.Deployment.retired t.dep in
  List.filter
    (fun p -> not (List.mem p retired))
    (List.init (Net.Deployment.width t.dep) Fun.id)

(* Live membership drives the ring.  The joiner's own init ring is already
   [pid + 1] shards wide (config [n] counts it), but it knows nothing of
   earlier retirements; incumbents are the mirror image.  Both config
   messages are ordinary logged app messages, so every shard's ring stays
   a deterministic fold of its log and replay reproduces the routing. *)
let grow t =
  let pid = Net.Deployment.add_node t.dep in
  let w = Net.Deployment.width t.dep in
  List.iter
    (fun dst -> if dst <> pid then inject t ~dst (Shard_app.Grow { w }))
    (live_shards t);
  List.iter
    (fun shard -> inject t ~dst:pid (Shard_app.Retire_shard { shard }))
    (Net.Deployment.retired t.dep);
  t.ring <- Ring.grow t.ring ~shards:w;
  pid

let retire_shard t ~shard =
  (* Route away first — client and survivors drop the shard's points, so
     no new traffic can chase a process that is about to fall silent —
     then let the graceful leave flush and broadcast its final frontier. *)
  t.ring <- Ring.remove t.ring shard;
  List.iter
    (fun dst ->
      if dst <> shard then inject t ~dst (Shard_app.Retire_shard { shard }))
    (live_shards t);
  Net.Deployment.retire t.dep ~dst:shard

let multi_put t pairs =
  match pairs with
  | [] | [ _ ] -> invalid_arg "Service.multi_put: needs at least two pairs"
  | (key0, _) :: _ ->
    let m = t.next_mp in
    t.next_mp <- m + 1;
    Latency.issue t.lat ~tag:(Fmt.str "mp:%d" m) ~at:(Unix.gettimeofday ());
    inject t ~dst:(Ring.owner t.ring key0) (Shard_app.Multi_put { m; pairs })

let run_open_loop ?start t ops =
  let start = match start with Some s -> s | None -> Unix.gettimeofday () in
  List.iter
    (fun { Harness.Workload.at; kv } ->
      let due = start +. at in
      let now = Unix.gettimeofday () in
      if due > now then Unix.sleepf (due -. now);
      match kv with
      | Harness.Workload.Kv_get r -> get t ~key:(key_of_rank r)
      | Harness.Workload.Kv_put (r, v) -> put t ~key:(key_of_rank r) ~value:v
      | Harness.Workload.Kv_multi_put pairs ->
        multi_put t (List.map (fun (r, v) -> (key_of_rank r, v)) pairs))
    ops

(* ------------------------------------------------------------------ *)
(* E15                                                                 *)

let e15_plan =
  {
    Harness.Netmodel.loss = 0.03;
    duplicate = 0.03;
    reorder = 0.08;
    reorder_spread = 5.;
    partitions = [];
  }

(* One oracle-certified run: launch, drive the open-loop schedule with
   SIGKILLs spread through it, settle, merge + certify, and add a report
   row.  Returns (throughput, latency stats) for the caller's bench
   keys. *)
let e15_run ~shards ~k ~ops ~rate ~kills ~plan ~seed ~label report =
  (* Periodic logging-progress gossip is O(N^2) frames per flush interval;
     at 64 daemons on modest hardware the default 1 ms/unit clock floods
     every daemon's batches (and feeds the retransmission timers a storm
     of their own).  Large clusters therefore run the *abstract* clock 10x
     coarser — same protocol, same certification, gentler wall-clock
     timer rates; commit latencies simply reflect the scaled flush
     cadence. *)
  let time_scale =
    if shards >= 32 then 10. *. Recovery.Config.default_time_scale
    else Recovery.Config.default_time_scale
  in
  let t = Net.Deployment.launch ~n:shards ~k ~app:"shardkv" ~time_scale ?plan ~seed () in
  let faulted = kills <> [] || plan <> None in
  let r =
    Net.Deployment.run ~timeout:120. t (fun () ->
        let svc = connect t in
        let rng = Sim.Rng.create seed in
        let keys = Stdlib.max 50 (12 * shards) in
        let schedule = Harness.Workload.open_loop_kv ~rng ~ops ~keys ~rate () in
        (* Kills are spread through the schedule: split it into one segment
           per kill plus a tail, keeping one wall-clock origin so the
           arrival process stays open-loop across the interruptions. *)
        let segments = List.length kills + 1 in
        let seg_len = (ops + segments - 1) / segments in
        let rec split i = function
          | [] -> [ [] ]
          | sched ->
            let seg = List.filteri (fun j _ -> j < seg_len) sched in
            let rest = List.filteri (fun j _ -> j >= seg_len) sched in
            if i = 0 then [ sched ] else seg :: split (i - 1) rest
        in
        let segs = split (segments - 1) schedule in
        let t0 = Unix.gettimeofday () in
        List.iteri
          (fun i seg ->
            if i > 0 then Net.Deployment.kill t ~dst:(List.nth kills (i - 1));
            run_open_loop ~start:t0 svc seg)
          segs;
        (svc, t0))
  in
  let svc, t0 = r.Net.Deployment.value in
  (* Throughput counts the drain: the wall time runs to the end of [finish]. *)
  let elapsed = Unix.gettimeofday () -. t0 in
  let outcome = r.Net.Deployment.outcome in
  if not r.Net.Deployment.settled then
    Harness.Report.note report (Fmt.str "%s: settle timed out" label);
  Net.Deployment.certify ~report ~exp:"E15" ~label outcome;
  let o = outcome.Net.Deployment.oracle in
  Latency.ingest svc.lat outcome.Net.Deployment.trace;
  let stats = Latency.stats svc.lat in
  if not faulted then begin
    Net.Deployment.check_fault_free outcome;
    if stats.outstanding > 0 then
      failwith
        (Fmt.str "E15 %s: %d acks missing on a fault-free run" label stats.outstanding)
  end;
  let count = Obs.Snapshot.counter outcome.Net.Deployment.obs in
  let delivs = count "deliveries_total" in
  let throughput = float_of_int delivs /. elapsed in
  let ms v = 1000. *. v in
  Harness.Report.add_row report
    [
      string_of_int shards;
      string_of_int k;
      string_of_int (List.length kills);
      (if plan = None then "-" else "proxy");
      string_of_int ops;
      string_of_int stats.acked;
      string_of_int stats.outstanding;
      Harness.Report.cell_f throughput;
      Harness.Report.cell_f (ms stats.p50);
      Harness.Report.cell_f (ms stats.p99);
      string_of_int (count "transport_decode_errors_total");
      string_of_int (count "transport_frames_dropped_total");
      string_of_int o.Harness.Oracle.max_risk;
      string_of_int (List.length o.Harness.Oracle.violations);
    ];
  Durable.Temp.rm_rf (Net.Deployment.root t);
  (throughput, stats)

let experiment ?(smoke = false) () =
  let report =
    Harness.Report.create
      ~title:
        (if smoke then "E15-smoke: sharded KV service (live cluster)"
         else "E15: sharded KV service (live clusters, N = 16 and 64)")
      ~columns:
        [
          "shards"; "K"; "kills"; "net"; "ops"; "acked"; "outst"; "delivs/s";
          "p50ms"; "p99ms"; "dec_err"; "drops"; "risk"; "violations";
        ]
  in
  let bench = ref [] in
  let cluster ~shards ~k ~ops ~rate ~kills ~seed ~tag =
    let throughput, stats =
      e15_run ~shards ~k ~ops ~rate ~kills:[] ~plan:None ~seed
        ~label:(Fmt.str "n=%d baseline" shards) report
    in
    bench :=
      (Fmt.str "E15 kv ack p99 ms %s" tag, 1000. *. stats.p99)
      :: (Fmt.str "E15 kv ack p50 ms %s" tag, 1000. *. stats.p50)
      :: (Fmt.str "E15 kv delivs/s %s" tag, throughput)
      :: !bench;
    ignore
      (e15_run ~shards ~k ~ops ~rate ~kills ~plan:(Some e15_plan) ~seed:(seed + 1)
         ~label:(Fmt.str "n=%d faults" shards) report
        : float * ack_latency)
  in
  if smoke then
    cluster ~shards:4 ~k:1 ~ops:150 ~rate:150. ~kills:[ 1 ] ~seed:15
      ~tag:"n=4 k=1 (smoke)"
  else begin
    cluster ~shards:16 ~k:2 ~ops:600 ~rate:300. ~kills:[ 3; 11 ] ~seed:150
      ~tag:"n=16 k=2";
    cluster ~shards:64 ~k:2 ~ops:800 ~rate:300. ~kills:[ 5; 23; 47 ] ~seed:164
      ~tag:"n=64 k=2"
  end;
  Harness.Report.note report
    "baseline rows: benign network, no kills — must ack every tagged op with \
     zero decode errors (these rows feed BENCH_net.json); fault rows: \
     SIGKILLs + proxy loss/duplication/reordering, oracle-certified, measured \
     risk <= K.  Latency is injection -> output commit (the client-visible \
     ack under the K rule).";
  (report, List.rev !bench)
