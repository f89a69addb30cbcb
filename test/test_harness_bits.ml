(* Unit tests for the smaller harness and recovery pieces: report tables,
   the network model, workload generators, trace rendering and wire
   helpers. *)

open Util
module Wire = Recovery.Wire
module Trace = Recovery.Trace
module Config = Recovery.Config

(* --- Report ---------------------------------------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let demo_report () =
  let t = Harness.Report.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Harness.Report.add_row t [ "alpha"; "1" ];
  Harness.Report.add_row t [ "beta-long-cell"; "2" ];
  Harness.Report.note t "a footnote";
  t

let test_report_renders () =
  let rendered = Fmt.str "%a" Harness.Report.pp (demo_report ()) in
  Alcotest.(check bool) "title present" true (contains rendered "demo");
  Alcotest.(check bool) "row present" true (contains rendered "alpha");
  Alcotest.(check bool) "note present" true (contains rendered "a footnote")

let test_report_column_mismatch () =
  let t = Harness.Report.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Report.add_row: 1 cells for 2 columns in \"t\"") (fun () ->
      Harness.Report.add_row t [ "only-one" ])

let test_report_cells () =
  Alcotest.(check string) "float" "3.14" (Harness.Report.cell_f 3.14159);
  Alcotest.(check string) "nan" "-" (Harness.Report.cell_f Float.nan);
  Alcotest.(check string) "int" "42" (Harness.Report.cell_i 42);
  Alcotest.(check string) "pct" "12.5%" (Harness.Report.cell_pct 12.5);
  let s = Sim.Summary.create () in
  Alcotest.(check string) "empty summary" "-" (Harness.Report.cell_summary s);
  Sim.Summary.add s 2.;
  Alcotest.(check string) "summary" "2.00/2.00" (Harness.Report.cell_summary s)

(* --- Netmodel -------------------------------------------------------- *)

let timing = Config.default_timing

let net ~timing ?override ~n seed =
  Harness.Netmodel.create ~n ~timing ~rng:(Sim.Rng.create seed) ?override
    ~obs:(Obs.Registry.create ()) ()

let test_transit_after_now () =
  let net = net ~timing ~n:4 1 in
  for i = 1 to 50 do
    let now = float_of_int i in
    let arrival =
      Harness.Netmodel.transit net ~now ~src:0 ~dst:1 ~kind:"app" ~entries:3
    in
    if arrival < now then Alcotest.fail "arrival before send"
  done

let test_per_entry_overhead () =
  let timing = { timing with net_jitter = 0.0000001; per_entry_overhead = 1. } in
  let net = net ~timing ~n:2 1 in
  let small = Harness.Netmodel.transit net ~now:0. ~src:0 ~dst:1 ~kind:"app" ~entries:0 in
  let big = Harness.Netmodel.transit net ~now:0. ~src:0 ~dst:1 ~kind:"app" ~entries:10 in
  Alcotest.(check bool) "10 entries cost ~10 units more" true (big -. small > 9.5)

let test_fifo_monotone () =
  let timing = { timing with fifo = true; net_jitter = 50. } in
  let net = net ~timing ~n:2 3 in
  let last = ref 0. in
  for i = 0 to 30 do
    let arrival =
      Harness.Netmodel.transit net ~now:(float_of_int i) ~src:0 ~dst:1 ~kind:"app"
        ~entries:0
    in
    if arrival <= !last then Alcotest.fail "FIFO violated";
    last := arrival
  done

let test_override_wins () =
  let override ~src:_ ~dst:_ ~packet_kind = if packet_kind = "ann" then Some 99. else None in
  let net = net ~timing ~n:2 ~override 3 in
  let a = Harness.Netmodel.transit net ~now:1. ~src:0 ~dst:1 ~kind:"ann" ~entries:0 in
  Alcotest.(check (float 0.0001)) "override applied" 100. a;
  let b = Harness.Netmodel.transit net ~now:1. ~src:0 ~dst:1 ~kind:"app" ~entries:0 in
  Alcotest.(check bool) "model used otherwise" true (b < 10.)

let test_packet_accounting () =
  let obs = Obs.Registry.create () in
  let net = Harness.Netmodel.create ~n:2 ~timing ~rng:(Sim.Rng.create 3) ~obs () in
  ignore (Harness.Netmodel.transit net ~now:0. ~src:0 ~dst:1 ~kind:"app" ~entries:4);
  ignore (Harness.Netmodel.transit net ~now:0. ~src:1 ~dst:0 ~kind:"app" ~entries:1);
  ignore (Harness.Netmodel.transit net ~now:0. ~src:0 ~dst:1 ~kind:"ann" ~entries:0);
  let snap = Obs.Registry.snapshot obs in
  let packets kind =
    Obs.Snapshot.counter snap ~labels:[ ("kind", kind) ] "net_packets_total"
  in
  Alcotest.(check (list int)) "counts by kind" [ 1; 2; 0 ]
    [ packets "ann"; packets "app"; packets "notice" ];
  Alcotest.(check int) "entries carried" 5
    (Obs.Snapshot.counter snap "net_piggyback_entries_total")

(* --- Workload -------------------------------------------------------- *)

let test_workload_counts () =
  let config = Config.k_optimistic ~n:4 ~k:4 () in
  let c =
    Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~horizon:4000. ()
  in
  Harness.Workload.telecom c ~rng:(Sim.Rng.create 1) ~calls:25 ~hops:2 ~start:5.
    ~rate:2.;
  Harness.Cluster.run c;
  Alcotest.(check int) "each call commits one output" 25
    (Util.total (Harness.Cluster.stats c) "outputs_committed")

let test_failure_schedule_in_window () =
  let config = Config.k_optimistic ~n:4 ~k:4 () in
  let c =
    Harness.Cluster.create ~config ~app:App_model.Counter_app.app ~horizon:300. ()
  in
  Harness.Workload.random_failures c ~rng:(Sim.Rng.create 5) ~count:3
    ~window:(10., 100.);
  Harness.Cluster.run c;
  (* All crashes land inside the horizon, so every one produced a restart
     (unless two hit the same down process, which the seed avoids). *)
  Alcotest.(check bool) "restarts happened" true
    (Util.total (Harness.Cluster.stats c) "restarts" >= 1)

(* --- Trace / Wire ---------------------------------------------------- *)

let test_trace_order_and_length () =
  let tr = Trace.create () in
  Trace.add tr ~time:2. (Trace.Notice_sent { pid = 0; entries = 1 });
  Trace.add tr ~time:1. (Trace.Notice_sent { pid = 1; entries = 2 });
  Alcotest.(check int) "length" 2 (Trace.length tr);
  match Trace.events tr with
  | [ a; b ] ->
    (* insertion order, not time order: the trace is an append log *)
    Alcotest.(check (float 0.0)) "first" 2. a.Trace.time;
    Alcotest.(check (float 0.0)) "second" 1. b.Trace.time
  | _ -> Alcotest.fail "expected two entries"

let test_trace_pp_smoke () =
  let tr = Trace.create () in
  Trace.add tr ~time:1.
    (Trace.Interval_started
       {
         pid = 0;
         interval = e ~inc:0 ~sii:2;
         pred = Some (e ~inc:0 ~sii:1);
         by = None;
         sender_interval = None;
         digest = 0;
         replay = true;
       });
  Trace.add tr ~time:2.
    (Trace.Crashed { pid = 1; first_lost = Some (e ~inc:0 ~sii:5) });
  let s = Fmt.str "%a" Trace.dump tr in
  Alcotest.(check bool) "mentions replay" true (contains s "replay");
  Alcotest.(check bool) "mentions loss" true (contains s "loses from")

let test_wire_helpers () =
  Alcotest.(check string) "packet kinds" "app,ann,notice,ack,flush-req,dep-query,dep-reply"
    (String.concat ","
       (List.map Wire.packet_kind
          [
            Wire.App
              {
                Wire.id = { Wire.origin = 0; origin_interval = e ~inc:0 ~sii:1; idx = 0 };
                src = 0;
                dst = 1;
                send_interval = e ~inc:0 ~sii:1;
                dep = [];
                payload = ();
                epoch = 0;
                cseq = 0;
              };
            Wire.Ann { Wire.from_ = 0; ending = e ~inc:0 ~sii:1; failure = true };
            Wire.Notice { Wire.from_ = 0; rows = []; anns = []; floor = e ~inc:0 ~sii:0 };
            Wire.Ack { Wire.from_ = 0; to_ = 1; ids = [] };
            Wire.Flush_request { from_ = 0 };
            Wire.Dep_query { from_ = 0; intervals = [] };
            Wire.Dep_reply { from_ = 0; infos = [] };
          ]));
  let notice =
    {
      Wire.from_ = 0;
      rows = [ (1, [ e ~inc:0 ~sii:1 ]); (2, [ e ~inc:0 ~sii:1; e ~inc:1 ~sii:2 ]) ];
      anns = [];
      floor = e ~inc:0 ~sii:0;
    }
  in
  Alcotest.(check int) "notice entries" 3 (Wire.notice_entry_count notice);
  let gossiping =
    {
      notice with
      Wire.anns = [ { Wire.from_ = 1; ending = e ~inc:0 ~sii:4; failure = true } ];
    }
  in
  Alcotest.(check int) "gossiped announcements count as entries" 4
    (Wire.notice_entry_count gossiping)

let test_experiment_registry () =
  Alcotest.(check bool) "figure1 registered" true
    (Harness.Experiments.by_name "figure1" <> None);
  Alcotest.(check bool) "unknown rejected" true
    (Harness.Experiments.by_name "nope" = None);
  Alcotest.(check bool) "exhaustive registered" true
    (Harness.Experiments.by_name "exhaustive" <> None);
  Alcotest.(check int) "fifteen experiments" 15 (List.length Harness.Experiments.names)

let suite =
  [
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "report column mismatch" `Quick test_report_column_mismatch;
    Alcotest.test_case "report cells" `Quick test_report_cells;
    Alcotest.test_case "transit never before now" `Quick test_transit_after_now;
    Alcotest.test_case "per-entry overhead" `Quick test_per_entry_overhead;
    Alcotest.test_case "fifo monotone" `Quick test_fifo_monotone;
    Alcotest.test_case "override wins" `Quick test_override_wins;
    Alcotest.test_case "packet accounting" `Quick test_packet_accounting;
    Alcotest.test_case "telecom workload counts" `Slow test_workload_counts;
    Alcotest.test_case "failure schedule in window" `Quick test_failure_schedule_in_window;
    Alcotest.test_case "trace order and length" `Quick test_trace_order_and_length;
    Alcotest.test_case "trace pp smoke" `Quick test_trace_pp_smoke;
    Alcotest.test_case "wire helpers" `Quick test_wire_helpers;
    Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
  ]
