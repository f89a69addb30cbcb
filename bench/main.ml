(* Benchmark harness.

   Two layers, mirroring EXPERIMENTS.md:

   1. The macro tables (F1, T*, E1–E7): every figure/claim of the paper is
      regenerated as a measured table by the experiment suite.  The oracle
      certifies each run, so a printed table implies a correct execution.
   2. Micro-benchmarks (B1–B9, B13, Bechamel): cost of the protocol's hot
      data structures, of one protocol step and of a restart, which is
      what the paper's "failure-free overhead" and recovery are made of;
      and two exact counts: B14, the synchronous area's fsyncs per output
      a flush commits, and B15, the heap words per entry of the
      exactly-once tables; and B16, the time and exact size of a Stats
      scrape's snapshot.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- micro   # micro-benchmarks only
     dune exec bench/main.exe -- macro   # experiment tables only
*)

open Depend
module Config = Recovery.Config
module Node = Recovery.Node

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)

let e = Entry.make

let vector_pair n =
  let a = Dep_vector.create ~n and b = Dep_vector.create ~n in
  for j = 0 to n - 1 do
    if j mod 2 = 0 then Dep_vector.set a j (Some (e ~inc:(j mod 3) ~sii:j));
    if j mod 3 = 0 then Dep_vector.set b j (Some (e ~inc:(j mod 2) ~sii:(j + 1)))
  done;
  (a, b)

let bench_merge n =
  let a, b = vector_pair n in
  Bechamel.Test.make
    ~name:(Fmt.str "B1 dep_vector.merge_max n=%d" n)
    (Bechamel.Staged.stage (fun () ->
         let into = Dep_vector.copy a in
         Dep_vector.merge_max ~into b))

let bench_elide n =
  let a, _ = vector_pair n in
  let stable j (x : Entry.t) = (j + x.sii) mod 2 = 0 in
  Bechamel.Test.make
    ~name:(Fmt.str "B2 dep_vector.elide_stable n=%d" n)
    (Bechamel.Staged.stage (fun () ->
         let v = Dep_vector.copy a in
         ignore (Dep_vector.elide_stable v ~stable : int)))

let bench_entry_set () =
  let set =
    Entry_set.of_entries (List.init 6 (fun i -> e ~inc:i ~sii:(10 * (i + 1))))
  in
  Bechamel.Test.make ~name:"B3 entry_set insert+covers+orphans"
    (Bechamel.Staged.stage (fun () ->
         let set = Entry_set.insert set (e ~inc:3 ~sii:37) in
         ignore (Entry_set.covers set (e ~inc:3 ~sii:35) : bool);
         ignore (Entry_set.orphans set (e ~inc:2 ~sii:25) : bool)))

let bench_node_step () =
  (* Cost of one full protocol step: receive -> deliver -> send release. *)
  let config = Config.k_optimistic ~n:8 ~k:4 () in
  Bechamel.Test.make ~name:"B4 node: deliver+release step (x16)"
    (Bechamel.Staged.stage (fun () ->
         let trace = Recovery.Trace.create () in
         let node =
           Node.create_on ~fs:(Durable.Fs.mem ()) ~config ~pid:0 ~app:App_model.Counter_app.app
             ~store_dir:"store" ?obs:None ~trace
         in
         for seq = 1 to 16 do
           ignore
             (Node.inject node ~now:(float_of_int seq) ~seq
                (App_model.Counter_app.Forward { dst = 1; amount = seq }))
         done))

let bench_crash_recovery () =
  let config = Config.k_optimistic ~n:8 ~k:4 () in
  Bechamel.Test.make ~name:"B5 node: crash + replay of 32 deliveries"
    (Bechamel.Staged.stage (fun () ->
         let trace = Recovery.Trace.create () in
         let fs = Durable.Fs.mem () in
         let create () =
           Node.create_on ~fs ~config ~pid:0 ~app:App_model.Counter_app.app ~store_dir:"store"
             ?obs:None ~trace
         in
         let node = create () in
         for seq = 1 to 32 do
           ignore
             (Node.inject node ~now:(float_of_int seq) ~seq (App_model.Counter_app.Add seq))
         done;
         ignore (Node.flush node ~now:40.);
         Node.halt node ~now:41.;
         ignore (Node.restart_begin (create ()) ~now:42.)))

(* B5, durable: the daemon's respawn — open-time recovery plus Restart —
   over a store holding 5,000 logged deliveries (ten-record flushes, a
   checkpoint every 250: several 64 KiB segments and 21 checkpoint files).
   Each run kills the node's store and reopens it from its files.  Besides
   the time, [restart_words] records the words one restart promotes to
   the major heap per logged delivery, which [check] bounds: open checks
   the files in place and the restart decodes the newest checkpoint, whose
   saved duplicate-suppression state stands for every delivery before
   it, and reads only the log after it. *)
let restart_name = "B5 node: durable restart over 5,000 logged deliveries"

let restart_words_name = restart_name ^ " (promoted words/record)"

let restart_records = 5_000

(* The bound of test_durable's "restart promotes bounded words per logged
   record". *)
let restart_words_bound = 25.

let restart_node =
  lazy
    (let config = Config.k_optimistic ~n:4 ~k:2 () in
     let dir = Durable.Temp.fresh_dir ~prefix:"bench-b5" () in
     at_exit (fun () -> Durable.Temp.rm_rf dir);
     let trace = Recovery.Trace.create () in
     let create () =
       Node.create ~config ~pid:0 ~app:App_model.Counter_app.app ~store_dir:dir ?obs:None
         ~trace
     in
     let node = create () in
     for i = 1 to restart_records do
       let now = float_of_int i in
       ignore (Node.inject node ~now ~seq:i ~cseq:(i - 1) (App_model.Counter_app.Add i));
       if i mod 10 = 0 then ignore (Node.flush node ~now);
       if i mod 250 = 0 then ignore (Node.checkpoint node ~now)
     done;
     (ref node, create))

let respawn () =
  let node, create = Lazy.force restart_node in
  Node.halt !node ~now:0.;
  node := create ();
  ignore (Node.restart_begin !node ~now:0.)

let bench_durable_restart () =
  Bechamel.Test.make ~name:restart_name (Bechamel.Staged.stage respawn)

let restart_words () =
  ignore (Lazy.force restart_node);
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  respawn ();
  Gc.minor ();
  ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int restart_records

let oracle_trace =
  lazy
    (let config = Config.k_optimistic ~n:6 ~k:2 () in
     let cluster =
       Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:3
         ~horizon:2000. ()
     in
     let rng = Sim.Rng.create 5 in
     Harness.Workload.telecom cluster ~rng ~calls:40 ~hops:3 ~start:10. ~rate:2.;
     Harness.Cluster.crash_at cluster ~time:30. ~pid:2;
     Harness.Cluster.run cluster;
     Harness.Cluster.trace cluster)

let bench_oracle () =
  let trace = Lazy.force oracle_trace in
  Bechamel.Test.make ~name:"B6 oracle: full causality check of a run"
    (Bechamel.Staged.stage (fun () ->
         ignore (Harness.Oracle.check ~k:2 ~n:6 trace : Harness.Oracle.report)))

(* B7: the sender-side retransmission archive.  The former implementation
   was a newest-first list whose per-ack removal scanned the whole archive
   (O(n^2) over a run); Recovery.Archive keys by identity. *)
let archive_msgs =
  lazy
    (List.init 512 (fun i ->
         {
           Recovery.Wire.id =
             { Recovery.Wire.origin = 0; origin_interval = e ~inc:0 ~sii:1; idx = i };
           src = 0;
           dst = 1;
           send_interval = e ~inc:0 ~sii:1;
           dep = [];
           payload = ();
           epoch = 0;
           cseq = i;
         }))

let bench_archive_list () =
  let msgs = Lazy.force archive_msgs in
  let ids = List.map (fun m -> m.Recovery.Wire.id) msgs in
  Bechamel.Test.make ~name:"B7 archive: 512 releases + 512 acks (list)"
    (Bechamel.Staged.stage (fun () ->
         let store = ref [] in
         List.iter (fun m -> store := m :: !store) msgs;
         List.iter
           (fun id -> store := List.filter (fun m -> m.Recovery.Wire.id <> id) !store)
           ids))

let bench_archive_keyed () =
  let msgs = Lazy.force archive_msgs in
  let ids = List.map (fun m -> m.Recovery.Wire.id) msgs in
  Bechamel.Test.make ~name:"B7 archive: 512 releases + 512 acks (keyed)"
    (Bechamel.Staged.stage (fun () ->
         let a = Recovery.Archive.create () in
         List.iter (fun m -> Recovery.Archive.add a m) msgs;
         List.iter (fun id -> Recovery.Archive.remove a id) ids))

(* B8: durable record codec, encode + decode of a fixed volume per run.
   64 records of 1 KiB = 65536 payload bytes each way; MB/s follows from
   the ns/run estimate (bytes / ns * 1000 ≈ MB/s). *)
let codec_payload_bytes = 65536

let bench_codec () =
  let payload = String.init 1024 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let records = codec_payload_bytes / String.length payload in
  Bechamel.Test.make
    ~name:(Fmt.str "B8 codec: encode+decode %d KiB" (codec_payload_bytes / 1024))
    (Bechamel.Staged.stage (fun () ->
         let buf = Buffer.create (codec_payload_bytes + (records * 16)) in
         for _ = 1 to records do
           Durable.Codec.encode_into buf ~kind:0x4C payload
         done;
         let s = Buffer.contents buf in
         let pos = ref 0 in
         let continue = ref true in
         while !continue do
           match Durable.Codec.decode s ~pos:!pos with
           | Durable.Codec.Record { next; _ } -> pos := next
           | Durable.Codec.End -> continue := false
           | Durable.Codec.Truncated | Durable.Codec.Corrupt ->
             failwith "B8: codec round-trip corrupted"
         done))

(* B9: cost of one batched durable flush — 8 log records made stable with a
   single fsync, then the buffered stable-length witness write (no fsync of
   its own).  This is the real-file price of the paper's one stable-storage
   operation per flush. *)
let bench_durable_flush () =
  let store =
    lazy
      (let dir = Durable.Temp.fresh_dir ~prefix:"bench-b9" () in
       at_exit (fun () -> Durable.Temp.rm_rf dir);
       let store = Durable.Durable_store.open_ ~fs:Durable.Fs.unix ~dir () in
       (store : (unit, string, unit, unit) Durable.Durable_store.t))
  in
  let payload = String.make 64 'x' in
  Bechamel.Test.make ~name:"B9 durable store: flush of 8 records (fsync)"
    (Bechamel.Staged.stage (fun () ->
         let store = Lazy.force store in
         for _ = 1 to 8 do
           Durable.Durable_store.append_volatile store payload
         done;
         ignore (Durable.Durable_store.flush store : int)))

(* B14: fsyncs of the synchronous area per committed output, counted
   exactly on the in-memory tree.  Fifty flushes each commit eight
   outputs (Counter's [Report]); every fsync a flush issues is counted at
   [before_fsync], less the log's (its [flush_rounds_total]).  A step's
   output-commit records share one fsync, so this reads 1/8; one fsync
   per record reads 1.  [check] recomputes it and fails it above
   [sync_fsyncs_bound]. *)
let sync_fsyncs_name = "B14 durable: sync-area fsyncs per committed output"

let sync_fsyncs_bound = 0.25

let sync_fsyncs_per_output () =
  let tree = Durable.Fs.Mem.create () in
  let node =
    Node.create_on ~fs:(Durable.Fs.Mem.fs tree) ~config:(Config.k_optimistic ~n:4 ~k:2 ())
      ~pid:0 ~app:App_model.Counter_app.app ~store_dir:"store" ?obs:None
      ~trace:(Recovery.Trace.create ())
  in
  let counter name = Obs.Snapshot.counter (Obs.Registry.snapshot (Node.obs node)) name in
  let fsyncs = ref 0 and seq = ref 0 in
  let rounds0 = counter "flush_rounds_total" and outputs0 = counter "outputs_committed_total" in
  for _ = 1 to 50 do
    for _ = 1 to 8 do
      incr seq;
      ignore
        (Node.inject node ~now:(float_of_int !seq) ~seq:!seq ~cseq:(!seq - 1)
           App_model.Counter_app.Report)
    done;
    Durable.Fs.Mem.before_fsync tree (fun () -> incr fsyncs);
    ignore (Node.flush node ~now:(float_of_int !seq));
    Durable.Fs.Mem.before_fsync tree ignore
  done;
  let outputs = counter "outputs_committed_total" - outputs0 in
  if outputs = 0 then failwith "B14: no output committed";
  float_of_int (!fsyncs - (counter "flush_rounds_total" - rounds0)) /. float_of_int outputs

(* B15: heap words per entry of the exactly-once tables (released sends,
   committed outputs, committed deliveries held by identity), exact on
   two in-memory nodes.  P0 takes [id_words_ops] numbered injections that
   each forward one message to P1 and as many that each output; one flush
   releases and commits all of it, and P0's notice lets P1's flush commit
   its deliveries.  No checkpoint is taken, so neither anchor moves: P0
   ends with that many released and committed entries and P1 with that
   many held (P0's floor is 0, so none folds).  Reachable words of the
   tables over their entries: one hash-table cell and a share of the
   bucket array with packed identities (~4.6), ~12 with a record key per
   entry.  [check] recomputes it and fails it above [id_words_bound]. *)
let id_words_name = "B15 recovery: duplicate-suppression words per entry"

let id_words_bound = 8.

let id_words_ops = 1_000

let id_words_per_entry () =
  let config = Config.k_optimistic ~n:2 ~k:2 () in
  let node pid =
    Node.create_on ~fs:(Durable.Fs.Mem.fs (Durable.Fs.Mem.create ())) ~config ~pid
      ~app:App_model.Counter_app.app ~store_dir:"store" ?obs:None
      ~trace:(Recovery.Trace.create ())
  in
  let p0 = node 0 and p1 = node 1 in
  let now = 1. in
  let to_p1 (actions, _) =
    List.iter
      (function
        | Node.Unicast { dst = 1; packet } -> ignore (Node.handle_packet p1 ~now packet)
        | Node.Unicast _ | Node.Broadcast _ -> ())
      actions
  in
  for i = 0 to id_words_ops - 1 do
    to_p1
      (Node.inject p0 ~now ~seq:((2 * i) + 1) ~cseq:(2 * i)
         (App_model.Counter_app.Forward { dst = 1; amount = 1 }));
    ignore (Node.inject p0 ~now ~seq:((2 * i) + 2) ~cseq:((2 * i) + 1) App_model.Counter_app.Report)
  done;
  to_p1 (Node.flush p0 ~now);
  Option.iter
    (fun n -> ignore (Node.handle_packet p1 ~now (Recovery.Wire.Notice n)))
    (Node.current_notice p0);
  ignore (Node.flush p1 ~now);
  let entries node =
    let held, released, committed = Node.id_table_sizes node in
    held + released + committed
  in
  let total = entries p0 + entries p1 in
  if total <> 3 * id_words_ops then
    failwith (Fmt.str "B15: %d table entries, expected %d" total (3 * id_words_ops));
  float_of_int (Node.id_table_words p0 + Node.id_table_words p1) /. float_of_int total

(* B13: the observability plane's hot path — one counter bump and one
   histogram observation, the per-event price of leaving the registry
   always on (the daemon pays it per delivered frame and per timed
   phase).  64 operations per run so the Staged closure overhead is
   amortised; the per-op figure is the estimate divided by 64, which the
   [check] mode guards. *)
let b13_ops = 64

let bench_obs_counter () =
  let obs = Obs.Registry.create () in
  let c = Obs.Registry.counter obs "bench_total" in
  Bechamel.Test.make
    ~name:(Fmt.str "B13 obs: counter incr (x%d)" b13_ops)
    (Bechamel.Staged.stage (fun () ->
         for _ = 1 to b13_ops do
           Obs.Counter.incr c
         done))

let bench_obs_histogram () =
  let obs = Obs.Registry.create () in
  let h = Obs.Registry.histogram obs "bench_seconds" in
  Bechamel.Test.make
    ~name:(Fmt.str "B13 obs: histogram observe (x%d)" b13_ops)
    (Bechamel.Staged.stage (fun () ->
         for i = 1 to b13_ops do
           Obs.Histogram.observe h (float_of_int i *. 1.3e-6)
         done))

(* B16: the cost of a scrape.  A daemon encodes its registry's snapshot
   in the Stats reply's form and its driver decodes it; B16 times the
   pair, and counts the encoded bytes per series exactly, for registries
   of 100 and 1,000 series in a daemon's mix: of every ten series six
   counters, two gauges and two histograms with six non-empty buckets,
   a third of them labelled.  [check] recomputes the bytes and fails them
   above [scrape_bytes_bound]. *)
let scrape_sizes = [ 100; 1_000 ]

let scrape_name n = Fmt.str "B16 obs: snapshot encode+decode (%d series)" n

let scrape_bytes_name n = Fmt.str "B16 obs: snapshot bytes per series (%d series)" n

let scrape_bytes_bound = 96.

let scrape_snapshot n =
  let obs = Obs.Registry.create () in
  for i = 0 to n - 1 do
    let labels = if i mod 3 = 0 then [ ("phase", Fmt.str "p%d" (i mod 4)) ] else [] in
    match i mod 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
      Obs.Counter.add (Obs.Registry.counter obs ~labels (Fmt.str "series_%d_total" i)) (i * 7919)
    | 6 | 7 ->
      Obs.Gauge.set
        (Obs.Registry.gauge obs ~labels (Fmt.str "series_%d_bytes" i))
        (float_of_int i *. 4096.5)
    | _ ->
      let h = Obs.Registry.histogram obs ~labels (Fmt.str "series_%d_seconds" i) in
      for k = 1 to 40 do
        Obs.Histogram.observe h (1e-5 *. Float.ldexp 1.3 (k mod 6))
      done
  done;
  Obs.Registry.snapshot obs

let scrape_bytes_per_series n =
  let bytes = String.length (Durable.Form.encode Net.Wire_codec.snapshot (scrape_snapshot n)) in
  float_of_int bytes /. float_of_int n

let bench_scrape n =
  let snap = scrape_snapshot n in
  Bechamel.Test.make ~name:(scrape_name n)
    (Bechamel.Staged.stage (fun () ->
         match
           Durable.Form.decode Net.Wire_codec.snapshot
             (Durable.Form.encode Net.Wire_codec.snapshot snap)
         with
         | Ok _ -> ()
         | Error e -> failwith ("B16: " ^ e)))

let micro_tests () =
  [
    bench_merge 8;
    bench_merge 32;
    bench_elide 32;
    bench_entry_set ();
    bench_node_step ();
    bench_crash_recovery ();
    bench_durable_restart ();
    bench_oracle ();
    bench_archive_list ();
    bench_archive_keyed ();
    bench_codec ();
    bench_durable_flush ();
    bench_obs_counter ();
    bench_obs_histogram ();
  ]
  @ List.map bench_scrape scrape_sizes

let run_micro () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  Fmt.pr "== Micro-benchmarks (Bechamel, ns/run) ==@.";
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Some est
            | Some _ | None -> None
          in
          rows := (name, estimate) :: !rows)
        results)
    (micro_tests ());
  let words = restart_words () in
  let sync_fsyncs = sync_fsyncs_per_output () in
  let id_words = id_words_per_entry () in
  let scrape_bytes = List.map (fun n -> (scrape_bytes_name n, scrape_bytes_per_series n)) scrape_sizes in
  (* Hashtbl.iter order is nondeterministic; sort so runs are comparable. *)
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  List.iter
    (fun (name, estimate) ->
      Fmt.pr "%-45s %s@." name
        (match estimate with
        | Some est -> Fmt.str "%12.1f ns/run" est
        | None -> "n/a"))
    rows;
  Fmt.pr "%-45s %12.1f words@." restart_words_name words;
  Fmt.pr "%-45s %12.3f@." sync_fsyncs_name sync_fsyncs;
  Fmt.pr "%-45s %12.3f@." id_words_name id_words;
  List.iter (fun (name, bytes) -> Fmt.pr "%-45s %12.3f bytes@." name bytes) scrape_bytes;
  let exact = sync_fsyncs_name :: id_words_name :: List.map fst scrape_bytes in
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      ((restart_words_name, Some words)
      :: (sync_fsyncs_name, Some sync_fsyncs)
      :: (id_words_name, Some id_words)
      :: List.map (fun (name, bytes) -> (name, Some bytes)) scrape_bytes
      @ rows)
  in
  let oc = open_out "BENCH_micro.json" in
  let field (name, estimate) =
    Fmt.str "  %S: %s" name
      (match estimate with
      | Some est when List.mem name exact -> Fmt.str "%.3f" est
      | Some est -> Fmt.str "%.1f" est
      | None -> "null")
  in
  output_string oc ("{\n" ^ String.concat ",\n" (List.map field rows) ^ "\n}\n");
  close_out oc;
  Fmt.pr "@.wrote BENCH_micro.json@.@."

(* ------------------------------------------------------------------ *)
(* Network benchmarks (B10/B11) -> BENCH_net.json                      *)

(* B10: the TCP wire codec — encode+decode of a representative app packet
   (8 dependency entries, 128-byte payload) through the full frame path
   (header, CRC, payload codec), 64 packets per run. *)
let bench_wire_codec () =
  let swf = App_model.App_intf.string_wire_format in
  let packet =
    Recovery.Wire.App
      {
        Recovery.Wire.id =
          { Recovery.Wire.origin = 3; origin_interval = e ~inc:1 ~sii:42; idx = 2 };
        src = 3;
        dst = 5;
        send_interval = e ~inc:1 ~sii:42;
        dep = List.init 8 (fun j -> (j, e ~inc:(j mod 3) ~sii:(10 + j)));
        payload = String.init 128 (fun i -> Char.chr ((i * 17) land 0xff));
        epoch = 1;
        cseq = 42;
      }
  in
  Bechamel.Test.make ~name:"B10 wire codec: encode+decode 64 app packets"
    (Bechamel.Staged.stage (fun () ->
         for _ = 1 to 64 do
           let frame = Net.Wire_codec.encode_packet swf packet in
           match Net.Wire_codec.decode_packet swf frame with
           | Ok _ -> ()
           | Error err -> failwith ("B10: decode failed: " ^ err)
         done))

let run_b10 rows =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance (Benchmark.all cfg [ instance ] (bench_wire_codec ())) in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        Fmt.pr "%-45s %12.1f ns/run@." name est;
        rows := (name, est) :: !rows
      | Some _ | None -> ())
    results

(* B11: real loopback deployment — delivered-message throughput and mean
   output-commit latency as a function of K, benign network (the proxy and
   kill costs are E14's subject; this is the failure-free wire price). *)
let run_b11 rows =
  let n = 3 in
  let ops = 150 in
  List.iter
    (fun k ->
      let t = Net.Deployment.launch ~n ~k ~seed:(50 + k) () in
      let r =
        Net.Deployment.run t (fun () ->
            let t0 = Unix.gettimeofday () in
            Net.Deployment.run_workload t ~ops ~seed:21;
            t0)
      in
      let elapsed = r.Net.Deployment.settled_at -. r.Net.Deployment.value in
      let outcome = r.Net.Deployment.outcome in
      if outcome.Net.Deployment.oracle.Harness.Oracle.violations <> [] then
        failwith "B11: oracle violations in a benign run";
      let delivs = Obs.Snapshot.counter outcome.Net.Deployment.obs "deliveries_total" in
      (* Mean output-commit latency from the cluster-merged snapshot's
         [output_latency] histogram — sum and count are exact (the
         daemons rebuild the histogram from raw samples at collect), in
         abstract units (ms at the default time scale). *)
      let lat_count, lat_total =
        match
          Obs.Snapshot.hist outcome.Net.Deployment.obs "output_latency"
        with
        | Some h -> (Obs.Snapshot.hist_count h, h.Obs.Snapshot.sum)
        | None -> (0, 0.)
      in
      let throughput = float_of_int delivs /. elapsed in
      Fmt.pr "B11 k=%d: %d deliveries in %.2f s (%.0f delivs/s)" k delivs elapsed
        throughput;
      rows := (Fmt.str "B11 loopback delivs/s k=%d n=%d" k n, throughput) :: !rows;
      if lat_count > 0 then begin
        let mean = lat_total /. float_of_int lat_count in
        Fmt.pr ", output commit %.1f ms mean" mean;
        rows := (Fmt.str "B11 output commit latency ms k=%d n=%d" k n, mean) :: !rows
      end;
      Fmt.pr "@.";
      Durable.Temp.rm_rf (Net.Deployment.root t))
    [ 0; 1; n ]

(* B12: the same loopback cluster, driven open-loop (no pacing sleeps) —
   measures the batched hot path end to end: one fsync per batch flush,
   coalesced wire writes, per-batch eager flushes and piggybacked notices.  Reports
   delivered-message throughput plus output-commit p50/p99 from the merged
   trace (every 8th injection is a Get, whose reply is a 0-optimistic
   output). *)
let output_latencies (trace : Recovery.Trace.t) =
  List.filter_map
    (fun (e : Recovery.Trace.entry) ->
      match e.Recovery.Trace.ev with
      | Recovery.Trace.Output_committed { latency; _ } -> Some latency
      | _ -> None)
    (Recovery.Trace.events trace)

let percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.round (p /. 100. *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) idx))

let b12_run ~n ~k ~ops ~seed =
  let t = Net.Deployment.launch ~n ~k ~seed () in
  let r =
    Net.Deployment.run t (fun () ->
        let t0 = Unix.gettimeofday () in
        for i = 0 to ops - 1 do
          let key = Fmt.str "key%d" (i mod 17) in
          let msg =
            if i mod 8 = 7 then App_model.Kvstore_app.Get key
            else App_model.Kvstore_app.Put { key; value = i * 37 }
          in
          Net.Deployment.inject t ~dst:(i mod n) msg
        done;
        t0)
  in
  (* Throughput runs to the end of the settle, not through the drain. *)
  let elapsed = r.Net.Deployment.settled_at -. r.Net.Deployment.value in
  let outcome = r.Net.Deployment.outcome in
  if outcome.Net.Deployment.oracle.Harness.Oracle.violations <> [] then
    failwith "B12: oracle violations in a benign run";
  let delivs = Obs.Snapshot.counter outcome.Net.Deployment.obs "deliveries_total" in
  let lats =
    output_latencies outcome.Net.Deployment.trace
    |> List.sort compare |> Array.of_list
  in
  Durable.Temp.rm_rf (Net.Deployment.root t);
  (float_of_int delivs /. elapsed, lats, delivs)

let run_b12 rows =
  let n = 4 in
  let ops = 9600 in
  List.iter
    (fun k ->
      let throughput, lats, delivs = b12_run ~n ~k ~ops ~seed:(60 + k) in
      Fmt.pr "B12 k=%d: %d deliveries (%.0f delivs/s)" k delivs throughput;
      rows := (Fmt.str "B12 batched delivs/s k=%d n=%d" k n, throughput) :: !rows;
      if Array.length lats > 0 then begin
        let p50 = percentile lats 50. in
        let p99 = percentile lats 99. in
        Fmt.pr ", output commit p50 %.1f / p99 %.1f ms" p50 p99;
        rows :=
          (Fmt.str "B12 output p50 ms k=%d n=%d" k n, p50)
          :: (Fmt.str "B12 output p99 ms k=%d n=%d" k n, p99)
          :: !rows
      end;
      Fmt.pr "@.")
    [ 0; 2; 4 ]

(* CI tripwire, not a perf gate: a reduced open-loop run that must stay
   oracle-clean, commit outputs, and clear a floor far below what the
   batched path delivers on any machine — it only trips if batching
   collapses back to per-event durability. *)
let run_b12_smoke () =
  Fmt.pr "== B12 smoke (batched hot path, reduced size) ==@.";
  let throughput, lats, delivs = b12_run ~n:3 ~k:2 ~ops:400 ~seed:62 in
  Fmt.pr "B12 smoke: %d deliveries, %.0f delivs/s, %d output latency points@."
    delivs throughput (Array.length lats);
  if Array.length lats = 0 then failwith "B12 smoke: no outputs committed";
  if throughput < 500. then
    failwith (Fmt.str "B12 smoke: throughput collapsed (%.0f delivs/s)" throughput)

let run_net () =
  Fmt.pr "== Network benchmarks (B10 wire codec, B11/B12 loopback cluster) ==@.";
  let rows = ref [] in
  run_b10 rows;
  run_b11 rows;
  run_b12 rows;
  (* Merge, not overwrite: BENCH_net.json is shared with the E15 keys
     written by `experiments kv`. *)
  Harness.Report.merge_bench "BENCH_net.json" !rows;
  Fmt.pr "@.wrote BENCH_net.json@.@."

(* CI tripwire over the shared bench file: the E15 smoke keys (written by
   `experiments kv --smoke` earlier in the CI run) must exist and clear a
   floor far below any plausible machine, and the committed full-run E15
   keys must not silently vanish. *)
let run_check_net_floors () =
  let entries = Harness.Report.load_bench "BENCH_net.json" in
  let find key =
    match List.assoc_opt key entries with
    | Some v -> v
    | None -> failwith (Fmt.str "BENCH_net.json: missing key %S" key)
  in
  let smoke_key = "E15 kv delivs/s n=4 k=1 (smoke)" in
  let smoke = find smoke_key in
  if smoke < 50. then
    failwith (Fmt.str "%s: throughput collapsed (%.1f delivs/s)" smoke_key smoke);
  List.iter
    (fun key ->
      if find key <= 0. then failwith (Fmt.str "%s: non-positive" key))
    [ "E15 kv delivs/s n=16 k=2"; "E15 kv delivs/s n=64 k=2" ];
  (* Committed E16 keys: serving-during-recovery must hold on the largest
     committed log — a probe answered (ttfr positive) well before full
     recovery, and incremental checkpoints must keep bounded-replay
     recovery under the whole-log figure. *)
  let ttfr = find "E16 ttfr ms ops=1200 k=2" in
  let ttfull = find "E16 ttfull ms ops=1200 k=2" in
  if ttfr <= 0. then failwith "E16 ttfr ms ops=1200 k=2: non-positive";
  if ttfr >= ttfull then
    failwith
      (Fmt.str
         "E16 ops=1200 k=2: first request not served before full recovery \
          (ttfr %.1f ms >= ttfull %.1f ms)"
         ttfr ttfull);
  let pckpt = find "E16 ttfull ms ops=1200 k=2 pckpt" in
  if pckpt <= 0. || pckpt >= ttfull then
    failwith
      (Fmt.str
         "E16 ops=1200: incremental checkpoints did not beat whole-log \
          replay (%.1f ms vs %.1f ms)"
         pckpt ttfull);
  (* Committed E17 keys: the churn run certified with risk at most K at
     the grown membership width, delivered traffic throughout, and the
     brownout window actually refused flushes (degradation was reported,
     not silently absorbed). *)
  let e17_width = find "E17 membership width k=2" in
  if e17_width < 4. then
    failwith
      (Fmt.str "E17 membership width k=2: cluster never grew (%.0f)" e17_width);
  if find "E17 deliveries k=2" <= 0. then
    failwith "E17 deliveries k=2: non-positive";
  let e17_risk = find "E17 max risk k=2" in
  if e17_risk > 2. then
    failwith (Fmt.str "E17 max risk k=2: exceeds K (%.0f)" e17_risk);
  if find "E17 degraded flushes k=2" < 1. then
    failwith "E17 degraded flushes k=2: brownout refused no flush";
  Fmt.pr
    "net floors ok: %s = %.1f; E16 ttfr %.1f < ttfull %.1f ms (pckpt %.1f); \
     E17 width %.0f risk %.0f@."
    smoke_key smoke ttfr ttfull pckpt e17_width e17_risk

(* Floor guard over the committed BENCH_micro.json: the B13 keys must
   exist, and the per-operation cost of the always-on metrics plane must
   stay low — the ceilings are an order of magnitude above any measured
   figure, so they only trip on a genuine hot-path regression (a lock on
   the increment path, a float box per observation), never on CI machine
   noise. *)
let run_check_micro_floors () =
  let entries = Harness.Report.load_bench "BENCH_micro.json" in
  let find key =
    match List.assoc_opt key entries with
    | Some v -> v
    | None -> failwith (Fmt.str "BENCH_micro.json: missing key %S" key)
  in
  let per_op key ceiling =
    let est = find key in
    let ns = est /. float_of_int b13_ops in
    if ns > ceiling then
      failwith
        (Fmt.str "%s: %.1f ns/op exceeds the %.0f ns ceiling" key ns ceiling);
    ns
  in
  let c = per_op (Fmt.str "B13 obs: counter incr (x%d)" b13_ops) 500. in
  let h = per_op (Fmt.str "B13 obs: histogram observe (x%d)" b13_ops) 1500. in
  (* The durable restart: committed, and within the test's words bound. *)
  let restart_us = find restart_name /. 1000. in
  let words = find restart_words_name in
  if words > restart_words_bound then
    failwith
      (Fmt.str "%s: %.1f exceeds the %.0f words/record bound" restart_words_name words
         restart_words_bound);
  (* Output commit: one fsync of the synchronous area per node step,
     recomputed here, since it is exact. *)
  let committed_sync_fsyncs = find sync_fsyncs_name in
  let sync_fsyncs = sync_fsyncs_per_output () in
  if sync_fsyncs > sync_fsyncs_bound then
    failwith
      (Fmt.str "%s: %.3f exceeds %.2f (one fsync per commit record?)" sync_fsyncs_name
         sync_fsyncs sync_fsyncs_bound);
  (* Duplicate suppression: recomputed here, since it is exact. *)
  let committed_id_words = find id_words_name in
  let id_words = id_words_per_entry () in
  if id_words > id_words_bound then
    failwith
      (Fmt.str "%s: %.3f exceeds %.0f (an identity record per entry?)" id_words_name id_words
         id_words_bound);
  (* A scrape's size: recomputed here, since it is exact; its time is
     committed. *)
  let scrapes =
    List.map
      (fun n ->
        let us = find (scrape_name n) /. 1000. in
        let committed_bytes = find (scrape_bytes_name n) in
        let bytes = scrape_bytes_per_series n in
        if bytes > scrape_bytes_bound then
          failwith
            (Fmt.str "%s: %.3f exceeds %.0f bytes per series" (scrape_bytes_name n) bytes
               scrape_bytes_bound);
        Fmt.str "%d series %.0f us, %.3f bytes/series (%.3f committed)" n us bytes
          committed_bytes)
      scrape_sizes
  in
  Fmt.pr
    "micro floors ok: obs counter %.1f ns/op, histogram %.1f ns/op; durable restart \
     %.0f us, %.1f promoted words/record; %.3f sync-area fsyncs per output (%.3f \
     committed); %.3f duplicate-suppression words per entry (%.3f committed); scrape \
     %s@."
    c h restart_us words sync_fsyncs committed_sync_fsyncs id_words committed_id_words
    (String.concat ", " scrapes)

(* ------------------------------------------------------------------ *)

let run_macro () = List.iter Harness.Report.print (Harness.Experiments.all ())

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "micro" -> run_micro ()
  | "macro" -> run_macro ()
  | "net" -> run_net ()
  | "b12-smoke" -> run_b12_smoke ()
  | "check-net-floors" -> run_check_net_floors ()
  | "check" ->
    run_check_net_floors ();
    run_check_micro_floors ()
  | _ ->
    run_macro ();
    run_micro ();
    run_net ()
