(* Multi-process deployment over real loopback TCP: fork koptnode daemons,
   drive a workload, SIGKILL one mid-run, and certify the merged trace with
   the causality oracle — the subsystem's end-to-end argument, exercised
   from the test suite at a small scale.  The recovery-window tests re-kill
   a successor mid-replay and flood one with client load during replay. *)

module Deployment = Net.Deployment
module App = App_model.Kvstore_app

let counter outcome name = Obs.Snapshot.counter outcome.Deployment.obs name

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

(* [check_fault_free]'s failing branches, on outcomes whose counts are
   given samples: one undecodable frame, one shed frame or one unit of
   stored data a reopen found lost is enough to fail certification, and
   an empty snapshot, or one showing a clean reopen, passes. *)
let test_check_fault_free_fails () =
  let outcome samples =
    let obs =
      Obs.Snapshot.of_bindings
        (List.map (fun name -> ((name, []), Obs.Snapshot.Counter 1)) samples)
    in
    let trace = Recovery.Trace.create () in
    {
      Deployment.trace;
      damage = [];
      synthesized_crashes = 0;
      oracle = Harness.Oracle.check ~k:1 ~n:1 trace;
      obs;
    }
  in
  let raises name samples =
    match Deployment.check_fault_free (outcome samples) with
    | () -> Alcotest.failf "%s: certified a faulty run" name
    | exception Failure _ -> ()
  in
  raises "decode error" [ "transport_decode_errors_total" ];
  raises "dropped frame" [ "transport_frames_dropped_total" ];
  let one name = [ name ] in
  List.iter
    (fun name -> raises name (one name))
    [
      "storage_log_bytes_dropped_total";
      "storage_log_segments_dropped_total";
      "storage_missing_log_records_total";
      "storage_checkpoints_dropped_total";
      "storage_sync_bytes_dropped_total";
      "storage_sync_area_lost_total";
    ];
  Deployment.check_fault_free (outcome (one "storage_reopens_total"));
  Deployment.check_fault_free (outcome [])

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
      Alcotest.(check bool)
        "proxy relayed" true
        (counter outcome "proxy_forwarded_total" > 0))

(* ------------------------------------------------------------------ *)
(* The fault proxy alone, against a plain TCP listener.                *)

module Wire_codec = Net.Wire_codec

let loopback_listener () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | _ -> assert false

let free_port () =
  let fd, port = loopback_listener () in
  Unix.close fd;
  port

(* The pids of this process's children, zombies included, from /proc. *)
let children () =
  let me = Unix.getpid () in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
           match In_channel.with_open_bin (Fmt.str "/proc/%d/stat" pid) In_channel.input_all with
           | stat -> (
             (* "pid (comm) state ppid ...": comm may hold spaces. *)
             let close = String.rindex stat ')' in
             let after = String.sub stat (close + 2) (String.length stat - close - 2) in
             match String.split_on_char ' ' after with
             | _ :: ppid :: _ when int_of_string_opt ppid = Some me -> Some pid
             | _ -> None)
           | exception Sys_error _ -> None))
  |> List.sort compare

(* A proxy from a fresh port to [target_port] for destination pid 1, its
   counters read back from the metrics file it writes at close. *)
let with_proxy ~plan ~target_port f =
  let dir = Durable.Temp.fresh_dir ~prefix:"test-net-relay" () in
  let metrics_file = Filename.concat dir "metrics-proxy.bin" in
  let port = free_port () in
  let before = children () in
  let proxy =
    Net.Proxy.start ~routes:[ (1, port, target_port) ] ~plan ~time_scale:0.001
      ~metrics_file ()
  in
  Fun.protect
    ~finally:(fun () ->
      Net.Proxy.close proxy;
      Durable.Temp.rm_rf dir)
    (fun () ->
      Alcotest.(check int) "the relay is one child" (List.length before + 1)
        (List.length (children ()));
      f port;
      Net.Proxy.close proxy;
      Net.Proxy.close proxy;
      Alcotest.(check (list int)) "no child left after two closes" before (children ());
      match Deployment.load_snapshots metrics_file with
      | snap, None -> snap
      | _, Some e -> Alcotest.failf "proxy metrics: %s" e)

let dial port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  fd

let hello ~src = Wire_codec.hello ~pid:src

let partitioned mode ~until =
  {
    Harness.Netmodel.benign with
    Harness.Netmodel.partitions =
      [ { Harness.Netmodel.group = [ 0 ]; from_ = 0.; until; mode } ];
  }

(* A queue-mode partition holds the stream's frames, then delivers them
   all, in order, after the heal; a drop-mode one severs the stream at
   the hello.  Both proxies' second close is a no-op, and neither leaves
   a child behind. *)
let test_proxy_partitions () =
  let server, target_port = loopback_listener () in
  Fun.protect ~finally:(fun () -> Unix.close server) @@ fun () ->
  let payloads = List.init 5 (Fmt.str "frame-%d") in
  let heal = 1.0 in
  let t0 = Unix.gettimeofday () in
  let snap =
    with_proxy ~plan:(partitioned Harness.Netmodel.Queue_packets ~until:(heal *. 1000.))
      ~target_port (fun port ->
        let client = dial port in
        Fun.protect ~finally:(fun () -> Unix.close client) @@ fun () ->
        ignore (Wire_codec.write_all client (hello ~src:0) : bool);
        List.iter
          (fun p -> ignore (Wire_codec.write_all client (Durable.Codec.encode ~kind:2 p) : bool))
          payloads;
        let conn, _ = Unix.accept server in
        Fun.protect ~finally:(fun () -> Unix.close conn) @@ fun () ->
        let reader = Durable.Codec.reader () in
        let input = Wire_codec.input conn in
        let deadline = Unix.gettimeofday () +. 10. in
        let rec collect acc =
          match Wire_codec.next_frame reader input with
          | Wire_codec.Frame (kind, body) ->
            let acc = if kind = 2 then (body, Unix.gettimeofday ()) :: acc else acc in
            if List.length acc = List.length payloads then List.rev acc else collect acc
          | Wire_codec.Refused e -> Alcotest.failf "relayed bytes do not frame: %s" e
          | Wire_codec.Closed -> Alcotest.fail "relay closed the stream"
          | Wire_codec.Await ->
            if Unix.gettimeofday () > deadline then Alcotest.fail "frames never arrived";
            collect acc
        in
        let got = collect [] in
        Alcotest.(check (list string)) "every frame, in order" payloads (List.map fst got);
        List.iter
          (fun (body, at) ->
            if at -. t0 < heal then
              Alcotest.failf "%s arrived %.3f s in, before the heal at %.3f s" body
                (at -. t0) heal)
          got)
  in
  Alcotest.(check int) "every frame held" 5 (Obs.Snapshot.counter snap "proxy_delayed_total");
  Alcotest.(check int) "every frame forwarded" 5
    (Obs.Snapshot.counter snap "proxy_forwarded_total");
  let snap =
    with_proxy ~plan:(partitioned Harness.Netmodel.Drop_packets ~until:1e6) ~target_port
      (fun port ->
        let client = dial port in
        Fun.protect ~finally:(fun () -> Unix.close client) @@ fun () ->
        ignore (Wire_codec.write_all client (hello ~src:0) : bool);
        (match Unix.read client (Bytes.create 1) 0 1 with
        | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
        | _ -> Alcotest.fail "the relay answered a severed hello"
        | exception Unix.Unix_error (e, _, _) ->
          Alcotest.failf "stream not severed: %s" (Unix.error_message e));
        Unix.set_nonblock server;
        (match Unix.accept server with
        | conn, _ ->
          Unix.close conn;
          Alcotest.fail "a severed hello reached the daemon"
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
        Unix.clear_nonblock server)
  in
  Alcotest.(check int) "one stream severed" 1 (Obs.Snapshot.counter snap "proxy_severed_total");
  Alcotest.(check int) "nothing forwarded" 0 (Obs.Snapshot.counter snap "proxy_forwarded_total")

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
      if i mod 16 = 15 then Unix.sleepf 0.002)
    keys

(* Poll until the successor reports an active replay; [false] if the
   window closed before we caught it (small machines can finish the replay
   between polls — the test still re-kills, just without the guarantee). *)
let await_recovering t =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    match Deployment.status t ~dst:victim with
    | Some s when s.Net.Wire_codec.st_recovering -> true
    | _ -> Unix.gettimeofday () < deadline && (Unix.sleepf 0.005; loop ())
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
         restart counter sees just the surviving incarnation; what each
         incarnation's reopen found is summed from the file it appended
         to at boot, the re-killed one's included. *)
      Alcotest.(check bool) "restart recorded" true (counter outcome "restarts_total" >= 1);
      Alcotest.(check int) "both reopens counted" 2 (counter outcome "storage_reopens_total");
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

(* Partition checkpoints on live daemons ([--part-ckpt]).  Round one: a
   loaded victim, SIGKILLed after a few snapshot periods, comes back
   replaying fewer records than its log holds.  Round two: one byte of
   one of its partition files is flipped before the respawn; the reopen
   drops the file and counts it, which reaches the outcome through the
   reopens file, and the run still certifies. *)
let test_part_ckpt_live () =
  let k = 1 and period = 5. in
  let replayed outcome =
    List.filter_map
      (fun { Recovery.Trace.ev; _ } ->
        match ev with
        | Recovery.Trace.Recovery_completed { pid; replayed } when pid = victim ->
          Some replayed
        | _ -> None)
      (Recovery.Trace.events outcome.Deployment.trace)
  in
  with_deployment ~prefix:"test-net-pckpt"
    (fun ~root ->
      Deployment.launch ~n:3 ~k ~ckpt_interval:0. ~part_ckpt:period
        ~time_scale:chaos_time_scale ~seed:43 ~root ())
    (fun t ->
      let keys = victim_keys ~n:3 ~count:120 in
      let round keys =
        load_victim t keys;
        Alcotest.(check bool) "settles before the kill" true
          (Deployment.settle ~timeout:120. t);
        (* One dirty partition per snapshot tick: enough ticks for all. *)
        Unix.sleepf (12. *. period *. chaos_time_scale);
        Deployment.kill_only t ~dst:victim
      in
      round (List.filteri (fun i _ -> i < 60) keys);
      Deployment.respawn t ~dst:victim;
      round (List.filteri (fun i _ -> i >= 60) keys);
      let dir = Deployment.store_dir t ~dst:victim in
      let path =
        match
          List.filter (String.starts_with ~prefix:"part-") (Array.to_list (Sys.readdir dir))
        with
        | name :: _ -> Filename.concat dir name
        | [] -> Alcotest.fail "the victim wrote no partition file"
      in
      let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let off = Bytes.length b / 2 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      Deployment.respawn t ~dst:victim;
      Alcotest.(check bool) "settles after the respawns" true
        (Deployment.settle ~timeout:120. t);
      let outcome = Deployment.finish t in
      certify ~k outcome;
      (match replayed outcome with
      | first :: _ ->
        Alcotest.(check bool)
          (Fmt.str "the first successor replayed %d of its 60 records" first)
          true (first < 60)
      | [] -> Alcotest.fail "no successor completed recovery");
      Alcotest.(check int) "both reopens counted" 2 (counter outcome "storage_reopens_total");
      Alcotest.(check bool) "the flipped partition file is counted dropped" true
        (counter outcome "storage_checkpoints_dropped_total" >= 1))

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
      Alcotest.(check bool) "replay happened" true (counter outcome "replayed_total" > 0);
      (* A step's output-commit records share one fsync of sync.dat, so
         the synchronous area's fsyncs are fewer than the outputs. *)
      match Obs.Snapshot.hist outcome.Deployment.obs "sync_fsync_seconds" with
      | None -> Alcotest.fail "sync_fsync_seconds histogram missing"
      | Some h ->
        let fsyncs = Obs.Snapshot.hist_count h
        and committed = counter outcome "outputs_committed_total" in
        if fsyncs >= committed then
          Alcotest.failf "%d sync-area fsyncs for %d committed outputs" fsyncs committed)

(* The runtime options the daemons inherit from this process. *)
let runparams () =
  let params =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | Some p -> p
    | None -> Option.value (Sys.getenv_opt "CAMLRUNPARAM") ~default:""
  in
  String.split_on_char ',' params

(* The space overhead a daemon should run with: koptnode's 20 unless the
   environment it inherits sets [o=] (the last one wins, as in the
   runtime's own parse). *)
let expected_space_overhead () =
  List.fold_left
    (fun acc opt ->
      match String.split_on_char '=' opt with
      | [ "o"; v ] -> float_of_string v
      | _ -> acc)
    20. (runparams ())

(* Whether the daemons record backtraces ([b] or [b=1], the last wins). *)
let backtraces_on () =
  List.fold_left
    (fun acc opt -> match opt with "b" | "b=1" -> true | "b=0" -> false | _ -> acc)
    false (runparams ())

(* The live stats plane end to end: every daemon must answer the control
   socket's Stats arm mid-load with a snapshot that decodes, covering the
   delivery, flush, transport, recovery and memory metric families; a
   SIGKILLed daemon's successor must answer again; and the Quit-time
   metrics files must merge into the outcome snapshot with the always-on
   phase spans and the memory gauges aboard.  Every daemon, the successor
   included, must report koptnode's 32k-word nursery and a boot that ran
   no minor collection, both with OCAMLRUNPARAM unset and with it holding
   options other than [s=] (CI runs the suite under [b]).  Each must also
   report the major heap's space overhead koptnode sets, 20, or the [o=]
   the operator's OCAMLRUNPARAM gives, which wins.  Every scrape
   carries the heap gauges exactly when a minor collection has run (the
   runtime reads 0 before the first), and its file-backed and anonymous
   resident pages add up to at most its resident set and at most its
   resident peak (VmHWM: a respawn's boot, before the drop, may set it).
   Every daemon runs exactly one thread, at boot, mid-load and as a
   respawned successor, and counts its open descriptors. *)
let test_stats_plane_live () =
  let k = 2 in
  with_deployment ~prefix:"test-net-stats"
    (fun ~root -> Deployment.launch ~n:3 ~k ~seed:14 ~root ())
    (fun t ->
      let has snap name =
        List.exists (fun ((n, _), _) -> n = name) (Obs.Snapshot.bindings snap)
      in
      let check_positive what snap names =
        List.iter
          (fun name ->
            Alcotest.(check bool) (Fmt.str "%s: %s above 0" what name) true
              (Obs.Snapshot.gauge snap name > 0.))
          names
      in
      let heap = [ "gc_heap_words"; "gc_top_heap_words" ] in
      (* The exactly-once tables' entries, set at each scrape. *)
      let id_tables = [ "held_len"; "released_ids_len"; "committed_ids_len" ] in
      let resident =
        [
          "process_resident_bytes";
          "process_resident_peak_bytes";
          "process_resident_file_bytes";
          "process_resident_anon_bytes";
        ]
      in
      let scrape_ok pid =
        let snap =
          match Deployment.scrape t ~dst:pid with
          | Some (Ok snap) -> snap
          | Some (Error e) ->
            Alcotest.fail (Fmt.str "pid %d: scrape does not decode: %s" pid e)
          | None -> Alcotest.fail (Fmt.str "pid %d: no Stats reply" pid)
        in
        let what = Fmt.str "pid %d" pid in
        if Obs.Snapshot.gauge snap "gc_minor_collections" = 0. then
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (Fmt.str "%s: no %s before the first minor collection" what name)
                false (has snap name))
            heap
        else check_positive what snap heap;
        let g = Obs.Snapshot.gauge snap in
        let file_anon =
          g "process_resident_file_bytes" +. g "process_resident_anon_bytes"
        in
        Alcotest.(check bool)
          (Fmt.str "%s: file + anon resident within the resident set" what)
          true
          (file_anon <= g "process_resident_bytes");
        Alcotest.(check bool)
          (Fmt.str "%s: the resident peak at least file + anon resident" what)
          true
          (g "process_resident_peak_bytes" >= file_anon);
        snap
      in
      (* One thread: the daemon's only concurrency is its sockets. *)
      let check_process what snap =
        Alcotest.(check (float 0.))
          (Fmt.str "%s: one thread" what)
          1. (Obs.Snapshot.gauge snap "process_threads");
        Alcotest.(check bool)
          (Fmt.str "%s: open descriptors counted" what)
          true
          (Obs.Snapshot.gauge snap "process_open_fds" > 0.)
      in
      let check_boot pid snap =
        check_process (Fmt.str "pid %d at boot" pid) snap;
        Alcotest.(check (float 0.))
          (Fmt.str "pid %d: 32k-word nursery" pid)
          32768. (Obs.Snapshot.gauge snap "gc_minor_heap_words");
        Alcotest.(check (float 0.))
          (Fmt.str "pid %d: boot ran no minor collection" pid)
          0. (Obs.Snapshot.gauge snap "gc_boot_minor_collections");
        Alcotest.(check (float 0.))
          (Fmt.str "pid %d: major heap space overhead" pid)
          (expected_space_overhead ())
          (Obs.Snapshot.gauge snap "gc_space_overhead")
      in
      (* Boot dropped the binary's read-only pages, and only what the loop
         and the scrape ran came back: ~392 KB with the loop's functions
         packed into .text.hot and the read-only data it reads into
         .rodata.hot (bin/koptnode_hot.ld), ~468 KB while its read-only data
         lay in three windows and the drop faulted its headers back, ~904 KB
         when the script placed whole objects, ~1.32 MB with the code
         scattered through the text.  (The successor below is scraped after
         a replay and a workload.)  With backtraces on ([b], as CI runs),
         every raise records one, in runtime code the profile behind the
         script never ran, which faults two more 64 KB windows of text:
         ~520 KB, ~596 KB before .rodata.hot. *)
      let boot_kib = if backtraces_on () then 576 else 448 in
      List.iter
        (fun pid ->
          let snap = scrape_ok pid in
          check_boot pid snap;
          let file = Obs.Snapshot.gauge snap "process_resident_file_bytes" in
          if file > float_of_int (boot_kib * 1024) then
            Alcotest.failf
              "pid %d: %.0f bytes of file-backed pages resident after boot, over %d KiB \
               (is bin/koptnode_hot.ld stale? see bin/hot_text.py)"
              pid file boot_kib)
        [ 0; 1; 2 ];
      Deployment.run_workload t ~ops:30 ~seed:4;
      let scraped = List.map scrape_ok [ 0; 1; 2 ] in
      List.iteri
        (fun pid snap ->
          check_positive (Fmt.str "pid %d" pid) snap resident;
          check_process (Fmt.str "pid %d mid-load" pid) snap)
        scraped;
      let live = Obs.Snapshot.merge_all scraped in
      List.iter
        (fun name ->
          Alcotest.(check bool) (Fmt.str "live scrape: %s present" name) true (has live name))
        id_tables;
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
      check_boot 1 after;
      check_positive "successor" after resident;
      ignore (Deployment.settle t : bool);
      let outcome = Deployment.finish t in
      certify ~k outcome;
      Alcotest.(check bool) "outcome merges daemon snapshots" true
        (Obs.Snapshot.counter outcome.Deployment.obs "deliveries_total" > 0);
      check_positive "Quit-time metrics" outcome.Deployment.obs (heap @ resident);
      List.iter
        (fun name ->
          Alcotest.(check bool) (Fmt.str "Quit-time metrics: %s present" name) true
            (has outcome.Deployment.obs name))
        ([ "send_buf_len"; "out_buf_len"; "recv_buf_len"; "archive_len" ] @ id_tables);
      match
        Obs.Snapshot.hist outcome.Deployment.obs
          ~labels:[ ("phase", "handle") ]
          "phase_seconds"
      with
      | Some h ->
        Alcotest.(check bool) "phase spans always on" true
          (Obs.Snapshot.hist_count h > 0)
      | None -> Alcotest.fail "phase_seconds{phase=\"handle\"} missing")

(* A peer parked in a multi-second dial backoff must not hold its pending
   frames past [close]: we point the transport at a port nothing listens
   on with a 3 s backoff floor, poll until the first dial has failed and
   the peer is parked, then close and require the pending frame to be
   accounted (sent + dropped covers every accepted frame) at once. *)
let port_of sock =
  match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false

(* A loopback port nothing listens on (until someone binds it). *)
let reserve_port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port = port_of sock in
  Unix.close sock;
  port

let test_shutdown_latency_bounded () =
  let dead_port = reserve_port () in
  let obs = Obs.Registry.create () in
  let transport =
    Net.Transport.create ~self:0 ~listen_port:(reserve_port ())
      ~peers:[ (1, dead_port) ]
      ~on_frame:(fun ~src:_ ~kind:_ ~body:_ -> Ok ())
      ~backoff_base:3.0 ~backoff_cap:3.0 ~obs ()
  in
  let count name =
    Obs.Snapshot.counter (Obs.Registry.snapshot obs) ("transport_" ^ name ^ "_total")
  in
  Net.Transport.send transport ~dst:1 "doomed frame";
  (* Let the first dial fail and the peer park in its backoff. *)
  let until = Unix.gettimeofday () +. 0.3 in
  while Unix.gettimeofday () < until do
    Net.Transport.poll transport ~timeout:(until -. Unix.gettimeofday ())
  done;
  Alcotest.(check int) "frame still pending before close" 0
    (count "frames_sent" + count "frames_dropped");
  Alcotest.(check bool) "parked: the next dial is seconds away" true
    (Net.Transport.deadline transport > Unix.gettimeofday () +. 1.);
  Net.Transport.close transport;
  Alcotest.(check int) "frame counted dropped at close, not lost" 1 (count "frames_dropped");
  Alcotest.(check int) "nothing sent" 0 (count "frames_sent");
  Alcotest.(check bool) "a closed transport waits on nothing" true
    (Net.Transport.interest transport = ([], []))

(* A transport whose one peer is a listener this test drives: [f
   transport ~accepted] runs with [accepted ()] the connections the
   listener has accepted since the last call. *)
let with_listening_peer f =
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let transport =
    Net.Transport.create ~self:0 ~listen_port:(reserve_port ())
      ~peers:[ (1, port_of listener) ]
      ~on_frame:(fun ~src:_ ~kind:_ ~body:_ -> Ok ())
      ()
  in
  let rec accepted () =
    match Unix.accept ~cloexec:true listener with
    | fd, _ -> fd :: accepted ()
    | exception Unix.Unix_error _ -> []
  in
  Fun.protect
    ~finally:(fun () ->
      Net.Transport.close transport;
      Unix.close listener)
    (fun () -> f transport ~accepted)

(* Send a frame every 2 ms for [seconds], polling between sends, and give
   [peer] the listener's new connections after each poll; [peer] returns
   how many it closed. *)
let dials_closed transport ~accepted ~seconds ~peer =
  let closed = ref 0 and until = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < until do
    Net.Transport.send transport ~dst:1 "frame";
    Net.Transport.poll transport ~timeout:0.002;
    closed := !closed + peer (accepted ())
  done;
  !closed

(* A peer that cuts every stream must not be redialled at once forever:
   a connection that completed no frame [backoff_base] (50 ms) or more
   after its Hello backs off on its write failure, doubling.  Two such
   peers: one closes what it accepts at once; the other, as the fault
   proxy does to a partitioned dialer, reads the Hello and the frames
   sent with it, then closes.  Over a second of sends each sees ~5 dials
   (tens of thousands without the backoff).  A completed frame alone
   must not count, or the second peer is still dialled ~8,500 times a
   second: the kernel takes the frames written with the Hello before the
   close arrives.  A peer that took frames for a while and then died is
   still redialled at once, never parked in a backoff: the crash
   workload's respawn path. *)
let test_redial_backs_off () =
  let buf = Bytes.create 65536 in
  let at_once fds =
    List.iter Unix.close fds;
    List.length fds
  and after_hello pending fds =
    pending := !pending @ fds;
    let readable fd = Unix.select [ fd ] [] [] 0. <> ([], [], []) in
    let read, waiting = List.partition readable !pending in
    pending := waiting;
    List.iter
      (fun fd ->
        ignore (Unix.read fd buf 0 (Bytes.length buf) : int);
        Unix.close fd)
      read;
    List.length read
  in
  List.iter
    (fun (what, peer) ->
      with_listening_peer (fun transport ~accepted ->
          let pending = ref [] in
          let dials =
            dials_closed transport ~accepted ~seconds:1. ~peer:(peer pending)
          in
          List.iter Unix.close !pending;
          if dials > 10 then
            Alcotest.failf "%d dials in 1 s to a peer that %s" dials what))
    [
      ("closes every connection at once", fun _ -> at_once);
      ("closes every connection after its Hello", after_hello);
    ];
  with_listening_peer (fun transport ~accepted ->
      let up = ref [] in
      let keep fds =
        up := !up @ fds;
        0
      in
      ignore (dials_closed transport ~accepted ~seconds:0.3 ~peer:keep : int);
      Alcotest.(check int) "one connection, kept" 1 (List.length !up);
      List.iter Unix.close !up;
      (* Until the redial arrives, the peer must never be parked in a
         backoff: a finite deadline still ahead. *)
      let until = Unix.gettimeofday () +. 2. in
      let rec redialled () =
        Net.Transport.send transport ~dst:1 "frame";
        Net.Transport.poll transport ~timeout:0.002;
        let due = Net.Transport.deadline transport and now = Unix.gettimeofday () in
        if due > now && due < infinity then
          Alcotest.failf "a peer that took frames backs off %.3f s" (due -. now);
        at_once (accepted ()) > 0 || (now < until && redialled ())
      in
      Alcotest.(check bool) "a peer that took frames is redialled at once" true
        (redialled ()))

(* Client ingress back-pressure: a daemon flooded with back-to-back
   Injects takes at most [batch_cap] (256, in bin/koptnode.ml) control
   events into one batch; the rest wait in the control connection's TCP
   buffers.  With n=1 no peer frame can arrive, so only timers can take a
   batch past the cap, and a timer whose deadline has passed fires once
   per iteration however late it is: a daemon arms at most five.  The
   scraped [batch_high_water] (the most events one loop iteration took)
   shows that the flood reached the cap and that the bound held; every Get
   must still be answered. *)
let test_ingress_backpressure () =
  let ops = 10_000 and timers = 5 in
  with_deployment ~prefix:"test-net-ingress"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:41 ~root ())
    (fun t ->
      for i = 0 to ops - 1 do
        Deployment.inject t ~dst:0 (App.Get (Printf.sprintf "key%d" (i mod 17)))
      done;
      Alcotest.(check bool) "settles" true (Deployment.settle ~timeout:120. t);
      let high_water =
        match Deployment.scrape t ~dst:0 with
        | Some (Ok snap) -> Obs.Snapshot.gauge snap "batch_high_water"
        | Some (Error e) -> Alcotest.failf "scrape does not decode: %s" e
        | None -> Alcotest.fail "daemon unreachable"
      in
      let outcome = Deployment.finish t in
      certify ~k:1 outcome;
      Alcotest.(check int) "every Get answered" ops
        (List.length (Util.committed_outputs outcome.Deployment.trace));
      Alcotest.(check bool)
        (Fmt.str "flood filled a batch to the cap (high-water %.0f)" high_water)
        true (high_water >= 256.);
      Alcotest.(check bool)
        (Fmt.str "high-water %.0f within a batch plus one tick per timer" high_water)
        true
        (high_water <= float_of_int (256 + timers)))

(* A raw control connection to daemon [dst]. *)
let control_connect t ~dst =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Deployment.control_port t ~dst));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

(* A control stream must open with a Hello of this wire version: one that
   opens with an older Hello, or with a request, is closed without a
   reply, while a well-opened one on the same daemon is answered. *)
let test_control_wrong_version () =
  with_deployment ~prefix:"test-net-ctl-version"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:18 ~root ())
    (fun t ->
      let status = Net.Wire_codec.encode_control Net.Wire_codec.Status_req in
      let stale =
        Durable.Codec.encode
          ~kind:(Char.code (Net.Wire_codec.hello ~pid:(-1)).[1])
          Durable.Form.(encode (pair int int) (Net.Wire_codec.version - 1, -1))
      in
      let ask opening =
        let fd = control_connect t ~dst:0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        ignore (Net.Wire_codec.write_all fd (opening ^ status) : bool);
        Net.Wire_codec.read_control (Durable.Codec.reader ()) fd
      in
      Alcotest.(check bool) "the daemon is up" true (Deployment.status t ~dst:0 <> None);
      Alcotest.(check bool) "an older Hello is refused" true (ask stale = None);
      Alcotest.(check bool) "a stream without a Hello is refused" true (ask "" = None);
      (match ask (Net.Wire_codec.hello ~pid:(-1)) with
      | Some (Net.Wire_codec.Status _) -> ()
      | Some _ | None -> Alcotest.fail "a current Hello got no Status reply");
      certify ~k:1 (Deployment.finish t))

(* A driver's first control dial usually lands a few ms before the
   daemon's socket listens.  A stand-in daemon (a forked child, over the
   port of a launch whose executable exits at once) starts listening 5 ms
   after the driver starts dialling and answers one Status: the driver's
   redial must reach it within a few ms of the listen, not at the next
   tick of a fixed 50 ms retry (~45 ms after it). *)
let test_control_redial_backoff () =
  with_deployment ~prefix:"test-net-redial"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:19 ~root ~exe:"/bin/true" ())
    (fun t ->
      let port = Deployment.control_port t ~dst:0 in
      let go_rd, go_wr = Unix.pipe () and at_rd, at_wr = Unix.pipe () in
      let request =
        Net.Wire_codec.hello ~pid:(-1)
        ^ Net.Wire_codec.encode_control Net.Wire_codec.Status_req
      in
      match Unix.fork () with
      | 0 ->
        (try
           ignore (Unix.read go_rd (Bytes.create 1) 0 1 : int);
           Unix.sleepf 0.005;
           let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
           Unix.setsockopt s Unix.SO_REUSEADDR true;
           Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
           Unix.listen s 1;
           let at = Printf.sprintf "%.6f\n" (Unix.gettimeofday ()) in
           ignore (Unix.write_substring at_wr at 0 (String.length at) : int);
           let c, _ = Unix.accept s in
           (* Read the whole request first, so the close below is a FIN,
              not a reset that could discard the reply. *)
           let b = Bytes.create (String.length request) in
           let rec fill pos =
             if pos < Bytes.length b then
               match Unix.read c b pos (Bytes.length b - pos) with
               | 0 -> ()
               | n -> fill (pos + n)
           in
           fill 0;
           let status =
             {
               Net.Wire_codec.st_up = true;
               st_pending = 0;
               st_send_buf = 0;
               st_recv_buf = 0;
               st_out_buf = 0;
               st_deliveries = 0;
               st_trace_len = 0;
               st_current = Depend.Entry.initial;
               st_recovering = false;
               st_replay_pending = 0;
             }
           in
           ignore
             (Net.Wire_codec.write_all c
                (Net.Wire_codec.encode_control (Net.Wire_codec.Status status))
               : bool);
           Unix.close c;
           Unix._exit 0
         with _ -> Unix._exit 1)
      | child ->
        let _ : int = Unix.write_substring go_wr "g" 0 1 in
        let answered = Deployment.status t ~dst:0 in
        let replied = Unix.gettimeofday () in
        let listening =
          let b = Bytes.create 64 in
          let n = Unix.read at_rd b 0 64 in
          float_of_string (String.trim (Bytes.sub_string b 0 n))
        in
        let _, exit = Unix.waitpid [] child in
        List.iter Unix.close [ go_rd; go_wr; at_rd; at_wr ];
        Alcotest.(check bool) "the stand-in exited cleanly" true (exit = Unix.WEXITED 0);
        Alcotest.(check bool) "status answered" true (answered <> None);
        let after = replied -. listening in
        if after > 0.025 then
          Alcotest.failf "answered %.1f ms after the socket listened (want < 25 ms)"
            (after *. 1000.))

(* A control client that hangs up with requests still queued: the daemon
   must not close the descriptor before it has answered them, or a reply
   can land on whatever reuses the number in between — a fresh segment
   file, a peer connection, the next control connection.  A raw client
   writes 50 Stats requests and closes at once; a fresh connection must
   then get a Status reply to its Status request (not a stray Stats), and
   after Quit the store must reopen clean and the merged trace must
   certify. *)
let test_control_hangup () =
  let k = 1 in
  with_deployment ~prefix:"test-net-hangup"
    (fun ~root -> Deployment.launch ~n:2 ~k ~seed:17 ~root ())
    (fun t ->
      Deployment.run_workload t ~ops:20 ~seed:8;
      let frame = Net.Wire_codec.encode_control in
      let fd = control_connect t ~dst:0 in
      ignore (Net.Wire_codec.write_all fd (Net.Wire_codec.hello ~pid:(-1)) : bool);
      Alcotest.(check bool) "requests written" true
        (Net.Wire_codec.write_all fd
           (String.concat "" (List.init 50 (fun _ -> frame Net.Wire_codec.Stats_req))));
      Unix.close fd;
      let fd = control_connect t ~dst:0 in
      Alcotest.(check bool) "status request written" true
        (Net.Wire_codec.write_all fd
           (Net.Wire_codec.hello ~pid:(-1) ^ frame Net.Wire_codec.Status_req));
      (match Net.Wire_codec.read_control (Durable.Codec.reader ()) fd with
      | Some (Net.Wire_codec.Status _) -> ()
      | Some _ -> Alcotest.fail "a fresh connection got another client's reply"
      | None -> Alcotest.fail "no Status reply on a fresh connection");
      Unix.close fd;
      Deployment.run_workload t ~ops:20 ~seed:9;
      ignore (Deployment.settle t : bool);
      let outcome = Deployment.finish t in
      certify ~k outcome;
      let obs = Obs.Registry.create () in
      let store =
        Durable.Durable_store.open_ ~fs:Durable.Fs.unix
          ~dir:(Deployment.store_dir t ~dst:0) ~obs ()
      in
      Durable.Durable_store.kill store;
      let found = Obs.Registry.snapshot obs in
      Alcotest.(check int) "the store is reopened" 1
        (Obs.Snapshot.counter found "storage_reopens_total");
      Alcotest.(check (list (pair string int))) "store reopens clean" []
        (Durable.Durable_store.losses found))

(* A peer frame whose checksum holds but whose payload does not decode is
   counted as a decode error, as a framing error is, so a fault-free run's
   certification sees it; the daemon lives on.  A control Inject whose
   payload claims a length of [max_int] is refused, not fatal. *)
let test_garbage_packet_counted () =
  with_deployment ~prefix:"test-net-garbage"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:20 ~root ())
    (fun t ->
      let dial port =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        fd
      in
      let errors () =
        match Deployment.scrape t ~dst:0 with
        | Some (Ok snap) -> Obs.Snapshot.counter snap "transport_decode_errors_total"
        | Some (Error e) -> Alcotest.failf "scrape does not decode: %s" e
        | None -> Alcotest.fail "daemon unreachable"
      in
      Alcotest.(check int) "no decode error yet" 0 (errors ());
      let peer = dial (Deployment.data_port t ~dst:0) in
      Fun.protect ~finally:(fun () -> Unix.close peer) @@ fun () ->
      ignore
        (Net.Wire_codec.write_all peer
           (Net.Wire_codec.hello ~pid:0 ^ Durable.Codec.encode ~kind:2 "garbage")
          : bool);
      let deadline = Unix.gettimeofday () +. 5. in
      while errors () = 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      Alcotest.(check int) "one decode error counted" 1 (errors ());
      let inject =
        let b = Buffer.create 32 in
        List.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) [ 1; 0; max_int ];
        Buffer.add_string b "xyz";
        let kind =
          Char.code
            (Net.Wire_codec.encode_control
               (Net.Wire_codec.Inject { seq = 1; cseq = 0; payload = "" })).[1]
        in
        Durable.Codec.encode ~kind (Buffer.contents b)
      in
      let ctl = control_connect t ~dst:0 in
      Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
      ignore
        (Net.Wire_codec.write_all ctl (Net.Wire_codec.hello ~pid:(-1) ^ inject) : bool);
      Alcotest.(check bool) "the oversized Inject is refused" true
        (Net.Wire_codec.read_control (Durable.Codec.reader ()) ctl = None);
      Alcotest.(check bool) "the daemon lives on" true (Deployment.status t ~dst:0 <> None))

(* A control frame whose checksum holds but whose payload does not
   decode ends the client's connection and is counted, as a peer's is:
   one Inject with a garbage payload reads 1 in
   [control_decode_errors_total], a whole Inject whose application bytes
   do not read makes it 2, and the daemon lives on. *)
let test_garbage_control_counted () =
  with_deployment ~prefix:"test-net-garbage-ctl"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:21 ~root ())
    (fun t ->
      let errors () =
        match Deployment.scrape t ~dst:0 with
        | Some (Ok snap) ->
          if
            not
              (List.exists
                 (fun ((n, _), _) -> n = "control_decode_errors_total")
                 (Obs.Snapshot.bindings snap))
          then Alcotest.fail "no control_decode_errors_total series";
          Obs.Snapshot.counter snap "control_decode_errors_total"
        | Some (Error e) -> Alcotest.failf "scrape does not decode: %s" e
        | None -> Alcotest.fail "daemon unreachable"
      in
      Alcotest.(check int) "no control decode error yet" 0 (errors ());
      let kind =
        Char.code
          (Net.Wire_codec.encode_control
             (Net.Wire_codec.Inject { seq = 1; cseq = 0; payload = "" })).[1]
      in
      let ctl = control_connect t ~dst:0 in
      Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
      ignore
        (Net.Wire_codec.write_all ctl
           (Net.Wire_codec.hello ~pid:(-1) ^ Durable.Codec.encode ~kind "garbage")
          : bool);
      Alcotest.(check bool) "the garbage Inject ends the connection" true
        (Net.Wire_codec.read_control (Durable.Codec.reader ()) ctl = None);
      Alcotest.(check int) "one control decode error counted" 1 (errors ());
      (* A whole Inject whose application bytes the daemon's app cannot
         read is refused the same way, when the daemon takes the frame. *)
      let ctl = control_connect t ~dst:0 in
      Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
      ignore
        (Net.Wire_codec.write_all ctl
           (Net.Wire_codec.hello ~pid:(-1)
           ^ Net.Wire_codec.encode_control
               (Net.Wire_codec.Inject { seq = 1; cseq = 0; payload = "garbage" }))
          : bool);
      Alcotest.(check bool) "an unreadable application payload ends the connection" true
        (Net.Wire_codec.read_control (Durable.Codec.reader ()) ctl = None);
      Alcotest.(check int) "two control decode errors counted" 2 (errors ());
      Alcotest.(check bool) "the daemon lives on" true (Deployment.status t ~dst:0 <> None))

(* [Arm_brownout] with a negative round count is not a control frame: the
   daemon counts it as a decode error, hangs up on the client and lives
   on, instead of handing it to the store, which would raise out of the
   daemon's loop. *)
let test_negative_brownout_refused () =
  with_deployment ~prefix:"test-net-brownout"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:22 ~root ())
    (fun t ->
      Alcotest.(check bool) "the daemon is up" true (Deployment.status t ~dst:0 <> None);
      let ctl = control_connect t ~dst:0 in
      Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
      ignore
        (Net.Wire_codec.write_all ctl
           (Net.Wire_codec.hello ~pid:(-1)
           ^ Net.Wire_codec.encode_control
               (Net.Wire_codec.Arm_brownout { rounds = -1 }))
          : bool);
      Alcotest.(check bool) "the frame ends the connection" true
        (Net.Wire_codec.read_control (Durable.Codec.reader ()) ctl = None);
      (match Deployment.scrape t ~dst:0 with
      | Some (Ok snap) ->
        Alcotest.(check int) "one control decode error counted" 1
          (Obs.Snapshot.counter snap "control_decode_errors_total")
      | Some (Error e) -> Alcotest.failf "scrape does not decode: %s" e
      | None -> Alcotest.fail "the daemon died");
      Alcotest.(check bool) "the daemon lives on" true (Deployment.status t ~dst:0 <> None))

(* A control frame whose well-formed header announces
   [max_frame_payload + 1] bytes, followed by nothing, is refused as soon
   as the header is in: the daemon counts it in
   [control_decode_errors_total], hangs up without waiting for the
   payload (the client's 10 s receive timeout is what waiting would run
   into) and lives on. *)
let test_oversized_control_refused () =
  with_deployment ~prefix:"test-net-oversized"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:24 ~root ())
    (fun t ->
      Alcotest.(check bool) "the daemon is up" true (Deployment.status t ~dst:0 <> None);
      let header = Bytes.make Durable.Codec.header_bytes '\000' in
      Bytes.set header 0 Durable.Codec.magic;
      Bytes.set header 1
        (Net.Wire_codec.encode_control Net.Wire_codec.Status_req).[1];
      Bytes.set_int32_le header 2 (Int32.of_int (Net.Wire_codec.max_frame_payload + 1));
      let ctl = control_connect t ~dst:0 in
      Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
      ignore
        (Net.Wire_codec.write_all ctl
           (Net.Wire_codec.hello ~pid:(-1) ^ Bytes.to_string header)
          : bool);
      let t0 = Unix.gettimeofday () in
      Alcotest.(check bool) "the header ends the connection" true
        (Net.Wire_codec.read_control (Durable.Codec.reader ()) ctl = None);
      let waited = Unix.gettimeofday () -. t0 in
      if waited > 5. then Alcotest.failf "the daemon waited %.1f s for the payload" waited;
      (match Deployment.scrape t ~dst:0 with
      | Some (Ok snap) ->
        Alcotest.(check int) "one control decode error counted" 1
          (Obs.Snapshot.counter snap "control_decode_errors_total")
      | Some (Error e) -> Alcotest.failf "scrape does not decode: %s" e
      | None -> Alcotest.fail "the daemon died");
      Alcotest.(check bool) "the daemon lives on" true (Deployment.status t ~dst:0 <> None))

(* A daemon respawned over a log segment that ends in a torn frame (a
   valid header whose payload is cut short) truncates it and says so in
   its live scrape: one reopen, and exactly the appended bytes dropped.
   The run still certifies. *)
let test_respawn_reports_torn_segment () =
  let k = 1 and victim = 1 in
  with_deployment ~prefix:"test-net-torn"
    (fun ~root -> Deployment.launch ~n:3 ~k ~seed:23 ~root ())
    (fun t ->
      Deployment.run_workload t ~ops:30 ~seed:5;
      Alcotest.(check bool) "settles" true (Deployment.settle t);
      Deployment.kill_only t ~dst:victim;
      let dir = Deployment.store_dir t ~dst:victim in
      let newest =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.starts_with ~prefix:"seg-" f && String.ends_with ~suffix:".dat" f)
        |> List.sort compare |> List.rev |> List.hd
      in
      let frame = Durable.Codec.encode ~kind:0x4C (String.make 40 'x') in
      let torn = String.sub frame 0 (String.length frame - 16) in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
        (Filename.concat dir newest) (fun oc -> output_string oc torn);
      Deployment.respawn t ~dst:victim;
      Alcotest.(check bool) "settles after the respawn" true (Deployment.settle t);
      (match Deployment.scrape t ~dst:victim with
      | Some (Ok snap) ->
        Alcotest.(check int) "one reopen" 1
          (Obs.Snapshot.counter snap "storage_reopens_total");
        Alcotest.(check int) "the torn frame's bytes dropped" (String.length torn)
          (Obs.Snapshot.counter snap "storage_log_bytes_dropped_total")
      | Some (Error e) -> Alcotest.failf "scrape does not decode: %s" e
      | None -> Alcotest.fail "respawned daemon unreachable");
      certify ~k (Deployment.finish t))

(* A mapping of koptnode.exe, its [Size] and [Rss] in kB. *)
type mapping = { perms : string; mutable size_kb : int; mutable rss_kb : int }

(* The mappings of koptnode.exe in process [pid], in address order, from
   /proc/[pid]/smaps. *)
let exe_mappings pid =
  let maps = ref [] and inside = ref false in
  In_channel.with_open_bin (Fmt.str "/proc/%d/smaps" pid) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match (List.filter (( <> ) "") (String.split_on_char ' ' line), !maps) with
         | [ "Size:"; kb; "kB" ], m :: _ when !inside -> m.size_kb <- int_of_string kb
         | [ "Rss:"; kb; "kB" ], m :: _ when !inside -> m.rss_kb <- int_of_string kb
         | key :: _, _ when String.ends_with ~suffix:":" key -> ()
         | [ _range; perms; _offset; _dev; _inode; path ], _
           when Filename.basename path = "koptnode.exe" ->
           inside := true;
           maps := { perms; size_kb = 0; rss_kb = 0 } :: !maps
         | _ -> inside := false);
  List.rev !maps

(* Once booted, a daemon drops the pages of its binary's read-only
   segments (koptnode_runparam.c), so of its text only what the loop ran
   since is resident.  Without the drop boot leaves ~98% of it resident
   (fault-around maps every 64 KB window boot touches).  After load past
   boot on three daemons each must hold under [text_share] of its R-E
   mapping; what the loop ran of it under this test's load (the workload,
   flushes, checkpoints, notices) came to 71-79%.  Of the other read-only
   mappings, the first, the ELF and program headers, must hold nothing (the
   drop reads the headers before it drops them), and the read-only data
   just after the text at most the one 64 KB window .rodata.hot opens
   (bin/koptnode_hot.ld), which holds what the loop reads of it. *)
let text_share = 0.9

let test_text_dropped_after_boot () =
  with_deployment ~prefix:"test-net-text"
    (fun ~root -> Deployment.launch ~n:3 ~k:1 ~seed:29 ~root ())
    (fun t ->
      Deployment.run_workload t ~ops:60 ~seed:6;
      Alcotest.(check bool) "settles" true (Deployment.settle t);
      (* Past a checkpoint period: its timer and the trim after it ran. *)
      Unix.sleepf 0.5;
      Deployment.run_workload t ~ops:30 ~seed:7;
      Alcotest.(check bool) "settles again" true (Deployment.settle t);
      let daemons =
        List.filter
          (fun pid ->
            match In_channel.with_open_bin (Fmt.str "/proc/%d/comm" pid) In_channel.input_all with
            | comm -> String.trim comm = "koptnode.exe"
            | exception Sys_error _ -> false)
          (children ())
      in
      Alcotest.(check int) "three daemons found" 3 (List.length daemons);
      List.iter
        (fun pid ->
          let maps = exe_mappings pid in
          (match maps with
          | { perms = "r--p"; rss_kb = 0; _ } :: _ -> ()
          | m :: _ ->
            Alcotest.failf "daemon %d: its first mapping (%s, the headers) holds %d KB" pid
              m.perms m.rss_kb
          | [] -> Alcotest.failf "daemon %d: no mapping of koptnode.exe" pid);
          let rec from_text = function
            | ({ perms = "r-xp"; _ } :: _) as l -> l
            | _ :: rest -> from_text rest
            | [] -> Alcotest.failf "daemon %d: no text mapping" pid
          in
          match from_text maps with
          | text :: rodata :: _ ->
            Alcotest.(check bool)
              (Fmt.str "daemon %d: a text mapping read" pid)
              true (text.size_kb > 0);
            let share = float_of_int text.rss_kb /. float_of_int text.size_kb in
            if share >= text_share then
              Alcotest.failf "daemon %d: %d of %d KB of text resident (%.0f%%, bound %.0f%%)"
                pid text.rss_kb text.size_kb (100. *. share) (100. *. text_share);
            if rodata.perms <> "r--p" || rodata.rss_kb > 64 then
              Alcotest.failf
                "daemon %d: %d of %d KB of its %s mapping after the text (the read-only data) \
                 resident, want at most 64 KB of r--p"
                pid rodata.rss_kb rodata.size_kb rodata.perms
          | _ -> Alcotest.failf "daemon %d: no mapping after the text" pid)
        daemons;
      certify ~k:1 (Deployment.finish t))

(* A reopens file that is torn or corrupt is damage, named with the file
   and the byte offset, and the whole frames before it still count.  Three
   incarnations' frames are planted for pid 0 of a fresh one-daemon
   cluster (whose daemon found no store, so wrote none): whole, with the
   last frame cut one byte short, and with one byte of the second
   snapshot flipped.  [finish] must sum 3, 2 and 1 reopens, and list no
   damage, the cut frame's offset, and the flipped frame's offset. *)
let test_reopens_damage_reported () =
  let frame lost =
    Net.Wire_codec.snapshot_file ~pid:0
      (Obs.Snapshot.of_bindings
         [
           (("storage_log_bytes_dropped_total", []), Obs.Snapshot.Counter lost);
           (("storage_reopens_total", []), Obs.Snapshot.Counter 1);
         ])
  in
  let whole = frame 5 ^ frame 0 ^ frame 0 in
  let hello = String.length (Net.Wire_codec.hello ~pid:0) in
  let second = String.length (frame 5) + hello in
  let third = (2 * String.length (frame 5)) + hello in
  let flipped =
    let b = Bytes.of_string whole in
    let at = second + Durable.Codec.header_bytes + 3 in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x40));
    Bytes.to_string b
  in
  List.iteri
    (fun i (what, contents, reopens, at) ->
      with_deployment ~prefix:"test-net-reopens"
        (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:(30 + i) ~root ())
        (fun t ->
          Alcotest.(check bool) (what ^ ": settles") true (Deployment.settle t);
          let path = Filename.concat (Deployment.root t) "metrics-0.bin.reopens" in
          Alcotest.(check bool) (what ^ ": the daemon wrote no reopens file") false
            (Sys.file_exists path);
          Out_channel.with_open_bin path (fun oc -> output_string oc contents);
          let outcome = Deployment.finish t in
          certify ~k:1 outcome;
          Alcotest.(check int) (what ^ ": the whole frames' reopens") reopens
            (counter outcome "storage_reopens_total");
          Alcotest.(check int) (what ^ ": the first frame's loss") 5
            (counter outcome "storage_log_bytes_dropped_total");
          match at with
          | None -> Alcotest.(check (list string)) (what ^ ": no damage") [] outcome.damage
          | Some at ->
            let prefix = Fmt.str "%s: damaged at byte %d: " path at in
            if not (List.exists (String.starts_with ~prefix) outcome.damage) then
              Alcotest.failf "%s: no damage names %s at byte %d in [%s]" what path at
                (String.concat "; " outcome.damage)))
    [
      ("whole", whole, 3, None);
      ("cut", String.sub whole 0 (String.length whole - 1), 2, Some third);
      ("flipped", flipped, 1, Some second);
    ]

(* A whole Stats frame whose snapshot does not decode is a scrape
   [Error], not an unreachable daemon.  A stand-in daemon (a forked child
   listening on the control port of a launch whose executable exits at
   once) reads the request and answers it with a checksummed Stats frame
   of seven bytes, too short for a snapshot. *)
let test_scrape_undecodable_is_error () =
  with_deployment ~prefix:"test-net-scrape"
    (fun ~root -> Deployment.launch ~n:1 ~k:1 ~seed:23 ~root ~exe:"/bin/true" ())
    (fun t ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Deployment.control_port t ~dst:0));
      Unix.listen s 1;
      let request =
        Net.Wire_codec.hello ~pid:(-1)
        ^ Net.Wire_codec.encode_control Net.Wire_codec.Stats_req
      in
      let stats_kind =
        Char.code
          (Net.Wire_codec.encode_control (Net.Wire_codec.Stats Obs.Snapshot.empty)).[1]
      in
      match Unix.fork () with
      | 0 ->
        (try
           let c, _ = Unix.accept s in
           let b = Bytes.create (String.length request) in
           let rec fill pos =
             if pos < Bytes.length b then
               match Unix.read c b pos (Bytes.length b - pos) with
               | 0 -> ()
               | n -> fill (pos + n)
           in
           fill 0;
           ignore
             (Net.Wire_codec.write_all c (Durable.Codec.encode ~kind:stats_kind "garbage")
               : bool);
           Unix.close c;
           Unix._exit 0
         with _ -> Unix._exit 1)
      | child ->
        Unix.close s;
        let scraped = Deployment.scrape t ~dst:0 in
        let _, exit = Unix.waitpid [] child in
        Alcotest.(check bool) "the stand-in exited cleanly" true (exit = Unix.WEXITED 0);
        match scraped with
        | Some (Error _) -> ()
        | Some (Ok _) -> Alcotest.fail "a seven-byte snapshot decoded"
        | None -> Alcotest.fail "a whole reply read as an unreachable daemon")

(* A live run whose body raises leaves nothing behind: [Deployment.run]
   SIGKILLs and reaps every daemon, closes the proxy and removes the root
   before it re-raises. *)
let test_run_raise_tears_down () =
  with_deployment ~prefix:"test-net-teardown"
    (fun ~root ->
      Deployment.launch ~n:2 ~k:1 ~plan:Harness.Netmodel.benign ~seed:24 ~root ())
    (fun t ->
      (match
         Deployment.run t (fun () ->
             Deployment.inject t ~dst:0 (App.Put { key = "k"; value = 1 });
             failwith "the body raised")
       with
      | _ -> Alcotest.fail "run returned"
      | exception Failure e -> Alcotest.(check string) "re-raised" "the body raised" e);
      for dst = 0 to 1 do
        let port = Deployment.control_port t ~dst in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> Alcotest.failf "pid %d's control port %d still accepts" dst port
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
      done;
      Alcotest.(check bool)
        "the root is gone" false
        (Sys.file_exists (Deployment.root t)))

let suite =
  [
    Alcotest.test_case "shutdown interrupts dial backoff" `Quick
      test_shutdown_latency_bounded;
    Alcotest.test_case "3 daemons on loopback, oracle-certified" `Slow
      test_cluster_benign;
    Alcotest.test_case "check_fault_free rejects decode errors and drops" `Quick
      test_check_fault_free_fails;
    Alcotest.test_case "SIGKILL + respawn from durable store" `Slow test_cluster_kill;
    Alcotest.test_case "live stats plane: scrape, kill, merge" `Slow
      test_stats_plane_live;
    Alcotest.test_case "through the fault proxy" `Slow test_cluster_proxy;
    Alcotest.test_case "SIGKILL again mid-replay, certified" `Slow
      test_kill_during_replay;
    Alcotest.test_case "client flood during replay, certified" `Slow
      test_flood_during_replay;
    Alcotest.test_case "client flood back-pressured at ingress" `Slow
      test_ingress_backpressure;
    Alcotest.test_case "control client hangs up with requests queued" `Slow
      test_control_hangup;
    Alcotest.test_case "control stream with a wrong-version Hello refused" `Slow
      test_control_wrong_version;
    Alcotest.test_case "proxy: queued partition holds, dropped one severs" `Quick
      test_proxy_partitions;
    Alcotest.test_case "redial backs off from a peer that cuts every stream" `Quick
      test_redial_backs_off;
    Alcotest.test_case "control redial backs off from 1 ms" `Quick
      test_control_redial_backoff;
    Alcotest.test_case "a garbage peer payload counts a decode error" `Slow
      test_garbage_packet_counted;
    Alcotest.test_case "a garbage control payload counts a decode error" `Slow
      test_garbage_control_counted;
    Alcotest.test_case "a negative brownout frame is refused, the daemon lives" `Slow
      test_negative_brownout_refused;
    Alcotest.test_case "a respawn over a torn segment reports it live" `Slow
      test_respawn_reports_torn_segment;
    Alcotest.test_case "a daemon's text is resident only as far as its loop ran" `Slow
      test_text_dropped_after_boot;
    Alcotest.test_case "a torn or corrupt reopens file is damage, whole frames count" `Slow
      test_reopens_damage_reported;
    Alcotest.test_case "a Stats reply that does not decode is an Error" `Quick
      test_scrape_undecodable_is_error;
    Alcotest.test_case "a live run that raises leaves nothing behind" `Slow
      test_run_raise_tears_down;
    Alcotest.test_case "partition checkpoints bound a live replay, damage counted" `Slow
      test_part_ckpt_live;
    Alcotest.test_case "a control header over max_frame_payload is refused at once" `Slow
      test_oversized_control_refused;
  ]
