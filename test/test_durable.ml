(* The durable storage subsystem: record codec, segmented log, open-time
   recovery, storage fault injection, and crash-restart-from-disk at the
   node and cluster level.  Conformance of the durable backend against the
   in-memory [Stable_store] contract is in [Test_storage]; these tests
   cover what only a file-backed store can do: die, get damaged, and come
   back from its files. *)

module Codec = Durable.Codec
module Seg = Durable.Segment_log
module D = Durable.Durable_store
module Node = Recovery.Node
module Config = Recovery.Config
module Counter = App_model.Counter_app

let with_dir f =
  let dir = Durable.Temp.fresh_dir ~prefix:"test-durable" () in
  Fun.protect ~finally:(fun () -> Durable.Temp.rm_rf dir) (fun () -> f dir)

(* Raw file damage helpers (the tests aim at specific bytes, unlike the
   randomized [Durable.Fault]). *)

let chop path n =
  let sz = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd (Stdlib.max 0 (sz - n)))

let flip path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      ignore (Unix.read fd b 0 1 : int);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      ignore (Unix.write fd b 0 1 : int))

let seg_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "seg-")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let ckpt_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "ckpt-")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 'q'; "\x00\xff\xd7" ] in
  let buf = Buffer.create 64 in
  List.iteri (fun i p -> Codec.encode_into buf ~kind:(0x41 + i) p) payloads;
  let s = Buffer.contents buf in
  Alcotest.(check int) "framed size"
    (List.fold_left (fun acc p -> acc + Codec.header_bytes + String.length p) 0 payloads)
    (String.length s);
  let scan = Codec.scan s in
  Alcotest.(check bool) "clean tail" true (scan.Codec.tail = Codec.Clean);
  Alcotest.(check (list (pair int string)))
    "all records back, in order"
    (List.mapi (fun i p -> (0x41 + i, p)) payloads)
    scan.Codec.records

let test_codec_anomalies () =
  (match Codec.decode "" ~pos:0 with
  | Codec.End -> ()
  | _ -> Alcotest.fail "empty input must be End");
  let s = Codec.encode ~kind:0x4C "hello" in
  (match Codec.decode (String.sub s 0 4) ~pos:0 with
  | Codec.Truncated -> ()
  | _ -> Alcotest.fail "partial header must be Truncated");
  (match Codec.decode (String.sub s 0 (String.length s - 2)) ~pos:0 with
  | Codec.Truncated -> ()
  | _ -> Alcotest.fail "partial payload must be Truncated");
  let bad_magic = "Z" ^ String.sub s 1 (String.length s - 1) in
  (match Codec.decode bad_magic ~pos:0 with
  | Codec.Corrupt -> ()
  | _ -> Alcotest.fail "bad magic must be Corrupt");
  let tampered = Bytes.of_string s in
  Bytes.set tampered (Codec.header_bytes + 1) 'X';
  (match Codec.decode (Bytes.to_string tampered) ~pos:0 with
  | Codec.Corrupt -> ()
  | _ -> Alcotest.fail "checksum mismatch must be Corrupt")

let test_codec_scan_stops_at_torn_tail () =
  let buf = Buffer.create 64 in
  Codec.encode_into buf ~kind:0x4C "one";
  Codec.encode_into buf ~kind:0x4C "two";
  let whole = Buffer.contents buf in
  let torn = String.sub whole 0 (String.length whole - 1) in
  let scan = Codec.scan torn in
  Alcotest.(check (list (pair int string))) "prefix survives"
    [ (0x4C, "one") ] scan.Codec.records;
  Alcotest.(check bool) "tail torn" true (scan.Codec.tail = Codec.Torn);
  Alcotest.(check int) "valid prefix length"
    (Codec.header_bytes + 3) scan.Codec.valid_bytes

(* ------------------------------------------------------------------ *)
(* Segment log *)

let test_segment_rotation_and_reopen () =
  with_dir (fun dir ->
      let log, r0 = Seg.open_ ~dir ~segment_bytes:64 () in
      Alcotest.(check (list string)) "fresh" [] r0.Seg.payloads;
      let payloads = List.init 20 (fun i -> Printf.sprintf "record-%02d" i) in
      List.iteri
        (fun i p -> Alcotest.(check int) "index" i (Seg.append log p))
        payloads;
      Seg.sync log;
      Alcotest.(check bool) "rotated" true (Seg.segment_count log > 1);
      Seg.kill log;
      let log2, r = Seg.open_ ~dir ~segment_bytes:64 () in
      Alcotest.(check (list string)) "all synced records recovered" payloads
        r.Seg.payloads;
      Alcotest.(check int) "no bytes dropped" 0 r.Seg.bytes_dropped;
      Alcotest.(check int) "next index continues" 20 (Seg.next_index log2);
      Seg.close log2)

let test_segment_kill_drops_unsynced () =
  with_dir (fun dir ->
      let log, _ = Seg.open_ ~dir () in
      ignore (Seg.append log "synced" : int);
      Seg.sync log;
      ignore (Seg.append log "lost" : int);
      Seg.kill log;
      let log2, r = Seg.open_ ~dir () in
      Alcotest.(check (list string)) "only synced survives" [ "synced" ] r.Seg.payloads;
      Alcotest.(check bool) "clean tail (no torn bytes on disk)" true
        (r.Seg.tail = Codec.Clean);
      Seg.close log2)

let test_segment_boundary_gap_detected () =
  with_dir (fun dir ->
      let log, _ = Seg.open_ ~dir ~segment_bytes:64 () in
      List.iter
        (fun i -> ignore (Seg.append log (Printf.sprintf "r%02d" i) : int))
        (List.init 20 Fun.id);
      Seg.sync log;
      let segs = Seg.segment_count log in
      Alcotest.(check bool) "several segments" true (segs >= 3);
      Seg.close log;
      (* Cut exactly one whole record off a middle segment: the segment
         still scans clean, but every later segment now starts past the
         recovered count — recovery must notice the index gap and drop the
         later segments rather than renumber records. *)
      (match seg_files dir with
      | _ :: middle :: _ -> chop middle (Codec.header_bytes + 3)
      | _ -> Alcotest.fail "expected at least two segments");
      let log2, r = Seg.open_ ~dir ~segment_bytes:64 () in
      Alcotest.(check bool) "corrupt tail" true (r.Seg.tail = Codec.Corrupt_tail);
      Alcotest.(check bool) "later segments dropped" true (r.Seg.segments_dropped >= 1);
      Alcotest.(check bool) "strict prefix recovered" true
        (List.length r.Seg.payloads < 20);
      (* what survives is a gap-free prefix *)
      List.iteri
        (fun i p -> Alcotest.(check string) "prefix record" (Printf.sprintf "r%02d" i) p)
        r.Seg.payloads;
      Seg.close log2)

let test_segment_truncate_and_compact () =
  with_dir (fun dir ->
      let log, _ = Seg.open_ ~dir ~segment_bytes:64 () in
      List.iter
        (fun i -> ignore (Seg.append log (Printf.sprintf "r%02d" i) : int))
        (List.init 20 Fun.id);
      Seg.sync log;
      Seg.truncate_after log ~keep:12;
      Alcotest.(check int) "appends continue at keep" 12 (Seg.append log "new-12");
      Seg.sync log;
      Seg.drop_segments_below log ~before:8;
      Alcotest.(check bool) "old segments gone" true (Seg.first_index log > 0);
      Seg.kill log;
      let log2, r = Seg.open_ ~dir ~segment_bytes:64 () in
      Alcotest.(check int) "first index survives reopen" (Seg.first_index log2) r.Seg.first;
      let expected =
        List.filteri (fun i _ -> i + r.Seg.first < 12) (List.init 20 Fun.id)
        |> List.map (fun i -> Printf.sprintf "r%02d" (i + r.Seg.first))
      in
      Alcotest.(check (list string)) "suffix + new record"
        (expected @ [ "new-12" ])
        r.Seg.payloads;
      Seg.close log2)

(* ------------------------------------------------------------------ *)
(* Durable store: open-time recovery under damage *)

let open_str dir : (string, string, string) D.t * D.open_report = D.open_ ~dir ()

let test_store_reopen_roundtrip () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.save_checkpoint s "ck0";
      List.iter (D.append_volatile s) [ "a"; "b"; "c" ];
      ignore (D.flush s : int);
      D.log_announcement s "ann1";
      D.set_incarnation s 2;
      D.append_volatile s "volatile-lost";
      D.kill s;
      let s2, r = open_str dir in
      Alcotest.(check bool) "not fresh" false r.D.fresh;
      Alcotest.(check bool) "undamaged" false (D.damaged r);
      Alcotest.(check int) "log recovered" 3 r.D.recovered_log;
      Alcotest.(check (list string)) "log back" [ "a"; "b"; "c" ]
        (D.stable_log_from s2 ~pos:0);
      Alcotest.(check (list string)) "checkpoint back" [ "ck0" ] (D.checkpoints s2);
      Alcotest.(check (list string)) "announcement back" [ "ann1" ]
        (D.announcements s2);
      Alcotest.(check int) "incarnation back" 2 (D.incarnation s2);
      Alcotest.(check int) "volatile gone" 0 (D.volatile_length s2);
      D.kill s2)

let test_store_torn_tail_truncated () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      List.iter (D.append_volatile s) [ "a"; "b"; "c" ];
      ignore (D.flush s : int);
      D.kill s;
      (match seg_files dir with
      | [ seg ] -> chop seg 3
      | _ -> Alcotest.fail "expected one segment");
      let s2, r = open_str dir in
      Alcotest.(check bool) "damage reported" true (D.damaged r);
      Alcotest.(check bool) "bytes dropped" true (r.D.log_bytes_dropped > 0);
      Alcotest.(check int) "prefix recovered" 2 r.D.recovered_log;
      (* the witness knows three records were stable *)
      Alcotest.(check int) "missing vs witness" 1 r.D.missing_log_records;
      Alcotest.(check (list string)) "prefix intact" [ "a"; "b" ]
        (D.stable_log_from s2 ~pos:0);
      D.kill s2)

let test_store_bit_flip_never_wrong_record () =
  (* Flip one byte in the middle of the log: recovery may lose a suffix but
     must never hand back a record that was not written. *)
  with_dir (fun dir ->
      let payloads = List.init 8 (fun i -> Printf.sprintf "payload-%d" i) in
      let s, _ = open_str dir in
      List.iter (D.append_volatile s) payloads;
      ignore (D.flush s : int);
      D.kill s;
      let seg = List.hd (seg_files dir) in
      flip seg ((Unix.stat seg).Unix.st_size / 2);
      let s2, r = open_str dir in
      Alcotest.(check bool) "damage reported" true (D.damaged r);
      let recovered = D.stable_log_from s2 ~pos:0 in
      Alcotest.(check bool) "strict prefix" true (List.length recovered < 8);
      List.iteri
        (fun i p -> Alcotest.(check string) "true prefix record" (List.nth payloads i) p)
        recovered;
      D.kill s2)

let test_store_failing_fsync_detected () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.append_volatile s "durable";
      ignore (D.flush s : int);
      D.arm_fsync_failure s;
      List.iter (D.append_volatile s) [ "claimed-1"; "claimed-2" ];
      ignore (D.flush s : int);
      (* the store believes three records are stable *)
      Alcotest.(check int) "store claims 3" 3 (D.stable_log_length s);
      D.kill s;
      let s2, r = open_str dir in
      Alcotest.(check int) "only the honest record survives" 1 r.D.recovered_log;
      Alcotest.(check int) "the lie is exposed at reopen" 2 r.D.missing_log_records;
      Alcotest.(check bool) "damage reported" true (D.damaged r);
      D.kill s2)

let test_store_group_commit_coalesces () =
  (* N threads each append a record, meet at a barrier, then all call
     [flush] at once.  The group-commit layer must serve every caller from
     a single fsync round: the leader's prepare drains all N records, the
     rest either wait out that round or find nothing left to do. *)
  with_dir (fun dir ->
      let obs = Obs.Registry.create () in
      let s, _ = D.open_ ~dir ~obs () in
      let n = 8 in
      let mu = Mutex.create () in
      let cv = Condition.create () in
      let ready = ref 0 in
      let barrier () =
        Mutex.lock mu;
        incr ready;
        if !ready = n then Condition.broadcast cv
        else while !ready < n do Condition.wait cv mu done;
        Mutex.unlock mu
      in
      let worker i =
        D.append_volatile s (Printf.sprintf "rec-%d" i);
        barrier ();
        ignore (D.flush s : int)
      in
      let threads = List.init n (Thread.create worker) in
      List.iter Thread.join threads;
      Alcotest.(check int) "all records stable" n (D.stable_log_length s);
      Alcotest.(check int) "no volatile leftovers" 0 (D.volatile_length s);
      Alcotest.(check int) "N concurrent flushes, one fsync round" 1 (D.flushes s);
      (* The flushing threads are joined: the snapshot is exact. *)
      let snap = Obs.Registry.snapshot obs in
      Alcotest.(check bool) "strictly fewer rounds than callers" true
        (Obs.Snapshot.counter snap "flush_rounds_total" < n);
      Alcotest.(check (list string)) "every record made it"
        (List.sort compare (List.init n (Printf.sprintf "rec-%d")))
        (List.sort compare (D.stable_log_from s ~pos:0));
      D.kill s;
      let s2, r = open_str dir in
      Alcotest.(check bool) "clean reopen" false (D.damaged r);
      Alcotest.(check int) "all records recovered" n r.D.recovered_log;
      D.kill s2)

let test_store_corrupt_checkpoint_dropped () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.save_checkpoint s "ck-old";
      D.save_checkpoint s "ck-new";
      D.kill s;
      (* corrupt the newest checkpoint file *)
      (match List.rev (ckpt_files dir) with
      | newest :: _ -> flip newest ((Unix.stat newest).Unix.st_size / 2)
      | [] -> Alcotest.fail "expected checkpoint files");
      let s2, r = open_str dir in
      Alcotest.(check int) "one dropped" 1 r.D.checkpoints_dropped;
      Alcotest.(check (option string)) "older checkpoint serves" (Some "ck-old")
        (D.latest_checkpoint s2);
      Alcotest.(check bool) "damage reported" true (D.damaged r);
      D.kill s2)

let test_store_checkpoint_past_log_dropped () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      List.iter (D.append_volatile s) [ "a"; "b"; "c"; "d" ];
      ignore (D.flush s : int);
      D.save_checkpoint s "ck-at-4";
      D.kill s;
      (* lose most of the log: the checkpoint's saved position (4) now
         points past the recovered stable length *)
      (match seg_files dir with
      | [ seg ] ->
        let sz = (Unix.stat seg).Unix.st_size in
        chop seg (sz / 2)
      | _ -> Alcotest.fail "expected one segment");
      let s2, r = open_str dir in
      Alcotest.(check int) "checkpoint dropped" 1 r.D.checkpoints_dropped;
      Alcotest.(check (option string)) "no usable checkpoint" None
        (D.latest_checkpoint s2);
      Alcotest.(check bool) "damage reported" true (D.damaged r);
      D.kill s2)

let test_store_sync_area_tail_truncated () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.log_announcement s "ann-1";
      D.set_incarnation s 1;
      D.log_announcement s "ann-2";
      D.kill s;
      chop (Filename.concat dir "sync.dat") 1;
      let s2, r = open_str dir in
      Alcotest.(check bool) "damage reported" true (D.damaged r);
      Alcotest.(check bool) "tail bytes dropped" true (r.D.sync_bytes_dropped > 0);
      Alcotest.(check (list string)) "prefix of announcements" [ "ann-1" ]
        (D.announcements s2);
      Alcotest.(check int) "incarnation prefix" 1 (D.incarnation s2);
      D.kill s2)

let test_store_sync_area_missing () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.append_volatile s "a";
      ignore (D.flush s : int);
      D.set_incarnation s 3;
      D.kill s;
      Sys.remove (Filename.concat dir "sync.dat");
      let s2, r = open_str dir in
      Alcotest.(check bool) "loss detected" true r.D.sync_area_missing;
      Alcotest.(check bool) "damage reported" true (D.damaged r);
      Alcotest.(check int) "incarnation lost, not invented" 0 (D.incarnation s2);
      D.kill s2)

(* ------------------------------------------------------------------ *)
(* Node: kill, then a fresh node over the same directory *)

let quiet_counter_config () =
  let base = Util.counter_config ~k:2 ~n:4 () in
  { base with Config.timing = Util.quiet_timing }

let test_node_restart_from_disk () =
  with_dir (fun dir ->
      let config = quiet_counter_config () in
      let trace = Recovery.Trace.create () in
      let node =
        Node.create ~config ~pid:0 ~app:Counter.app ~store_dir:dir ?obs:None ~trace
      in
      for seq = 1 to 5 do
        ignore (Node.inject node ~now:(float_of_int seq) ~seq (Counter.Add seq))
      done;
      ignore (Node.flush node ~now:6.);
      ignore (Node.inject node ~now:7. ~seq:6 (Counter.Add 100));
      (* process death: the handle is gone; "Add 100" was volatile *)
      Node.halt node ~now:8.;
      let fresh =
        Node.create ~config ~pid:0 ~app:Counter.app ~store_dir:dir ?obs:None ~trace
      in
      Alcotest.(check bool) "fresh handle starts down" false (Node.is_up fresh);
      (match Node.storage_report fresh with
      | Some r ->
        Alcotest.(check bool) "reopen not fresh" false r.Storage.Stable_store.fresh;
        Alcotest.(check bool) "clean store" false
          (Storage.Stable_store.report_damaged r)
      | None -> Alcotest.fail "durable node must have a storage report");
      ignore (Node.restart fresh ~now:10.);
      Alcotest.(check bool) "up after restart" true (Node.is_up fresh);
      let st : Counter.state = Node.app_state fresh in
      Alcotest.(check int) "flushed work replayed, volatile lost" 15 st.total;
      Alcotest.(check int) "restart counted" 1
        (Util.metric fresh "restarts"))

let test_node_halt_requires_durable_store () =
  let config = quiet_counter_config () in
  let trace = Recovery.Trace.create () in
  let node =
    Node.create ~config ~pid:0 ~app:Counter.app ?store_dir:None ?obs:None ~trace
  in
  Alcotest.check_raises "halt on in-memory node"
    (Invalid_argument "Node.halt: only a node with a durable store can be killed")
    (fun () -> Node.halt node ~now:1.)

(* ------------------------------------------------------------------ *)
(* Cluster: kill + respawn mid-run, certified by the causality oracle *)

let test_cluster_kill_respawn_certified () =
  let root = Durable.Temp.fresh_dir ~prefix:"test-cluster-kill" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf root)
    (fun () ->
      let n = 4 in
      let config = Config.harden (Config.k_optimistic ~n ~k:2 ()) in
      let cluster =
        Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:5
          ~horizon:1500. ~store_root:root ()
      in
      let rng = Sim.Rng.create 99 in
      Harness.Workload.telecom cluster ~rng ~calls:20 ~hops:3 ~start:10. ~rate:1.0;
      Harness.Cluster.kill_at cluster ~time:50. ~pid:1 ();
      Harness.Cluster.run cluster;
      let oracle = Harness.Oracle.check ~k:2 ~n (Harness.Cluster.trace cluster) in
      if not (Harness.Oracle.ok oracle) then
        Alcotest.failf "kill+respawn run not certified: %a" Harness.Oracle.pp_report
          oracle;
      (match Harness.Cluster.storage_reports cluster with
      | [ (pid, time, note, report) ] ->
        Alcotest.(check int) "respawned pid" 1 pid;
        Alcotest.(check bool) "after restart delay" true (time > 50.);
        Alcotest.(check string) "no injected damage" "none" note;
        Alcotest.(check bool) "recovered from pre-existing files" false
          report.Storage.Stable_store.fresh;
        Alcotest.(check bool) "clean recovery" false
          (Storage.Stable_store.report_damaged report)
      | reports ->
        Alcotest.failf "expected exactly one respawn, got %d" (List.length reports));
      let stats = Harness.Cluster.stats cluster in
      Alcotest.(check bool) "the kill actually restarted a node" true
        (stats.Harness.Cluster.restarts >= 1))

let test_cluster_kill_with_damage_is_loud () =
  (* Torn write on top of the kill: the run must either stay certified or
     report the damage — an oracle violation with a clean storage report
     would be silent wrong state. *)
  let root = Durable.Temp.fresh_dir ~prefix:"test-cluster-torn" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf root)
    (fun () ->
      let n = 4 in
      let config = Config.harden (Config.k_optimistic ~n ~k:2 ()) in
      let cluster =
        Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:7
          ~horizon:1500. ~store_root:root ()
      in
      let rng = Sim.Rng.create 77 in
      Harness.Workload.telecom cluster ~rng ~calls:20 ~hops:3 ~start:10. ~rate:1.0;
      Harness.Cluster.kill_at cluster ~time:50. ~pid:1
        ~storage_fault:Durable.Fault.Torn_final_write ();
      Harness.Cluster.run cluster;
      let oracle = Harness.Oracle.check ~k:2 ~n (Harness.Cluster.trace cluster) in
      let damage_reported =
        List.exists
          (fun (_, _, note, report) ->
            note <> "none" || Storage.Stable_store.report_damaged report)
          (Harness.Cluster.storage_reports cluster)
      in
      Alcotest.(check bool) "fault injection recorded" true damage_reported;
      if not (Harness.Oracle.ok oracle) then
        Alcotest.(check bool) "violations only with reported damage" true
          damage_reported)

let suite =
  [
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec anomalies" `Quick test_codec_anomalies;
    Alcotest.test_case "codec scan stops at torn tail" `Quick
      test_codec_scan_stops_at_torn_tail;
    Alcotest.test_case "segment rotation + reopen" `Quick
      test_segment_rotation_and_reopen;
    Alcotest.test_case "segment kill drops unsynced" `Quick
      test_segment_kill_drops_unsynced;
    Alcotest.test_case "segment boundary gap detected" `Quick
      test_segment_boundary_gap_detected;
    Alcotest.test_case "segment truncate + compaction" `Quick
      test_segment_truncate_and_compact;
    Alcotest.test_case "store reopen round-trip" `Quick test_store_reopen_roundtrip;
    Alcotest.test_case "store torn tail truncated" `Quick
      test_store_torn_tail_truncated;
    Alcotest.test_case "store bit flip never yields a wrong record" `Quick
      test_store_bit_flip_never_wrong_record;
    Alcotest.test_case "store failing fsync detected" `Quick
      test_store_failing_fsync_detected;
    Alcotest.test_case "store group commit coalesces concurrent flushes" `Quick
      test_store_group_commit_coalesces;
    Alcotest.test_case "store corrupt checkpoint dropped" `Quick
      test_store_corrupt_checkpoint_dropped;
    Alcotest.test_case "store checkpoint past log dropped" `Quick
      test_store_checkpoint_past_log_dropped;
    Alcotest.test_case "store sync-area tail truncated" `Quick
      test_store_sync_area_tail_truncated;
    Alcotest.test_case "store sync-area missing" `Quick test_store_sync_area_missing;
    Alcotest.test_case "node restarts from disk" `Quick test_node_restart_from_disk;
    Alcotest.test_case "node halt requires durable store" `Quick
      test_node_halt_requires_durable_store;
    Alcotest.test_case "cluster kill+respawn certified" `Slow
      test_cluster_kill_respawn_certified;
    Alcotest.test_case "cluster kill with damage is loud" `Slow
      test_cluster_kill_with_damage_is_loud;
  ]
