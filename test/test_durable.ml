(* The durable storage subsystem on real files: record codec, segmented
   log, open-time recovery, storage fault injection, and
   crash-restart-from-disk at the node and cluster level.  The store's
   contract, run over both file systems, is in [Test_storage]; these tests
   aim at specific bytes of real files and at whole processes that die and
   come back from them. *)

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
  let records, _, tail = Util.frames_of s in
  Alcotest.(check bool) "clean tail" true (tail = Codec.Clean);
  Alcotest.(check (list (pair int string)))
    "all records back, in order"
    (List.mapi (fun i p -> (0x41 + i, p)) payloads)
    records

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
  let records, valid, tail = Util.frames_of torn in
  Alcotest.(check (list (pair int string))) "prefix survives"
    [ (0x4C, "one") ] records;
  Alcotest.(check bool) "tail torn" true (tail = Codec.Torn);
  Alcotest.(check int) "valid prefix length" (Codec.header_bytes + 3) valid

(* ------------------------------------------------------------------ *)
(* Segment log *)

(* The segment log alone frames records: accept any payload. *)
let open_seg ?(fs = Durable.Fs.unix) ?segment_bytes dir =
  Seg.open_ ~fs ~dir ?segment_bytes ~valid:(fun _ ~off:_ ~len:_ -> true) ()

let payload b ~off ~len = Some (Bytes.sub_string b off len)

(* What an open recovered, read back through the log. *)
let recovered_payloads log =
  Seg.read_from log ~pos:(Seg.first_index log) ~decode:payload

let test_segment_rotation_and_reopen () =
  with_dir (fun dir ->
      let log, _ = open_seg ~segment_bytes:64 dir in
      Alcotest.(check (list string)) "fresh" [] (recovered_payloads log);
      Alcotest.(check int) "fresh starts at 0" 0 (Seg.first_index log);
      let payloads = List.init 20 (fun i -> Printf.sprintf "record-%02d" i) in
      List.iteri
        (fun i p -> Alcotest.(check int) "index" i (Seg.append log p))
        payloads;
      Seg.sync log;
      Alcotest.(check bool) "rotated" true (Seg.segment_count log > 1);
      Seg.kill log;
      let log2, r = open_seg ~segment_bytes:64 dir in
      Alcotest.(check (list string)) "all synced records recovered" payloads
        (recovered_payloads log2);
      Alcotest.(check int) "no bytes dropped" 0 r.Seg.bytes_dropped;
      Alcotest.(check int) "next index continues" 20 (Seg.next_index log2);
      Seg.close log2)

(* A death loses what no fsync made durable only where the file system
   loses it: the kill itself cuts nothing, and the lying tree's halt cuts
   the unsynced append. *)
let test_segment_kill_drops_unsynced () =
  let tree = Durable.Fs.Mem.create () in
  let fs = Durable.Fs.Mem.fs tree in
  let log, _ = open_seg ~fs "log" in
  ignore (Seg.append log "synced" : int);
  Seg.sync log;
  Durable.Fs.Mem.lie tree Seg.is_segment;
  ignore (Seg.append log "lost" : int);
  Seg.sync log;
  Seg.kill log;
  let log2, _ = open_seg ~fs "log" in
  Alcotest.(check (list string)) "a kill alone keeps written bytes" [ "synced"; "lost" ]
    (recovered_payloads log2);
  Seg.kill log2;
  Durable.Fs.Mem.halt tree;
  let log3, r = open_seg ~fs "log" in
  Alcotest.(check (list string)) "only synced survives the lie" [ "synced" ]
    (recovered_payloads log3);
  Alcotest.(check bool) "clean tail (no torn bytes on disk)" true (r.Seg.tail = Codec.Clean);
  Seg.close log3

let test_segment_read_skips_empty_newest () =
  (* A death between a rotation and the newest segment's first true fsync
     leaves that segment empty, starting above every earlier record:
     read-back must skip it. *)
  let tree = Durable.Fs.Mem.create () in
  let fs = Durable.Fs.Mem.fs tree in
  let log, _ = open_seg ~fs ~segment_bytes:16 "log" in
  List.iter (fun p -> ignore (Seg.append log p : int)) [ "first record"; "second record" ];
  Seg.sync log;
  Durable.Fs.Mem.lie tree Seg.is_segment;
  ignore (Seg.append log "lost after rotation" : int);
  Seg.sync log;
  Alcotest.(check int) "one record per segment" 3 (Seg.segment_count log);
  Seg.kill log;
  Durable.Fs.Mem.halt tree;
  let log2, _ = open_seg ~fs ~segment_bytes:16 "log" in
  Alcotest.(check int) "empty newest segment kept" 3 (Seg.segment_count log2);
  List.iter
    (fun (pos, expected) ->
      Alcotest.(check (list string)) (Printf.sprintf "from %d" pos) expected
        (Seg.read_from log2 ~pos ~decode:payload))
    [ (0, [ "first record"; "second record" ]); (1, [ "second record" ]); (2, []) ];
  Seg.close log2

let test_segment_boundary_gap_detected () =
  with_dir (fun dir ->
      let log, _ = open_seg ~segment_bytes:64 dir in
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
      let log2, r = open_seg ~segment_bytes:64 dir in
      Alcotest.(check bool) "corrupt tail" true (r.Seg.tail = Codec.Corrupt_tail);
      Alcotest.(check bool) "later segments dropped" true (r.Seg.segments_dropped >= 1);
      let recovered = recovered_payloads log2 in
      Alcotest.(check bool) "strict prefix recovered" true
        (List.length recovered < 20);
      (* what survives is a gap-free prefix *)
      List.iteri
        (fun i p -> Alcotest.(check string) "prefix record" (Printf.sprintf "r%02d" i) p)
        recovered;
      Seg.close log2)

let test_segment_truncate_and_compact () =
  with_dir (fun dir ->
      let log, _ = open_seg ~segment_bytes:64 dir in
      List.iter
        (fun i -> ignore (Seg.append log (Printf.sprintf "r%02d" i) : int))
        (List.init 20 Fun.id);
      Seg.sync log;
      Seg.truncate_after log ~keep:12;
      Alcotest.(check int) "appends continue at keep" 12 (Seg.append log "new-12");
      Seg.sync log;
      Seg.drop_segments_below log ~before:8;
      let first = Seg.first_index log in
      Alcotest.(check bool) "old segments gone" true (first > 0);
      Seg.kill log;
      let log2, _ = open_seg ~segment_bytes:64 dir in
      Alcotest.(check int) "first index survives reopen" first (Seg.first_index log2);
      let expected =
        List.filteri (fun i _ -> i + first < 12) (List.init 20 Fun.id)
        |> List.map (fun i -> Printf.sprintf "r%02d" (i + first))
      in
      Alcotest.(check (list string)) "suffix + new record"
        (expected @ [ "new-12" ])
        (recovered_payloads log2);
      Seg.close log2)

(* ------------------------------------------------------------------ *)
(* Durable store: open-time recovery under damage *)

(* Open into a private registry: the store, and a snapshot of what
   open-time recovery counted there. *)
let open_found ~fs ~dir ?segment_bytes () : (string, string, string, string) D.t * Obs.Snapshot.t =
  let obs = Obs.Registry.create () in
  let s = D.open_ ~fs ~dir ?segment_bytes ~obs () in
  (s, Obs.Registry.snapshot obs)

let open_str dir = open_found ~fs:Durable.Fs.unix ~dir ()

(* A [storage_<name>_total] count of an open's snapshot. *)
let found snap name = Obs.Snapshot.counter snap ("storage_" ^ name ^ "_total")

let damaged snap = D.losses snap <> []

let test_store_reopen_roundtrip () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.save_checkpoint s "ck0";
      List.iter (D.append_volatile s) [ "a"; "b"; "c" ];
      ignore (D.flush s : int);
      D.log_announcement s "ann1";
      D.append_volatile s "volatile-lost";
      D.kill s;
      let s2, r = open_str dir in
      Alcotest.(check bool) "not fresh" false (D.fresh s2);
      Alcotest.(check int) "one reopen counted" 1 (found r "reopens");
      Alcotest.(check bool) "undamaged" false (damaged r);
      Alcotest.(check int) "log recovered" 3 (D.live_log_records s2);
      Alcotest.(check (list string)) "log back" [ "a"; "b"; "c" ]
        (D.stable_log_from s2 ~pos:0);
      Alcotest.(check (list string)) "checkpoint back" [ "ck0" ]
        (List.of_seq (D.checkpoints s2));
      Alcotest.(check int) "checkpoint counted without a read" 1 (D.checkpoint_count s2);
      Alcotest.(check (list string)) "announcement back" [ "ann1" ]
        (D.announcements s2);
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
      Alcotest.(check bool) "damage reported" true (damaged r);
      Alcotest.(check bool) "bytes dropped" true (found r "log_bytes_dropped" > 0);
      Alcotest.(check int) "prefix recovered" 2 (D.live_log_records s2);
      (* the witness knows three records were stable *)
      Alcotest.(check int) "missing vs witness" 1 (found r "missing_log_records");
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
      Alcotest.(check bool) "damage reported" true (damaged r);
      let recovered = D.stable_log_from s2 ~pos:0 in
      Alcotest.(check bool) "strict prefix" true (List.length recovered < 8);
      List.iteri
        (fun i p -> Alcotest.(check string) "true prefix record" (List.nth payloads i) p)
        recovered;
      D.kill s2)

(* A lying disk: the tree's log fsyncs report success and make nothing
   durable, and the death of the process cuts each segment back to what
   was synced.  The stable-length witness in the synchronous area, which
   the lie does not cover, exposes the loss at reopen. *)
let open_mem tree = open_found ~fs:(Durable.Fs.Mem.fs tree) ~dir:"store" ~segment_bytes:64 ()

let test_store_failing_fsync_detected () =
  let tree = Durable.Fs.Mem.create () in
  let s, _ = open_mem tree in
  D.append_volatile s "durable";
  ignore (D.flush s : int);
  Durable.Fs.Mem.lie tree Seg.is_segment;
  List.iter (D.append_volatile s) [ "claimed-1"; "claimed-2" ];
  ignore (D.flush s : int);
  (* the store believes three records are stable *)
  Alcotest.(check int) "store claims 3" 3 (D.stable_log_length s);
  D.kill s;
  Durable.Fs.Mem.halt tree;
  let s2, r = open_mem tree in
  Alcotest.(check int) "only the honest record survives" 1 (D.live_log_records s2);
  Alcotest.(check int) "the lie is exposed at reopen" 2 (found r "missing_log_records");
  Alcotest.(check bool) "damage reported" true (damaged r);
  D.kill s2

(* A lie that spans segment rotations and a truncation: after the halt,
   every segment holds exactly the bytes an honest fsync covered (the
   segments created during the lie hold none), the files the lie does not
   cover are untouched, and reopen counts every record the lie lost. *)
let test_store_lie_spans_rotation_and_truncate () =
  let tree = Durable.Fs.Mem.create () in
  let s, _ = open_mem tree in
  let flush rs =
    List.iter (D.append_volatile s) rs;
    ignore (D.flush s : int)
  in
  let names prefix n = List.init n (Printf.sprintf "%s%d" prefix) in
  flush (names "a" 3);
  D.save_checkpoint s "ck";
  let segments () = List.filter (fun (e : Durable.Fs.Mem.entry) -> Seg.is_segment e.path) (Durable.Fs.Mem.files tree) in
  let honest = List.length (segments ()) in
  Durable.Fs.Mem.lie tree Seg.is_segment;
  flush (names "b" 2);
  flush (names "c" 2);
  Alcotest.(check (list string)) "truncated while lying" [ "c0"; "c1" ]
    (D.truncate_stable_log s ~keep:5);
  flush (names "d" 3);
  Alcotest.(check int) "store claims 8" 8 (D.stable_log_length s);
  Alcotest.(check bool) "the lie spans rotations" true (List.length (segments ()) > honest + 1);
  D.kill s;
  let before = Durable.Fs.Mem.files tree in
  Durable.Fs.Mem.halt tree;
  let after = Durable.Fs.Mem.files tree in
  List.iter2
    (fun (b : Durable.Fs.Mem.entry) (a : Durable.Fs.Mem.entry) ->
      Alcotest.(check string) ("same file " ^ b.path) b.path a.path;
      let expected = if Seg.is_segment b.path then String.sub b.bytes 0 b.synced else b.bytes in
      Alcotest.(check string) (b.path ^ " holds its synced bytes") expected a.bytes)
    before after;
  let s2, r = open_mem tree in
  Alcotest.(check int) "the honest records survive" 3 (D.live_log_records s2);
  Alcotest.(check int) "every record the lie lost is missing" 5
    (found r "missing_log_records");
  Alcotest.(check bool) "damage reported" true (damaged r);
  Alcotest.(check (list string)) "log back" (names "a" 3) (D.stable_log_from s2 ~pos:0);
  Alcotest.(check (option string)) "checkpoint kept" (Some "ck") (D.latest_checkpoint s2);
  D.kill s2

(* A flush whose fsync raises: [flush] re-raises, counts no flush and
   writes no stable-length witness, which would claim records the fsync
   never made durable.  The log is fail-stop from then on: a retried fsync
   could report success for pages the kernel already dropped, so the next
   flush raises without reaching fsync, even once the disk would answer.
   The wrapper's handles count fsyncs and raise EIO while [failing] is
   set. *)
let test_store_raising_fsync_no_witness () =
  let failing = ref false in
  let fsyncs = ref 0 in
  let mem = Durable.Fs.mem () in
  let wrap (f : Durable.Fs.file) =
    let fsync () =
      incr fsyncs;
      if !failing then raise (Unix.Unix_error (Unix.EIO, "fsync", "")) else f.fsync ()
    in
    { f with fsync }
  in
  let fs =
    {
      mem with
      open_append = (fun p -> wrap (mem.open_append p));
      create = (fun p -> wrap (mem.create p));
    }
  in
  let obs = Obs.Registry.create () in
  let dir = "store" in
  let s : (string, string, string, string) D.t = D.open_ ~fs ~dir ~obs () in
  let sync_size () = fs.size (Filename.concat dir "sync.dat") in
  let flushes () = Obs.Snapshot.counter (Obs.Registry.snapshot obs) "storage_flushes_total" in
  D.append_volatile s "a";
  let before = sync_size () in
  Alcotest.(check int) "a good flush" 1 (D.flush s);
  Alcotest.(check bool) "a good flush writes a witness" true (sync_size () > before);
  Alcotest.(check int) "a good flush is counted" 1 (flushes ());
  D.append_volatile s "b";
  let before = sync_size () in
  failing := true;
  (match D.flush s with
  | _ -> Alcotest.fail "flush returned over a raising fsync"
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  Alcotest.(check int) "no witness for the failed round" before (sync_size ());
  Alcotest.(check int) "the failed round is not counted" 1 (flushes ());
  failing := false;
  let fsyncs_after_failure = !fsyncs in
  D.append_volatile s "c";
  (match D.flush s with
  | _ -> Alcotest.fail "flush returned after a raising fsync"
  | exception Failure _ -> ());
  Alcotest.(check int) "no fsync after the failed one" fsyncs_after_failure !fsyncs;
  Alcotest.(check int) "no witness for the refused round" before (sync_size ());
  Alcotest.(check int) "the refused round is not counted" 1 (flushes ());
  D.kill s

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
      Alcotest.(check int) "one dropped" 1 (found r "checkpoints_dropped");
      Alcotest.(check (option string)) "older checkpoint serves" (Some "ck-old")
        (D.latest_checkpoint s2);
      Alcotest.(check bool) "damage reported" true (damaged r);
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
      Alcotest.(check int) "checkpoint dropped" 1 (found r "checkpoints_dropped");
      Alcotest.(check (option string)) "no usable checkpoint" None
        (D.latest_checkpoint s2);
      Alcotest.(check bool) "damage reported" true (damaged r);
      D.kill s2)

let test_store_sync_area_tail_truncated () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.log_announcement s "ann-1";
      D.log_announcement s "ann-2";
      D.kill s;
      chop (Filename.concat dir "sync.dat") 1;
      let s2, r = open_str dir in
      Alcotest.(check bool) "damage reported" true (damaged r);
      Alcotest.(check bool) "tail bytes dropped" true (found r "sync_bytes_dropped" > 0);
      Alcotest.(check (list string)) "prefix of announcements" [ "ann-1" ]
        (D.announcements s2);
      D.kill s2)

let test_store_sync_area_missing () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.append_volatile s "a";
      ignore (D.flush s : int);
      D.kill s;
      Sys.remove (Filename.concat dir "sync.dat");
      let s2, r = open_str dir in
      Alcotest.(check int) "loss detected" 1 (found r "sync_area_lost");
      Alcotest.(check bool) "damage reported" true (damaged r);
      D.kill s2)

(* The store keeps announcements and checkpoint snapshots only in their
   files, so damage done after open surfaces when they are read back: as
   an error naming the file, never as a shorter list or another
   checkpoint. *)
let test_store_read_back_damage_fails () =
  with_dir (fun dir ->
      let s, _ = open_str dir in
      D.log_announcement s "ann-1";
      D.save_checkpoint s "ck";
      Alcotest.(check (list string)) "announcement read back" [ "ann-1" ]
        (D.announcements s);
      Alcotest.(check (option string)) "checkpoint read back" (Some "ck")
        (D.latest_checkpoint s);
      let fails_naming path read =
        match read () with
        | _ -> Alcotest.failf "damaged %s was read back" path
        | exception Failure msg ->
          let n = String.length path in
          let rec names i =
            i + n <= String.length msg && (String.sub msg i n = path || names (i + 1))
          in
          Alcotest.(check bool) ("names the file: " ^ msg) true (names 0)
      in
      let sync = Filename.concat dir "sync.dat" in
      flip sync ((Unix.stat sync).Unix.st_size - 1);
      fails_naming sync (fun () -> D.announcements s);
      (match ckpt_files dir with
      | [ ck ] ->
        flip ck (Codec.header_bytes + 2);
        fails_naming ck (fun () -> D.latest_checkpoint s)
      | files -> Alcotest.failf "expected one checkpoint file, got %d" (List.length files));
      D.kill s)

(* [announcements] skips only the records open counted as dropped, found
   by the same seal-and-header check.  A record whose seal is broken is
   there at open and counted; a sealed record that is not a Marshal value,
   appended after open, is damage open never saw: reading it back fails,
   naming the file and the byte, and never answers with a shorter list. *)
let k_ann = 0x41 (* the synchronous area's announcement kind *)

let test_store_sync_undecodable_after_open_fails () =
  let fs = Durable.Fs.mem () in
  let sync = "store/sync.dat" in
  let append frame =
    let f = fs.open_append sync in
    f.write frame;
    f.close ()
  in
  let open_ () = open_found ~fs ~dir:"store" () in
  let s, _ = open_ () in
  D.log_announcement s "ann-1";
  D.kill s;
  append (Codec.encode ~kind:k_ann "not sealed");
  let s, r = open_ () in
  Alcotest.(check int) "open counts the broken seal"
    (2 * Codec.header_bytes + String.length "not sealed" - Codec.header_bytes)
    (found r "sync_bytes_dropped");
  D.log_announcement s "ann-2";
  Alcotest.(check (list string)) "the counted record is skipped" [ "ann-1"; "ann-2" ]
    (D.announcements s);
  let at = fs.size sync in
  append (Codec.encode ~kind:k_ann (Codec.seal "not a Marshal value"));
  (match D.announcements s with
  | anns -> Alcotest.failf "read back %d announcements past a bad record" (List.length anns)
  | exception Failure msg ->
    let names part =
      let n = String.length part in
      let rec at i = i + n <= String.length msg && (String.sub msg i n = part || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) ("names the file: " ^ msg) true (names sync);
    Alcotest.(check bool) ("names the byte: " ^ msg) true (names (Printf.sprintf "byte %d" at)));
  D.kill s

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
      let r = Obs.Registry.snapshot (Node.obs fresh) in
      Alcotest.(check int) "reopen not fresh" 1 (found r "reopens");
      Alcotest.(check bool) "clean store" false (damaged r);
      ignore (Node.restart_begin fresh ~now:10.);
      Alcotest.(check bool) "up after restart" true (Node.is_up fresh);
      let st : Counter.state = Node.app_state fresh in
      Alcotest.(check int) "flushed work replayed, volatile lost" 15 st.total;
      Alcotest.(check int) "restart counted" 1
        (Util.metric fresh "restarts");
      Node.halt fresh ~now:11.)

(* On an in-memory tree halting kills the store just the same, and
   nothing can come back through the dead handle. *)
let test_node_halt_in_memory () =
  let config = quiet_counter_config () in
  let trace = Recovery.Trace.create () in
  let node =
    Node.create_on ~fs:(Durable.Fs.mem ()) ~config ~pid:0 ~app:Counter.app
      ~store_dir:"store" ?obs:None ~trace
  in
  ignore (Node.inject node ~now:1. ~seq:1 (Counter.Add 1));
  Node.halt node ~now:2.;
  Alcotest.(check bool) "down" false (Node.is_up node);
  Alcotest.check_raises "restart of the dead handle" (Invalid_argument "Durable_store: store killed")
    (fun () -> ignore (Node.restart_begin node ~now:3.))

(* ------------------------------------------------------------------ *)
(* Cluster: kill + respawn mid-run, certified by the causality oracle *)

let test_cluster_kill_respawn_certified () =
  let n = 4 in
  let config = Config.harden (Config.k_optimistic ~n ~k:2 ()) in
  let cluster =
    Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:5 ~horizon:1500. ()
  in
  let rng = Sim.Rng.create 99 in
  Harness.Workload.telecom cluster ~rng ~calls:20 ~hops:3 ~start:10. ~rate:1.0;
  Harness.Cluster.kill_at cluster ~time:50. ~pid:1 ();
  Harness.Cluster.run cluster;
  let oracle = Harness.Oracle.check ~k:2 ~n (Harness.Cluster.trace cluster) in
  if not (Harness.Oracle.ok oracle) then
    Alcotest.failf "kill+respawn run not certified: %a" Harness.Oracle.pp_report oracle;
  let stats = Harness.Cluster.stats cluster in
  Alcotest.(check int) "exactly one respawn" 1 (Util.total stats "storage_reopens");
  Alcotest.(check int) "respawned pid" 1
    (Util.metric (Harness.Cluster.node cluster 1) "storage_reopens");
  Alcotest.(check bool) "after restart delay" true
    (List.exists
       (fun { Recovery.Trace.time; ev; _ } ->
         match ev with Recovery.Trace.Restarted { pid = 1; _ } -> time > 50. | _ -> false)
       (Recovery.Trace.events (Harness.Cluster.trace cluster)));
  Alcotest.(check int) "no injected damage" 0
    (List.length (Harness.Cluster.fault_notes cluster));
  Alcotest.(check bool) "clean recovery" false (damaged stats.Harness.Cluster.obs);
  Alcotest.(check bool) "the kill actually restarted a node" true
    (Util.total (Harness.Cluster.stats cluster) "restarts" >= 1)

let test_cluster_kill_with_damage_is_loud () =
  (* Torn write on top of the kill: the run must either stay certified or
     report the damage — an oracle violation with a clean storage report
     would be silent wrong state. *)
  let n = 4 in
  let config = Config.harden (Config.k_optimistic ~n ~k:2 ()) in
  let cluster =
    Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:7 ~horizon:1500. ()
  in
  let rng = Sim.Rng.create 77 in
  Harness.Workload.telecom cluster ~rng ~calls:20 ~hops:3 ~start:10. ~rate:1.0;
  Harness.Cluster.kill_at cluster ~time:50. ~pid:1
    ~storage_fault:Durable.Fault.Torn_final_write ();
  Harness.Cluster.run cluster;
  let oracle = Harness.Oracle.check ~k:2 ~n (Harness.Cluster.trace cluster) in
  let damage_reported =
    Harness.Cluster.fault_notes cluster <> []
    || damaged (Harness.Cluster.stats cluster).Harness.Cluster.obs
  in
  Alcotest.(check bool) "fault injection recorded" true damage_reported;
  if not (Harness.Oracle.ok oracle) then
    Alcotest.(check bool) "violations only with reported damage" true damage_reported

(* Every simulated store lives on an in-memory tree: a chaos case per kill
   fault and an E12-style kill, run with the working directory on an
   empty directory and [$TMPDIR] naming a directory not yet made inside
   it, leave it empty.  A temporary store root made and removed during
   the run would leave [$TMPDIR] itself behind. *)
let test_simulator_touches_no_file () =
  let dir = Durable.Temp.fresh_dir ~prefix:"test-no-files" () in
  let cwd = Sys.getcwd () and tmpdir = Sys.getenv_opt "TMPDIR" in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Unix.putenv "TMPDIR" (Option.value tmpdir ~default:(Filename.get_temp_dir_name ()));
      Durable.Temp.rm_rf dir)
    (fun () ->
      Unix.putenv "TMPDIR" (Filename.concat dir "tmp");
      Sys.chdir dir;
      List.iter
        (fun fault ->
          let case =
            {
              Harness.Chaos.n = 4;
              k = 2;
              seed = 11;
              faults = [ Harness.Chaos.Kill { pid = 1; time = 60.; storage = Some fault } ];
            }
          in
          match (Harness.Chaos.run_case ~calls:20 case).Harness.Chaos.verdict with
          | Harness.Chaos.Certified _ | Harness.Chaos.Detected _ -> ()
          | v ->
            Alcotest.failf "%s: %a" (Durable.Fault.to_string fault) Harness.Chaos.pp_verdict v)
        Durable.Fault.all;
      let config = Config.harden (Config.k_optimistic ~n:6 ~k:2 ()) in
      let cluster =
        Harness.Cluster.create ~config ~app:App_model.Telecom_app.app ~seed:3 ~horizon:1500. ()
      in
      Harness.Workload.telecom cluster ~rng:(Sim.Rng.create (3 * 7919)) ~calls:60 ~hops:4
        ~start:10. ~rate:1.0;
      Harness.Cluster.kill_at cluster ~time:60. ~pid:2 ~storage_fault:Durable.Fault.Failed_fsync ();
      Harness.Cluster.run cluster;
      Alcotest.(check int) "one respawn" 1
        (Util.total (Harness.Cluster.stats cluster) "storage_reopens");
      Alcotest.(check (list string)) "nothing made under the working directory" []
        (Array.to_list (Sys.readdir dir)))

(* Daemon-path retention: a node over a durable store whose trace is
   synced to a file after every step, the way koptnode drives it, keeps in
   memory neither the trace entries it wrote nor the log records,
   checkpoints and announcements its store wrote.  The run commits an
   output every 10 ops and checkpoints every 500, so the synchronous area
   and the checkpoint files grow with the log.  The store's memory is
   metadata only (one small record per 64 KiB segment and one sequence
   number per checkpoint): well under a word per flushed record.  A store
   that mirrored its records grew by 30+ words each; one that kept
   per-record byte offsets, its announcements and its checkpoint
   snapshots, by about 4. *)
let test_daemon_retention_flat () =
  with_dir (fun dir ->
      let config = quiet_counter_config () in
      let trace = Recovery.Trace.create () in
      let trace_file = Filename.concat dir "trace.bin" in
      let writer = Net.Trace_codec.open_writer trace_file in
      let node =
        Node.create ~config ~pid:0 ~app:Counter.app
          ~store_dir:(Filename.concat dir "store") ?obs:None ~trace
      in
      let sync () =
        Net.Trace_codec.sync writer trace;
        if Recovery.Trace.events trace <> [] then
          Alcotest.fail "trace kept entries after a sync"
      in
      let ops = ref 0 in
      (* Op [i] is the client's [i]th injection: channel number [i - 1]. *)
      let inject i =
        let msg = if i mod 10 = 0 then Counter.Report else Counter.Add 1 in
        ignore (Node.inject node ~now:(float_of_int i) ~seq:i ~cseq:(i - 1) msg);
        sync ()
      in
      (* Eager flush every 10 ops: batches of 10 events, as koptnode forms
         them under load.  Each batch ends with a Report, whose output
         commits at the next flush. *)
      let after i =
        let now = float_of_int i in
        if i mod 10 = 0 then begin
          ignore (Node.flush node ~now);
          sync ()
        end;
        if i mod 500 = 0 then begin
          ignore (Node.checkpoint node ~now);
          sync ()
        end
      in
      (* Network faults on the client's side: every seventh op arrives
         after its successor, and every fifth is delivered twice. *)
      let drive_to total =
        while !ops < total do
          incr ops;
          let i = !ops in
          if i mod 7 = 0 && i < total then begin
            incr ops;
            inject (i + 1);
            inject i;
            after i;
            after (i + 1)
          end
          else begin
            inject i;
            if i mod 5 = 0 then inject i;
            after i
          end
        done
      in
      let check_trace_file () =
        match Net.Trace_codec.load_file trace_file with
        | Error e -> Alcotest.fail e
        | Ok load ->
          Alcotest.(check (option string)) "trace file clean" None load.damage;
          Alcotest.(check int) "file holds every entry ever added"
            (Recovery.Trace.length trace) (List.length load.entries)
      in
      drive_to 1_000;
      check_trace_file ();
      let words_1k = Node.storage_words node in
      let dedup_1k = Node.dedup_words node in
      let records_1k = Node.stable_log_length node in
      drive_to 10_000;
      check_trace_file ();
      let words_10k = Node.storage_words node in
      let dedup_10k = Node.dedup_words node in
      let records_10k = Node.stable_log_length node in
      Alcotest.(check int) "every op logged" 9_000 (records_10k - records_1k);
      Alcotest.(check bool) "outputs committed" true
        (Util.metric node "outputs_committed" >= 900);
      let per_record =
        float_of_int (words_10k - words_1k) /. float_of_int (records_10k - records_1k)
      in
      if per_record >= 1. then
        Alcotest.failf "store grew %.1f words per flushed record (%d -> %d words)"
          per_record words_1k words_10k;
      Alcotest.(check bool) "duplicates dropped" true
        (Util.metric node "duplicates_dropped" >= 1_000);
      let dedup_per_op = float_of_int (dedup_10k - dedup_1k) /. 9_000. in
      if dedup_per_op >= 1. then
        Alcotest.failf "duplicate suppression grew %.1f words per op (%d -> %d words)"
          dedup_per_op dedup_1k dedup_10k;
      Node.halt node ~now:10_001.;
      Net.Trace_codec.close_writer writer)

(* Restart reads its store back one frame at a time, and what a restart
   keeps is what the protocol retains on purpose — the duplicate-
   suppression state its newest checkpoint saved, the identities of the
   deliveries after it, and the log suffix after it.  So the words a
   restart promotes to the major heap are bounded per logged delivery.
   5,000 deliveries in ten-record flushes and a checkpoint every 250 make
   several 64 KiB segments and 21 checkpoint files; the newest checkpoint
   leaves no suffix to replay.  A restart that re-seeded duplicate
   suppression from the whole log promoted about 18 words per record; one
   that read the whole log into one list, 33, and with an open that
   collected every recovered payload, 55. *)
let restart_records = 5_000

let restart_words_per_record = 25.

let logged_node ?(records = restart_records) ?(every = 250) ~fs ~store_dir () =
  let config = quiet_counter_config () in
  let trace = Recovery.Trace.create () in
  let node =
    Node.create_on ~fs ~config ~pid:0 ~app:Counter.app ~store_dir ?obs:None ~trace
  in
  for i = 1 to records do
    let now = float_of_int i in
    ignore (Node.inject node ~now ~seq:i ~cseq:(i - 1) (Counter.Add i));
    if i mod 10 = 0 then ignore (Node.flush node ~now);
    if i mod every = 0 then ignore (Node.checkpoint node ~now)
  done;
  Alcotest.(check int) "every delivery logged" records (Node.stable_log_length node);
  (node, config, trace)

(* Words promoted to the major heap while [f] runs, per logged record. *)
let promoted_per_record f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let node = f () in
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.promoted_words -. before in
  Alcotest.(check bool) "up after restart" true (Node.is_up node);
  Node.halt node ~now:7_000.;
  words /. float_of_int restart_records

let check_restart_words what per_record =
  if per_record > restart_words_per_record then
    Alcotest.failf "%s promoted %.1f words per logged record (bound %.0f)" what
      per_record restart_words_per_record

let test_restart_words_bounded () =
  (* A process death and a fresh node over what it left behind, on the
     in-memory tree (the simulator's) and on real files (the daemon's).
     The reopen runs open-time recovery over every segment, checkpoint
     and sync record. *)
  let respawn ?(left_behind = ignore) what ~fs ~store_dir =
    let node, config, trace = logged_node ~fs ~store_dir () in
    Node.halt node ~now:6_000.;
    left_behind ();
    check_restart_words what
      (promoted_per_record (fun () ->
           let fresh =
             Node.create_on ~fs ~config ~pid:0 ~app:Counter.app ~store_dir ?obs:None
               ~trace
           in
           ignore (Node.restart_begin fresh ~now:6_001.);
           fresh))
  in
  respawn "in-memory halt + reopen + restart_begin" ~fs:(Durable.Fs.mem ())
    ~store_dir:"store";
  with_dir (fun dir ->
      let left_behind () =
        Alcotest.(check bool) "several segments" true (List.length (seg_files dir) >= 3);
        Alcotest.(check int) "every checkpoint kept" 21 (List.length (ckpt_files dir))
      in
      respawn ~left_behind "on-disk halt + reopen + restart_begin" ~fs:Durable.Fs.unix
        ~store_dir:dir)

(* A checkpoint file in the earlier single-frame layout — one frame
   holding the pair (log position, snapshot) — is another format: open
   drops it without decoding it and reports it, and the restart falls
   back to the older checkpoint and replays the log from there. *)
let test_single_frame_checkpoint_dropped () =
  let fs = Durable.Fs.mem () in
  let store_dir = "store" in
  let config = quiet_counter_config () in
  let trace = Recovery.Trace.create () in
  let create () =
    Node.create_on ~fs ~config ~pid:0 ~app:Counter.app ~store_dir ?obs:None ~trace
  in
  let node = create () in
  for i = 1 to 30 do
    let now = float_of_int i in
    ignore (Node.inject node ~now ~seq:i ~cseq:(i - 1) (Counter.Add i));
    if i mod 10 = 0 then ignore (Node.checkpoint node ~now)
  done;
  let before = Node.app_state node in
  Node.halt node ~now:31.;
  let newest =
    fs.readdir store_dir
    |> List.filter (fun f -> String.starts_with ~prefix:"ckpt-" f)
    |> List.sort compare |> List.rev |> List.hd |> Filename.concat store_dir
  in
  Durable.Fs.write_file fs newest
    (Codec.encode ~kind:0x43 (Codec.seal (Marshal.to_string (30, "snapshot") [])));
  let fresh = create () in
  Alcotest.(check int) "single-frame file dropped" 1 (Util.metric fresh "storage_checkpoints_dropped");
  Alcotest.(check int) "older checkpoints kept" 3
    (List.length
       (List.filter (String.starts_with ~prefix:"ckpt-") (fs.readdir store_dir)));
  ignore (Node.restart_begin fresh ~now:32.);
  Alcotest.(check bool) "up" true (Node.is_up fresh);
  Alcotest.(check bool) "state rebuilt from the older checkpoint" true
    (Node.app_state fresh = before)

(* A file system that counts the reads of each path, whole or streamed. *)
let counting (fs : Durable.Fs.t) =
  let reads = Hashtbl.create 64 in
  let bump path =
    Hashtbl.replace reads path (1 + Option.value (Hashtbl.find_opt reads path) ~default:0)
  in
  let read path =
    bump path;
    fs.read path
  in
  let read_with path k =
    bump path;
    fs.read_with path k
  in
  ( { fs with read; read_with },
    (fun path -> Option.value (Hashtbl.find_opt reads path) ~default:0),
    fun () -> Hashtbl.reset reads )

(* A respawn reads its store once.  Open streams each file exactly once,
   checking frames where they lie; the restart then reads the newest
   checkpoint file — the one snapshot it decodes — the synchronous area,
   and only the segments holding log records at or after that
   checkpoint's position.  5,000 deliveries with a checkpoint every 250
   leave 21 checkpoint files and several segments; 37 more make a suffix
   to replay. *)
let test_respawn_reads_store_once () =
  let fs, reads, reset = counting (Durable.Fs.mem ()) in
  let store_dir = "store" in
  let node, config, trace = logged_node ~fs ~store_dir () in
  for i = restart_records + 1 to restart_records + 37 do
    ignore (Node.inject node ~now:(float_of_int i) ~seq:i ~cseq:(i - 1) (Counter.Add i))
  done;
  ignore (Node.flush node ~now:6_000.);
  Node.halt node ~now:6_000.;
  let files prefix =
    fs.readdir store_dir
    |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = prefix)
    |> List.sort compare
    |> List.map (Filename.concat store_dir)
  in
  let segs = files "seg-" and ckpts = files "ckpt" in
  Alcotest.(check bool) "several segments" true (List.length segs >= 3);
  Alcotest.(check int) "every checkpoint kept" 21 (List.length ckpts);
  let sync = Filename.concat store_dir "sync.dat" in
  reset ();
  let fresh = Node.create_on ~fs ~config ~pid:0 ~app:Counter.app ~store_dir ?obs:None ~trace in
  List.iter
    (fun path -> Alcotest.(check int) ("open reads " ^ path) 1 (reads path))
    ((sync :: segs) @ ckpts);
  reset ();
  ignore (Node.restart_begin fresh ~now:6_001.);
  Alcotest.(check bool) "up" true (Node.is_up fresh);
  let newest = List.nth ckpts 20 in
  List.iter
    (fun path ->
      Alcotest.(check int) ("restart reads " ^ path)
        (if path = newest then 1 else 0)
        (reads path))
    ckpts;
  Alcotest.(check int) "restart reads the synchronous area" 1 (reads sync);
  (* segment [i] holds the records from its start to the next one's *)
  let start path = int_of_string (String.sub (Filename.basename path) 4 12) in
  List.iteri
    (fun i path ->
      let wholly_below =
        match List.nth_opt segs (i + 1) with
        | Some next -> start next <= restart_records
        | None -> false
      in
      Alcotest.(check int) ("restart reads " ^ path)
        (if wholly_below then 0 else 1)
        (reads path))
    segs;
  Alcotest.(check int) "suffix replayed" (restart_records + 37)
    (Node.stable_log_length fresh)

(* The cost of a respawn follows the checkpoint suffix, not the history.
   The same cadence over 5,000 and over 20,000 logged deliveries, and
   the words a reopen + restart_begin allocates and promotes.  Promoted
   words — what a respawn keeps — may grow by at most half.  The minor
   words allocated grow only by what open spends per file: it lists and
   checks every checkpoint and segment file once, ~100 words each, and
   with GC off a checkpoint file accumulates per 250 deliveries and a
   segment per ~490 (0.64 words per delivery here).  With a few thousand
   fixed words per respawn that is more than half again over 15,000
   deliveries, so the minor words are bounded per logged delivery
   instead, at one word.  A restart that re-seeded duplicate suppression
   from the whole log allocated and promoted about 20 words per delivery
   more. *)
let test_restart_cost_flat () =
  let cost records =
    let fs = Durable.Fs.mem () in
    let node, config, trace = logged_node ~records ~fs ~store_dir:"store" () in
    Node.halt node ~now:30_000.;
    Gc.minor ();
    let s0 = Gc.quick_stat () in
    let fresh =
      Node.create_on ~fs ~config ~pid:0 ~app:Counter.app ~store_dir:"store" ?obs:None ~trace
    in
    ignore (Node.restart_begin fresh ~now:30_001.);
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    Alcotest.(check bool) "up after restart" true (Node.is_up fresh);
    (s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  let minor_5k, promoted_5k = cost 5_000 in
  let minor_20k, promoted_20k = cost 20_000 in
  if promoted_20k > 1.5 *. promoted_5k then
    Alcotest.failf "promoted words per respawn grew from %.0f to %.0f" promoted_5k
      promoted_20k;
  let per_delivery = (minor_20k -. minor_5k) /. 15_000. in
  if per_delivery > 1. then
    Alcotest.failf "minor words per respawn grew from %.0f to %.0f, %.2f per delivery"
      minor_5k minor_20k per_delivery

(* [Durable.Path] stands in for [Stdlib.Filename] in the store, so it
   must name the same files: it agrees with [Filename] on every path
   shape the store and the in-memory file system build or walk up. *)
let test_path_matches_filename () =
  let paths =
    [
      ""; "a"; "/"; "//"; "/a"; "a/b"; "a/b/"; "a//b//"; "./x"; "../x/y";
      "/tmp/s/seg-1.dat";
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check string)
        ("dirname " ^ p) (Filename.dirname p) (Durable.Path.dirname p);
      List.iter
        (fun name ->
          Alcotest.(check string)
            (Printf.sprintf "concat %S %S" p name)
            (Filename.concat p name) (Durable.Path.concat p name))
        [ "x"; "sync.dat" ];
      if p <> "" && not (String.ends_with ~suffix:"/" p) then
        Alcotest.(check string) ("basename " ^ p) (Filename.basename p)
          (Durable.Path.basename p))
    paths

(* The byte-at-a-time CRC32 the frame checksum was first computed with:
   the reference the slicing-by-8 [Codec.crc32] must agree with. *)
let reference_crc32 ?(init = 0) s ~pos ~len =
  let table =
    Array.init 256 (fun i ->
        let c = ref i in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (init lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_matches_reference =
  Util.qtest ~count:500 "crc32 = byte-at-a-time reference"
    QCheck2.Gen.(
      triple (string_size (int_bound 80)) (int_bound 0xFFFFFFFF) (pair nat nat))
    (fun (s, init, (a, b)) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Codec.crc32 ~init s ~pos ~len = reference_crc32 ~init s ~pos ~len
      && Codec.crc32 s ~pos:0 ~len:n = reference_crc32 s ~pos:0 ~len:n)

let test_crc_check_value () =
  Alcotest.(check int) "CRC-32 of \"123456789\"" 0xCBF43926
    (Codec.crc32 "123456789" ~pos:0 ~len:9);
  let s = String.init 4096 (fun i -> Char.chr ((i * 7919) land 0xFF)) in
  let words = Gc.minor_words () in
  let c = Codec.crc32 s ~pos:3 ~len:4000 in
  Alcotest.(check (float 0.)) "no allocation" 0. (Gc.minor_words () -. words);
  Alcotest.(check int) "4 KiB at an odd offset" (reference_crc32 s ~pos:3 ~len:4000) c

(* The paper's single stable-storage operation per flush, for outputs
   too: one flush that commits [k] outputs makes its log records durable
   with one fsync and the [k] output-commit records with one more, all
   before it returns (the records, buffered as each output commits, are
   fsynced once at the end of the step).  Each record still counts one
   synchronous write, as the cost model charges. *)
let test_flush_commits_outputs_with_one_fsync () =
  let k = 10 in
  let tree = Durable.Fs.Mem.create () in
  let config = quiet_counter_config () in
  let node =
    Node.create_on ~fs:(Durable.Fs.Mem.fs tree) ~config ~pid:0 ~app:Counter.app
      ~store_dir:"store" ?obs:None ~trace:(Recovery.Trace.create ())
  in
  for seq = 1 to k do
    ignore (Node.inject node ~now:(float_of_int seq) ~seq ~cseq:(seq - 1) Counter.Report)
  done;
  Alcotest.(check int) "every output waits on the flush" k (Node.output_buffer_size node);
  let fsyncs = ref 0 in
  Durable.Fs.Mem.before_fsync tree (fun () -> incr fsyncs);
  let committed0 = Util.metric node "outputs_committed" in
  let _, cost = Node.flush node ~now:20. in
  Alcotest.(check int) "outputs committed" k
    (Util.metric node "outputs_committed" - committed0);
  Alcotest.(check int) "fsyncs: the log's and sync.dat's" 2 !fsyncs;
  Alcotest.(check int) "sync writes: the flush and one per output" (k + 1)
    cost.Node.sync_writes;
  match
    List.find_opt
      (fun (e : Durable.Fs.Mem.entry) -> Filename.basename e.path = "sync.dat")
      (Durable.Fs.Mem.files tree)
  with
  | None -> Alcotest.fail "no sync.dat"
  | Some e ->
    Alcotest.(check int) "sync.dat durable when the flush returns"
      (String.length e.bytes) e.synced

(* A partition checkpoint is one file written whole: with nothing
   volatile, replacing a partition's snapshot costs exactly the new file's
   fsync, unlinks the old file, and leaves every other file's bytes as
   they were (the synchronous area is never rewritten). *)
let test_part_checkpoint_one_fsync () =
  let tree = Durable.Fs.Mem.create () in
  let s : (string, string, string, string) D.t =
    D.open_ ~fs:(Durable.Fs.Mem.fs tree) ~dir:"store" ()
  in
  D.save_checkpoint s "ck0";
  List.iter (D.append_volatile s) [ "a"; "b" ];
  ignore (D.flush s : int);
  D.save_part_checkpoint s ~part:3 "first";
  D.log_announcement s "ann";
  List.iter (D.append_volatile s) [ "c" ];
  ignore (D.flush s : int);
  let files () =
    List.map (fun (e : Durable.Fs.Mem.entry) -> (e.path, e.bytes)) (Durable.Fs.Mem.files tree)
  in
  let before = files () in
  let fsyncs = ref 0 in
  Durable.Fs.Mem.before_fsync tree (fun () -> incr fsyncs);
  D.save_part_checkpoint s ~part:3 "second";
  Alcotest.(check int) "one fsync" 1 !fsyncs;
  let after = files () in
  let parts l = List.filter (fun (p, _) -> String.starts_with ~prefix:"part-" (Filename.basename p)) l in
  let others l = List.filter (fun f -> not (List.mem f (parts l))) l in
  Alcotest.(check (list (pair string string))) "no other file touched" (others before) (others after);
  (match (parts before, parts after) with
  | [ (old, _) ], [ (nw, _) ] -> Alcotest.(check bool) "a new file replaces the old" true (old <> nw)
  | _ -> Alcotest.fail "expected one partition file before and after");
  Alcotest.(check (list (triple int int string))) "read back" [ (3, 3, "second") ]
    (D.part_checkpoints s);
  D.kill s;
  let s', snap = open_found ~fs:(Durable.Fs.Mem.fs tree) ~dir:"store" () in
  Alcotest.(check (list (triple int int string))) "reopened" [ (3, 3, "second") ]
    (D.part_checkpoints s');
  Alcotest.(check bool) "nothing lost" false (damaged snap);
  (* A rollback's truncation below the snapshot's position unlinks it. *)
  ignore (D.truncate_stable_log s' ~keep:2 : string list);
  Alcotest.(check (list (triple int int string))) "truncation undoes it" [] (D.part_checkpoints s');
  Alcotest.(check int) "and its file" 0 (List.length (parts (files ())))

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
    Alcotest.test_case "segment read-back skips an empty newest segment" `Quick
      test_segment_read_skips_empty_newest;
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
    Alcotest.test_case "store lie spans rotation and truncation" `Quick
      test_store_lie_spans_rotation_and_truncate;
    Alcotest.test_case "store raising fsync writes no witness" `Quick
      test_store_raising_fsync_no_witness;
    Alcotest.test_case "store corrupt checkpoint dropped" `Quick
      test_store_corrupt_checkpoint_dropped;
    Alcotest.test_case "store checkpoint past log dropped" `Quick
      test_store_checkpoint_past_log_dropped;
    Alcotest.test_case "store sync-area tail truncated" `Quick
      test_store_sync_area_tail_truncated;
    Alcotest.test_case "store sync-area missing" `Quick test_store_sync_area_missing;
    Alcotest.test_case "store read-back of damage after open fails" `Quick
      test_store_read_back_damage_fails;
    Alcotest.test_case "store sync record undecodable after open fails" `Quick
      test_store_sync_undecodable_after_open_fails;
    Alcotest.test_case "node restarts from disk" `Quick test_node_restart_from_disk;
    Alcotest.test_case "node halt kills in-memory store" `Quick
      test_node_halt_in_memory;
    Alcotest.test_case "restart promotes bounded words per logged record" `Quick
      test_restart_words_bounded;
    Alcotest.test_case "single-frame checkpoint dropped at open" `Quick
      test_single_frame_checkpoint_dropped;
    Alcotest.test_case "respawn reads its store once" `Quick test_respawn_reads_store_once;
    Alcotest.test_case "restart cost flat as history grows" `Quick test_restart_cost_flat;
    Alcotest.test_case "daemon retention flat over history" `Quick
      test_daemon_retention_flat;
    Alcotest.test_case "cluster kill+respawn certified" `Slow
      test_cluster_kill_respawn_certified;
    Alcotest.test_case "simulator touches no real file" `Slow
      test_simulator_touches_no_file;
    Alcotest.test_case "cluster kill with damage is loud" `Slow
      test_cluster_kill_with_damage_is_loud;
    Alcotest.test_case "path names match Filename's" `Quick test_path_matches_filename;
    test_crc_matches_reference;
    Alcotest.test_case "crc32 check value, no allocation" `Quick test_crc_check_value;
    Alcotest.test_case "one fsync commits a flush's outputs" `Quick
      test_flush_commits_outputs_with_one_fsync;
    Alcotest.test_case "a partition checkpoint is one fsync" `Quick
      test_part_checkpoint_one_fsync;
  ]
