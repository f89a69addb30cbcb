(* Stable storage: crash semantics, flush, truncation.

   Every assertion runs as a functor over both file systems the store
   runs on — the in-memory tree of the simulator and the model checker,
   and the real files of the daemons — so the two deployments of the one
   store cannot drift apart.  Tests aimed at specific bytes of real files
   live in [Test_durable]. *)

module Store = Durable.Durable_store
module Fs = Durable.Fs

type store = (string, string, string, string) Store.t

module type BACKEND = sig
  val name : string

  val fresh : unit -> Fs.t * string
  (** A file system and an empty directory on it, for one store. *)

  val lie : Fs.t -> unit
  (** From now on, fsyncs of the log's segments on this file system make
      nothing durable. *)
end

module Segment_log = Durable.Segment_log

(* The lying disk is the in-memory tree's own ({!Fs.Mem.lie}). *)
module Mem_backend = struct
  let name = "mem"

  let trees : (Fs.t * Fs.Mem.tree) list ref = ref []

  let fresh () =
    let tree = Fs.Mem.create () in
    let fs = Fs.Mem.fs tree in
    trees := (fs, tree) :: !trees;
    (fs, "store")

  let lie fs = Fs.Mem.lie (List.assq fs !trees) Segment_log.is_segment
end

(* A real disk cannot be told to lie: its handles are wrapped so that,
   once [lie] is called, a segment's fsync returns without reaching the
   kernel. *)
module Disk_backend = struct
  let name = "disk"

  let dirs : string list ref = ref []

  let () = at_exit (fun () -> List.iter Durable.Temp.rm_rf !dirs)

  let lying : (Fs.t * bool ref) list ref = ref []

  let fresh () =
    let dir = Durable.Temp.fresh_dir ~prefix:"conformance" () in
    dirs := dir :: !dirs;
    let on = ref false in
    let wrap path (f : Fs.file) =
      { f with fsync = (fun () -> if not (!on && Segment_log.is_segment path) then f.fsync ()) }
    in
    let fs =
      {
        Fs.unix with
        open_append = (fun path -> wrap path (Fs.unix.open_append path));
        create = (fun path -> wrap path (Fs.unix.create path));
      }
    in
    lying := (fs, on) :: !lying;
    (fs, dir)

  let lie fs = List.assq fs !lying := true
end

module Conformance (B : BACKEND) = struct
  (* Each store opened so far, with the file system it was opened on. *)
  let opened : (store * Fs.t) list ref = ref []

  let fs_of s = List.assq s !opened

  (* The store, and a snapshot of the registry it was opened into (a
     private one unless [obs] is given): what open-time recovery found. *)
  let open_ fs ~dir ?segment_bytes ?(obs = Obs.Registry.create ()) () =
    let s = Store.open_ ~fs ~dir ?segment_bytes ~obs () in
    opened := (s, fs) :: !opened;
    (s, Obs.Registry.snapshot obs)

  let make ?segment_bytes ?obs () : store =
    let fs, dir = B.fresh () in
    let s, _ = open_ fs ~dir ?segment_bytes ?obs () in
    Alcotest.(check bool) "fresh store" true (Store.fresh s);
    s

  (* A fresh store with a reader of its [storage_<name>_total] counters. *)
  let make_counted () =
    let obs = Obs.Registry.create () in
    let count name =
      Obs.Snapshot.counter (Obs.Registry.snapshot obs) ("storage_" ^ name ^ "_total")
    in
    (make ~obs (), count)

  let newest_segment s =
    (fs_of s).readdir (Store.dir s)
    |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "seg-")
    |> List.sort compare |> List.rev |> List.hd

  (* Process death after the last flush, then reopen. *)
  let reopen s =
    Store.kill s;
    let s', found = open_ (fs_of s) ~dir:(Store.dir s) ~segment_bytes:64 () in
    Alcotest.(check bool) "clean reopen" true (Store.losses found = []);
    s'

  (* Flip a bit of the newest log record's last byte; returns the name of
     its segment file. *)
  let corrupt_newest_record s =
    let fs = fs_of s and seg = newest_segment s in
    let path = Filename.concat (Store.dir s) seg in
    let b = Bytes.of_string (fs.read path) in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
    Fs.write_file fs ~fsync:false path (Bytes.to_string b);
    seg

  (* Process death with the newest log record torn, then reopen: the
     record is lost, and the reopen reports it. *)
  let tear_newest_record s =
    Store.kill s;
    let fs = fs_of s in
    let path = Filename.concat (Store.dir s) (newest_segment s) in
    fs.truncate path (fs.size path - 1);
    let s', found = open_ fs ~dir:(Store.dir s) ~segment_bytes:64 () in
    Alcotest.(check bool) "torn tail reported" true (Store.losses found <> []);
    s'

  let test_volatile_then_flush () =
    let s = make () in
    Store.append_volatile s "a";
    Store.append_volatile s "b";
    Alcotest.(check int) "volatile" 2 (Store.volatile_length s);
    Alcotest.(check int) "stable" 0 (Store.stable_log_length s);
    Alcotest.(check int) "flush count" 2 (Store.flush s);
    Alcotest.(check int) "volatile empty" 0 (Store.volatile_length s);
    Alcotest.(check int) "stable grows" 2 (Store.stable_log_length s);
    Alcotest.(check (list string)) "order" [ "a"; "b" ] (Store.stable_log_from s ~pos:0)

  let test_empty_flush_not_counted () =
    let s, count = make_counted () in
    Alcotest.(check int) "nothing written" 0 (Store.flush s);
    Alcotest.(check int) "no flush counted" 0 (count "flushes");
    Alcotest.(check int) "no sync write" 0 (Store.sync_writes s)

  let test_crash_drops_volatile_only () =
    let s = make () in
    Store.append_volatile s "stable1";
    ignore (Store.flush s : int);
    Store.append_volatile s "lost1";
    Store.append_volatile s "lost2";
    Alcotest.(check (option string)) "first loss" (Some "lost1") (Store.volatile_peek s);
    Alcotest.(check int) "two at risk" 2 (Store.volatile_length s);
    let s = reopen s in
    Alcotest.(check int) "volatile gone" 0 (Store.volatile_length s);
    Alcotest.(check (list string)) "stable survives" [ "stable1" ]
      (Store.stable_log_from s ~pos:0)

  let test_stable_log_from () =
    let s = make () in
    List.iter (Store.append_volatile s) [ "a"; "b"; "c"; "d" ];
    ignore (Store.flush s : int);
    Alcotest.(check (list string)) "suffix" [ "c"; "d" ] (Store.stable_log_from s ~pos:2);
    Alcotest.(check (list string)) "whole" [ "a"; "b"; "c"; "d" ]
      (Store.stable_log_from s ~pos:0);
    Alcotest.(check (list string)) "empty suffix" [] (Store.stable_log_from s ~pos:4);
    Alcotest.check_raises "out of range"
      (Invalid_argument "Durable_store.stable_log_from: position out of range") (fun () ->
        ignore (Store.stable_log_from s ~pos:5))

  let test_truncate () =
    let s = make () in
    List.iter (Store.append_volatile s) [ "a"; "b"; "c"; "d" ];
    ignore (Store.flush s : int);
    Store.append_volatile s "volatile";
    let removed = Store.truncate_stable_log s ~keep:2 in
    Alcotest.(check (list string)) "removed tail in order" [ "c"; "d" ] removed;
    Alcotest.(check int) "kept" 2 (Store.stable_log_length s);
    Alcotest.(check int) "volatile cleared too" 0 (Store.volatile_length s);
    Alcotest.(check (list string)) "prefix intact" [ "a"; "b" ]
      (Store.stable_log_from s ~pos:0);
    (* the log can grow again past the truncation point *)
    Store.append_volatile s "e";
    ignore (Store.flush s : int);
    Alcotest.(check (list string)) "regrown" [ "a"; "b"; "e" ]
      (Store.stable_log_from s ~pos:0)

  let test_checkpoints () =
    let s = make () in
    Store.save_checkpoint s "ck1";
    Store.append_volatile s "m1";
    Store.save_checkpoint s "ck2";
    Alcotest.(check int) "checkpoint flushes" 1 (Store.stable_log_length s);
    Alcotest.(check (option string)) "latest" (Some "ck2") (Store.latest_checkpoint s);
    Alcotest.(check (list string)) "newest first" [ "ck2"; "ck1" ]
      (List.of_seq (Store.checkpoints s));
    Alcotest.(check (option string)) "oldest" (Some "ck1") (Store.oldest_checkpoint s);
    (* The sequence reads a file only when its element is forced: with the
       oldest file damaged, the newest still reads back. *)
    let fs = fs_of s in
    let oldest =
      fs.readdir (Store.dir s)
      |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "ckpt-")
      |> List.sort compare |> List.hd
    in
    Fs.write_file fs ~fsync:false (Filename.concat (Store.dir s) oldest) "garbage";
    (match Store.checkpoints s () with
    | Seq.Cons (newest, _) -> Alcotest.(check string) "newest forced alone" "ck2" newest
    | Seq.Nil -> Alcotest.fail "no checkpoint");
    match Store.oldest_checkpoint s with
    | _ -> Alcotest.fail "a damaged checkpoint was read back"
    | exception Failure _ -> ()

  let test_restore_checkpoint () =
    let s = make () in
    List.iter (Store.save_checkpoint s) [ "ck1"; "ck2"; "ck3" ];
    let found = Store.restore_checkpoint s ~satisfying:(fun c -> c = "ck2") in
    Alcotest.(check (option string)) "found" (Some "ck2") found;
    (* "Discard the checkpoints that follow" (Figure 3). *)
    Alcotest.(check (list string)) "later ones discarded" [ "ck2"; "ck1" ]
      (List.of_seq (Store.checkpoints s));
    Alcotest.(check (option string)) "none match" None
      (Store.restore_checkpoint s ~satisfying:(fun c -> c = "ck3"))

  let test_announcements () =
    let s = make () in
    Store.log_announcement s "ann1";
    Store.log_announcement s "ann2";
    Alcotest.(check (list string)) "oldest first" [ "ann1"; "ann2" ]
      (Store.announcements s);
    let s = reopen s in
    Alcotest.(check (list string)) "survive crash" [ "ann1"; "ann2" ]
      (Store.announcements s)

  let test_sync_write_accounting () =
    let s, count = make_counted () in
    Store.append_volatile s "x";
    ignore (Store.flush s : int);
    Store.save_checkpoint s "ck";
    Store.log_announcement s "ann";
    (* flush(1) + checkpoint(1) + announcement(1) *)
    Alcotest.(check int) "sync writes" 3 (Store.sync_writes s);
    Alcotest.(check int) "flushes" 1 (count "flushes");
    Alcotest.(check int) "registry agrees" 3 (count "sync_writes");
    (* Metrics consistency, as E12/B9 report them: empty flushes are not
       durability rounds, and sync_writes decomposes exactly into flush
       rounds + checkpoints + announcements. *)
    ignore (Store.flush s : int);
    Store.append_volatile s "y";
    ignore (Store.flush s : int);
    Store.log_announcement s "ann2";
    let checkpoints = 1 and announcements = 2 in
    Alcotest.(check int) "flush rounds" 2 (count "flushes");
    Alcotest.(check int) "sync_writes decomposes"
      (count "flushes" + checkpoints + announcements)
      (Store.sync_writes s)

  let test_truncate_out_of_range () =
    let s = make () in
    Store.append_volatile s "a";
    ignore (Store.flush s : int);
    Alcotest.check_raises "keep too large"
      (Invalid_argument "Durable_store.truncate_stable_log: keep out of range") (fun () ->
        ignore (Store.truncate_stable_log s ~keep:2))

  let test_discard_log_prefix () =
    let s = make () in
    List.iter (Store.append_volatile s) [ "a"; "b"; "c"; "d" ];
    ignore (Store.flush s : int);
    Alcotest.(check int) "discarded" 2 (Store.discard_log_prefix s ~before:2);
    Alcotest.(check int) "base moved" 2 (Store.log_base s);
    Alcotest.(check int) "length unchanged" 4 (Store.stable_log_length s);
    Alcotest.(check int) "live records" 2 (Store.live_log_records s);
    Alcotest.(check (list string)) "suffix readable" [ "c"; "d" ]
      (Store.stable_log_from s ~pos:2)

  let test_prune_checkpoints () =
    let s = make () in
    List.iter (Store.save_checkpoint s) [ "ck1"; "ck2"; "ck3"; "ck4" ];
    Alcotest.(check int) "pruned" 2 (Store.prune_checkpoints s ~keep_latest:2);
    Alcotest.(check (list string)) "latest survive" [ "ck4"; "ck3" ]
      (List.of_seq (Store.checkpoints s));
    Alcotest.check_raises "must keep one"
      (Invalid_argument "Durable_store.prune_checkpoints: must keep at least one")
      (fun () -> ignore (Store.prune_checkpoints s ~keep_latest:0))

  (* Read-back.  The store answers [stable_log_from] from its segment
     files, so these pin it down wherever segment boundaries, truncation,
     compaction, reopen or unsynced appends could make it disagree with
     what was flushed.  64-byte segments hold one or two records each. *)
  let records lo hi = List.init (hi - lo) (fun i -> Printf.sprintf "r%03d" (lo + i))

  let fill s rs =
    List.iter (Store.append_volatile s) rs;
    ignore (Store.flush s : int)

  let check_from s ~pos expected =
    Alcotest.(check (list string)) (Printf.sprintf "from %d" pos) expected
      (Store.stable_log_from s ~pos)

  let small () =
    let s = make ~segment_bytes:64 () in
    (* several flush rounds, so rounds and segments do not line up *)
    List.iter (fun lo -> fill s (records lo (lo + 7))) [ 0; 7; 14; 21; 28; 35 ];
    s

  let test_read_across_rotation () =
    let s = small () in
    for pos = 0 to 42 do
      check_from s ~pos (records pos 42)
    done

  let test_read_after_truncate () =
    let s = small () in
    Alcotest.(check (list string)) "removed" (records 13 42)
      (Store.truncate_stable_log s ~keep:13);
    check_from s ~pos:0 (records 0 13);
    check_from s ~pos:12 (records 12 13);
    fill s [ "x"; "y"; "z" ];
    check_from s ~pos:10 (records 10 13 @ [ "x"; "y"; "z" ]);
    check_from s ~pos:14 [ "y"; "z" ]

  let test_read_after_discard () =
    let s = small () in
    Alcotest.(check int) "discarded" 17 (Store.discard_log_prefix s ~before:17);
    check_from s ~pos:17 (records 17 42);
    check_from s ~pos:30 (records 30 42);
    Alcotest.check_raises "below base"
      (Invalid_argument "Durable_store.stable_log_from: position out of range")
      (fun () -> ignore (Store.stable_log_from s ~pos:16))

  let test_read_after_reopen () =
    let s = small () in
    ignore (Store.truncate_stable_log s ~keep:25 : string list);
    ignore (Store.discard_log_prefix s ~before:5 : int);
    let s = reopen s in
    Alcotest.(check int) "length" 25 (Store.stable_log_length s);
    Alcotest.(check int) "base" 5 (Store.log_base s);
    check_from s ~pos:5 (records 5 25);
    fill s [ "after" ];
    check_from s ~pos:24 [ "r024"; "after" ]

  (* Reads go to the files: records whose fsync lied read back like any
     other, across the segments rotated during the lie. *)
  let test_read_unsynced () =
    let s = small () in
    B.lie (fs_of s);
    fill s (records 42 50);
    check_from s ~pos:40 (records 40 50)

  let contains hay needle =
    let n = String.length needle in
    let rec at i = i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1)) in
    at 0

  (* Damage is reported, never read back as a shorter log. *)
  let test_read_damaged () =
    let s = small () in
    let seg = corrupt_newest_record s in
    match Store.stable_log_from s ~pos:0 with
    | _ -> Alcotest.fail "a damaged record was read back"
    | exception Failure msg ->
      Alcotest.(check bool) ("names segment and record: " ^ msg) true
        (contains msg seg && contains msg "record 41")

  (* Records of more than 64 bytes sit one to a segment, so tearing the
     newest leaves its segment empty, starting above every earlier
     record: read-back skips it and appends continue in it. *)
  let test_read_empty_newest_segment () =
    let s = make ~segment_bytes:64 () in
    let big i = String.make 64 (Char.chr (Char.code 'a' + i)) in
    fill s (List.init 4 big);
    let s = tear_newest_record s in
    check_from s ~pos:0 (List.init 3 big);
    check_from s ~pos:3 [];
    fill s [ "after" ];
    check_from s ~pos:2 [ big 2; "after" ]

  (* A record whose frame checks but whose payload no longer decodes — a
     damaged seal, or sealed bytes that are not a Marshal value — in a
     middle segment.  Open truncates the log at that record and counts it
     and every byte after it as dropped, with the later segments; what
     survives reads back without raising, and appends continue there. *)
  let test_undecodable_middle_record damage () =
    let s = small () in
    Store.kill s;
    let fs = fs_of s and dir = Store.dir s in
    let segs =
      fs.readdir dir
      |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "seg-")
      |> List.sort compare
    in
    let mid = List.length segs / 2 in
    let name = List.nth segs mid in
    let path = Filename.concat dir name in
    let start = int_of_string (String.sub name 4 12) in
    let frames, _, _ = Util.frames_of (fs.read path) in
    (* the segment's last record, so a good record precedes it *)
    let victim = List.length frames - 1 in
    let b = Buffer.create 128 in
    let victim_off = ref 0 in
    List.iteri
      (fun i (kind, payload) ->
        if i = victim then begin
          victim_off := Buffer.length b;
          Durable.Codec.encode_into b ~kind (damage payload)
        end
        else Durable.Codec.encode_into b ~kind payload)
      frames;
    Fs.write_file fs ~fsync:false path (Buffer.contents b);
    let later = List.filteri (fun i _ -> i > mid) segs in
    let expected_dropped =
      List.fold_left
        (fun acc f -> acc + fs.size (Filename.concat dir f))
        (Buffer.length b - !victim_off)
        later
    in
    let s, found = open_ fs ~dir ~segment_bytes:64 () in
    let keep = start + victim in
    let counted = Obs.Snapshot.counter found in
    Alcotest.(check bool) "damage reported" true (Store.losses found <> []);
    Alcotest.(check int) "log ends before the record" keep (Store.live_log_records s);
    Alcotest.(check int) "the record and all after it dropped" expected_dropped
      (counted "storage_log_bytes_dropped_total");
    Alcotest.(check int) "later segments dropped" (List.length later)
      (counted "storage_log_segments_dropped_total");
    Alcotest.(check int) "stable length" keep (Store.stable_log_length s);
    check_from s ~pos:0 (records 0 keep);
    fill s [ "after" ];
    check_from s ~pos:(keep - 1) (records (keep - 1) keep @ [ "after" ])

  (* Flip a byte of the sealed blob's own payload: its CRC no longer
     matches, but the frame around it is rebuilt and checks. *)
  let broken_seal payload =
    let p = Bytes.of_string payload in
    let i = Durable.Codec.header_bytes + 1 in
    Bytes.set p i (Char.chr (Char.code (Bytes.get p i) lxor 0x40));
    Bytes.to_string p

  let not_marshal _ = Durable.Codec.seal "sealed, but not a Marshal value"

  let suite =
    List.map
      (fun (name, f) -> Alcotest.test_case (B.name ^ ": " ^ name) `Quick f)
      [
        ("volatile then flush", test_volatile_then_flush);
        ("empty flush not counted", test_empty_flush_not_counted);
        ("crash drops volatile only", test_crash_drops_volatile_only);
        ("stable_log_from", test_stable_log_from);
        ("truncate", test_truncate);
        ("checkpoints", test_checkpoints);
        ("restore_checkpoint discards later", test_restore_checkpoint);
        ("announcements synchronous", test_announcements);
        ("sync write accounting", test_sync_write_accounting);
        ("truncate out of range", test_truncate_out_of_range);
        ("discard log prefix", test_discard_log_prefix);
        ("prune checkpoints", test_prune_checkpoints);
        ("read back across segment rotation", test_read_across_rotation);
        ("read back after truncate", test_read_after_truncate);
        ("read back after prefix discard", test_read_after_discard);
        ("read back after reopen", test_read_after_reopen);
        ("read back unsynced records", test_read_unsynced);
        ("read back of a damaged record fails", test_read_damaged);
        ("read back past an empty newest segment", test_read_empty_newest_segment);
        ("undecodable seal in a middle segment", test_undecodable_middle_record broken_seal);
        ("undecodable Marshal in a middle segment", test_undecodable_middle_record not_marshal);
      ]
end

module Mem_conformance = Conformance (Mem_backend)
module Disk_conformance = Conformance (Disk_backend)

let suite = Mem_conformance.suite @ Disk_conformance.suite
