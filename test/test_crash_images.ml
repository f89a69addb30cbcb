(* Crash-state enumeration over the in-memory file system, in the style of
   ALICE (Pillai et al., OSDI 2014) and CrashMonkey (Mohan et al., OSDI
   2018).

   A bounded workload runs on one store over [Fs.mem] with 64-byte log
   segments, so its flushes rotate segments.  At the start of every fsync
   — the point where the most written bytes are still unsynced — and once
   after the last step, the test copies the file tree, and each copy
   yields the images a power loss could leave behind.  The bound: every
   file keeps its fsynced bytes, and at most one file at a time also keeps
   a prefix of its unsynced bytes, of every length from one byte to all
   of them.  Creating, truncating, renaming and unlinking a file count as
   durable at once (the store never fsyncs a directory), so each image is
   one store directory.

   Each image is reopened and checked against what the store had promised
   by then: the stable state after the last completed step (before) and
   after the step in flight (after).
   - Every record both promise is recovered at its position, and so is
     every announcement both promise; the latest checkpoint, if both agree
     on it, is the recovered one; each partition's recovered checkpoint is
     the one before or the one after promises, and at most one file per
     partition survives, never a torn one.
   - Nothing is recovered that the workload never wrote at that position.
   - Every byte open-time recovery dropped is counted in its storage_*
     counters.
   - Reading the log back from its base, the announcements and the latest
     checkpoint does not raise. *)

module Store = Durable.Durable_store
module Fs = Durable.Fs

type store = (string, string, string, string) Store.t

let dir = "store"

(* The stable state a store promises: its log from the base on (with
   positions), announcements, latest checkpoint and partition
   checkpoints. *)
type view = {
  log : (int * string) list;
  anns : string list;
  latest : string option;
  parts : (int * int * string) list;
}

let view (s : store) =
  let base = Store.log_base s in
  {
    log = List.mapi (fun i r -> (base + i, r)) (Store.stable_log_from s ~pos:base);
    anns = Store.announcements s;
    latest = Store.latest_checkpoint s;
    parts = Store.part_checkpoints s;
  }

let fill s rs =
  List.iter (Store.append_volatile s) rs;
  ignore (Store.flush s : int)

let records lo hi = List.init (hi - lo) (fun i -> Printf.sprintf "r%03d" (lo + i))

(* Flushes across several segment rotations, checkpoints, announcements
   (alone and grouped under one fsync, as a node step commits its
   outputs), a rollback truncation that undoes a partition checkpoint, a
   prefix discard, and two partition checkpoints of one partition, the
   second replacing the first. *)
let workload : (string * (store -> unit)) list =
  [
    ("save_checkpoint ck0", fun s -> Store.save_checkpoint s "ck0");
    ("flush r000-r002", fun s -> fill s (records 0 3));
    ("log_announcement a0", fun s -> Store.log_announcement s "a0");
    ("flush r003-r004", fun s -> fill s (records 3 5));
    ("log_announcement a1", fun s -> Store.log_announcement s "a1");
    ("save_checkpoint ck1", fun s -> Store.save_checkpoint s "ck1");
    ("flush r005-r007", fun s -> fill s (records 5 8));
    ("save_part_checkpoint 1 t0", fun s -> Store.save_part_checkpoint s ~part:1 "t0");
    ( "truncate_stable_log 6",
      fun s -> ignore (Store.truncate_stable_log s ~keep:6 : string list) );
    ("flush r008", fun s -> fill s (records 8 9));
    ("discard_log_prefix 2", fun s -> ignore (Store.discard_log_prefix s ~before:2 : int));
    ("save_part_checkpoint 0 s0", fun s -> Store.save_part_checkpoint s ~part:0 "s0");
    ("log_announcement a2", fun s -> Store.log_announcement s "a2");
    ("flush r009", fun s -> fill s (records 9 10));
    ("save_part_checkpoint 0 s1", fun s -> Store.save_part_checkpoint s ~part:0 "s1");
    ( "grouped announcements g0-g2",
      fun s ->
        List.iter (Store.log_announcement ~fsync:false s) [ "g0"; "g1"; "g2" ];
        Store.sync_announcements s );
    ("flush r010-r012", fun s -> fill s (records 10 13));
  ]

type snapshot = { step : int; fsync : int; files : Fs.Mem.entry list }

(* Run the workload, copying the tree at every fsync.  Returns the copies
   and [views.(i)], the promise after the first [i] steps. *)
let record () =
  let tree = Fs.Mem.create () in
  let step = ref 0 and fsyncs = ref 0 and snaps = ref [] in
  Fs.Mem.before_fsync tree (fun () ->
      incr fsyncs;
      snaps := { step = !step; fsync = !fsyncs; files = Fs.Mem.files tree } :: !snaps);
  let s = Store.open_ ~fs:(Fs.Mem.fs tree) ~dir ~segment_bytes:64 () in
  let views = Array.make (List.length workload + 1) (view s) in
  List.iteri
    (fun i (_, op) ->
      step := i;
      op s;
      views.(i + 1) <- view s)
    workload;
  let last = { step = List.length workload; fsync = !fsyncs + 1; files = Fs.Mem.files tree } in
  (List.rev (last :: !snaps), views)

(* The images of one snapshot: all files cut to their synced length, all
   files whole (a process death), then each file in turn keeping [k] of its
   unsynced bytes. *)
let images (snap : snapshot) =
  let cut (e : Fs.Mem.entry) len = (e.path, String.sub e.bytes 0 len) in
  let synced = List.map (fun (e : Fs.Mem.entry) -> cut e e.synced) snap.files in
  ("every file at its synced length", synced)
  :: ("every file keeps all its bytes", List.map (fun (e : Fs.Mem.entry) -> (e.path, e.bytes)) snap.files)
  :: List.concat_map
       (fun (torn : Fs.Mem.entry) ->
         let unsynced = String.length torn.bytes - torn.synced in
         List.init unsynced (fun i ->
             let k = i + 1 in
             ( Printf.sprintf "%s keeps %d of %d unsynced bytes"
                 (Filename.basename torn.path) k unsynced,
               List.map
                 (fun (e : Fs.Mem.entry) ->
                   if e.path = torn.path then cut e (e.synced + k) else cut e e.synced)
                 snap.files )))
       snap.files

let named prefix (path, _) =
  let name = Filename.basename path in
  String.length name >= String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

let bytes_of prefix files =
  List.fold_left
    (fun acc ((_, bytes) as f) -> if named prefix f then acc + String.length bytes else acc)
    0 files

let count_of prefix files = List.length (List.filter (named prefix) files)

(* Reopen one image; [Error] names what it got wrong.  [whole] is every
   file of the snapshot with all its bytes. *)
let check_image ~before ~after ~ever ~whole files =
  let tree = Fs.Mem.of_files files in
  let obs = Obs.Registry.create () in
  let s : store = Store.open_ ~fs:(Fs.Mem.fs tree) ~dir ~segment_bytes:64 ~obs () in
  let counted =
    let snap = Obs.Registry.snapshot obs in
    fun name -> Obs.Snapshot.counter snap ("storage_" ^ name ^ "_total")
  in
  let reopened = List.map (fun (e : Fs.Mem.entry) -> (e.path, e.bytes)) (Fs.Mem.files tree) in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (match view s with
  | exception e -> bad "read-back raised %s" (Printexc.to_string e)
  | got ->
    List.iter
      (fun (pos, r) ->
        if List.mem (pos, r) after.log && not (List.mem (pos, r) got.log) then
          bad "lost promised record %s at %d" r pos)
      before.log;
    List.iter
      (fun (pos, r) ->
        if not (List.exists (fun v -> List.mem (pos, r) v.log) ever) then
          bad "recovered %s at %d, never written there" r pos)
      got.log;
    List.iter
      (fun a ->
        if List.mem a after.anns && not (List.mem a got.anns) then
          bad "lost announcement %s" a)
      before.anns;
    List.iter
      (fun a ->
        if not (List.exists (fun v -> List.mem a v.anns) ever) then
          bad "recovered announcement %s, never logged" a)
      got.anns;
    if before.latest = after.latest && got.latest <> before.latest then
      bad "latest checkpoint %s, promised %s"
        (Option.value got.latest ~default:"none")
        (Option.value before.latest ~default:"none");
    let part p v = List.find_opt (fun (q, _, _) -> q = p) v.parts in
    List.iter
      (fun p ->
        let g = part p got in
        if g <> part p before && g <> part p after then
          bad "partition %d checkpoint %s, promised %s or %s" p
            (match g with Some (_, _, v) -> v | None -> "none")
            (match part p before with Some (_, _, v) -> v | None -> "none")
            (match part p after with Some (_, _, v) -> v | None -> "none"))
      [ 0; 1 ]);
  let part_files = List.filter (named "part-") reopened in
  List.iter
    (fun p ->
      if count_of (Printf.sprintf "part-%d-" p) reopened > 1 then
        bad "partition %d keeps more than one file" p)
    [ 0; 1 ];
  List.iter
    (fun (path, bytes) ->
      if List.assoc_opt path whole <> Some bytes then bad "kept a torn %s" path)
    part_files;
  let dropped_log = bytes_of "seg-" files - bytes_of "seg-" reopened in
  if dropped_log <> counted "log_bytes_dropped" then
    bad "log lost %d bytes, report says %d" dropped_log (counted "log_bytes_dropped");
  let dropped_sync = bytes_of "sync.dat" files - bytes_of "sync.dat" reopened in
  if dropped_sync > counted "sync_bytes_dropped" then
    bad "sync area lost %d bytes, report says %d" dropped_sync
      (counted "sync_bytes_dropped");
  (* Open counts every checkpoint file it drops, except a partition file
     that a newer kept file of its partition supersedes. *)
  let partition path = String.sub path 0 (String.rindex path '-') in
  let dropped_parts =
    List.filter
      (fun ((path, _) as f) ->
        named "part-" f
        && not
             (List.exists
                (fun (kept, _) -> partition kept = partition path && kept >= path)
                part_files))
      files
  in
  let dropped_ckpts = count_of "ckpt-" files - count_of "ckpt-" reopened in
  let dropped = dropped_ckpts + List.length dropped_parts in
  if dropped <> counted "checkpoints_dropped" then
    bad "%d checkpoint files dropped, report says %d" dropped
      (counted "checkpoints_dropped");
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " (List.rev ps))

(* An image whose newest log segment is empty and not the only one: what a
   power loss between a rotation and the new segment's first fsync leaves. *)
let empty_newest_segment files =
  match List.rev (List.filter (named "seg-") files) with
  | (_, "") :: _ :: _ -> true
  | _ -> false

let test_every_power_loss_image () =
  let snaps, views = record () in
  let ever = Array.to_list views in
  let n = ref 0 and empty_newest = ref 0 and failures = ref [] in
  List.iter
    (fun snap ->
      let whole = List.map (fun (e : Fs.Mem.entry) -> (e.path, e.bytes)) snap.files in
      let before = views.(snap.step) in
      let after = views.(min (snap.step + 1) (Array.length views - 1)) in
      List.iter
        (fun (name, files) ->
          incr n;
          if empty_newest_segment files then incr empty_newest;
          match check_image ~before ~after ~ever ~whole files with
          | Ok () -> ()
          | Error why ->
            let step =
              match List.nth_opt workload snap.step with
              | Some (op, _) -> op
              | None -> "after the last step"
            in
            failures :=
              Printf.sprintf "fsync %d (during %s), %s: %s" snap.fsync step name why
              :: !failures)
        (images snap))
    snaps;
  (match List.rev !failures with
  | [] -> ()
  | first :: _ as all ->
    Alcotest.failf "%d of %d images fail; first: %s" (List.length all) !n first);
  Alcotest.(check bool) "an image with an empty newest segment is covered" true
    (!empty_newest > 0);
  Alcotest.(check bool) "hundreds of images" true (!n > 200)

(* The same power-loss images around one node step: a flush that commits
   [outputs] outputs, whose [Committed] records reach sync.dat buffered
   and are fsynced once at the end of the step.  Every image cut at one
   of the flush's fsyncs, and the one after it returned (the outputs
   released), is reopened under a fresh node, restarted and flushed.  An
   output recorded committed in the image must not be committed again;
   once the log's fsync has returned (the deliveries are stable) every
   output is either recorded or committed again by the restart; and
   every released output is recorded in every image after its release:
   none is lost after its release, none is committed twice. *)
let outputs = 8

let committed_ids trace =
  List.filter_map
    (fun (e : Recovery.Trace.entry) ->
      match e.Recovery.Trace.ev with
      | Recovery.Trace.Output_committed { id; _ } -> Some id
      | _ -> None)
    (Recovery.Trace.events trace)

let node_on tree ~trace =
  let config =
    { (Util.counter_config ~k:2 ~n:4 ()) with Recovery.Config.timing = Util.quiet_timing }
  in
  Recovery.Node.create_on ~fs:(Fs.Mem.fs tree) ~config ~pid:0
    ~app:App_model.Counter_app.app ~store_dir:dir ?obs:None ~trace

(* The [Committed] records an image holds, read by a store opened over a
   copy of it. *)
let recorded files =
  let s : (unit, unit, Recovery.Wire.sync_record, unit) Store.t =
    Store.open_ ~fs:(Fs.Mem.fs (Fs.Mem.of_files files)) ~dir ()
  in
  List.filter_map
    (function Recovery.Wire.Committed id -> Some id | _ -> None)
    (Store.announcements s)

let test_output_commit_images () =
  let tree = Fs.Mem.create () in
  let trace = Recovery.Trace.create () in
  let node = node_on tree ~trace in
  for seq = 1 to outputs do
    ignore
      (Recovery.Node.inject node ~now:(float_of_int seq) ~seq ~cseq:(seq - 1)
         App_model.Counter_app.Report)
  done;
  let snaps = ref [] in
  Fs.Mem.before_fsync tree (fun () ->
      snaps :=
        { step = 0; fsync = List.length !snaps + 1; files = Fs.Mem.files tree } :: !snaps);
  ignore (Recovery.Node.flush node ~now:20.);
  let released = committed_ids trace in
  Alcotest.(check int) "the flush commits every output" outputs (List.length released);
  let after = { step = 1; fsync = 3; files = Fs.Mem.files tree } in
  let n = ref 0 and failures = ref [] in
  List.iter
    (fun snap ->
      List.iter
        (fun (name, files) ->
          incr n;
          let held = recorded files in
          let trace' = Recovery.Trace.create () in
          let fresh = node_on (Fs.Mem.of_files files) ~trace:trace' in
          ignore (Recovery.Node.restart_begin fresh ~now:30.);
          ignore (Recovery.Node.flush fresh ~now:31.);
          let again = committed_ids trace' in
          let why =
            if List.exists (fun id -> List.mem id held) again then
              Some "a recorded output committed again"
            else if snap == after && List.exists (fun id -> not (List.mem id held)) released
            then Some "a released output has no durable record"
            else if
              snap.fsync > 1
              && List.exists (fun id -> not (List.mem id held || List.mem id again)) released
            then Some "an output lost"
            else None
          in
          Option.iter
            (fun m ->
              failures := Printf.sprintf "fsync %d, %s: %s" snap.fsync name m :: !failures)
            why)
        (images snap))
    (List.rev (after :: !snaps));
  (match List.rev !failures with
  | [] -> ()
  | first :: _ as all ->
    Alcotest.failf "%d of %d images fail; first: %s" (List.length all) !n first);
  Alcotest.(check int) "the flush fsyncs twice" 2 (List.length !snaps);
  Alcotest.(check bool) "the grouped fsync cuts images" true (!n > outputs)

let suite =
  [ Alcotest.test_case "every power-loss image recovers what was promised" `Quick
      test_every_power_loss_image;
    Alcotest.test_case "no output lost or committed twice around a step's fsync" `Quick
      test_output_commit_images ]
