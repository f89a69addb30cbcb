(* Record kinds, one byte each.  The segment log uses its own fixed kind
   internally; these are the checkpoint-file and synchronous-area kinds.
   A checkpoint file is a [k_pos] frame, then a [k_ckpt] frame. *)
let k_pos = 0x50 (* 'P': stable length at save, 8 bytes little-endian *)

let k_ckpt = 0x43 (* 'C': the checkpoint snapshot *)

let k_ann = 0x41 (* 'A': announcement *)

let k_len = 0x4E (* 'N': stable-length witness, recorded after each flush *)

let k_base = 0x42 (* 'B': logical log base after prefix compaction *)

(* Every Marshal blob travels sealed: the envelope's CRC witnesses the
   exact marshalled bytes, so [sealed_value] rejects damaged or skewed
   input before [Marshal.from_bytes] can crash on it.  Decode failures are
   never raised out of [open_] — they are counted into the open report. *)
let to_bin v = Codec.seal (Marshal.to_string v [ Marshal.Closures ])

(* In place, on a frame payload: it is one sealed blob, and the blob opens
   with a whole Marshal header (the small format's 20 bytes or the 64-bit
   format's 32) whose total size is exactly the sealed length.  What open
   checks of every record and snapshot, without copying or decoding it. *)
let sealed_value b ~off ~len =
  Codec.is_sealed b ~off ~len
  &&
  let off = off + Codec.header_bytes and len = len - Codec.header_bytes in
  len >= 20
  && (match Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF with
     | 0x8495A6BE -> true
     | 0x8495A6BF -> len >= 32
     | _ -> false)
  &&
  match Marshal.total_size b off with
  | n -> n = len
  | exception (Failure _ | Invalid_argument _) -> false

(* The value of a payload [sealed_value] accepted.  Raises only on a
   format bug: bytes that check but do not decode. *)
let value_at b ~off = Marshal.from_bytes b (off + Codec.header_bytes)

let decode_opt b ~off ~len =
  if sealed_value b ~off ~len then
    match value_at b ~off with
    | v -> Some v
    | exception (Failure _ | Invalid_argument _ | End_of_file) -> None
  else None

let fold_file (fs : Fs.t) ?buf path ~init ~f =
  fs.read_with path (fun size input -> Codec.fold_input ?buf ~size ~input ~init ~f ())

type open_report = {
  fresh : bool;
  recovered_log : int;
  log_bytes_dropped : int;
  log_segments_dropped : int;
  missing_log_records : int;
  recovered_checkpoints : int;
  checkpoints_dropped : int;
  sync_records : int;
  sync_bytes_dropped : int;
  sync_area_missing : bool;
}

let damaged r =
  r.log_bytes_dropped > 0 || r.log_segments_dropped > 0
  || r.missing_log_records > 0 || r.checkpoints_dropped > 0
  || r.sync_bytes_dropped > 0 || r.sync_area_missing

type ('ckpt, 'log, 'ann) t = {
  fs : Fs.t;
  root : string;
  log : Segment_log.t;
  mutable stable_len : int; (* the records themselves live only in [log] *)
  mutable base : int;
  volatile : 'log Queue.t;
  mutable ckpts : int list; (* file seqs, newest first; snapshots stay on disk *)
  mutable ckpt_seq : int;
  sync_writes : Obs.Counter.t;
  flushes : Obs.Counter.t;
  ckpt_bytes : Obs.Counter.t; (* bytes written to checkpoint files *)
  mutable sync_file : Fs.file; (* sync.dat's append handle *)
  mutable sync_checked : int;
      (* sync.dat's leading bytes that open checked: a record there that
         fails [sealed_value] is one open counted as dropped *)
  mutable disk_full : int; (* flush rounds still refused (ENOSPC brownout) *)
  mutable slow_fsync : (float * int) option; (* extra seconds, rounds left *)
  degraded_flushes : Obs.Counter.t;
  slowed_fsyncs : Obs.Counter.t;
  mutable alive : bool;
  rounds : Obs.Counter.t; (* flush rounds, i.e. log fsyncs issued *)
  fsync_seconds : Obs.Histogram.t; (* wall time of each log fsync *)
  report : open_report;
}

let guard t = if not t.alive then invalid_arg "Durable_store: store killed"

let sync_path root = Path.concat root "sync.dat"

let ckpt_path root seq = Path.concat root (Fs.numbered "ckpt-" seq)

let parse_ckpt name =
  if String.length name = 21 && String.starts_with ~prefix:"ckpt-" name
     && String.ends_with ~suffix:".dat" name
  then int_of_string_opt (String.sub name 5 12)
  else None

(* A checkpoint file is exactly a position frame, then a snapshot frame,
   each checked in place, the snapshot's seal and Marshal header too
   ([sealed_value]).  [checkpoint_frame ~snapshot] is the fold over them:
   it applies [snapshot] to the checked snapshot bytes — open's decodes
   nothing, a restore's decodes them. *)
let checkpoint_frame ~snapshot st ~pos:_ ~kind b ~off ~len =
  match st with
  | `Start when kind = k_pos && len = 8 -> `Pos (Int64.to_int (Bytes.get_int64_le b off))
  | `Pos p when kind = k_ckpt && sealed_value b ~off ~len -> `Snapshot (p, snapshot b ~off)
  | `Start | `Pos _ | `Snapshot _ | `Bad -> `Bad

(* The file's stable length at save and what [frame] made of its
   snapshot; [None] if it is unreadable, torn, corrupt or in another
   layout (the single frame of the layout before the position frame). *)
let decode_checkpoint (fs : Fs.t) ?buf path ~frame =
  match fold_file fs ?buf path ~init:`Start ~f:frame with
  | `Snapshot (p, c), _, Codec.Clean when p >= 0 -> Some (p, c)
  | (`Start | `Pos _ | `Snapshot _ | `Bad), _, _ -> None
  | exception (Sys_error _ | Failure _ | Invalid_argument _ | End_of_file) -> None

(* Append one record to the synchronous area.  Writes of protocol data
   (announcements) are fsynced and counted by the callers in
   [sync_writes]; store-internal metadata (length witness, base) is not
   counted — the paper's cost model has no such operation, it piggybacks
   here on the writes that model charges for.  With
   [~fsync:false] the record is only buffered (a [write], no fsync): the
   bytes survive a process kill in the kernel regardless, and become
   power-loss durable with the next fsynced record on this descriptor.
   The flush path's length witness uses this — see [flush]. *)
let sync_put ?(fsync = true) t ~kind payload =
  t.sync_file.write (Codec.encode ~kind payload);
  if fsync then t.sync_file.fsync ()

(* A group, so a store opened per simulated process per explored schedule
   only allocates the cells; the registry indexes them when read. *)
let meters =
  Obs.Group.make (fun cells ->
      let c = Obs.Group.counter cells in
      ( c "storage_degraded_flushes_total",
        c "storage_slowed_fsyncs_total",
        c "storage_sync_writes_total",
        c "storage_flushes_total",
        c "storage_checkpoint_bytes_total",
        c "flush_rounds_total",
        Obs.Group.histogram cells "fsync_seconds" ))

let open_ ~(fs : Fs.t) ~dir ?segment_bytes ?obs () =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  fs.mkdir_p dir;
  let pre_existing =
    fs.readdir dir
    |> List.filter (fun name ->
           name = "sync.dat"
           || String.ends_with ~suffix:".dat" name
              && (String.starts_with ~prefix:"seg-" name
                 || String.starts_with ~prefix:"ckpt-" name))
  in
  let fresh = pre_existing = [] in
  let sync_file = sync_path dir in
  let sync_missing = (not fresh) && not (fs.exists sync_file) in
  (* Every file is streamed through this one frame buffer, each frame
     checked where it lies: no file is read whole, and no record or
     snapshot is copied or decoded except the few integers of the store
     metadata. *)
  let buf = Codec.buffer () in
  (* Synchronous area first: it holds the metadata (base, length witness)
     that interprets the rest.  Only the metadata is kept.  A record whose
     seal or Marshal header is damaged (in a way the frame CRC happened to
     miss, or after version skew) is dropped and its bytes counted —
     reported damage, never a crash and never silent acceptance. *)
  let sync_records = ref 0 in
  let sync_bytes_dropped = ref 0 in
  let witness_len = ref (-1) in
  let logical_base = ref 0 in
  let dropped len = sync_bytes_dropped := !sync_bytes_dropped + len + Codec.header_bytes in
  let absorb r b ~off ~len =
    if not (sealed_value b ~off ~len) then dropped len
    else
      match value_at b ~off with
      | v -> r := v
      | exception (Failure _ | Invalid_argument _ | End_of_file) -> dropped len
  in
  let absorb_sync () ~pos:_ ~kind b ~off ~len =
    incr sync_records;
    if kind = k_ann then (if not (sealed_value b ~off ~len) then dropped len)
    else if kind = k_len then absorb witness_len b ~off ~len
    else if kind = k_base then absorb logical_base b ~off ~len
  in
  let sync_checked =
    if fs.exists sync_file then begin
      let size, ((), valid_bytes, _) =
        fs.read_with sync_file (fun size input ->
            (size, Codec.fold_input ~buf ~size ~input ~init:() ~f:absorb_sync ()))
      in
      if valid_bytes < size then begin
        sync_bytes_dropped := !sync_bytes_dropped + size - valid_bytes;
        fs.truncate sync_file valid_bytes
      end;
      valid_bytes
    end
    else 0
  in
  (* Message log.  A record that fails its seal or Marshal header breaks
     the gap-free prefix the log promises, so recovery truncates there —
     the suffix is counted as dropped bytes, exactly like a torn tail.
     Records are checked in place and not kept: reads go back to the
     segments ([fold_log_from]). *)
  let log, recovered =
    Segment_log.open_ ~fs ~dir ?segment_bytes ~valid:sealed_value ()
  in
  let recovered_log = Segment_log.next_index log - recovered.Segment_log.first in
  let stable_len = Segment_log.next_index log in
  let missing = Int.max 0 (!witness_len - stable_len) in
  (* Checkpoints: each its own file; drop torn/corrupt ones and any whose
     saved stable length exceeds the recovered log (its replay suffix is
     gone, an older checkpoint still covers the surviving prefix).  The
     length is the file's first frame; the snapshot is checked, never
     decoded. *)
  let ckpt_seqs = Array.of_list (List.filter_map parse_ckpt pre_existing) in
  Array.sort Int.compare ckpt_seqs;
  let ckpts = ref [] (* newest first *) in
  let ckpts_dropped = ref 0 in
  let prefix = Path.concat dir "ckpt-" in
  let checked = checkpoint_frame ~snapshot:(fun _ ~off:_ -> ()) in
  Array.iter
    (fun seq ->
      let path = Fs.numbered prefix seq in
      match decode_checkpoint fs ~buf path ~frame:checked with
      | Some (log_pos, ()) when log_pos <= stable_len -> ckpts := seq :: !ckpts
      | Some _ | None ->
        incr ckpts_dropped;
        fs.unlink path)
    ckpt_seqs;
  let report =
    {
      fresh;
      recovered_log;
      log_bytes_dropped = recovered.Segment_log.bytes_dropped;
      log_segments_dropped = recovered.Segment_log.segments_dropped;
      missing_log_records = missing;
      recovered_checkpoints = List.length !ckpts;
      checkpoints_dropped = !ckpts_dropped;
      sync_records = !sync_records;
      sync_bytes_dropped = !sync_bytes_dropped;
      sync_area_missing = sync_missing;
    }
  in
  let ( degraded_flushes,
        slowed_fsyncs,
        sync_writes,
        flushes,
        ckpt_bytes,
        rounds,
        fsync_seconds ) =
    Obs.Registry.group obs meters
  in
  let t =
    {
      fs;
      root = dir;
      log;
      stable_len;
      base = max !logical_base (Segment_log.first_index log);
      volatile = Queue.create ();
      ckpts = !ckpts;
      ckpt_seq = 1 + Array.fold_left max (-1) ckpt_seqs;
      disk_full = 0;
      slow_fsync = None;
      degraded_flushes;
      slowed_fsyncs;
      sync_writes;
      flushes;
      ckpt_bytes;
      sync_file = fs.open_append sync_file;
      sync_checked;
      alive = true;
      rounds;
      fsync_seconds;
      report;
    }
  in
  (t, report)

let report t = t.report

let dir t = t.root

(* --- the stable-storage contract --------------------------------------- *)

let append_volatile t r =
  guard t;
  Queue.add r t.volatile

(* The flush path has exactly one durability point: the segment log's
   fsync.  The stable-length witness — which lets a reopen detect a log
   tail that fsync claimed but did not persist — is recorded in the
   synchronous area as a {e buffered} write ([sync_put ~fsync:false]),
   only once that fsync has returned, valued at what it covered.  A
   raising fsync writes no witness and counts no flush.  Buffered is
   enough: a process kill never drops written bytes (only power loss can,
   and that also drops the log tail the witness would have accused, so the
   witness can only ever under-claim — it never fabricates damage).
   Crucially it does {e not} ride the log's fsync, so a lying log fsync
   still leaves a truthful witness behind. *)
(* Brownout degradation.  A disk-full window makes [flush] {e refuse} —
   nothing is drained, the volatile queue is retained intact and the
   refusal is counted — so the caller's records stay volatile and the
   K-rule keeps the node's sends gated: the protocol degrades to blocking
   at the K boundary instead of ever claiming stability the disk did not
   provide, and the first flush after the window drains everything in one
   synchronous round.  A slow-fsync window stretches each fsync (timed
   into [fsync_seconds]) and is counted. *)
(* One flush round, shared by the refusable and the forced
   ([flush_forced]) entry points: append the volatile queue, fsync once,
   then witness what the fsync covered. *)
let flush_run t =
  guard t;
  let n = Queue.length t.volatile in
  if n = 0 then 0
  else begin
    Queue.iter (fun r -> ignore (Segment_log.append t.log (to_bin r) : int)) t.volatile;
    Queue.clear t.volatile;
    t.stable_len <- t.stable_len + n;
    let slow =
      match t.slow_fsync with
      | Some (delay, rounds) when rounds > 0 ->
        t.slow_fsync <- (if rounds = 1 then None else Some (delay, rounds - 1));
        Obs.Counter.incr t.slowed_fsyncs;
        delay
      | Some _ | None -> 0.
    in
    let began = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        Obs.Histogram.observe t.fsync_seconds (Unix.gettimeofday () -. began);
        Obs.Counter.incr t.rounds)
      (fun () ->
        Segment_log.sync t.log;
        if slow > 0. then Unix.sleepf slow);
    sync_put ~fsync:false t ~kind:k_len (to_bin t.stable_len);
    Obs.Counter.incr t.flushes;
    Obs.Counter.incr t.sync_writes;
    n
  end

let flush t =
  guard t;
  if t.disk_full > 0 && not (Queue.is_empty t.volatile) then begin
    t.disk_full <- t.disk_full - 1;
    Obs.Counter.incr t.degraded_flushes;
    0
  end
  else flush_run t

(* Critical-path flush (checkpoints, rollback): models a writer that
   blocks until space frees, so an armed disk-full window never refuses
   it.  Without this, a checkpoint taken during a brownout would capture
   state whose covering log prefix the refused flush left volatile —
   restart would then replay records the checkpoint already absorbed. *)
let flush_forced t = flush_run t

let stable_log_length t = t.stable_len

let volatile_length t = Queue.length t.volatile

let volatile_peek t = Queue.peek_opt t.volatile

(* Read back from the segments: a record that no longer decodes raises
   (naming its segment and index) instead of shortening the answer. *)
let fold_log_from t ~pos ~init ~f =
  guard t;
  if pos < t.base || pos > t.stable_len then
    invalid_arg "Durable_store.stable_log_from: position out of range";
  Segment_log.fold_from t.log ~pos ~decode:decode_opt ~init ~f

let stable_log_from t ~pos =
  List.rev (fold_log_from t ~pos ~init:[] ~f:(fun acc _ r -> r :: acc))

let truncate_stable_log t ~keep =
  guard t;
  if keep < t.base || keep > t.stable_len then
    invalid_arg "Durable_store.truncate_stable_log: keep out of range";
  let removed = stable_log_from t ~pos:keep in
  t.stable_len <- keep;
  Segment_log.truncate_after t.log ~keep;
  sync_put t ~kind:k_len (to_bin keep);
  Queue.clear t.volatile;
  removed

let discard_log_prefix t ~before =
  guard t;
  if before > t.stable_len then
    invalid_arg "Durable_store.discard_log_prefix: position out of range";
  if before <= t.base then 0
  else begin
    let discarded = before - t.base in
    t.base <- before;
    (* Record the logical base first, then reclaim whole segments; if we
       die in between, reopen just sees a few extra records below base. *)
    sync_put t ~kind:k_base (to_bin before);
    Segment_log.drop_segments_below t.log ~before;
    discarded
  end

let log_base t = t.base

let live_log_records t = t.stable_len - t.base

let save_checkpoint t c =
  ignore (flush_forced t : int);
  let seq = t.ckpt_seq in
  t.ckpt_seq <- seq + 1;
  let pos = Bytes.create 8 in
  Bytes.set_int64_le pos 0 (Int64.of_int t.stable_len);
  let b = Buffer.create 256 in
  Codec.encode_into b ~kind:k_pos (Bytes.unsafe_to_string pos);
  Codec.encode_into b ~kind:k_ckpt (to_bin c);
  Fs.write_file t.fs (ckpt_path t.root seq) (Buffer.contents b);
  t.ckpts <- seq :: t.ckpts;
  Obs.Counter.add t.ckpt_bytes (Buffer.length b);
  Obs.Counter.incr t.sync_writes

(* A snapshot read back from its file.  Open-time recovery kept only
   files that decoded, so a failure here is damage after open: reported,
   never answered with another checkpoint. *)
let read_checkpoint t seq =
  guard t;
  let path = ckpt_path t.root seq in
  match decode_checkpoint t.fs path ~frame:(checkpoint_frame ~snapshot:value_at) with
  | Some (_, c) -> c
  | None -> failwith ("Durable_store: checkpoint no longer decodes: " ^ path)

let latest_checkpoint t =
  match t.ckpts with [] -> None | seq :: _ -> Some (read_checkpoint t seq)

let checkpoints t = Seq.map (read_checkpoint t) (List.to_seq t.ckpts)

let oldest_checkpoint t =
  match List.rev t.ckpts with [] -> None | seq :: _ -> Some (read_checkpoint t seq)

let unlink_ckpts t dropped =
  List.iter (fun seq -> t.fs.unlink (ckpt_path t.root seq)) dropped

let restore_checkpoint t ~satisfying =
  guard t;
  let rec find newer = function
    | [] -> None
    | seq :: rest ->
      let c = read_checkpoint t seq in
      if satisfying c then Some (List.rev newer, seq :: rest, c)
      else find (seq :: newer) rest
  in
  match find [] t.ckpts with
  | None -> None
  | Some (newer, kept, c) ->
    unlink_ckpts t newer;
    t.ckpts <- kept;
    Some c

let prune_checkpoints t ~keep_latest =
  guard t;
  if keep_latest < 1 then
    invalid_arg "Durable_store.prune_checkpoints: must keep at least one";
  let rec split i acc = function
    | [] -> (List.rev acc, [])
    | rest when i = 0 -> (List.rev acc, rest)
    | c :: rest -> split (i - 1) (c :: acc) rest
  in
  let kept, dropped = split keep_latest [] t.ckpts in
  t.ckpts <- kept;
  unlink_ckpts t dropped;
  List.length dropped

let log_announcement t a =
  guard t;
  sync_put t ~kind:k_ann (to_bin a);
  Obs.Counter.incr t.sync_writes

(* The announcements read back from sync.dat, oldest first, streamed.
   Open truncated any torn or corrupt tail and counted the records in the
   bytes it checked whose seal or Marshal header failed; those records,
   found by the same predicate, are skipped here.  Anything else that does
   not decode, and a frame anomaly, is damage after open or a format bug:
   reported with its byte offset, never answered with a shorter list. *)
let announcements t =
  guard t;
  let path = sync_path t.root in
  let undecodable pos =
    failwith (Printf.sprintf "Durable_store: %s: undecodable record at byte %d" path pos)
  in
  let anns, valid_bytes, tail =
    fold_file t.fs path ~init:[] ~f:(fun acc ~pos ~kind b ~off ~len ->
        if kind <> k_ann then acc
        else if sealed_value b ~off ~len then
          match value_at b ~off with
          | a -> a :: acc
          | exception (Failure _ | Invalid_argument _ | End_of_file) -> undecodable pos
        else if pos < t.sync_checked then acc
        else undecodable pos)
  in
  if tail <> Codec.Clean then
    failwith
      (Printf.sprintf "Durable_store: %s: damaged at byte %d" path valid_bytes);
  List.rev anns

(* Rewrite the synchronous area keeping only the announcements [keep]
   accepts (plus the store metadata — base and length witness — re-emitted
   fresh).  Atomic: build a temp file, fsync it, rename over
   sync.dat, reopen the append descriptor.  A crash before the rename
   leaves the old area intact; after it, the new one. *)
let compact_sync t ~keep =
  let anns = announcements t in
  let kept = List.filter keep anns in
  let dropped = List.length anns - List.length kept in
  if dropped > 0 then begin
    let path = sync_path t.root in
    let tmp = path ^ ".tmp" in
    let b = Buffer.create 4096 in
    Codec.encode_into b ~kind:k_base (to_bin t.base);
    Codec.encode_into b ~kind:k_len (to_bin t.stable_len);
    List.iter (fun a -> Codec.encode_into b ~kind:k_ann (to_bin a)) kept;
    Fs.write_file t.fs tmp (Buffer.contents b);
    t.fs.rename tmp path;
    t.sync_file.close ();
    t.sync_file <- t.fs.open_append path;
    (* Every record left decodes: none is one open counted. *)
    t.sync_checked <- 0;
    Obs.Counter.incr t.sync_writes
  end;
  dropped

let sync_writes t = Obs.Counter.value t.sync_writes

let kill t =
  if t.alive then begin
    Queue.clear t.volatile;
    Segment_log.kill t.log;
    t.sync_file.close ();
    t.alive <- false
  end

let arm_fsync_failure t =
  guard t;
  Segment_log.arm_fsync_failure t.log

let arm_disk_full t ~rounds =
  if rounds < 0 then invalid_arg "Durable_store.arm_disk_full";
  guard t;
  t.disk_full <- rounds

let arm_slow_fsync t ~delay ~rounds =
  if delay < 0. || rounds < 0 then invalid_arg "Durable_store.arm_slow_fsync";
  guard t;
  t.slow_fsync <- (if rounds = 0 then None else Some (delay, rounds))
