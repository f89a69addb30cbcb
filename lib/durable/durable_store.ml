(* Record kinds, one byte each.  The segment log uses its own fixed kind
   internally; these are the checkpoint-file and synchronous-area kinds. *)
let k_ckpt = 0x43 (* 'C': (stable length at save, checkpoint snapshot) *)

let k_ann = 0x41 (* 'A': announcement *)

let k_inc = 0x49 (* 'I': incarnation counter *)

let k_len = 0x4E (* 'N': stable-length witness, recorded after each flush *)

let k_base = 0x42 (* 'B': logical log base after prefix compaction *)

(* Every Marshal blob travels sealed: the envelope's CRC witnesses the
   exact marshalled bytes, so [of_bin_opt] rejects damaged or skewed input
   before [Marshal.from_string] can crash on it.  Decode failures are
   never raised out of [open_] — they are counted into the open report. *)
let to_bin v = Codec.seal (Marshal.to_string v [ Marshal.Closures ])

let of_bin_opt (s : string) =
  match Codec.unseal s with
  | Error _ -> None
  | Ok p -> (
    match Marshal.from_string p 0 with
    | v -> Some v
    | exception (Failure _ | Invalid_argument _ | End_of_file) -> None)


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

let pp_open_report ppf r =
  Format.fprintf ppf
    "@[<v>fresh: %b@,log: %d records recovered, %d bytes + %d segments dropped@,\
     missing vs stable-length witness: %d@,\
     checkpoints: %d recovered, %d dropped@,\
     sync area: %d records, %d bytes dropped%s@]"
    r.fresh r.recovered_log r.log_bytes_dropped r.log_segments_dropped
    r.missing_log_records r.recovered_checkpoints r.checkpoints_dropped
    r.sync_records r.sync_bytes_dropped
    (if r.sync_area_missing then ", MISSING" else "")

type ('ckpt, 'log, 'ann) t = {
  root : string;
  log : Segment_log.t;
  mutable stable_log : 'log list; (* newest first, mirrors the segments *)
  mutable stable_len : int;
  mutable base : int;
  volatile : 'log Queue.t;
  mutable ckpts : (int * 'ckpt) list; (* (file seq, snapshot), newest first *)
  mutable ckpt_seq : int;
  mutable anns : 'ann list; (* newest first *)
  mutable inc : int;
  sync_writes : Obs.Counter.t;
  flushes : Obs.Counter.t;
  mutable sync_fd : Unix.file_descr; (* sync.dat, appended under the lock *)
  mutable disk_full : int; (* flush rounds still refused (ENOSPC brownout) *)
  mutable slow_fsync : (float * int) option; (* extra seconds, rounds left *)
  mutable round_slow : float; (* slow-down of the round in flight *)
  degraded_flushes : Obs.Counter.t;
  slowed_fsyncs : Obs.Counter.t;
  mutable alive : bool;
  gc : Group_commit.t; (* flush coalescing; its lock guards all state *)
  report : open_report;
}

let guard t = if not t.alive then invalid_arg "Durable_store: store killed"

let sync_path root = Filename.concat root "sync.dat"

let ckpt_path root seq = Filename.concat root (Printf.sprintf "ckpt-%012d.dat" seq)

let parse_ckpt name =
  if String.length name = 21 && String.sub name 0 5 = "ckpt-"
     && Filename.check_suffix name ".dat"
  then int_of_string_opt (String.sub name 5 12)
  else None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Append one record to the synchronous area.  Writes of protocol data
   (announcements, incarnation) are fsynced and counted by the callers in
   [sync_writes]; store-internal metadata (length witness, base) is not
   counted — the paper's cost model has no such operation, it piggybacks
   here on writes the simulated store performs for free.  With
   [~fsync:false] the record is only buffered (a [write], no fsync): the
   bytes survive a process kill in the kernel regardless, and become
   power-loss durable with the next fsynced record on this descriptor.
   The flush path's length witness uses this — see [flush]. *)
let sync_put ?(fsync = true) t ~kind payload =
  let frame = Codec.encode ~kind payload in
  let len = String.length frame in
  let rec loop pos =
    if pos < len then
      loop (pos + Unix.write_substring t.sync_fd frame pos (len - pos))
  in
  loop 0;
  if fsync then Unix.fsync t.sync_fd

let open_ ~dir ?segment_bytes ?obs () =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  Temp.mkdir_p dir;
  let pre_existing =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name ->
           name = "sync.dat"
           || Filename.check_suffix name ".dat"
              && (String.length name >= 4 && String.sub name 0 4 = "seg-"
                 || String.length name >= 5 && String.sub name 0 5 = "ckpt-"))
  in
  let fresh = pre_existing = [] in
  let sync_file = sync_path dir in
  let sync_missing = (not fresh) && not (Sys.file_exists sync_file) in
  (* Synchronous area first: it holds the metadata (base, length witness)
     that interprets the rest. *)
  let sync_records = ref [] (* oldest first after rev *) in
  let sync_bytes_dropped = ref 0 in
  (if Sys.file_exists sync_file then begin
     let contents = read_file sync_file in
     let scanned = Codec.scan contents in
     sync_records := scanned.records;
     if scanned.valid_bytes < String.length contents then begin
       sync_bytes_dropped := String.length contents - scanned.valid_bytes;
       let fd = Unix.openfile sync_file [ Unix.O_WRONLY ] 0o644 in
       Unix.ftruncate fd scanned.valid_bytes;
       Unix.close fd
     end
   end);
  let anns = ref [] (* newest first *) in
  let inc = ref 0 in
  let witness_len = ref None in
  let logical_base = ref 0 in
  (* A record whose seal or Marshal header is damaged (in a way the frame
     CRC happened to miss, or after version skew) is dropped and its bytes
     counted — reported damage, never a crash and never silent
     acceptance. *)
  List.iter
    (fun (kind, payload) ->
      let undecodable () =
        sync_bytes_dropped :=
          !sync_bytes_dropped + String.length payload + Codec.header_bytes
      in
      let absorb f = match of_bin_opt payload with
        | Some v -> f v
        | None -> undecodable ()
      in
      if kind = k_ann then absorb (fun a -> anns := a :: !anns)
      else if kind = k_inc then absorb (fun (i : int) -> inc := i)
      else if kind = k_len then absorb (fun (w : int) -> witness_len := Some w)
      else if kind = k_base then absorb (fun (b : int) -> logical_base := b))
    !sync_records;
  (* Message log.  An undecodable record breaks the gap-free prefix the
     log promises, so recovery truncates there — the suffix is counted as
     dropped bytes, exactly like a torn tail. *)
  let log, recovered = Segment_log.open_ ~dir ?segment_bytes () in
  let log_undecodable_bytes = ref 0 in
  let stable_log =
    let rec decode_prefix idx acc = function
      | [] -> acc
      | payload :: rest -> (
        match of_bin_opt payload with
        | Some r -> decode_prefix (idx + 1) (r :: acc) rest
        | None ->
          List.iter
            (fun p ->
              log_undecodable_bytes :=
                !log_undecodable_bytes + String.length p + Codec.header_bytes)
            (payload :: rest);
          Segment_log.truncate_after log ~keep:idx;
          acc)
    in
    decode_prefix recovered.Segment_log.first [] recovered.Segment_log.payloads
  in
  let stable_len = Segment_log.next_index log in
  let missing =
    match !witness_len with
    | Some w when w > stable_len -> w - stable_len
    | Some _ | None -> 0
  in
  (* Checkpoints: each its own file; drop torn/corrupt ones and any whose
     saved stable length exceeds the recovered log (its replay suffix is
     gone, an older checkpoint still covers the surviving prefix). *)
  let ckpt_seqs =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map parse_ckpt
    |> List.sort compare
  in
  let ckpts = ref [] (* newest first *) in
  let ckpts_dropped = ref 0 in
  List.iter
    (fun seq ->
      let path = ckpt_path dir seq in
      let usable =
        match Codec.decode (read_file path) ~pos:0 with
        | Codec.Record { kind; payload; _ } when kind = k_ckpt -> (
          match (of_bin_opt payload : (int * _) option) with
          | Some (log_pos, snapshot) when log_pos <= stable_len ->
            Some (seq, snapshot)
          | Some _ | None -> None)
        | _ -> None
        | exception _ -> None
      in
      match usable with
      | Some c -> ckpts := c :: !ckpts
      | None ->
        incr ckpts_dropped;
        Unix.unlink path)
    ckpt_seqs;
  let report =
    {
      fresh;
      recovered_log = List.length stable_log;
      log_bytes_dropped =
        recovered.Segment_log.bytes_dropped + !log_undecodable_bytes;
      log_segments_dropped = recovered.Segment_log.segments_dropped;
      missing_log_records = missing;
      recovered_checkpoints = List.length !ckpts;
      checkpoints_dropped = !ckpts_dropped;
      sync_records = List.length !sync_records;
      sync_bytes_dropped = !sync_bytes_dropped;
      sync_area_missing = sync_missing;
    }
  in
  let sync_fd =
    Unix.openfile sync_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t =
    {
      root = dir;
      log;
      stable_log;
      stable_len;
      base = max !logical_base (Segment_log.first_index log);
      volatile = Queue.create ();
      ckpts = !ckpts;
      ckpt_seq = 1 + List.fold_left (fun m s -> max m s) (-1) ckpt_seqs;
      anns = !anns;
      inc = !inc;
      disk_full = 0;
      slow_fsync = None;
      round_slow = 0.;
      degraded_flushes = Obs.Registry.counter obs "storage_degraded_flushes_total";
      slowed_fsyncs = Obs.Registry.counter obs "storage_slowed_fsyncs_total";
      sync_writes = Obs.Registry.counter obs "storage_sync_writes_total";
      flushes = Obs.Registry.counter obs "storage_flushes_total";
      sync_fd;
      alive = true;
      gc = Group_commit.create ~obs ();
      report;
    }
  in
  (t, report)

let report t = t.report

let dir t = t.root

(* --- the Stable_store contract ------------------------------------- *)

(* Thread safety: every public operation runs under the group-commit
   coordinator's lock.  Plain reads and appends take it directly
   ([with_lock]); operations that rewrite files or close descriptors
   ([exclusive]) additionally wait out any fsync in flight.  [flush] goes
   through {!Group_commit.force} so concurrent flushes coalesce. *)

let with_lock t f = Group_commit.with_lock t.gc (fun () -> f ())

let exclusive t f = Group_commit.exclusive t.gc (fun () -> f ())

let append_volatile t r =
  with_lock t (fun () ->
      guard t;
      Queue.add r t.volatile)

(* The flush path has exactly one durability point: the segment log's
   fsync.  The stable-length witness — which lets a reopen detect a log
   tail that fsync claimed but did not persist — is recorded in the
   synchronous area as a {e buffered} write ([sync_put ~fsync:false]),
   after the fsync returns and under the lock, valued at what that fsync
   covered.  Buffered is enough: a process kill never drops written bytes
   (only power loss can, and that also drops the log tail the witness
   would have accused, so the witness can only ever under-claim — it
   never fabricates damage).  Crucially it does {e not} ride the log's
   fsync, so a lying log fsync still leaves a truthful witness behind. *)
(* Brownout degradation.  A disk-full window makes [flush] {e refuse} —
   nothing is drained, the volatile queue is retained intact and the
   refusal is counted — so the caller's records stay volatile and the
   K-rule keeps the node's sends gated: the protocol degrades to blocking
   at the K boundary instead of ever claiming stability the disk did not
   provide, and the first flush after the window drains everything in one
   synchronous round.  A slow-fsync window stretches each fsync, which the
   group-commit coordinator absorbs by coalescing more callers per round
   (its stats report the shed). *)
(* The group-commit round itself, shared by the refusable and the forced
   ([flush_forced]) entry points. *)
let flush_run t =
  Group_commit.force t.gc
      ~pending:(fun () ->
        guard t;
        not (Queue.is_empty t.volatile))
      ~prepare:(fun () ->
        let n = Queue.length t.volatile in
        Queue.iter
          (fun r ->
            ignore (Segment_log.append t.log (to_bin r) : int);
            t.stable_log <- r :: t.stable_log)
          t.volatile;
        Queue.clear t.volatile;
        t.stable_len <- t.stable_len + n;
        (* Only one leader is ever between prepare and sync, so a per-round
           slow-down recorded here (under the lock) can be consumed in
           [sync] (outside it) without a race. *)
        (match t.slow_fsync with
        | Some (delay, rounds) when rounds > 0 ->
          t.slow_fsync <- (if rounds = 1 then None else Some (delay, rounds - 1));
          Obs.Counter.incr t.slowed_fsyncs;
          t.round_slow <- delay
        | Some _ | None -> t.round_slow <- 0.);
        (n, t.stable_len))
      ~sync:(fun () ->
        Segment_log.sync t.log;
        let s = t.round_slow in
        if s > 0. then begin
          t.round_slow <- 0.;
          Thread.delay s
        end)
      ~commit:(fun (_, len) ->
        sync_put ~fsync:false t ~kind:k_len (to_bin len);
        Obs.Counter.incr t.flushes;
        Obs.Counter.incr t.sync_writes)
      ~default:(0, 0) ()
  |> fst

let flush t =
  let refused =
    with_lock t (fun () ->
        guard t;
        if t.disk_full > 0 && not (Queue.is_empty t.volatile) then begin
          t.disk_full <- t.disk_full - 1;
          Obs.Counter.incr t.degraded_flushes;
          true
        end
        else false)
  in
  if refused then 0 else flush_run t

(* Critical-path flush (checkpoints, rollback): models a writer that
   blocks until space frees, so an armed disk-full window never refuses
   it.  Without this, a checkpoint taken during a brownout would capture
   state whose covering log prefix the refused flush left volatile —
   restart would then replay records the checkpoint already absorbed. *)
let flush_forced t = flush_run t

let stable_log_length t = with_lock t (fun () -> t.stable_len)

let volatile_length t = with_lock t (fun () -> Queue.length t.volatile)

let volatile_peek t = with_lock t (fun () -> Queue.peek_opt t.volatile)

let log_from t ~pos =
  if pos < t.base || pos > t.stable_len then
    invalid_arg "Stable_store.stable_log_from: position out of range";
  let rec take i acc = function
    | [] -> acc
    | r :: rest -> if i < pos then acc else take (i - 1) (r :: acc) rest
  in
  take (t.stable_len - 1) [] t.stable_log

let stable_log_from t ~pos = with_lock t (fun () -> log_from t ~pos)

let truncate_stable_log t ~keep =
  exclusive t (fun () ->
      guard t;
      if keep < t.base || keep > t.stable_len then
        invalid_arg "Stable_store.truncate_stable_log: keep out of range";
      let removed = log_from t ~pos:keep in
      let rec drop i l = if i = 0 then l else drop (i - 1) (List.tl l) in
      t.stable_log <- drop (t.stable_len - keep) t.stable_log;
      t.stable_len <- keep;
      Segment_log.truncate_after t.log ~keep;
      sync_put t ~kind:k_len (to_bin keep);
      Queue.clear t.volatile;
      removed)

let discard_log_prefix t ~before =
  exclusive t @@ fun () ->
  guard t;
  if before > t.stable_len then
    invalid_arg "Stable_store.discard_log_prefix: position out of range";
  if before <= t.base then 0
  else begin
    let keep_cells = t.stable_len - before in
    let rec take i acc l =
      if i = 0 then List.rev acc
      else
        match l with
        | [] -> List.rev acc
        | r :: rest -> take (i - 1) (r :: acc) rest
    in
    let discarded = before - t.base in
    t.stable_log <- take keep_cells [] t.stable_log;
    t.base <- before;
    (* Record the logical base first, then reclaim whole segments; if we
       die in between, reopen just sees a few extra records below base. *)
    sync_put t ~kind:k_base (to_bin before);
    Segment_log.drop_segments_below t.log ~before;
    discarded
  end

let log_base t = with_lock t (fun () -> t.base)

let live_log_records t = with_lock t (fun () -> t.stable_len - t.base)

let save_checkpoint t c =
  ignore (flush_forced t : int);
  exclusive t (fun () ->
      guard t;
      let seq = t.ckpt_seq in
      t.ckpt_seq <- seq + 1;
      let path = ckpt_path t.root seq in
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let frame = Codec.encode ~kind:k_ckpt (to_bin (t.stable_len, c)) in
          let len = String.length frame in
          let rec loop pos =
            if pos < len then
              loop (pos + Unix.write_substring fd frame pos (len - pos))
          in
          loop 0;
          Unix.fsync fd);
      t.ckpts <- (seq, c) :: t.ckpts;
      Obs.Counter.incr t.sync_writes)

let latest_checkpoint t =
  with_lock t (fun () ->
      match t.ckpts with [] -> None | (_, c) :: _ -> Some c)

let checkpoints t = with_lock t (fun () -> List.map snd t.ckpts)

let unlink_ckpts t dropped =
  List.iter (fun (seq, _) -> Unix.unlink (ckpt_path t.root seq)) dropped

let restore_checkpoint t ~satisfying =
  exclusive t @@ fun () ->
  guard t;
  let rec find newer = function
    | [] -> None
    | (seq, c) :: rest ->
      if satisfying c then Some (List.rev newer, (seq, c) :: rest)
      else find ((seq, c) :: newer) rest
  in
  match find [] t.ckpts with
  | None -> None
  | Some (newer, kept) ->
    unlink_ckpts t newer;
    t.ckpts <- kept;
    Some (snd (List.hd kept))

let prune_checkpoints t ~keep_latest =
  exclusive t @@ fun () ->
  guard t;
  if keep_latest < 1 then
    invalid_arg "Stable_store.prune_checkpoints: must keep at least one";
  let rec split i acc = function
    | [] -> (List.rev acc, [])
    | rest when i = 0 -> (List.rev acc, rest)
    | c :: rest -> split (i - 1) (c :: acc) rest
  in
  let kept, dropped = split keep_latest [] t.ckpts in
  t.ckpts <- kept;
  unlink_ckpts t dropped;
  List.length dropped

let prune_checkpoints_older_than t ~anchor =
  exclusive t @@ fun () ->
  guard t;
  let rec split acc = function
    | [] -> None
    | (seq, c) :: rest when anchor c -> Some (List.rev ((seq, c) :: acc), rest)
    | c :: rest -> split (c :: acc) rest
  in
  match split [] t.ckpts with
  | None -> 0
  | Some (kept, dropped) ->
    t.ckpts <- kept;
    unlink_ckpts t dropped;
    List.length dropped

let log_announcement t a =
  with_lock t (fun () ->
      guard t;
      sync_put t ~kind:k_ann (to_bin a);
      t.anns <- a :: t.anns;
      Obs.Counter.incr t.sync_writes)

let announcements t = with_lock t (fun () -> List.rev t.anns)

(* Rewrite the synchronous area keeping only the announcements [keep]
   accepts (plus the store metadata — base, length witness, incarnation —
   re-emitted fresh).  Atomic: build a temp file, fsync it, rename over
   sync.dat, reopen the append descriptor.  A crash before the rename
   leaves the old area intact; after it, the new one. *)
let compact_sync t ~keep =
  exclusive t @@ fun () ->
  guard t;
  let kept = List.filter keep (List.rev t.anns) (* oldest first *) in
  let dropped = List.length t.anns - List.length kept in
  if dropped > 0 then begin
    let tmp = sync_path t.root ^ ".tmp" in
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let b = Buffer.create 4096 in
        Buffer.add_string b (Codec.encode ~kind:k_base (to_bin t.base));
        Buffer.add_string b (Codec.encode ~kind:k_len (to_bin t.stable_len));
        Buffer.add_string b (Codec.encode ~kind:k_inc (to_bin t.inc));
        List.iter
          (fun a -> Buffer.add_string b (Codec.encode ~kind:k_ann (to_bin a)))
          kept;
        let frame = Buffer.contents b in
        let len = String.length frame in
        let rec loop pos =
          if pos < len then
            loop (pos + Unix.write_substring fd frame pos (len - pos))
        in
        loop 0;
        Unix.fsync fd);
    Unix.rename tmp (sync_path t.root);
    Unix.close t.sync_fd;
    t.sync_fd <-
      Unix.openfile (sync_path t.root) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
    t.anns <- List.rev kept;
    Obs.Counter.incr t.sync_writes
  end;
  dropped

let set_incarnation t i =
  with_lock t (fun () ->
      guard t;
      sync_put t ~kind:k_inc (to_bin i);
      t.inc <- i;
      Obs.Counter.incr t.sync_writes)

let incarnation t = with_lock t (fun () -> t.inc)

let crash t =
  with_lock t (fun () ->
      let lost = Queue.length t.volatile in
      Queue.clear t.volatile;
      lost)

let sync_writes t = with_lock t (fun () -> Obs.Counter.value t.sync_writes)

let flushes t = with_lock t (fun () -> Obs.Counter.value t.flushes)


let kill t =
  (* [exclusive] waits out an fsync in flight: descriptors must not close
     under a leader mid-sync. *)
  exclusive t (fun () ->
      if t.alive then begin
        Queue.clear t.volatile;
        Segment_log.kill t.log;
        Unix.close t.sync_fd;
        t.alive <- false
      end)

let arm_fsync_failure t =
  exclusive t (fun () ->
      guard t;
      Segment_log.arm_fsync_failure t.log)

let arm_disk_full t ~rounds =
  if rounds < 0 then invalid_arg "Durable_store.arm_disk_full";
  with_lock t (fun () ->
      guard t;
      t.disk_full <- rounds)

let arm_slow_fsync t ~delay ~rounds =
  if delay < 0. || rounds < 0 then invalid_arg "Durable_store.arm_slow_fsync";
  with_lock t (fun () ->
      guard t;
      t.slow_fsync <- (if rounds = 0 then None else Some (delay, rounds)))

let degraded_flushes t = with_lock t (fun () -> Obs.Counter.value t.degraded_flushes)

let slowed_fsyncs t = with_lock t (fun () -> Obs.Counter.value t.slowed_fsyncs)
