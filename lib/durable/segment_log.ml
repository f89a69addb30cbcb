let log_kind = 0x4C (* 'L' *)

let default_segment_bytes = 64 * 1024

type seg = {
  start : int; (* absolute logical index of the first record *)
  path : string;
  mutable count : int;
  mutable bytes : int;
}

type t = {
  fs : Fs.t;
  dir : string;
  segment_bytes : int;
  mutable segs : seg list; (* oldest first; the last one is [cur] *)
  mutable cur : seg;
  mutable file : Fs.file;
  mutable dirty : bool; (* [cur] holds appends no fsync has covered *)
  mutable fsync_failed : bool;
  mutable alive : bool;
}

type recovered = {
  bytes_dropped : int;
  segments_dropped : int;
  tail : Codec.tail;
}

let seg_path dir start = Path.concat dir (Fs.numbered "seg-" start)

let parse_seg name =
  if String.length name = 20 && String.starts_with ~prefix:"seg-" name
     && String.ends_with ~suffix:".dat" name
  then int_of_string_opt (String.sub name 4 12)
  else None

let is_segment path = Option.is_some (parse_seg (Path.basename path))

let guard t name = if not t.alive then invalid_arg ("Segment_log." ^ name ^ ": log closed")

(* Fail-stop after a raising fsync: the kernel may already have dropped
   the pages it failed to write, so a second fsync could report success
   for bytes that are gone (PostgreSQL's "fsyncgate").  Nothing is
   appended or synced again; the caller's process is expected to die. *)
let writable t name =
  guard t name;
  if t.fsync_failed then failwith ("Segment_log." ^ name ^ ": an earlier fsync failed")

let create_segment (fs : Fs.t) dir start =
  let path = seg_path dir start in
  (fs.create path).close ();
  { start; path; count = 0; bytes = 0 }

(* Open-time recovery, one frame in memory at a time: each segment is
   streamed frame by frame through one buffer, counting what passes
   [valid] in place, and the first anomaly — a torn or corrupt frame, a
   rejected record, or a segment that does not start where its predecessor
   ends — truncates the log there. *)
let open_ ~(fs : Fs.t) ~dir ?(segment_bytes = default_segment_bytes) ~valid () =
  fs.mkdir_p dir;
  let starts = Array.of_list (List.filter_map parse_seg (fs.readdir dir)) in
  Array.sort Int.compare starts;
  let prefix = Path.concat dir "seg-" in
  let bytes_dropped = ref 0 in
  let segments_dropped = ref 0 in
  let tail = ref Codec.Clean in
  let kept = ref [] (* newest first *) in
  let drop path =
    bytes_dropped := !bytes_dropped + fs.size path;
    incr segments_dropped;
    fs.unlink path
  in
  let reader = Codec.reader () in
  (* One closure pair for every segment: per segment, open allocates its
     name, its descriptor's input and its entry, and nothing per record. *)
  let count = ref 0 in
  let exception Rejected of int in
  let check () ~pos ~kind:_ b ~off ~len =
    if valid b ~off ~len then incr count else raise (Rejected pos)
  in
  let scan size input =
    count := 0;
    match Codec.frames ~reader ~size input ~init:() ~f:check with
    | (), valid_bytes, seg_tail -> (size, valid_bytes, seg_tail)
    | exception Rejected pos -> (size, pos, Codec.Corrupt_tail)
  in
  Array.iter
    (fun start ->
      let path = Fs.numbered prefix start in
      if !tail <> Codec.Clean then drop path
      else
        match !kept with
        | prev :: _ when prev.start + prev.count <> start ->
          (* The previous segment lost records (a mid-log truncation or
             corruption ate its tail): logical positions would gap, so
             everything from here on is unusable. *)
          tail := Codec.Corrupt_tail;
          drop path
        | _ ->
          let size, valid_bytes, seg_tail = fs.read_with path scan in
          kept := { start; path; count = !count; bytes = valid_bytes } :: !kept;
          if seg_tail <> Codec.Clean then begin
            tail := seg_tail;
            bytes_dropped := !bytes_dropped + (size - valid_bytes);
            fs.truncate path valid_bytes
          end)
    starts;
  let segs =
    match List.rev !kept with [] -> [ create_segment fs dir 0 ] | segs -> segs
  in
  let cur = List.nth segs (List.length segs - 1) in
  let t =
    {
      fs;
      dir;
      segment_bytes;
      segs;
      cur;
      file = fs.open_append cur.path;
      dirty = false;
      fsync_failed = false;
      alive = true;
    }
  in
  let recovered =
    {
      bytes_dropped = !bytes_dropped;
      segments_dropped = !segments_dropped;
      tail = !tail;
    }
  in
  (t, recovered)

let next_index t = t.cur.start + t.cur.count

let first_index t = (List.hd t.segs).start

let segment_count t = List.length t.segs

let do_sync t =
  if t.dirty then begin
    (try t.file.fsync ()
     with e ->
       t.fsync_failed <- true;
       raise e);
    t.dirty <- false
  end

let sync t =
  writable t "sync";
  do_sync t

let rotate t =
  do_sync t;
  t.file.close ();
  let seg = create_segment t.fs t.dir (next_index t) in
  t.segs <- t.segs @ [ seg ];
  t.cur <- seg;
  t.file <- t.fs.open_append seg.path

let append t payload =
  writable t "append";
  if t.cur.bytes >= t.segment_bytes && t.cur.count > 0 then rotate t;
  let frame = Codec.encode ~kind:log_kind payload in
  t.file.write frame;
  let idx = next_index t in
  t.cur.count <- t.cur.count + 1;
  t.cur.bytes <- t.cur.bytes + String.length frame;
  t.dirty <- true;
  idx

let fail ~op s i reason =
  failwith (Printf.sprintf "Segment_log.%s: %s: record %d: %s" op s.path i reason)

(* Fold [f] over the records of segment [s], oldest first, each with its
   logical index, its offset and its payload in place in [reader]'s
   buffer, streamed from byte 0 (the log keeps no per-record offsets; a
   segment is at most [segment_bytes] plus one record).  Appends are
   whole O_APPEND writes, so everything appended — synced or not — is
   readable from the file.  Fails naming the record where the file stops
   matching what was written. *)
let fold_segment t ~op ~reader s ~init ~f =
  let n = ref 0 in
  let acc, _, _ =
    t.fs.read_with s.path (fun size input ->
        Codec.frames ~reader ~size input ~init ~f:(fun acc ~pos ~kind:_ b ~off ~len ->
            let i = s.start + !n in
            incr n;
            f acc i ~pos b ~off ~len))
  in
  if !n < s.count then fail ~op s (s.start + !n) "bad magic, checksum or length";
  acc

let fold_from t ~pos ~decode ~init ~f =
  guard t "fold_from";
  if pos < first_index t || pos > next_index t then
    invalid_arg "Segment_log.fold_from: position out of range";
  let reader = Codec.reader () in
  List.fold_left
    (fun acc s ->
      if s.count = 0 || s.start + s.count <= pos then acc
      else
        fold_segment t ~op:"fold_from" ~reader s ~init:acc ~f:(fun acc i ~pos:_ b ~off ~len ->
            if i < pos then acc
            else
              match decode b ~off ~len with
              | Some v -> f acc i v
              | None -> fail ~op:"fold_from" s i "undecodable payload"))
    init t.segs

let read_from t ~pos ~decode =
  List.rev (fold_from t ~pos ~decode ~init:[] ~f:(fun acc _ v -> v :: acc))

let truncate_after t ~keep =
  guard t "truncate_after";
  if keep < first_index t then
    invalid_arg "Segment_log.truncate_after: keep below first retained record";
  if keep < next_index t then begin
    t.file.close ();
    let keep_segs, dropped =
      List.partition (fun s -> s.start < keep) t.segs
    in
    List.iter (fun s -> t.fs.unlink s.path) dropped;
    let cur =
      match List.rev keep_segs with
      | [] -> create_segment t.fs t.dir keep
      | s :: _ -> s
    in
    t.segs <- (match keep_segs with [] -> [ cur ] | _ -> keep_segs);
    (if keep < cur.start + cur.count then begin
       (* The segment ends where record [keep] starts. *)
       let off =
         fold_segment t ~op:"truncate_after" ~reader:(Codec.reader ()) cur ~init:0
           ~f:(fun off j ~pos _ ~off:_ ~len:_ -> if j = keep then pos else off)
       in
       t.fs.truncate cur.path off;
       cur.count <- keep - cur.start;
       cur.bytes <- off
     end);
    t.cur <- cur;
    t.file <- t.fs.open_append cur.path
  end

let drop_segments_below t ~before =
  guard t "drop_segments_below";
  let keep, dropped =
    List.partition
      (fun s -> s == t.cur || s.start + s.count > before)
      t.segs
  in
  List.iter (fun s -> t.fs.unlink s.path) dropped;
  t.segs <- keep

let kill t =
  if t.alive then begin
    t.file.close ();
    t.alive <- false
  end

let close t =
  if t.alive then begin
    if not t.fsync_failed then do_sync t;
    kill t
  end
