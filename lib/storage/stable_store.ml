(* Two backends behind one interface: the original in-memory model (the
   simulator's store, byte-for-byte unchanged behaviour) and the durable
   file-backed store of lib/durable.  Dispatch is a two-constructor match;
   the in-memory arm never touches the filesystem. *)

module Mem = struct
  type ('ckpt, 'log, 'ann) t = {
    mutable stable_log : 'log list; (* newest first, positions [base, stable_len) *)
    mutable stable_len : int;
    mutable base : int; (* logical position of the oldest retained record *)
    volatile : 'log Queue.t;
    mutable ckpts : 'ckpt list; (* newest first *)
    mutable anns : 'ann list; (* newest first *)
    mutable inc : int;
    mutable sync_writes : int;
    mutable flushes : int;
    mutable disk_full : int; (* flush rounds left to refuse (brownout) *)
    mutable degraded_flushes : int;
  }

  let create () =
    {
      stable_log = [];
      stable_len = 0;
      base = 0;
      volatile = Queue.create ();
      ckpts = [];
      anns = [];
      inc = 0;
      sync_writes = 0;
      flushes = 0;
      disk_full = 0;
      degraded_flushes = 0;
    }

  let append_volatile t r = Queue.add r t.volatile

  (* Critical-path flush (checkpoints, rollback): models a writer that
     blocks until space frees, so it never refuses. *)
  let flush_force t =
    let n = Queue.length t.volatile in
    if n > 0 then begin
      Queue.iter (fun r -> t.stable_log <- r :: t.stable_log) t.volatile;
      Queue.clear t.volatile;
      t.stable_len <- t.stable_len + n;
      t.flushes <- t.flushes + 1;
      t.sync_writes <- t.sync_writes + 1
    end;
    n

  let flush t =
    if t.disk_full > 0 && not (Queue.is_empty t.volatile) then begin
      (* Same degradation contract as the durable backend: the flush
         refuses, the volatile buffer is retained intact, and the refusal
         is counted.  Stability simply does not advance this round. *)
      t.disk_full <- t.disk_full - 1;
      t.degraded_flushes <- t.degraded_flushes + 1;
      0
    end
    else flush_force t

  let stable_log_from t ~pos =
    if pos < t.base || pos > t.stable_len then
      invalid_arg "Stable_store.stable_log_from: position out of range";
    (* stable_log is newest first; take until we reach position [pos]. *)
    let rec take i acc = function
      | [] -> acc
      | r :: rest -> if i < pos then acc else take (i - 1) (r :: acc) rest
    in
    take (t.stable_len - 1) [] t.stable_log

  let truncate_stable_log t ~keep =
    if keep < t.base || keep > t.stable_len then
      invalid_arg "Stable_store.truncate_stable_log: keep out of range";
    let removed = stable_log_from t ~pos:keep in
    let rec drop i l = if i = 0 then l else drop (i - 1) (List.tl l) in
    t.stable_log <- drop (t.stable_len - keep) t.stable_log;
    t.stable_len <- keep;
    Queue.clear t.volatile;
    removed

  let discard_log_prefix t ~before =
    if before > t.stable_len then
      invalid_arg "Stable_store.discard_log_prefix: position out of range";
    if before <= t.base then 0
    else begin
      (* newest-first: keep the first (stable_len - before) physical cells *)
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
      discarded
    end

  let save_checkpoint t c =
    ignore (flush_force t : int);
    t.ckpts <- c :: t.ckpts;
    t.sync_writes <- t.sync_writes + 1

  let restore_checkpoint t ~satisfying =
    let rec find = function
      | [] -> None
      | c :: rest -> if satisfying c then Some (c, c :: rest) else find rest
    in
    match find t.ckpts with
    | None -> None
    | Some (c, kept) ->
      t.ckpts <- kept;
      Some c

  let prune_checkpoints t ~keep_latest =
    if keep_latest < 1 then
      invalid_arg "Stable_store.prune_checkpoints: must keep at least one";
    let rec split i acc = function
      | [] -> (List.rev acc, [])
      | rest when i = 0 -> (List.rev acc, rest)
      | c :: rest -> split (i - 1) (c :: acc) rest
    in
    let kept, dropped = split keep_latest [] t.ckpts in
    t.ckpts <- kept;
    List.length dropped

  let log_announcement t a =
    t.anns <- a :: t.anns;
    t.sync_writes <- t.sync_writes + 1

  let compact_sync t ~keep =
    let kept = List.filter keep t.anns in
    let dropped = List.length t.anns - List.length kept in
    if dropped > 0 then begin
      t.anns <- kept;
      t.sync_writes <- t.sync_writes + 1
    end;
    dropped

  let set_incarnation t i =
    t.inc <- i;
    t.sync_writes <- t.sync_writes + 1

  let crash t =
    let lost = Queue.length t.volatile in
    Queue.clear t.volatile;
    lost
end

module Disk = Durable.Durable_store

type open_report = Disk.open_report = {
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

let report_damaged = Disk.damaged

let pp_open_report = Disk.pp_open_report

type ('ckpt, 'log, 'ann) t =
  | Mem of ('ckpt, 'log, 'ann) Mem.t
  | Disk of ('ckpt, 'log, 'ann) Disk.t

let create () = Mem (Mem.create ())

let open_durable ~dir ?segment_bytes ?obs () =
  let store, report = Disk.open_ ~dir ?segment_bytes ?obs () in
  (Disk store, report)

let is_durable = function Mem _ -> false | Disk _ -> true

let storage_report = function Mem _ -> None | Disk d -> Some (Disk.report d)

let storage_dir = function Mem _ -> None | Disk d -> Some (Disk.dir d)

let append_volatile t r =
  match t with Mem m -> Mem.append_volatile m r | Disk d -> Disk.append_volatile d r

let flush = function Mem m -> Mem.flush m | Disk d -> Disk.flush d

let flush_forced = function
  | Mem m -> Mem.flush_force m
  | Disk d -> Disk.flush_forced d

let stable_log_length = function
  | Mem m -> m.Mem.stable_len
  | Disk d -> Disk.stable_log_length d

let volatile_length = function
  | Mem m -> Queue.length m.Mem.volatile
  | Disk d -> Disk.volatile_length d

let volatile_peek = function
  | Mem m -> Queue.peek_opt m.Mem.volatile
  | Disk d -> Disk.volatile_peek d

let stable_log_from t ~pos =
  match t with
  | Mem m -> Mem.stable_log_from m ~pos
  | Disk d -> Disk.stable_log_from d ~pos

let truncate_stable_log t ~keep =
  match t with
  | Mem m -> Mem.truncate_stable_log m ~keep
  | Disk d -> Disk.truncate_stable_log d ~keep

let discard_log_prefix t ~before =
  match t with
  | Mem m -> Mem.discard_log_prefix m ~before
  | Disk d -> Disk.discard_log_prefix d ~before

let log_base = function Mem m -> m.Mem.base | Disk d -> Disk.log_base d

let live_log_records = function
  | Mem m -> m.Mem.stable_len - m.Mem.base
  | Disk d -> Disk.live_log_records d

let save_checkpoint t c =
  match t with Mem m -> Mem.save_checkpoint m c | Disk d -> Disk.save_checkpoint d c

let latest_checkpoint = function
  | Mem m -> ( match m.Mem.ckpts with [] -> None | c :: _ -> Some c)
  | Disk d -> Disk.latest_checkpoint d

let checkpoints = function Mem m -> m.Mem.ckpts | Disk d -> Disk.checkpoints d

let restore_checkpoint t ~satisfying =
  match t with
  | Mem m -> Mem.restore_checkpoint m ~satisfying
  | Disk d -> Disk.restore_checkpoint d ~satisfying

let prune_checkpoints t ~keep_latest =
  match t with
  | Mem m -> Mem.prune_checkpoints m ~keep_latest
  | Disk d -> Disk.prune_checkpoints d ~keep_latest

let log_announcement t a =
  match t with Mem m -> Mem.log_announcement m a | Disk d -> Disk.log_announcement d a

let announcements = function
  | Mem m -> List.rev m.Mem.anns
  | Disk d -> Disk.announcements d

let compact_sync t ~keep =
  match t with
  | Mem m -> Mem.compact_sync m ~keep
  | Disk d -> Disk.compact_sync d ~keep

let set_incarnation t i =
  match t with Mem m -> Mem.set_incarnation m i | Disk d -> Disk.set_incarnation d i

let incarnation = function Mem m -> m.Mem.inc | Disk d -> Disk.incarnation d

let crash = function Mem m -> Mem.crash m | Disk d -> Disk.crash d

let sync_writes = function Mem m -> m.Mem.sync_writes | Disk d -> Disk.sync_writes d

let flushes = function Mem m -> m.Mem.flushes | Disk d -> Disk.flushes d

let kill = function
  | Mem _ -> invalid_arg "Stable_store.kill: in-memory store has no files"
  | Disk d -> Disk.kill d

let arm_fsync_failure = function
  | Mem _ -> invalid_arg "Stable_store.arm_fsync_failure: in-memory store"
  | Disk d -> Disk.arm_fsync_failure d

let arm_disk_full t ~rounds =
  match t with
  | Mem m ->
    if rounds < 0 then invalid_arg "Stable_store.arm_disk_full";
    m.Mem.disk_full <- rounds
  | Disk d -> Disk.arm_disk_full d ~rounds

let arm_slow_fsync t ~delay ~rounds =
  match t with
  | Mem _ ->
    (* Simulated time has no real fsync to stretch; the disk-full window is
       the brownout the simulation can express. *)
    invalid_arg "Stable_store.arm_slow_fsync: in-memory store"
  | Disk d -> Disk.arm_slow_fsync d ~delay ~rounds

let degraded_flushes = function
  | Mem m -> m.Mem.degraded_flushes
  | Disk d -> Disk.degraded_flushes d

let slowed_fsyncs = function Mem _ -> 0 | Disk d -> Disk.slowed_fsyncs d
