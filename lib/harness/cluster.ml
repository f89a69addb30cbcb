module Node = Recovery.Node
module Wire = Recovery.Wire
module Config = Recovery.Config

type timer_kind = Flush_timer | Checkpoint_timer | Notice_timer | Retransmit_timer

type 'msg event =
  | Packet of { src : int; dst : int; packet : 'msg Wire.packet }
  | Timer of { pid : int; kind : timer_kind; periodic : bool }
  | Inject of { dst : int; payload : 'msg; seq : int; retry : bool }
  | Perform of { pid : int; effects : 'msg App_model.App_intf.effect list }
  | Crash of int
  | Restart of int
  | Arm_fsync_failure of int
  | Kill of { pid : int; fault : Durable.Fault.t option }
  | Respawn of int
  | Join_node of int
  | Retire_node of int
  | Arm_disk_full of { pid : int; rounds : int }

type ('state, 'msg) t = {
  cfg : Config.t;
  app : ('state, 'msg) App_model.App_intf.t;
  store_root : string option;
  storage_rng : Sim.Rng.t option;
  sched : Sim.Scheduler.t option;
  mutable nodes : ('state, 'msg) Node.t array; (* slots replaced on kill *)
  mutable registries : Obs.Registry.t array;
      (* one per pid, shared by every node that pid ever runs — kills
         respawn over it and joins append one — like a daemon's
         per-process registry *)
  queue : 'msg event Sim.Event_queue.t;
  net : Netmodel.t;
  trace_ : Recovery.Trace.t;
  horizon : float;
  mutable now : float;
  auto_timers_ : bool;
  mutable next_free : float array;
  mutable down : bool array;
  mutable retired_pids : int list; (* pids gone for good: packets to them drop *)
  mutable held : (int * int * 'msg Wire.packet) list;
      (* packets addressed to down nodes: (src, dst, packet), oldest last *)
  mutable inject_seq : int;
  mutable client_log : (int * int * 'msg) list; (* seq, dst, payload *)
  mutable busy_time : float;
  mutable storage_reports_ :
    (int * float * string * Storage.Stable_store.open_report) list;
      (* (pid, respawn time, injected-damage description, report), oldest last *)
  mutable fault_notes : (int * string) list; (* pid, damage description *)
}

let n t = Array.length t.nodes

let now t = t.now

let node t pid = t.nodes.(pid)

let nodes t = t.nodes

let trace t = t.trace_

let config t = t.cfg

let period t = function
  | Flush_timer -> t.cfg.Config.timing.flush_interval
  | Checkpoint_timer -> t.cfg.Config.timing.checkpoint_interval
  | Notice_timer -> t.cfg.Config.timing.notice_interval
  | Retransmit_timer -> t.cfg.Config.timing.retransmit_interval

let schedule t ~time ev = Sim.Event_queue.schedule t.queue ~time ev

let entries_of_packet = function
  | Wire.App m -> List.length m.Wire.dep
  | Wire.Notice notice -> Wire.notice_entry_count notice
  | Wire.Dep_query { intervals; _ } -> List.length intervals
  | Wire.Dep_reply { infos; _ } -> List.length infos
  | Wire.Join _ | Wire.Retire _ -> 1 (* one frontier entry each *)
  | Wire.Ann _ | Wire.Ack _ | Wire.Flush_request _ -> 0

let send_packet t ~src ~dst packet =
  (* The fault plan may eat the packet ([]) or duplicate it (two arrivals). *)
  List.iter
    (fun arrival -> schedule t ~time:arrival (Packet { src; dst; packet }))
    (Netmodel.arrivals t.net ~now:t.now ~src ~dst ~kind:(Wire.packet_kind packet)
       ~entries:(entries_of_packet packet))

let dispatch_actions t ~src actions =
  List.iter
    (function
      | Node.Unicast { dst; packet } -> send_packet t ~src ~dst packet
      | Node.Broadcast packet ->
        for dst = 0 to Array.length t.nodes - 1 do
          if dst <> src then send_packet t ~src ~dst packet
        done)
    actions

let cost_time t (c : Node.cost) =
  let tm = t.cfg.Config.timing in
  (float_of_int c.deliveries *. tm.t_proc)
  +. (float_of_int c.replays *. tm.t_replay)
  +. (float_of_int c.sync_writes *. tm.t_sync_write)
  +. (float_of_int c.checkpoints *. tm.t_checkpoint)

let consume t ~pid (actions, cost) =
  let busy = cost_time t cost in
  t.busy_time <- t.busy_time +. busy;
  t.next_free.(pid) <- Stdlib.max t.next_free.(pid) t.now +. busy;
  dispatch_actions t ~src:pid actions

(* The outside world reacts to failure announcements like any good client
   library: it retries the requests it sent to the failed process.  The
   node's duplicate suppression keeps retries idempotent; requests whose
   delivery was lost with the volatile log are thereby recovered (footnote 3
   of the paper leaves in-transit/lost messages to the senders, and the
   outside world is a sender too). *)
let client_retransmit t ~pid =
  List.iter
    (fun (seq, dst, payload) ->
      if dst = pid then
        schedule t
          ~time:(t.now +. t.cfg.Config.timing.net_latency)
          (Inject { dst; payload; seq; retry = true }))
    (List.rev t.client_log)

let rearm t ~pid kind =
  match period t kind with
  | Some p -> schedule t ~time:(t.now +. p) (Timer { pid; kind; periodic = true })
  | None -> ()

let node_dir_of t pid =
  Option.map (fun root -> Filename.concat root (Printf.sprintf "p%d" pid)) t.store_root

(* Arm the periodic timers of one node, staggering first firings so the
   cluster does not flush in lockstep.  Used at create for the initial
   membership and again for every joiner. *)
let arm_timers t ~pid =
  if t.auto_timers_ then begin
    let n = Array.length t.nodes in
    List.iter
      (fun kind ->
        match period t kind with
        | None -> ()
        | Some p ->
          let phase = p *. (float_of_int (pid + 1) /. float_of_int (n + 1)) in
          schedule t ~time:(t.now +. phase) (Timer { pid; kind; periodic = true }))
      [ Flush_timer; Checkpoint_timer; Notice_timer; Retransmit_timer ]
  end

let fire_timer t ~pid kind =
  let node = t.nodes.(pid) in
  if Node.is_up node then begin
    match kind with
    | Flush_timer -> consume t ~pid (Node.flush node ~now:t.now)
    | Checkpoint_timer -> consume t ~pid (Node.checkpoint node ~now:t.now)
    | Notice_timer -> consume t ~pid (Node.broadcast_notice node ~now:t.now)
    | Retransmit_timer -> consume t ~pid (Node.retransmit_tick node ~now:t.now)
  end

let release_held t ~pid =
  let mine, others = List.partition (fun (_, dst, _) -> dst = pid) t.held in
  t.held <- others;
  List.iteri
    (fun i (src, dst, packet) ->
      schedule t ~time:(t.now +. (0.001 *. float_of_int (i + 1))) (Packet { src; dst; packet }))
    (List.rev mine)

let handle_event t = function
  | Packet { src; dst; packet } ->
    if List.mem dst t.retired_pids then () (* gone for good: the wire eats it *)
    else if t.down.(dst) then t.held <- (src, dst, packet) :: t.held
    else begin
      let ann_from =
        match packet with
        | Wire.Ann ann when ann.Wire.failure -> Some ann.Wire.from_
        | Wire.Ann _ | Wire.App _ | Wire.Notice _ | Wire.Ack _ | Wire.Flush_request _
        | Wire.Dep_query _ | Wire.Dep_reply _ | Wire.Join _ | Wire.Retire _ ->
          None
      in
      consume t ~pid:dst (Node.handle_packet t.nodes.(dst) ~now:t.now packet);
      (* The outside world hears failure announcements too (dst-local
         observation is enough: every node receives the broadcast, and the
         retransmission is idempotent, so trigger it once — when the lowest
         live pid processes it). *)
      match ann_from with
      | Some failed when dst = (if failed = 0 then 1 else 0) -> client_retransmit t ~pid:failed
      | Some _ | None -> ()
    end
  | Timer { pid; kind; periodic } ->
    fire_timer t ~pid kind;
    if periodic then rearm t ~pid kind
  | Inject { dst; payload; seq; retry } ->
    if t.down.(dst) then
      (* client retries later, like a TCP connect to a rebooting host *)
      schedule t
        ~time:(t.now +. t.cfg.Config.timing.restart_delay)
        (Inject { dst; payload; seq; retry })
    else begin
      if not retry then t.client_log <- (seq, dst, payload) :: t.client_log;
      consume t ~pid:dst (Node.inject t.nodes.(dst) ~now:t.now ~seq payload)
    end
  | Perform { pid; effects } ->
    if not t.down.(pid) then
      consume t ~pid (Node.perform t.nodes.(pid) ~now:t.now effects)
  | Crash pid ->
    if not t.down.(pid) then begin
      t.down.(pid) <- true;
      Node.crash t.nodes.(pid) ~now:t.now;
      t.next_free.(pid) <- t.now;
      schedule t ~time:(t.now +. t.cfg.Config.timing.restart_delay) (Restart pid)
    end
  | Restart pid ->
    t.down.(pid) <- false;
    consume t ~pid (Node.restart t.nodes.(pid) ~now:t.now);
    release_held t ~pid
  | Arm_fsync_failure pid ->
    if not t.down.(pid) then Node.arm_storage_fsync_failure t.nodes.(pid)
  | Kill { pid; fault } ->
    if not t.down.(pid) then begin
      t.down.(pid) <- true;
      Node.halt t.nodes.(pid) ~now:t.now;
      (* Post-mortem file damage happens between death and respawn. *)
      (match (fault, t.store_root, t.storage_rng) with
      | Some f, Some root, Some rng ->
        let dir = Filename.concat root (Printf.sprintf "p%d" pid) in
        let note = Durable.Fault.apply ~dir ~rand:(Sim.Rng.int rng) f in
        t.fault_notes <- (pid, note) :: t.fault_notes
      | _ -> ());
      t.next_free.(pid) <- t.now;
      schedule t ~time:(t.now +. t.cfg.Config.timing.restart_delay) (Respawn pid)
    end
  | Respawn pid ->
    (* A fresh process over the same store directory: everything it knows,
       it knows from open-time recovery of the files the kill left behind. *)
    let dir =
      match t.store_root with
      | Some root -> Filename.concat root (Printf.sprintf "p%d" pid)
      | None -> invalid_arg "Cluster: Respawn without a store root"
    in
    let fresh =
      Node.create ~config:t.cfg ~pid ~app:t.app ~store_dir:dir
        ~obs:t.registries.(pid) ~trace:t.trace_
    in
    t.nodes.(pid) <- fresh;
    (match Node.storage_report fresh with
    | Some report ->
      let note =
        match List.assoc_opt pid t.fault_notes with
        | Some n ->
          t.fault_notes <- List.remove_assoc pid t.fault_notes;
          n
        | None -> "none"
      in
      t.storage_reports_ <- t.storage_reports_ @ [ (pid, t.now, note, report) ]
    | None -> ());
    t.down.(pid) <- false;
    consume t ~pid (Node.restart fresh ~now:t.now);
    release_held t ~pid
  | Join_node pid ->
    if pid = Array.length t.nodes then begin
      (* A brand-new process.  Its own config already counts itself
         (n = pid + 1): by Corollary 3 it starts with no dependency entries,
         so a vector covering [0..pid] is trivially conservative.  The
         incumbents learn of it from the Join broadcast and widen their
         vectors then — membership growth is protocol traffic, not an
         out-of-band reconfiguration. *)
      let jcfg = Config.validate_exn { t.cfg with Config.n = pid + 1 } in
      let obs = Obs.Registry.create () in
      let fresh =
        Node.create ~config:jcfg ~pid ~app:t.app ?store_dir:(node_dir_of t pid) ~obs
          ~trace:t.trace_
      in
      t.nodes <- Array.append t.nodes [| fresh |];
      t.registries <- Array.append t.registries [| obs |];
      t.next_free <- Array.append t.next_free [| t.now |];
      t.down <- Array.append t.down [| false |];
      arm_timers t ~pid;
      consume t ~pid (Node.announce_join fresh ~now:t.now)
    end
    else begin
      (* Rejoin of a known pid (typically after retirement): same identity,
         same store, so it resumes where it left off and re-announces. *)
      t.retired_pids <- List.filter (fun p -> p <> pid) t.retired_pids;
      if t.down.(pid) then begin
        t.down.(pid) <- false;
        consume t ~pid (Node.restart t.nodes.(pid) ~now:t.now);
        release_held t ~pid
      end;
      consume t ~pid (Node.announce_join t.nodes.(pid) ~now:t.now)
    end
  | Retire_node pid ->
    if (not t.down.(pid)) && not (List.mem pid t.retired_pids) then begin
      (* Graceful leave: flush everything, tell the survivors the final
         frontier (so they can treat this pid's entries as stable forever),
         then fall silent.  No restart is scheduled — the pid is gone until
         an explicit rejoin. *)
      consume t ~pid (Node.retire t.nodes.(pid) ~now:t.now);
      Node.crash t.nodes.(pid) ~now:t.now;
      t.down.(pid) <- true;
      t.retired_pids <- pid :: t.retired_pids;
      t.next_free.(pid) <- t.now
    end
  | Arm_disk_full { pid; rounds } ->
    if not t.down.(pid) then Node.arm_storage_disk_full t.nodes.(pid) ~rounds

let busy_gate t ev_time pid =
  (* A node processes one event at a time; arrivals during busy periods are
     deferred to the moment it frees up. *)
  if t.next_free.(pid) > ev_time +. 1e-12 then Some t.next_free.(pid) else None

let event_pid = function
  | Packet { dst; _ } -> Some dst
  | Timer { pid; _ } -> Some pid
  | Inject { dst; _ } -> Some dst
  | Perform { pid; _ } -> Some pid
  | Crash _ | Restart _ | Arm_fsync_failure _ | Kill _ | Respawn _ | Join_node _
  | Retire_node _ | Arm_disk_full _ ->
    None (* crashes/kills/membership changes preempt; restarts are external *)

let exec_cell t (time, ev) =
  t.now <- Stdlib.max t.now time;
  match event_pid ev with
  | Some pid when not (t.down.(pid)) -> (
    match busy_gate t time pid with
    | Some free_at -> schedule t ~time:free_at ev
    | None -> handle_event t ev)
  | Some _ | None -> handle_event t ev

let step t =
  let cell =
    match t.sched with
    | None -> Sim.Event_queue.next t.queue
    | Some sched ->
      let pending = Sim.Event_queue.length t.queue in
      if pending = 0 then None
      else Sim.Event_queue.remove_nth t.queue (Sim.Scheduler.pick sched ~n_enabled:pending)
  in
  match cell with
  | None -> false
  | Some (time, ev) ->
    if time > t.horizon then false
    else begin
      exec_cell t (time, ev);
      true
    end

(* --- Explicit scheduling choice points (model checker interface) ------ *)

type enabled = {
  key : int;  (* Event_queue sequence number: stable identity *)
  at : float;
  pid : int option;
  blocked : bool;
  label : string;
  log_write : bool;
  log_read : bool;
}

let describe_event = function
  | Packet { src; dst; packet } ->
    Fmt.str "packet %s P%d->P%d" (Wire.packet_kind packet) src dst
  | Timer { pid; kind; _ } ->
    Fmt.str "timer %s P%d"
      (match kind with
      | Flush_timer -> "flush"
      | Checkpoint_timer -> "checkpoint"
      | Notice_timer -> "notice"
      | Retransmit_timer -> "retransmit")
      pid
  | Inject { dst; seq; retry; _ } ->
    Fmt.str "inject #%d->P%d%s" seq dst (if retry then " (retry)" else "")
  | Perform { pid; _ } -> Fmt.str "perform P%d" pid
  | Crash pid -> Fmt.str "crash P%d" pid
  | Restart pid -> Fmt.str "restart P%d" pid
  | Arm_fsync_failure pid -> Fmt.str "arm-fsync-failure P%d" pid
  | Kill { pid; _ } -> Fmt.str "kill P%d" pid
  | Respawn pid -> Fmt.str "respawn P%d" pid
  | Join_node pid -> Fmt.str "join P%d" pid
  | Retire_node pid -> Fmt.str "retire P%d" pid
  | Arm_disk_full { pid; rounds } -> Fmt.str "arm-disk-full P%d (%d)" pid rounds

let enabled_events t =
  List.map
    (fun (key, at, ev) ->
      let pid = event_pid ev in
      {
        key;
        at;
        pid;
        blocked = (match pid with Some p -> t.down.(p) | None -> false);
        label = describe_event ev;
        log_write = (match ev with Inject { retry = false; _ } -> true | _ -> false);
        log_read =
          (match ev with
          | Packet { packet = Wire.Ann a; _ } -> a.Wire.failure
          | _ -> false);
      })
    (Sim.Event_queue.pending t.queue)

let step_nth t i =
  match Sim.Event_queue.remove_nth t.queue i with
  | None -> false
  | Some cell ->
    exec_cell t cell;
    true

let run t = while step t do () done

let run_until t deadline =
  let continue = ref true in
  while
    !continue
    &&
    match Sim.Event_queue.peek_time t.queue with
    | Some tm when tm < deadline -> true
    | Some _ | None -> false
  do
    continue := step t
  done;
  t.now <- Stdlib.max t.now deadline

let create ~config ~app ?(seed = 42) ?(horizon = 10_000.) ?net_override
    ?(fault_plan = Netmodel.benign) ?(auto_timers = true) ?store_root ?scheduler () =
  let config = Config.validate_exn config in
  let n = config.Config.n in
  let rng = Sim.Rng.create seed in
  let trace_ = Recovery.Trace.create () in
  let node_dir pid =
    Option.map (fun root -> Filename.concat root (Printf.sprintf "p%d" pid)) store_root
  in
  let registries = Array.init n (fun _ -> Obs.Registry.create ()) in
  let nodes =
    Array.init n (fun pid ->
        Node.create ~config ~pid ~app ?store_dir:(node_dir pid) ~obs:registries.(pid)
          ~trace:trace_)
  in
  (* Bind the splits in sequence: the first must be the timing stream (the
     same child the pre-fault-plan model derived, so benign runs reproduce
     historical tables bit-for-bit); the fault stream is a further split.
     The storage-fault stream is split only when a store root exists, so
     in-memory runs keep their historical streams untouched. *)
  let net_rng = Sim.Rng.split rng in
  let fault_rng = Sim.Rng.split rng in
  let storage_rng =
    match store_root with None -> None | Some _ -> Some (Sim.Rng.split rng)
  in
  let t =
    {
      cfg = config;
      app;
      store_root;
      storage_rng;
      sched = scheduler;
      nodes;
      registries;
      queue = Sim.Event_queue.create ();
      net =
        Netmodel.create ~n ~timing:config.Config.timing ~rng:net_rng ~fault_rng
          ~plan:fault_plan ?override:net_override ();
      trace_;
      horizon;
      now = 0.;
      auto_timers_ = auto_timers;
      next_free = Array.make n 0.;
      down = Array.make n false;
      retired_pids = [];
      held = [];
      inject_seq = 0;
      client_log = [];
      busy_time = 0.;
      storage_reports_ = [];
      fault_notes = [];
    }
  in
  Array.iteri (fun pid _ -> arm_timers t ~pid) nodes;
  t

let inject_at t ~time ~dst payload =
  let seq = t.inject_seq + 1 in
  t.inject_seq <- seq;
  schedule t ~time (Inject { dst; payload; seq; retry = false })

let crash_at t ~time ~pid = schedule t ~time (Crash pid)

(* --- Process death with durable storage ------------------------------ *)

let kill_at t ~time ~pid ?storage_fault () =
  if t.store_root = None then
    invalid_arg "Cluster.kill_at: cluster was created without ~store_root";
  match storage_fault with
  | Some Durable.Fault.Failed_fsync ->
    (* A lying fsync must be armed while the process is alive: the disk
       starts dropping log writes a couple of flush periods before the
       death, so stability the node announced in between is false. *)
    let lead =
      match t.cfg.Config.timing.flush_interval with
      | Some p -> 2.5 *. p
      | None -> 50.
    in
    schedule t ~time:(Stdlib.max 0. (time -. lead)) (Arm_fsync_failure pid);
    (* [Fault.apply] is a no-op for [Failed_fsync]; passing it through the
       kill records the injected damage in the respawn's report. *)
    schedule t ~time (Kill { pid; fault = Some Durable.Fault.Failed_fsync })
  | fault -> schedule t ~time (Kill { pid; fault })

let storage_reports t = t.storage_reports_

(* --- Correlated failure injection ----------------------------------- *)

(* Simultaneous multi-node crash: every pid goes down at the same instant,
   so no survivor hears a failure announcement before losing its peers. *)
let crash_group_at t ~time ~pids = List.iter (fun pid -> crash_at t ~time ~pid) pids

(* Cascading crashes: each subsequent pid fails [gap] after the previous
   one.  With [gap < restart_delay] (the default: half of it), pid [i+1]
   dies while pid [i] is still down or replaying — the recovery of one
   failure overlaps the next. *)
let cascade_crash_at t ~time ?gap ~pids () =
  let gap =
    match gap with
    | Some g -> g
    | None -> 0.5 *. t.cfg.Config.timing.restart_delay
  in
  List.iteri
    (fun i pid -> crash_at t ~time:(time +. (gap *. float_of_int i)) ~pid)
    pids


(* --- Membership churn ------------------------------------------------ *)

let join_at t ~time ~pid = schedule t ~time (Join_node pid)

let retire_at t ~time ~pid = schedule t ~time (Retire_node pid)

(* Restart every listed node one at a time, each crash spaced so the
   previous victim has fully recovered before the next goes down (the
   classic rolling upgrade).  [gap] defaults to twice the restart delay. *)
let rolling_restart_at t ~time ?gap ~pids () =
  let gap =
    match gap with
    | Some g -> g
    | None -> 2.0 *. t.cfg.Config.timing.restart_delay
  in
  List.iteri
    (fun i pid -> crash_at t ~time:(time +. (gap *. float_of_int i)) ~pid)
    pids

let arm_disk_full_at t ~time ~pid ~rounds =
  schedule t ~time (Arm_disk_full { pid; rounds })

let retired t = t.retired_pids

let perform_at t ~time ~pid effects = schedule t ~time (Perform { pid; effects })

let flush_at t ~time ~pid =
  schedule t ~time (Timer { pid; kind = Flush_timer; periodic = false })

let checkpoint_at t ~time ~pid =
  schedule t ~time (Timer { pid; kind = Checkpoint_timer; periodic = false })

let notice_at t ~time ~pid =
  schedule t ~time (Timer { pid; kind = Notice_timer; periodic = false })

(* Crash landing inside the checkpoint's busy window: the checkpoint is
   forced at [time] and the crash hits while the node is still paying for
   it (checkpoints cost [t_checkpoint] of busy time). *)
let crash_during_checkpoint_at t ~time ~pid =
  checkpoint_at t ~time ~pid;
  crash_at t ~time:(time +. (0.5 *. t.cfg.Config.timing.t_checkpoint)) ~pid

(* Likewise for an asynchronous flush. *)
let crash_during_flush_at t ~time ~pid =
  flush_at t ~time ~pid;
  crash_at t ~time:(time +. (0.5 *. t.cfg.Config.timing.t_sync_write)) ~pid

type stats = {
  makespan : float;
  deliveries : int;
  releases : int;
  sends : int;
  sync_writes : int;
  flushes : int;
  blocked_time : Sim.Summary.t;
  wire_vector_size : Sim.Summary.t;
  release_dep_entries : Sim.Summary.t;
  delivery_delay : Sim.Summary.t;
  output_latency : Sim.Summary.t;
  outputs_committed : int;
  orphans_discarded : int;
  duplicates_dropped : int;
  induced_rollbacks : int;
  restarts : int;
  undone_intervals : int;
  lost_intervals : int;
  replayed : int;
  retransmissions : int;
  announcements : int;
  notices : int;
  packets : (string * int) list;
  piggyback_entries : int;
  net_faults : Netmodel.fault_stats;
  busy_time : float;
}

(* The exact distributions, in one fold over the trace: blocked time,
   wire vector size, dependency entries, receive-buffer wait and output
   latency.  Each summary is fed pid by pid in descending order, each
   pid's samples oldest first — Welford's running mean depends on
   insertion order, and this is the order the per-node sample sets were
   historically merged in. *)
let trace_summaries t =
  let samples = Array.make 5 [] (* (pid, sample), newest first *) in
  let push i pid x = samples.(i) <- (pid, x) :: samples.(i) in
  List.iter
    (fun (e : Recovery.Trace.entry) ->
      match e.ev with
      | Message_released r ->
        let pid = r.id.Wire.origin in
        push 0 pid r.blocked;
        push 1 pid (float_of_int r.wire_vector);
        push 2 pid (float_of_int r.dep_size)
      | Message_delivered d -> push 3 d.dst d.waited
      | Output_committed o -> push 4 o.pid o.latency
      | _ -> ())
    (Recovery.Trace.events t.trace_);
  Array.map
    (fun l ->
      let s = Sim.Summary.create () in
      List.iter
        (fun (_, x) -> Sim.Summary.add s x)
        (List.stable_sort (fun (p, _) (q, _) -> compare q p) (List.rev l));
      s)
    samples

let stats t =
  let snap =
    Obs.Snapshot.merge_all (Array.to_list (Array.map Obs.Registry.snapshot t.registries))
  in
  let count name = Obs.Snapshot.counter snap (name ^ "_total") in
  let dist = trace_summaries t in
  {
    makespan = t.now;
    deliveries = count "deliveries";
    releases = count "releases";
    sends = count "sends";
    sync_writes =
      Array.fold_left (fun acc nd -> acc + Node.sync_writes nd) 0 t.nodes;
    flushes = Array.fold_left (fun acc nd -> acc + Node.flushes nd) 0 t.nodes;
    blocked_time = dist.(0);
    wire_vector_size = dist.(1);
    release_dep_entries = dist.(2);
    delivery_delay = dist.(3);
    output_latency = dist.(4);
    outputs_committed = count "outputs_committed";
    orphans_discarded = count "orphans_discarded";
    duplicates_dropped = count "duplicates_dropped";
    induced_rollbacks = count "induced_rollbacks";
    restarts = count "restarts";
    undone_intervals = count "undone_intervals";
    lost_intervals = count "lost_intervals";
    replayed = count "replayed";
    retransmissions = count "retransmissions";
    announcements = count "announcements_sent";
    notices = count "notices";
    packets = Netmodel.packets_sent t.net;
    piggyback_entries = Netmodel.entries_carried t.net;
    net_faults = Netmodel.fault_stats t.net;
    busy_time = t.busy_time;
  }
