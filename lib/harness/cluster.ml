module Node = Recovery.Node
module Wire = Recovery.Wire
module Config = Recovery.Config

type timer_kind = Flush_timer | Checkpoint_timer | Notice_timer | Retransmit_timer

type 'msg event =
  | Packet of { src : int; dst : int; packet : 'msg Wire.packet }
  | Timer of { pid : int; kind : timer_kind; periodic : bool }
  | Inject of { dst : int; payload : 'msg; seq : int; cseq : int; retry : bool }
  | Perform of { pid : int; effects : 'msg App_model.App_intf.effect list }
  | Arm_fsync_failure of int
  | Kill of { pid : int; fault : Durable.Fault.t option }
  | Respawn of int
  | Join_node of int
  | Retire_node of int
  | Arm_disk_full of { pid : int; rounds : int }

type ('state, 'msg) t = {
  cfg : Config.t;
  app : ('state, 'msg) App_model.App_intf.t;
  mutable trees : Durable.Fs.Mem.tree array;
      (* per pid, the in-memory file system its store lives on, outliving
         the nodes that die over it *)
  storage_rng : Sim.Rng.t;
  mutable nodes : ('state, 'msg) Node.t array; (* slots replaced on respawn *)
  mutable registries : Obs.Registry.t array;
      (* one per pid, shared by every node that pid ever runs — kills
         respawn over it and joins append one — like a daemon's
         per-process registry *)
  net_obs : Obs.Registry.t;
      (* the network model's traffic and fault counts, and [kills_ignored] *)
  kills_ignored : Obs.Counter.t; (* kills that landed while their pid was down *)
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
  inject_cseq : (int, int) Hashtbl.t; (* dst -> injections scheduled to it *)
  mutable client_log : (int * int * int * 'msg) list; (* seq, cseq, dst, payload *)
  mutable busy_time : float;
  mutable fault_notes : (int * float * string) list;
      (* (pid, kill time, damage description), newest first *)
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
    (fun (seq, cseq, dst, payload) ->
      if dst = pid then
        schedule t
          ~time:(t.now +. t.cfg.Config.timing.net_latency)
          (Inject { dst; payload; seq; cseq; retry = true }))
    (List.rev t.client_log)

let rearm t ~pid kind =
  match period t kind with
  | Some p -> schedule t ~time:(t.now +. p) (Timer { pid; kind; periodic = true })
  | None -> ()

let store_dir pid = Printf.sprintf "p%d" pid

let store t pid = (Durable.Fs.Mem.fs t.trees.(pid), store_dir pid)

(* A process over pid's store: fresh if the store is empty, otherwise down
   until restarted from what its predecessor left behind. *)
let spawn t ~config pid =
  Node.create_on ~fs:(Durable.Fs.Mem.fs t.trees.(pid)) ~config ~pid ~app:t.app
    ~store_dir:(store_dir pid) ~obs:t.registries.(pid) ~trace:t.trace_

(* Every death of a process: the node goes with its volatile state, and a
   disk that lied loses what it never made durable. *)
let halt t pid =
  Node.halt t.nodes.(pid) ~now:t.now;
  Durable.Fs.Mem.halt t.trees.(pid)

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

(* A fresh process over the same store, with the dead one's config (a
   joiner's counts itself): everything it knows, it knows from open-time
   recovery of the files the death left behind.  It restarts the way a
   daemon does, and a partitioned application's deferred replay is then
   drained at the same instant, as a daemon drains it at quit. *)
let respawn t pid =
  let fresh = spawn t ~config:(Node.config t.nodes.(pid)) pid in
  t.nodes.(pid) <- fresh;
  t.down.(pid) <- false;
  consume t ~pid (Node.restart_begin fresh ~now:t.now);
  while Node.recovery_active fresh do
    let _, actions, cost = Node.replay_step fresh ~now:t.now ~budget:max_int () in
    consume t ~pid (actions, cost)
  done;
  release_held t ~pid

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
  | Inject { dst; payload; seq; cseq; retry } ->
    if t.down.(dst) then
      (* client retries later, like a TCP connect to a rebooting host *)
      schedule t
        ~time:(t.now +. t.cfg.Config.timing.restart_delay)
        (Inject { dst; payload; seq; cseq; retry })
    else begin
      if not retry then t.client_log <- (seq, cseq, dst, payload) :: t.client_log;
      consume t ~pid:dst (Node.inject t.nodes.(dst) ~now:t.now ~seq ~cseq payload)
    end
  | Perform { pid; effects } ->
    if not t.down.(pid) then
      consume t ~pid (Node.perform t.nodes.(pid) ~now:t.now effects)
  | Arm_fsync_failure pid ->
    if not t.down.(pid) then Durable.Fs.Mem.lie t.trees.(pid) Durable.Segment_log.is_segment
  | Kill { pid; _ } when t.down.(pid) -> Obs.Counter.incr t.kills_ignored
  | Kill { pid; fault } ->
    t.down.(pid) <- true;
    halt t pid;
    (* Post-mortem file damage happens between death and respawn. *)
    Option.iter
      (fun f ->
        let fs, dir = store t pid in
        let note = Durable.Fault.apply ~fs ~dir ~rand:(Sim.Rng.int t.storage_rng) f in
        t.fault_notes <- (pid, t.now, note) :: t.fault_notes)
      fault;
    t.next_free.(pid) <- t.now;
    schedule t ~time:(t.now +. t.cfg.Config.timing.restart_delay) (Respawn pid)
  | Respawn pid -> respawn t pid
  | Join_node pid ->
    if pid = Array.length t.nodes then begin
      (* A brand-new process.  Its own config already counts itself
         (n = pid + 1): by Corollary 3 it starts with no dependency entries,
         so a vector covering [0..pid] is trivially conservative.  The
         incumbents learn of it from the Join broadcast and widen their
         vectors then — membership growth is protocol traffic, not an
         out-of-band reconfiguration. *)
      let jcfg = Config.validate_exn { t.cfg with Config.n = pid + 1 } in
      t.registries <- Array.append t.registries [| Obs.Registry.create () |];
      t.trees <- Array.append t.trees [| Durable.Fs.Mem.create () |];
      let fresh = spawn t ~config:jcfg pid in
      t.nodes <- Array.append t.nodes [| fresh |];
      t.next_free <- Array.append t.next_free [| t.now |];
      t.down <- Array.append t.down [| false |];
      arm_timers t ~pid;
      consume t ~pid (Node.announce_join fresh ~now:t.now)
    end
    else begin
      (* Rejoin of a known pid (typically after retirement): same identity,
         same store, so it resumes where it left off and re-announces. *)
      t.retired_pids <- List.filter (fun p -> p <> pid) t.retired_pids;
      if t.down.(pid) then respawn t pid;
      consume t ~pid (Node.announce_join t.nodes.(pid) ~now:t.now)
    end
  | Retire_node pid ->
    if (not t.down.(pid)) && not (List.mem pid t.retired_pids) then begin
      (* Graceful leave: flush everything, tell the survivors the final
         frontier (so they can treat this pid's entries as stable forever),
         then fall silent.  No restart is scheduled — the pid is gone until
         an explicit rejoin. *)
      consume t ~pid (Node.retire t.nodes.(pid) ~now:t.now);
      halt t pid;
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
  | Arm_fsync_failure _ | Kill _ | Respawn _ | Join_node _ | Retire_node _
  | Arm_disk_full _ ->
    None (* kills/membership changes preempt; respawns are external *)

let exec_cell t (time, ev) =
  t.now <- Stdlib.max t.now time;
  match event_pid ev with
  | Some pid when not (t.down.(pid)) -> (
    match busy_gate t time pid with
    | Some free_at -> schedule t ~time:free_at ev
    | None -> handle_event t ev)
  | Some _ | None -> handle_event t ev

let step t =
  match Sim.Event_queue.remove_nth t.queue 0 with
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
    ?(fault_plan = Netmodel.benign) ?(auto_timers = true) () =
  let config = Config.validate_exn config in
  let n = config.Config.n in
  let rng = Sim.Rng.create seed in
  (* Bind the splits in sequence: the first must be the timing stream (the
     same child the pre-fault-plan model derived, so benign runs reproduce
     historical tables bit-for-bit); the fault stream is a further split,
     and the storage-fault stream a third.  Nothing draws from [rng] after
     these splits, so the third moves no other stream. *)
  let net_rng = Sim.Rng.split rng in
  let fault_rng = Sim.Rng.split rng in
  let storage_rng = Sim.Rng.split rng in
  let net_obs = Obs.Registry.create () in
  let t =
    {
      cfg = config;
      app;
      trees = Array.init n (fun _ -> Durable.Fs.Mem.create ());
      storage_rng;
      nodes = [||];
      registries = Array.init n (fun _ -> Obs.Registry.create ());
      net_obs;
      kills_ignored = Obs.Registry.counter net_obs "kills_ignored_total";
      queue = Sim.Event_queue.create ();
      net =
        Netmodel.create ~n ~timing:config.Config.timing ~rng:net_rng ~fault_rng
          ~plan:fault_plan ?override:net_override ~obs:net_obs ();
      trace_ = Recovery.Trace.create ();
      horizon;
      now = 0.;
      auto_timers_ = auto_timers;
      next_free = Array.make n 0.;
      down = Array.make n false;
      retired_pids = [];
      held = [];
      inject_seq = 0;
      inject_cseq = Hashtbl.create 8;
      client_log = [];
      busy_time = 0.;
      fault_notes = [];
    }
  in
  t.nodes <- Array.init n (spawn t ~config);
  Array.iteri (fun pid _ -> arm_timers t ~pid) t.nodes;
  t

let inject_at t ~time ~dst payload =
  let seq = t.inject_seq + 1 in
  t.inject_seq <- seq;
  let cseq = Option.value (Hashtbl.find_opt t.inject_cseq dst) ~default:0 in
  Hashtbl.replace t.inject_cseq dst (cseq + 1);
  schedule t ~time (Inject { dst; payload; seq; cseq; retry = false })

(* --- Process death ------------------------------------------------------ *)

let kill_at t ~time ~pid ?storage_fault () =
  match storage_fault with
  | Some Durable.Fault.Failed_fsync ->
    (* A lying fsync must be armed while the process is alive: the tree
       starts lying about log fsyncs a couple of flush periods before the
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

let crash_at t ~time ~pid = kill_at t ~time ~pid ()

let fault_notes t = List.rev t.fault_notes

(* --- Membership churn ------------------------------------------------ *)

let join_at t ~time ~pid = schedule t ~time (Join_node pid)

let retire_at t ~time ~pid = schedule t ~time (Retire_node pid)

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
  obs : Obs.Snapshot.t;
  makespan : float;
  busy_time : float;
  blocked_time : Sim.Summary.t;
  wire_vector_size : Sim.Summary.t;
  release_dep_entries : Sim.Summary.t;
  delivery_delay : Sim.Summary.t;
  output_latency : Sim.Summary.t;
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
  let dist = trace_summaries t in
  {
    obs =
      Obs.Snapshot.merge_all
        (List.map Obs.Registry.snapshot (t.net_obs :: Array.to_list t.registries));
    makespan = t.now;
    busy_time = t.busy_time;
    blocked_time = dist.(0);
    wire_vector_size = dist.(1);
    release_dep_entries = dist.(2);
    delivery_delay = dist.(3);
    output_latency = dist.(4);
  }
