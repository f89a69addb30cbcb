module Config = Recovery.Config
module Trace = Recovery.Trace
module Wire = Recovery.Wire
module App = App_model.Kvstore_app

type node = {
  pid : int;
  data_port : int;
  proxy_port : int option;  (** what peers dial instead, under faults *)
  control_port : int;
  store_dir : string;
  trace_file : string;
  metrics_file : string;
  log_file : string;
  mutable os_pid : int;
  mutable ctl : (Unix.file_descr * Durable.Codec.reader) option;
      (** the control connection and the reader that stays with it *)
  mutable injected : int;  (** injections sent to it: the next channel number *)
}

type t = {
  n : int;
  k : int;
  config : Config.t;
  time_scale : float;
  epoch : float;
  root : string;
  exe : string;
  app : string;
  ckpt_interval : float option;  (** [--ckpt-interval] override, 0 disables *)
  part_ckpt : float option;  (** [--part-ckpt] period, incremental snapshots *)
  mutable nodes : node array; (* grows on add_node; slots never removed *)
  proxy : Proxy.t option;
  mutable seq : int;  (** outside-world injection sequence numbers *)
  mutable retired_pids : int list;
  mutable alive : bool;
}

let n t = t.n

let width t = Array.length t.nodes

let retired t = t.retired_pids

let config t = t.config

let root t = t.root

let control_port t ~dst = t.nodes.(dst).control_port

let data_port t ~dst = t.nodes.(dst).data_port

let store_dir t ~dst = t.nodes.(dst).store_dir

let epoch t = t.epoch

let time_scale t = t.time_scale

(* ------------------------------------------------------------------ *)
(* Plumbing                                                            *)

let find_exe = function
  | Some exe -> exe
  | None -> (
    match Sys.getenv_opt "KOPTNODE_EXE" with
    | Some exe -> exe
    | None ->
      let candidates =
        [
          Filename.concat (Filename.dirname Sys.executable_name) "koptnode.exe";
          Filename.concat
            (Filename.dirname Sys.executable_name)
            "../bin/koptnode.exe";
          "_build/default/bin/koptnode.exe";
        ]
      in
      (match List.find_opt Sys.file_exists candidates with
      | Some exe -> exe
      | None ->
        invalid_arg
          "Deployment.launch: koptnode.exe not found (set KOPTNODE_EXE)"))

(* Allocate a whole batch of distinct loopback ports, holding every socket
   open until the batch is complete.  Closing each socket before binding
   the next (the old one-at-a-time scheme) lets the kernel hand the same
   ephemeral port out twice — negligible for a handful of daemons, a real
   collision risk for the ~200 ports a 64-shard launch needs. *)
let free_ports count =
  let fds =
    List.init count (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let ports =
    List.map
      (fun fd ->
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> port
        | _ -> assert false)
      fds
  in
  List.iter Unix.close fds;
  Array.of_list ports

let proxy_metrics_file root = Filename.concat root "metrics-proxy.bin"

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)

let spawn ?(join = false) t node =
  let peers =
    Array.to_list t.nodes
    |> List.filter (fun p -> p.pid <> node.pid)
    |> List.map (fun p ->
           Fmt.str "%d:%d" p.pid
             (match p.proxy_port with Some pp -> pp | None -> p.data_port))
    |> String.concat ","
  in
  let ckpt =
    match t.ckpt_interval with
    | Some i -> [ "--ckpt-interval"; Fmt.str "%g" i ]
    | None -> []
  in
  let part_ckpt =
    match t.part_ckpt with
    | Some p -> [ "--part-ckpt"; Fmt.str "%g" p ]
    | None -> []
  in
  let argv =
    [
      t.exe; "--pid"; string_of_int node.pid;
      (* A joiner's own config counts itself (Corollary 3: it starts with no
         dependency entries); incumbents keep the launch width and widen
         their vectors when the Join broadcast reaches them. *)
      "--nodes"; string_of_int (Stdlib.max t.n (node.pid + 1));
      "--app"; t.app;
      "--optimism"; string_of_int t.k; "--listen"; string_of_int node.data_port;
      "--control";
      string_of_int node.control_port; "--peers"; peers; "--store-dir";
      node.store_dir; "--trace-file"; node.trace_file; "--metrics-file";
      node.metrics_file; "--epoch"; Fmt.str "%.6f" t.epoch; "--time-scale";
      Fmt.str "%g" t.time_scale;
    ]
    @ ckpt @ part_ckpt
    @ (if join then [ "--join" ] else [])
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile node.log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let os_pid = Unix.create_process t.exe (Array.of_list argv) devnull log log in
  Unix.close devnull;
  Unix.close log;
  node.os_pid <- os_pid

(* Control connection: one persistent TCP connection per daemon, re-dialled
   lazily after a kill.  A refused connect is redialled after 1 ms, then
   2, 4, ... up to 50 ms between dials, until [budget] seconds of waiting
   are spent: a daemon whose socket listens a few ms after its spawn is
   reached within a few ms of listening, and a dead one is given up on
   after [budget]. *)
let rec ctl_fd ?(budget = 5.) ?(delay = 0.001) node =
  match node.ctl with
  | Some (fd, _) -> Some fd
  | None ->
    if budget <= 0. then None
    else begin
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (* Daemons respawned later must not inherit the driver's control
         connections to their siblings (at N=64 that is dozens of stray
         descriptors per respawn, pinning dead connections open). *)
      Unix.set_close_on_exec fd;
      match
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, node.control_port));
        Unix.setsockopt fd Unix.TCP_NODELAY true
      with
      | () ->
        (* A flooded daemon can sit on a control request for a long time;
           an unbounded recv here would wedge the whole driver (settle's
           deadline is only checked between polls).  A timed-out RPC
           drops the connection, so no stale reply can ever be read. *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        (* The stream states its wire version once, up front; a failed
           write surfaces on the first request. *)
        ignore (Wire_codec.write_all fd (Wire_codec.hello ~pid:(-1)) : bool);
        node.ctl <- Some (fd, Durable.Codec.reader ());
        Some fd
      | exception Unix.Unix_error _ ->
        Wire_codec.close_quiet fd;
        Unix.sleepf delay;
        ctl_fd ~budget:(budget -. delay) ~delay:(Float.min 0.05 (2. *. delay)) node
    end

let ctl_drop node =
  match node.ctl with
  | Some (fd, _) ->
    Wire_codec.close_quiet fd;
    node.ctl <- None
  | None -> ()

let ctl_send node ctl =
  match ctl_fd node with
  | None -> false
  | Some fd ->
    let ok = Wire_codec.write_all fd (Wire_codec.encode_control ctl) in
    if not ok then ctl_drop node;
    ok

(* The reply's frame, [(kind, payload)], read whole and checked; a
   connection that yields none is dropped. *)
let ctl_rpc_frame node ctl =
  if not (ctl_send node ctl) then None
  else
    match Option.bind node.ctl (fun (fd, r) -> Wire_codec.read_frame r fd) with
    | Some _ as reply -> reply
    | None ->
      ctl_drop node;
      None

let ctl_rpc node ctl =
  match ctl_rpc_frame node ctl with
  | None -> None
  | Some (kind, body) -> (
    match Wire_codec.decode_control_body ~kind body with
    | Ok reply -> Some reply
    | Error _ ->
      ctl_drop node;
      None)

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)

let launch ~n ~k ?(app = "kvstore") ?ckpt_interval ?part_ckpt
    ?(time_scale = Config.default_time_scale) ?plan ?(seed = 0) ?root ?exe () =
  (* Control writes race daemon SIGKILLs; a broken pipe must be an error on
     the write, not a fatal signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = find_exe exe in
  let config = Config.harden (Config.k_optimistic ~n ~k ()) in
  let root =
    match root with
    | Some r ->
      Durable.Temp.mkdir_p r;
      r
    | None -> Durable.Temp.fresh_dir ~prefix:"koptnet" ()
  in
  let use_proxy = plan <> None in
  let per_node = if use_proxy then 3 else 2 in
  let ports = free_ports (n * per_node) in
  let nodes =
    Array.init n (fun pid ->
        {
          pid;
          data_port = ports.(pid * per_node);
          proxy_port = (if use_proxy then Some ports.((pid * per_node) + 2) else None);
          control_port = ports.((pid * per_node) + 1);
          store_dir = Filename.concat root (Fmt.str "store-%d" pid);
          trace_file = Filename.concat root (Fmt.str "trace-%d.bin" pid);
          metrics_file = Filename.concat root (Fmt.str "metrics-%d.bin" pid);
          log_file = Filename.concat root (Fmt.str "daemon-%d.log" pid);
          os_pid = -1;
          ctl = None;
          injected = 0;
        })
  in
  let proxy =
    match plan with
    | None -> None
    | Some plan ->
      let routes =
        Array.to_list nodes
        |> List.map (fun node ->
               ( node.pid,
                 (match node.proxy_port with Some p -> p | None -> assert false),
                 node.data_port ))
      in
      Some
        (Proxy.start ~routes ~plan ~seed ~time_scale
           ~metrics_file:(proxy_metrics_file root) ())
  in
  let t =
    {
      n;
      k;
      config;
      time_scale;
      epoch = Unix.gettimeofday ();
      root;
      exe;
      app;
      ckpt_interval;
      part_ckpt;
      nodes;
      proxy;
      seq = 0;
      retired_pids = [];
      alive = true;
    }
  in
  Array.iter (fun node -> spawn t node) nodes;
  t

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)

let inject_app t ~dst ~wire msg =
  let node = t.nodes.(dst) in
  t.seq <- t.seq + 1;
  let cseq = node.injected in
  node.injected <- cseq + 1;
  let payload = wire.App_model.App_intf.write msg in
  ignore (ctl_send node (Wire_codec.Inject { seq = t.seq; cseq; payload }) : bool)

let inject t ~dst msg = inject_app t ~dst ~wire:App.wire msg

let status t ~dst =
  match ctl_rpc t.nodes.(dst) Wire_codec.Status_req with
  | Some (Wire_codec.Status s) -> Some s
  | _ -> None

(* A whole reply frame whose snapshot does not decode is an [Error], not
   an unreachable daemon. *)
let scrape t ~dst =
  Option.map
    (fun (kind, body) ->
      match Wire_codec.decode_control_body ~kind body with
      | Ok (Wire_codec.Stats snap) -> Ok snap
      | Ok _ -> Error (Fmt.str "kind %d answered Stats_req" kind)
      | Error e -> Error e)
    (ctl_rpc_frame t.nodes.(dst) Wire_codec.Stats_req)

let kill_only t ~dst =
  let node = t.nodes.(dst) in
  ctl_drop node;
  (try Unix.kill node.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] node.os_pid : int * Unix.process_status)
   with Unix.Unix_error _ -> ());
  node.os_pid <- -1

let respawn t ~dst = spawn t t.nodes.(dst)

(* ------------------------------------------------------------------ *)
(* Membership churn                                                    *)

(* Bring a brand-new daemon into a live cluster.  The incumbents are told
   its data port first (Add_peer), so the Join broadcast the joiner emits
   on boot can be answered immediately; the joiner itself is spawned with
   [--join] and a config counting itself.  Returns the new pid. *)
let add_node t =
  if not t.alive then invalid_arg "Deployment.add_node: deployment finished";
  let pid = Array.length t.nodes in
  let ports = free_ports 2 in
  let node =
    {
      pid;
      data_port = ports.(0);
      (* Joiners bypass the fault proxy: its route table is fixed at
         launch.  Churn experiments run proxyless or accept direct links
         for late joiners. *)
      proxy_port = None;
      control_port = ports.(1);
      store_dir = Filename.concat t.root (Fmt.str "store-%d" pid);
      trace_file = Filename.concat t.root (Fmt.str "trace-%d.bin" pid);
      metrics_file = Filename.concat t.root (Fmt.str "metrics-%d.bin" pid);
      log_file = Filename.concat t.root (Fmt.str "daemon-%d.log" pid);
      os_pid = -1;
      ctl = None;
      injected = 0;
    }
  in
  t.nodes <- Array.append t.nodes [| node |];
  Array.iter
    (fun peer ->
      if peer.pid <> pid && not (List.mem peer.pid t.retired_pids) then
        ignore
          (ctl_send peer (Wire_codec.Add_peer { pid; port = node.data_port })
            : bool))
    t.nodes;
  spawn ~join:true t node;
  pid

let arm_brownout t ~dst ~rounds =
  ignore (ctl_send t.nodes.(dst) (Wire_codec.Arm_brownout { rounds }) : bool)

let kill t ~dst =
  kill_only t ~dst;
  (* The detection + reboot outage of the cost model, in wall-clock terms
     (Config.real_restart_delay). *)
  Unix.sleepf (Config.real_restart_delay ~time_scale:t.time_scale t.config.Config.timing);
  respawn t ~dst

(* The [i]-th operation of the kvstore workload: a Put, every fifth a Get. *)
let workload_msg rng i =
  let key = Fmt.str "key%d" (Sim.Rng.int rng 17) in
  if i mod 5 = 4 then App.Get key
  else App.Put { key; value = (i * 37) + Sim.Rng.int rng 100 }

let run_workload t ~ops ~seed =
  let rng = Sim.Rng.create seed in
  for i = 0 to ops - 1 do
    let dst = Sim.Rng.int rng t.n in
    inject t ~dst (workload_msg rng i);
    if i mod 8 = 7 then Unix.sleepf 0.002
  done

let live_pids t =
  Array.to_list t.nodes
  |> List.filter_map (fun node ->
         if List.mem node.pid t.retired_pids then None else Some node.pid)

let settle ?(timeout = 30.) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let prev_deliveries = ref (-1) in
  let rec loop () =
    if Unix.gettimeofday () > deadline then false
    else begin
      let statuses = List.map (fun pid -> status t ~dst:pid) (live_pids t) in
      let all_ok =
        List.for_all
          (function
            | Some s ->
              s.Wire_codec.st_up
              && (not s.Wire_codec.st_recovering)
              && s.Wire_codec.st_pending = 0
              && s.Wire_codec.st_send_buf = 0
              && s.Wire_codec.st_recv_buf = 0
              && s.Wire_codec.st_out_buf = 0
            | None -> false)
          statuses
      in
      let deliveries =
        List.fold_left
          (fun acc -> function
            | Some s -> acc + s.Wire_codec.st_deliveries
            | None -> acc)
          0 statuses
      in
      if all_ok && deliveries = !prev_deliveries then true
      else begin
        prev_deliveries := deliveries;
        Unix.sleepf 0.1;
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Merge + certify                                                     *)

(* A SIGKILLed incarnation never wrote its own [Crashed] event; reconstruct
   it from the successor's [Restarted]: the failure announcement pins the
   crashed incarnation's last stable interval, and the successor's first
   interval (replay frontier + 1) pins the first lost index.  A daemon
   that drains and halts (Quit, retirement) does write [Crashed], so we
   only synthesise when none is pending. *)
let synthesize_crashes entries =
  let crashed = Hashtbl.create 8 in
  let count = ref 0 in
  let out =
    List.concat_map
      (fun (e : Trace.entry) ->
        match e.ev with
        | Trace.Crashed { pid; _ } ->
          Hashtbl.replace crashed pid true;
          [ e ]
        | Trace.Restarted { pid; announced; new_current } ->
          let pending = Hashtbl.mem crashed pid in
          Hashtbl.remove crashed pid;
          if pending then [ e ]
          else begin
            incr count;
            let first_lost =
              Some
                (Depend.Entry.make ~inc:announced.Wire.ending.Depend.Entry.inc
                   ~sii:new_current.Depend.Entry.sii)
            in
            [
              { e with ev = Trace.Crashed { pid; first_lost } };
              e;
            ]
          end
        | _ -> [ e ])
      entries
  in
  (out, !count)

let merge_traces t =
  let damage = ref [] in
  let tagged =
    Array.to_list t.nodes
    |> List.concat_map (fun node ->
           match Trace_codec.load_file node.trace_file with
           | Error e ->
             damage := Fmt.str "pid %d: %s" node.pid e :: !damage;
             []
           | Ok { Trace_codec.entries; damage = d } ->
             (match d with
             | Some d -> damage := Fmt.str "pid %d: %s" node.pid d :: !damage
             | None -> ());
             List.mapi (fun i e -> (e.Trace.time, node.pid, i, e)) entries)
  in
  let sorted =
    List.stable_sort
      (fun (ta, pa, ia, _) (tb, pb, ib, _) ->
        match Float.compare ta tb with
        | 0 -> ( match Int.compare pa pb with 0 -> Int.compare ia ib | c -> c)
        | c -> c)
      tagged
  in
  let entries = List.map (fun (_, _, _, e) -> e) sorted in
  let entries, synthesized = synthesize_crashes entries in
  let trace = Trace.create () in
  List.iter (fun (e : Trace.entry) -> Trace.add trace ~time:e.time e.ev) entries;
  (trace, List.rev !damage, synthesized)

(* A missing file is an empty snapshot: there was no proxy, or the
   daemon was reaped (SIGKILLed at teardown) rather than drained, which
   loses metrics but never certification evidence (the trace file is
   synced continuously). *)
let load_snapshots path =
  if not (Sys.file_exists path) then (Obs.Snapshot.empty, None)
  else
    let snap, damage = Durable.Fs.unix.read_with path Wire_codec.decode_snapshots in
    (snap, Option.map (fun d -> path ^ ": " ^ d) damage)

type outcome = {
  trace : Trace.t;
  damage : string list;
  synthesized_crashes : int;
  oracle : Harness.Oracle.report;
  obs : Obs.Snapshot.t;
      (** all daemons' Quit-time registry snapshots, each with the
          reopen counters of all its incarnations, and the proxy's
          counters, merged: counters summed, histograms bucket-wise summed *)
}

let check_fault_free outcome =
  (* On a run with no proxy and no kills nothing on the wire may be
     corrupt or shed: a nonzero decode-failure count means the codec or
     the framing regressed, and dropped outbound frames mean the send
     queues overflowed — certification must fail rather than lean on the
     protocol's loss tolerance to paper over either. *)
  let count = Obs.Snapshot.counter outcome.obs in
  let decode_errors = count "transport_decode_errors_total" in
  if decode_errors > 0 then
    failwith (Fmt.str "fault-free run decoded %d frame(s) as garbage" decode_errors);
  let frames_dropped = count "transport_frames_dropped_total" in
  if frames_dropped > 0 then
    failwith
      (Fmt.str "fault-free run shed %d outbound frame(s) to queue overflow" frames_dropped);
  (* Nor may a store have lost data: nothing here damaged one. *)
  match Durable.Durable_store.losses outcome.obs with
  | [] -> ()
  | (name, v) :: _ -> failwith (Fmt.str "fault-free run lost stored data: %s %d" name v)

let certify ~report ~exp ~label outcome =
  let violations = outcome.oracle.Harness.Oracle.violations in
  if violations <> [] then
    failwith
      (Fmt.str "%s %s: oracle violations:@.%a" exp label
         (Fmt.list ~sep:Fmt.cut Fmt.string)
         violations);
  List.iter
    (fun d -> Harness.Report.note report (Fmt.str "%s damage: %s" label d))
    outcome.damage;
  List.iter
    (fun (name, v) ->
      Harness.Report.note report (Fmt.str "%s storage loss at reopen: %s %d" label name v))
    (Durable.Durable_store.losses outcome.obs)

let reap node =
  if node.os_pid > 0 then begin
    (try Unix.kill node.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] node.os_pid : int * Unix.process_status)
     with Unix.Unix_error _ -> ());
    node.os_pid <- -1
  end

(* The daemon exits by itself after Bye; reap, falling back to SIGKILL
   only if it wedges. *)
let wait_exit node =
  if node.os_pid > 0 then begin
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] node.os_pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then reap node
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
      | _ -> node.os_pid <- -1
      | exception Unix.Unix_error _ -> node.os_pid <- -1
    in
    wait ()
  end

let quit_node node =
  if node.os_pid < 0 then () (* already gone (retired or reaped) *)
  else
    match ctl_fd ~budget:0.5 node with
    | None -> reap node
    | Some fd ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      (match ctl_rpc node Wire_codec.Quit with
      | Some Wire_codec.Bye | Some _ | None -> ());
      ctl_drop node;
      wait_exit node

(* Graceful permanent leave: the daemon force-flushes, broadcasts its final
   frontier (Retire), drains and exits.  The pid stays in the node table so
   its trace and metrics join the merge, but no successor is ever spawned. *)
let retire t ~dst =
  let node = t.nodes.(dst) in
  if not (List.mem dst t.retired_pids) then begin
    (match ctl_rpc node Wire_codec.Retire_req with
    | Some Wire_codec.Bye | Some _ | None -> ());
    ctl_drop node;
    wait_exit node;
    t.retired_pids <- dst :: t.retired_pids
  end

(* Rejoin after retirement: a fresh daemon under the same pid, over the
   same store directory (so it resumes from its retirement frontier with a
   bumped incarnation), announcing itself like any joiner.  The incumbents
   still know the pid and its ports, so their transports simply re-dial. *)
let rejoin t ~dst =
  let node = t.nodes.(dst) in
  if List.mem dst t.retired_pids then begin
    t.retired_pids <- List.filter (fun p -> p <> dst) t.retired_pids;
    spawn ~join:true t node
  end

let finish t =
  if not t.alive then invalid_arg "Deployment.finish: already finished";
  t.alive <- false;
  Array.iter quit_node t.nodes;
  (match t.proxy with Some p -> Proxy.close p | None -> ());
  let trace, damage, synthesized_crashes = merge_traces t in
  let metric_damage = ref [] in
  let load path =
    let snap, d = load_snapshots path in
    Option.iter (fun d -> metric_damage := d :: !metric_damage) d;
    snap
  in
  (* What every open of a node's store found, summed over its
     incarnations, replaces the Quit-time snapshot's own count of the
     last one's open: a daemon SIGKILLed later writes no metrics file. *)
  let reopens = Durable.Durable_store.reopen_counters in
  let node_obs node =
    let quit = load node.metrics_file in
    Obs.Snapshot.merge
      (Obs.Snapshot.of_bindings
         (List.filter
            (fun ((name, _), _) -> not (List.mem name reopens))
            (Obs.Snapshot.bindings quit)))
      (load (node.metrics_file ^ ".reopens"))
  in
  let proxy = load (proxy_metrics_file t.root) in
  let obs = Obs.Snapshot.merge_all (proxy :: List.map node_obs (Array.to_list t.nodes)) in
  let damage = damage @ List.rev !metric_damage in
  (* [n] is the final membership width: joins may have widened the cluster
     past the launch size, and every pid that ever existed must be in
     range for the oracle's per-process tables. *)
  let oracle = Harness.Oracle.check ~k:t.k ~n:(Array.length t.nodes) trace in
  {
    trace;
    damage;
    synthesized_crashes;
    oracle;
    obs;
  }

let destroy t =
  Array.iter
    (fun node ->
      ctl_drop node;
      reap node)
    t.nodes;
  (match t.proxy with Some p -> Proxy.close p | None -> ());
  t.alive <- false;
  Durable.Temp.rm_rf t.root

(* ------------------------------------------------------------------ *)
(* Live runs                                                           *)

type 'a run = { value : 'a; settled : bool; settled_at : float; outcome : outcome }

(* Until [finish] returns, the run owns live processes and a directory:
   whatever raises first tears both down, so a failed run leaves no
   daemon, no proxy and no root behind. *)
let run ?timeout t body =
  match
    let value = body () in
    let settled = settle ?timeout t in
    let settled_at = Unix.gettimeofday () in
    { value; settled; settled_at; outcome = finish t }
  with
  | r -> r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try destroy t with _ -> ());
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Schedule files on live daemons                                      *)

module Schedule = Harness.Schedule

(* A crash aimed at a checkpoint's or a flush's busy window needs the
   simulator's view of when a node is busy, and a lying fsync needs its
   in-memory tree: a daemon offers neither. *)
let simulator_only (faults : Schedule.fault list) =
  List.filter_map
    (function
      | Schedule.Crash { kind = In_checkpoint _ | In_flush _; _ }
      | Schedule.Kill { storage = Some Durable.Fault.Failed_fsync; _ } as f ->
        Some (Fmt.str "%a" Harness.Chaos.pp_fault f)
      | _ -> None)
    faults

let refuse ~what refused =
  if refused <> [] then
    invalid_arg (Fmt.str "%s: simulator-only: %s" what (String.concat "; " refused))

let live_case (s : Schedule.t) =
  match s.scenario with
  | Schedule.Chaos { case; calls } ->
    refuse ~what:("schedule " ^ s.name)
      ((if s.breakage = Config.no_breakage then [] else [ "a breakage other than none" ])
      @ simulator_only case.faults);
    (case, calls)
  | Schedule.Explore _ | Schedule.Figure1 _ ->
    invalid_arg (Fmt.str "schedule %s: not a chaos case" s.name)

let launch_case (case : Schedule.case) =
  refuse ~what:"Deployment.launch_case" (simulator_only case.faults);
  let plan = Harness.Chaos.plan_of_faults case.faults in
  launch ~n:case.n ~k:case.k ~seed:case.seed
    ?plan:(if plan = Harness.Netmodel.benign then None else Some plan)
    ()

type action =
  | Op of int
  | Die of int * Durable.Fault.t option
  | Respawn of int
  | Join of int
  | Retire of int
  | Brownout of int * int

let play t (case : Schedule.case) ~calls =
  refuse ~what:"Deployment.play" (simulator_only case.faults);
  let restart_delay = t.config.Config.timing.restart_delay in
  let q = Sim.Event_queue.create () in
  let at time action = Sim.Event_queue.schedule q ~time action in
  List.iter
    (function
      | Schedule.Loss _ | Duplication _ | Reorder _ | Partition _ -> ()
      | Crash { kind; time } ->
        List.iter
          (fun (pid, time) -> at time (Die (pid, None)))
          (Schedule.crash_times ~restart_delay ~time kind)
      | Kill { pid; time; storage } -> at time (Die (pid, storage))
      | Join { pid; time } -> at time (Join pid)
      | Retire { pid; time } -> at time (Retire pid)
      | Brownout { pid; time; rounds } -> at time (Brownout (pid, rounds)))
    case.faults;
  for i = 0 to calls - 1 do
    at (10. +. float_of_int i) (Op i)
  done;
  let rng = Sim.Rng.create case.seed in
  let storage_rng = Sim.Rng.split rng in
  (* Pids SIGKILLed and not yet respawned, and pids whose running
     incarnation opened a store a predecessor left. *)
  let down = Hashtbl.create 8 and reopened = Hashtbl.create 8 in
  let up pid = (not (Hashtbl.mem down pid)) && not (List.mem pid t.retired_pids) in
  let now () = (Unix.gettimeofday () -. t.epoch) /. t.time_scale in
  let rec loop () =
    match Sim.Event_queue.next q with
    | None -> ()
    | Some (time, action) ->
      let wait = (time -. now ()) *. t.time_scale in
      if wait > 0. then Unix.sleepf wait;
      (match action with
      | Op i -> (
        match List.filter up (live_pids t) with
        | [] -> ()
        | live ->
          let dst = List.nth live (Sim.Rng.int rng (List.length live)) in
          inject t ~dst (workload_msg rng i))
      | Die (pid, storage) ->
        if up pid then begin
          kill_only t ~dst:pid;
          Option.iter
            (fun f ->
              ignore
                (Durable.Fault.apply ~fs:Durable.Fs.unix ~dir:t.nodes.(pid).store_dir
                   ~rand:(Sim.Rng.int storage_rng) f
                  : string))
            storage;
          Hashtbl.replace down pid ();
          at (Float.max time (now ()) +. restart_delay) (Respawn pid)
        end
      | Respawn pid ->
        Hashtbl.remove down pid;
        Hashtbl.replace reopened pid ();
        respawn t ~dst:pid
      | Join pid ->
        if pid = width t then ignore (add_node t : int)
        else if pid > width t then
          invalid_arg (Fmt.str "Deployment.play: join %d beyond width %d" pid (width t))
        else if List.mem pid t.retired_pids then begin
          Hashtbl.replace reopened pid ();
          rejoin t ~dst:pid
        end
      | Retire pid -> if up pid then retire t ~dst:pid
      | Brownout (pid, rounds) -> if up pid then arm_brownout t ~dst:pid ~rounds);
      loop ()
  in
  loop ();
  (* One scrape of every live daemon: each answers with a snapshot that
     decodes, the cluster has delivered, and every incarnation that took
     over a store found it (one reopen each in its own registry). *)
  let live = live_pids t in
  let merged =
    Obs.Snapshot.merge_all
      (List.map
         (fun pid ->
           match scrape t ~dst:pid with
           | Some (Ok snap) -> snap
           | Some (Error e) ->
             failwith (Fmt.str "play: pid %d Stats snapshot does not decode: %s" pid e)
           | None -> failwith (Fmt.str "play: pid %d did not answer Stats_req" pid))
         live)
  in
  if Obs.Snapshot.counter merged "deliveries_total" = 0 then
    failwith "play: live Stats scrape shows zero deliveries_total";
  let reopens = Obs.Snapshot.counter merged "storage_reopens_total"
  and expected = List.length (List.filter (Hashtbl.mem reopened) live) in
  if reopens <> expected then
    failwith
      (Fmt.str "play: live Stats scrape shows storage_reopens_total %d, expected %d"
         reopens expected)
