(* koptnode: one recovery-protocol process as a real OS daemon.

   Wires together a [Recovery.Node] over the durable file-backed store, the
   loopback TCP transport, and a control socket the deployment driver uses
   to inject client messages, poll status and request a graceful drain.
   The kvstore application is the workload (its multi-hop Put -> Replica
   chains exercise cross-process causality over the real network).

   Single-ownership design: one main-loop thread owns the node; transport
   reader threads, timer threads and control-connection threads only append
   events to a mailbox.  Each wakeup drains the {e whole} mailbox and
   processes it as one batch: actions are accumulated across the batch, the
   trace file is synced once per batch {e before} any action reaches the
   wire (so the persisted trace is always ahead of what peers have seen —
   strictly stronger than the old per-event sync-after-dispatch), and if
   the batch left gated sends or uncommitted outputs behind, a flush is run
   immediately instead of waiting for the flush timer (the group-commit
   layer in the durable store coalesces the resulting fsyncs).  Outgoing
   application frames piggyback the node's current logging-progress notice
   (frame kind 9), so stability news travels at data-traffic speed; the
   notice timer remains the fallback for idle periods.  A SIGKILL loses at
   most the batch being formatted — the deployment's merge step truncates
   any torn tail and synthesises the missing [Crashed] event from the
   successor's [Restarted]. *)

module Node = Recovery.Node
module Trace = Recovery.Trace
module Config = Recovery.Config
module Wire_codec = Net.Wire_codec
module Trace_codec = Net.Trace_codec
module App = App_model.Kvstore_app

type 'msg event =
  | From_net of 'msg Recovery.Wire.packet
  | Control of 'msg Wire_codec.control * Unix.file_descr
  | Timer of [ `Flush | `Checkpoint | `Notice | `Retransmit | `Part_ckpt ]

type 'msg mailbox = {
  q : 'msg event Queue.t;
  mu : Mutex.t;
  cond : Condition.t;
}

let mailbox () = { q = Queue.create (); mu = Mutex.create (); cond = Condition.create () }

let post mb ev =
  Mutex.lock mb.mu;
  Queue.add ev mb.q;
  Condition.signal mb.cond;
  Mutex.unlock mb.mu

(* Block for at least one event, then drain what is available, up to a
   cap: the main loop processes the mailbox in batches.  The cap bounds
   how much pending work (gated sends, uncommitted outputs) can pile up
   between two stability points — the per-event buffer scans are linear in
   those buffers, so unbounded batches would go quadratic under an
   injection burst. *)
let batch_cap = 256

let take_batch mb =
  Mutex.lock mb.mu;
  while Queue.is_empty mb.q do
    Condition.wait mb.cond mb.mu
  done;
  let rec grab k acc =
    if k = 0 || Queue.is_empty mb.q then List.rev acc
    else grab (k - 1) (Queue.pop mb.q :: acc)
  in
  let evs = grab batch_cap [] in
  Mutex.unlock mb.mu;
  evs

let pending mb =
  Mutex.lock mb.mu;
  let n = Queue.length mb.q in
  Mutex.unlock mb.mu;
  n

let write_all fd s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let rec loop off =
    if off = n then true
    else
      match Unix.write fd buf off (n - off) with
      | 0 -> false
      | k -> loop (off + k)
      | exception Unix.Unix_error _ -> false
  in
  loop 0

let read_exact fd n =
  let buf = Bytes.create n in
  let rec loop off =
    if off = n then Some (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> None
      | k -> loop (off + k)
      | exception Unix.Unix_error _ -> None
  in
  loop 0

(* Read one control frame off a connection. *)
let read_control wire fd =
  match read_exact fd Wire_codec.header_bytes with
  | None -> None
  | Some header -> (
    match Wire_codec.parse_header header ~pos:0 with
    | Error _ -> None
    | Ok (kind, len) -> (
      match if len = 0 then Some "" else read_exact fd len with
      | None -> None
      | Some payload -> (
        match Wire_codec.check_frame ~header ~payload with
        | Error _ -> None
        | Ok () -> (
          match Wire_codec.decode_control_body wire ~kind payload with
          | Error _ -> None
          | Ok ctl -> Some ctl))))

let run (type state msg) ~(app : (state, msg) App_model.App_intf.t)
    ~(wire : msg App_model.App_intf.wire_format) ~pid ~n ~k ~listen_port ~peers
    ~control_port ~store_dir ~trace_file ~metrics_file ~epoch ~time_scale
    ~retransmit ~ckpt_interval ~part_ckpt ~join =
  let config =
    Config.harden ?retransmit_interval:retransmit
      (Config.k_optimistic ~n ~k ())
  in
  (* --ckpt-interval overrides the full-checkpoint period; 0 disables it
     (incremental per-partition checkpoints, when armed, keep replay
     bounded instead). *)
  let checkpoint_interval =
    match ckpt_interval with
    | None -> config.Config.timing.Config.checkpoint_interval
    | Some i when i <= 0. -> None
    | Some i -> Some i
  in
  let now () = (Unix.gettimeofday () -. epoch) /. time_scale in
  let trace = Trace.create () in
  let writer = Trace_codec.open_writer trace_file in
  let mb = mailbox () in
  (* One registry for the whole process: the node's protocol metrics, the
     store (and its group-commit layer), the transport and the main
     loop's phase spans all land in it, so a single Stats scrape — or the
     Quit-time metrics file — is the full picture.  A [Crash] respawn
     reuses it: the new node and its reopened store get back the same
     counters and continue them rather than reset. *)
  let obs = Obs.Registry.create () in
  let node = ref (Node.create ~config ~pid ~app ~store_dir ~obs ~trace) in
  let c_deliveries = Obs.Registry.counter obs "deliveries_total" in

  (* Transport: frames from peers become mailbox events; decode failures
     are reported on stderr (and counted by the transport), never lost. *)
  let on_error msg = Fmt.epr "[koptnode %d] %s@." pid msg in
  let on_frame ~src:_ ~kind ~body =
    if kind = Wire_codec.app_notice_kind then
      (* Piggybacked logging progress: absorb the notice before the app
         message it rode in on, as if it had arrived just ahead of it. *)
      match Wire_codec.decode_data_body wire ~kind body with
      | Ok (m, notice) ->
        Option.iter (fun nt -> post mb (From_net (Recovery.Wire.Notice nt))) notice;
        post mb (From_net (Recovery.Wire.App m))
      | Error e -> on_error (Fmt.str "undecodable data frame (kind %d): %s" kind e)
    else
      match Wire_codec.decode_packet_body wire ~kind body with
      | Ok packet -> post mb (From_net packet)
      | Error e -> on_error (Fmt.str "undecodable packet (kind %d): %s" kind e)
  in
  let transport =
    Net.Transport.create ~self:pid ~listen_port ~peers ~on_frame ~on_error ~obs ()
  in
  let dispatch actions =
    List.iter
      (fun action ->
        match (action : msg Node.action) with
        | Node.Unicast { dst; packet = Recovery.Wire.App m } ->
          (* Data frames carry the current stability frontier along. *)
          Net.Transport.send transport ~dst
            (Wire_codec.encode_data wire
               ?piggyback:(Node.current_notice !node) m)
        | Node.Unicast { dst; packet } ->
          Net.Transport.send transport ~dst
            (Wire_codec.encode_packet wire packet)
        | Node.Broadcast packet ->
          Net.Transport.broadcast transport
            (Wire_codec.encode_packet wire packet))
      actions
  in

  (* Timers, one thread per configured period (abstract units scaled to
     wall clock). *)
  let stopping = ref false in
  let timer kind interval =
    match interval with
    | None -> ()
    | Some period ->
      let delay = period *. time_scale in
      ignore
        (Thread.create
           (fun () ->
             while not !stopping do
               Thread.delay delay;
               if not !stopping then post mb (Timer kind)
             done)
           ()
          : Thread.t)
  in
  timer `Flush config.Config.timing.Config.flush_interval;
  timer `Checkpoint checkpoint_interval;
  timer `Notice config.Config.timing.Config.notice_interval;
  timer `Retransmit config.Config.timing.Config.retransmit_interval;
  timer `Part_ckpt part_ckpt;

  (* Control socket: each accepted connection feeds control frames into the
     mailbox; replies are written by the main loop. *)
  let control_sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt control_sock Unix.SO_REUSEADDR true;
  Unix.bind control_sock (Unix.ADDR_INET (Unix.inet_addr_loopback, control_port));
  Unix.listen control_sock 16;
  let control_conn fd =
    let rec loop () =
      match read_control wire fd with
      | None -> (try Unix.close fd with Unix.Unix_error _ -> ())
      | Some ctl ->
        post mb (Control (ctl, fd));
        loop ()
    in
    loop ()
  in
  ignore
    (Thread.create
       (fun () ->
         let rec loop () =
           match Unix.accept control_sock with
           | fd, _ ->
             ignore (Thread.create control_conn fd : Thread.t);
             loop ()
           | exception Unix.Unix_error _ -> ()
         in
         loop ())
       ()
      : Thread.t);

  (* Boot: a pre-existing store means we are the successor of a killed
     incarnation.  [restart_begin] completes the protocol part of Figure
     3's Restart (announcement, incarnation bump) immediately and defers
     the application replay into per-partition queues — the daemon starts
     serving requests on recovered partitions while the main loop pumps
     [replay_step] in the background. *)
  if not (Node.is_up !node) then
    dispatch (fst (Node.restart_begin !node ~now:(now ())));
  (* A joiner introduces itself: the Join broadcast carries its current
     frontier, and every incumbent widens its dependency vector on receipt
     (the driver has already pointed them at our data port via Add_peer). *)
  if join then dispatch (fst (Node.announce_join !node ~now:(now ())));
  Trace_codec.sync writer trace;

  (* Main-loop phase timing, always on: what the retired KOPT_PROF env
     knob printed at exit is now four [phase_seconds] histograms in the
     registry, readable live over the Stats arm.  B13 pins the per-record
     cost low enough to leave enabled unconditionally. *)
  let span phase =
    Obs.Span.create obs ~labels:[ ("phase", phase) ] "phase_seconds"
  in
  let sp_handle = span "handle" in
  let sp_flush = span "flush" in
  let sp_sync = span "sync" in
  let sp_dispatch = span "dispatch" in
  let c_batches = Obs.Registry.counter obs "batches_total" in
  let c_batch_events = Obs.Registry.counter obs "batch_events_total" in
  let c_eager_flushes = Obs.Registry.counter obs "eager_flushes_total" in
  let reply fd ctl =
    ignore (write_all fd (Wire_codec.encode_control wire ctl) : bool)
  in
  let finish () =
    stopping := true;
    Trace_codec.sync writer trace;
    Trace_codec.close_writer writer;
    let oc = open_out metrics_file in
    output_string oc (Obs.Snapshot.to_text (Obs.Registry.snapshot obs));
    close_out oc;
    Net.Transport.close transport;
    (try Unix.close control_sock with Unix.Unix_error _ -> ())
  in
  (* Batched main loop.  Per wakeup: drain the mailbox, run every event
     through the node accumulating its actions (syncing the trace file as
     events produce entries), flush eagerly if the batch left gated sends
     or uncommitted outputs behind, and only then put the accumulated
     actions on the wire — the persisted trace is always ahead of the
     store's stability point and of anything a peer can have seen. *)
  (* On-demand recovery: replay the partition clients are actually asking
     for first.  Parked requests sit in the node's receive buffer; the most
     frequently named unrecovered partition is the hottest. *)
  let hot_partition () =
    let parts = Node.partition_count !node in
    if parts = 0 then None
    else begin
      let votes = Array.make parts 0 in
      List.iter
        (fun (m : msg Recovery.Wire.app_message) ->
          match Node.partition_of_payload !node m.Recovery.Wire.payload with
          | Some p when not (Node.partition_recovered !node p) ->
            votes.(p) <- votes.(p) + 1
          | Some _ | None -> ())
        (Node.receive_buffer_messages !node);
      let best = ref (-1) in
      Array.iteri (fun p c -> if c > 0 && (!best < 0 || c > votes.(!best)) then best := p) votes;
      if !best < 0 then None else Some !best
    end
  in
  (* Replay pacing: each re-executed record costs [t_replay] abstract
     units, the same charge the simulator's cost model levies — so ttfull
     measured here scales with log length the way E6 predicts. *)
  let replay_budget = 32 in
  let replay_pace executed =
    if executed > 0 then
      Thread.delay
        (float_of_int executed *. config.Config.timing.Config.t_replay *. time_scale)
  in
  let rec main_loop () =
    (* While a replay is in progress the loop must not block on the
       mailbox: an idle wakeup pumps the replay queues instead. *)
    let batch =
      if Node.recovery_active !node && pending mb = 0 then []
      else take_batch mb
    in
    let acc = ref [] in
    let add actions = if actions <> [] then acc := actions :: !acc in
    let quit_fd = ref None in
    let step_up f = if Node.is_up !node then add (fst (f !node ~now:(now ()))) in
    let process ev =
      match ev with
      | From_net packet -> step_up (fun nd ~now -> Node.handle_packet nd ~now packet)
      | Timer `Part_ckpt ->
        step_up (fun nd ~now ->
            let _, actions, cost = Node.partition_checkpoint nd ~now in
            (actions, cost))
      | Timer ((`Flush | `Checkpoint | `Notice | `Retransmit) as kind) ->
        step_up
          (match kind with
          | `Flush -> Node.flush
          | `Checkpoint -> Node.checkpoint
          | `Notice -> Node.broadcast_notice
          | `Retransmit -> Node.retransmit_tick)
      | Control (ctl, fd) -> (
        match ctl with
        | Wire_codec.Inject { seq; payload } ->
          step_up (fun nd ~now -> Node.inject nd ~now ~seq payload)
        | Wire_codec.Tick t ->
          step_up
            (match t with
            | `Flush -> Node.flush
            | `Checkpoint -> Node.checkpoint
            | `Notice -> Node.broadcast_notice)
        | Wire_codec.Crash ->
          (* Soft fail-stop: same recovery path as a SIGKILL + respawn,
             without losing the OS process.  The new node registers over
             the process registry, so its counters carry on from the old
             node's values. *)
          Node.halt !node ~now:(now ());
          Trace_codec.sync writer trace;
          Thread.delay (Config.real_restart_delay ~time_scale config.Config.timing);
          node := Node.create ~config ~pid ~app ~store_dir ~obs ~trace;
          add (fst (Node.restart_begin !node ~now:(now ())))
        | Wire_codec.Status_req ->
          reply fd
            (Wire_codec.Status
               {
                 st_up = Node.is_up !node;
                 st_pending = pending mb;
                 st_send_buf = Node.send_buffer_size !node;
                 st_recv_buf = Node.receive_buffer_size !node;
                 st_out_buf = Node.output_buffer_size !node;
                 st_deliveries = Obs.Counter.value c_deliveries;
                 st_trace_len = Trace.length trace;
                 st_current = Node.current !node;
                 st_recovering = Node.recovery_active !node;
                 st_replay_pending = Node.recovery_pending !node;
               })
        | Wire_codec.Add_peer { pid = peer_pid; port } ->
          (* Live membership: a joiner's data port.  The transport treats a
             known pid as a no-op, so re-announcement is harmless. *)
          Net.Transport.add_peer transport ~pid:peer_pid ~port
        | Wire_codec.Retire_req ->
          (* Graceful permanent leave: broadcast the final frontier (a
             forced flush inside [Node.retire] makes it stable first), then
             drain and exit exactly like Quit — the accumulated Retire
             broadcast goes on the wire before the drain closes shop. *)
          step_up (fun nd ~now -> Node.retire nd ~now);
          quit_fd := Some fd
        | Wire_codec.Arm_brownout { slow; rounds } -> (
          match slow with
          | None -> Node.arm_storage_disk_full !node ~rounds
          | Some delay -> Node.arm_storage_slow_fsync !node ~delay ~rounds)
        | Wire_codec.Stats_req ->
          (* Live scrape: a full consistent snapshot of the registry (the
             collect hook above refreshes the bridged node metrics first),
             serialised as the versioned text exposition. *)
          reply fd
            (Wire_codec.Stats (Obs.Snapshot.to_text (Obs.Registry.snapshot obs)))
        | Wire_codec.Quit -> quit_fd := Some fd
        | Wire_codec.Hello _ | Wire_codec.Status _ | Wire_codec.Stats _
        | Wire_codec.Bye -> ())
    in
    let rec consume = function
      | [] -> ()
      | ev :: rest ->
        process ev;
        (* The trace file must never fall behind the stable store: a later
           event in this batch may fsync the store (rollback, checkpoint,
           output commit), and a SIGKILL between that fsync and a
           batch-end-only trace sync would leave the store remembering
           deliveries whose trace events were lost — the respawned node
           then replays intervals the merged trace never saw created live.
           [Trace_codec.sync] is O(1) when the event added nothing, so this
           keeps the batch's single eager fsync as the only per-batch cost. *)
        Trace_codec.sync writer trace;
        if !quit_fd = None then consume rest
    in
    Obs.Counter.incr c_batches;
    Obs.Counter.add c_batch_events (List.length batch);
    Obs.Span.time sp_handle (fun () -> consume batch);
    (* Background replay pump: one bounded step per wakeup, prioritising
       the partition parked client requests are waiting on.  Interleaving
       with the batch processing above is what makes recovery on-demand —
       Gets on recovered partitions are answered between steps. *)
    if !quit_fd = None && Node.recovery_active !node then begin
      let prefer = hot_partition () in
      let executed, actions, _cost =
        Node.replay_step !node ~now:(now ()) ?prefer ~budget:replay_budget ()
      in
      add actions;
      Trace_codec.sync writer trace;
      replay_pace executed
    end;
    (* Eager flush: anything the batch left volatile gets its stability
       point now instead of at the next flush-timer tick — gated sends
       release, outputs commit, and fresh deliveries are acknowledged
       before the senders' retransmission timers re-send them.  The group
       commit layer makes the per-batch fsync cheap; idle batches skip it
       entirely. *)
    if
      !quit_fd = None
      && Node.is_up !node
      && (Node.volatile_log_length !node > 0
         || Node.output_buffer_size !node > 0
         || Node.send_buffer_size !node > 0)
    then begin
      Obs.Counter.incr c_eager_flushes;
      Obs.Span.time sp_flush (fun () -> add (fst (Node.flush !node ~now:(now ()))))
    end;
    Obs.Span.time sp_sync (fun () -> Trace_codec.sync writer trace);
    Obs.Span.time sp_dispatch (fun () -> List.iter dispatch (List.rev !acc));
    match !quit_fd with
    | Some fd ->
      (* Graceful drain: one last flush gives everything volatile its
         stability point (and the dispatch below puts the resulting
         releases on the wire), then [halt] records the clean exit as a
         [Crashed] with no lost interval — the oracle treats that as a
         no-op, so a quit daemon is distinguishable in the merged trace
         from a torn SIGKILL without weakening certification. *)
      if Node.is_up !node then begin
        (* Finish any in-progress replay first so the drain leaves a fully
           recovered store (and the merged trace its Recovery_completed). *)
        if Node.recovery_active !node then begin
          let _, actions, _ =
            Node.replay_step !node ~now:(now ()) ~budget:max_int ()
          in
          Trace_codec.sync writer trace;
          dispatch actions
        end;
        let actions = fst (Node.flush !node ~now:(now ())) in
        Trace_codec.sync writer trace;
        dispatch actions;
        Node.halt !node ~now:(now ())
      end;
      finish ();
      reply fd Wire_codec.Bye
    | None -> main_loop ()
  in
  main_loop ()

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let peers_conv =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.filter (fun s -> s <> "")
        |> List.map (fun kv ->
               match String.split_on_char ':' kv with
               | [ pid; port ] -> (int_of_string pid, int_of_string port)
               | _ -> failwith "bad"))
    with _ -> Error (`Msg "expected PID:PORT[,PID:PORT...]")
  in
  let print ppf peers =
    Fmt.pf ppf "%a"
      (Fmt.list ~sep:(Fmt.any ",") (fun ppf (p, q) -> Fmt.pf ppf "%d:%d" p q))
      peers
  in
  Arg.conv (parse, print)

let cmd =
  let pid = Arg.(required & opt (some int) None & info [ "pid" ] ~doc:"Process id.") in
  let n =
    Arg.(required & opt (some int) None & info [ "nodes" ] ~doc:"Cluster size.")
  in
  let k =
    Arg.(required & opt (some int) None & info [ "optimism" ] ~doc:"Degree of optimism.")
  in
  let listen_port =
    Arg.(required & opt (some int) None & info [ "listen" ] ~doc:"Data port to listen on.")
  in
  let peers =
    Arg.(
      value & opt peers_conv []
      & info [ "peers" ] ~doc:"Peer data ports as PID:PORT,... (proxy ports under faults).")
  in
  let control_port =
    Arg.(required & opt (some int) None & info [ "control" ] ~doc:"Control port.")
  in
  let store_dir =
    Arg.(
      required & opt (some string) None
      & info [ "store-dir" ] ~doc:"Durable store directory (survives SIGKILL).")
  in
  let trace_file =
    Arg.(required & opt (some string) None & info [ "trace-file" ] ~doc:"Trace output file.")
  in
  let metrics_file =
    Arg.(
      required & opt (some string) None
      & info [ "metrics-file" ] ~doc:"Metrics output file (written on Quit).")
  in
  let epoch =
    Arg.(
      value & opt float 0.
      & info [ "epoch" ] ~doc:"Shared wall-clock origin (Unix time) for trace timestamps.")
  in
  let time_scale =
    Arg.(
      value
      & opt float Config.default_time_scale
      & info [ "time-scale" ] ~doc:"Seconds per abstract time unit.")
  in
  let retransmit =
    Arg.(
      value & opt (some float) None
      & info [ "retransmit" ] ~doc:"Retransmission period (abstract units).")
  in
  let ckpt_interval =
    Arg.(
      value & opt (some float) None
      & info [ "ckpt-interval" ]
          ~doc:"Full-checkpoint period (abstract units); 0 disables it.")
  in
  let part_ckpt =
    Arg.(
      value & opt (some float) None
      & info [ "part-ckpt" ]
          ~doc:"Incremental per-partition checkpoint period (abstract units).")
  in
  let app_t =
    Arg.(
      value
      & opt (enum [ ("kvstore", `Kvstore); ("shardkv", `Shardkv) ]) `Kvstore
      & info [ "app" ] ~doc:"Application to run: $(b,kvstore) or $(b,shardkv).")
  in
  let join =
    Arg.(
      value & flag
      & info [ "join" ]
          ~doc:"Announce this process as a joiner on boot (membership churn).")
  in
  let run' app pid n k listen_port peers control_port store_dir trace_file
      metrics_file epoch time_scale retransmit ckpt_interval part_ckpt join =
    let go (type state msg) ((app, wire) :
          (state, msg) App_model.App_intf.t * msg App_model.App_intf.wire_format) =
      run ~app ~wire ~pid ~n ~k ~listen_port ~peers ~control_port ~store_dir
        ~trace_file ~metrics_file ~epoch ~time_scale ~retransmit ~ckpt_interval
        ~part_ckpt ~join
    in
    match app with
    | `Kvstore -> go (App.app, App.wire)
    | `Shardkv -> go (Shardkv.Shard_app.app, Shardkv.Shard_app.wire)
  in
  Cmd.v
    (Cmd.info "koptnode" ~doc:"K-optimistic logging daemon (one cluster process).")
    Term.(
      const run' $ app_t $ pid $ n $ k $ listen_port $ peers $ control_port
      $ store_dir $ trace_file $ metrics_file $ epoch $ time_scale $ retransmit
      $ ckpt_interval $ part_ckpt $ join)

let () = exit (Cmd.eval cmd)
