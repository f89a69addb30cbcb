(* koptnode: one recovery-protocol process as a real OS daemon.

   Wires together a [Recovery.Node] over the durable file-backed store, the
   loopback TCP transport, and a control socket the deployment driver uses
   to inject client messages, poll status and request a graceful drain.
   Every control connection opens with a Hello of the wire version
   ([Wire_codec.greeting]), or is closed without a reply.
   The kvstore application is the workload (its multi-hop Put -> Replica
   chains exercise cross-process causality over the real network).

   Single-ownership design: the daemon is one thread, as the paper's
   process is one piecewise-deterministic state machine.  Its loop waits
   in one [Unix.select] on nonblocking sockets — the transport's listener
   and connections, the control listener and its clients — with the next
   timer or replay-pacing deadline as the timeout, and builds each batch
   from what is ready: every timer due (once, however late), every frame
   on every readable peer connection, and client control frames while the
   batch holds fewer than [batch_cap] events.  It then runs the batch as
   one step: actions are accumulated across the batch, the trace file is
   synced as events produce entries and once more {e before} any action
   reaches the wire (so the persisted trace is always ahead of what peers
   have seen), and if the batch left gated sends or uncommitted outputs
   behind, a flush is run immediately instead of waiting for the flush
   timer.  The actions' frames are then written straight to the peers'
   sockets; what a socket does not take waits in that peer's pending
   buffer (bounded, overflow dropped and counted), so no daemon ever waits
   on another.  Outgoing application frames piggyback the node's current
   logging-progress notice (frame kind 9), so stability news travels at
   data-traffic speed; the notice timer remains the fallback for idle
   periods.  A SIGKILL loses at most the batch being formatted — the
   deployment's merge step truncates any torn tail and synthesises the
   missing [Crashed] event from the successor's [Restarted].

   The daemon's heap follows its work in flight, not its history or its
   client's pace.  What it has written to disk it does not also keep in
   memory: each sync hands the trace's new entries to the trace file and
   drops them, and the durable store keeps only metadata — it reads its
   flushed log, checkpoints and announcements back from their files, one
   record at a time, on the rare paths that need them (rollback, restart,
   log GC).  So a respawn's reopen and restart keep of the log only the
   delivery identities duplicate suppression needs and the suffix after
   the newest checkpoint, not the whole log.  Client ingress is
   back-pressured: once a batch holds [batch_cap] events the loop stops
   reading control connections, so a client that injects back to back
   queues its backlog in its own TCP send path, which flow control
   bounds, and not in the daemon; every connection's frames are
   reassembled in a 4 KB buffer that grows only for a larger frame.  The
   most events one iteration took is the [batch_high_water] gauge.

   Resident memory.  On the benchmark's steady workload a daemon's
   resident peak is ~2.32 MB: ~0.39 MB file-backed and ~1.95 MB
   anonymous.  The file-backed part is this binary's text, 1.74 MB with
   the part of libc it calls, of which ~0.31 MB (80 pages) is resident,
   and 64 KB of its read-only data.  Fault-around maps file pages in 64 KB
   windows aligned in the address space, and boot (the module
   initialisers, the argv loop, the store's open, the restart) runs much
   code the loop never runs.  So boot ends by dropping the pages of the
   binary's read-only segments ([drop_read_only_mappings]), and only the
   windows the loop runs fault back in.  Those are few because the
   functions a daemon runs are linked first, one function at a time, in
   one .text.hot section (bin/dune, bin/koptnode_hot.ld), boot's before
   the loop's, and the loop's ~310 KB from a window's start: 5 windows
   of text.  When the script placed whole objects the loop's functions
   shared ~12 windows with the rest of their modules (189 pages, a peak
   of ~2.87 MB); linked in ocamlopt's order they sat among ~1.5 MB of
   code the loop never runs, in 22 of the text's 27 windows, ~1.36 MB
   resident (~1.65 MB without the drop), and the peak was ~3.5 MB.  A
   freshly booted daemon's file-backed resident set is ~390 KB (~470 KB
   before the read-only data below, ~900 KB with whole objects, ~1.3 MB
   in ocamlopt's order).  Of the read-only data one window comes back,
   16 pages: the loop reads only the tables of the runtime (its size
   classes), the Unix stubs and a few libc members (printf, _itoa,
   pthread_mutex), and the script links those first in the segment, in
   .rodata.hot, from a window's start.  Scattered through .rodata they
   kept three or four windows resident, 48 pages, and which ones moved
   with the length of the text before them.  Nor do the binary's headers
   come back: the drop reads them before it drops their page.  The
   anonymous part is the minor heap (0.25 MB), the major heap (~117k
   words at its top at o=20, 0.9 MB), the runtime's table of frame
   descriptors (128 KB), the binary's .data (0.45 MB, two thirds of it
   the frametables the runtime reads at boot), malloc's heap (~0.2 MB)
   and the rest of the runtime's and C's buffers.  Every block the
   runtime allocates above 128 words is malloc's, and free gives memory
   back only from the top of the heap, so after each full checkpoint,
   where such blocks come and go in bulk, [malloc_trim] returns the
   heap's free pages: on burst the heap tops at ~0.27-0.36 MB against
   ~0.47-0.57 MB without.  On burst the peak is ~3.1 MB: the major heap
   tops at ~185-200k words, held by the allocation churn of the store's Marshal
   path and by the exactly-once tables ([held], [released_ids],
   [committed_ids] in Node), which keep one checkpoint interval of
   traffic, up to a few thousand entries a table there.  Their keys are
   identities packed into one int ([Depend.Id_pack]), ~4.6 words an
   entry where record keys took ~12 (B15), which took burst's peak from
   ~5.0 MB to ~4.6 MB (the drop and the trim took it to ~4.2 MB, and
   the hot text to ~3.1 MB).  It
   is a static PIE, so it maps no dynamic loader and no libc.so or libm.so (~1.9 MB when it was
   linked dynamically; see bin/dune).  The binary links only what the
   daemon runs: no Cmdliner and no [Stdlib.Arg] (the flags are parsed
   once, with a plain loop), no Fmt and no [Stdlib.Format] (it prints
   with [Printf]; the printers of the library types live in Pp modules it
   does not reference), and no [Stdlib.Filename] (the store joins paths
   with [Durable.Path]).  Without the last three it has ~7,900 frame
   descriptors, under 8,192, so the table the runtime builds of them at
   boot has 16,384 entries (128 KB) rather than 32,768; Cmdliner and Fmt
   would hold another ~0.3 MB of text, .data and frametables resident
   for code run once at boot or never (bin/dune).
   One thread means one malloc arena and one stack: glibc
   gives every further thread an arena of its own as well as a stack,
   ~20 KB resident per thread under this load.  The major heap's top
   is set by the collector's slack more than by live data, so
   koptnode_runparam.c also prepends [o=20] (space overhead 20% instead
   of 120%): at o=120 the top was ~220k words on steady and ~550k on
   burst, at o=40 ~130k and ~220k, and the extra collector work is
   paid for by a delivery's allocation not growing with the store or the
   buffered backlog, and by a node step fsyncing its output-commit
   records once rather than once per output.  From o=40 to o=20 the
   resident peak falls ~0.12 MB on steady and crash and ~0.3 MB on
   burst, and daemon CPU per op stays within the spread of o=40 with one
   fsync per commit record (the sweeps are in koptnode_runparam.c).  An operator's own [o=] wins,
   and every scrape reports the value in force ([gc_space_overhead]).
   The binary is linked without the loader-only tables that would be
   another ~0.75 MB of file-backed pages: a full relative-relocation
   table and an export of every OCaml symbol (see bin/dune).  The minor
   heap is 32k words rather than the runtime's 256k-word default, which
   is resident whole (2 MB) once the first allocation cycle has walked
   it.  The size is fixed before the runtime starts (koptnode_runparam.c
   prepends [s=32k] to OCAMLRUNPARAM, so an operator's own [s=] still
   wins): resizing later with [Gc.set] forces a collection, and a fresh
   boot otherwise runs none.  The runtime also collects once the 64 KB
   buffers of the channels opened since the last collection add up to
   the minor heap's size.  The buffers of the standard three channels
   take three quarters of a 32k-word nursery; with the trace file opened
   through a channel too, boot collected three times.  So the trace
   writer, like the durable store, writes through a descriptor and a
   [Buffer] ([Trace_codec.writer]).  Every scrape reports the heap,
   the resident set (split into file-backed and anonymous pages), the
   thread and descriptor counts, the message buffers and the archive
   (see [memory_gauges]), and [gc_boot_minor_collections] records what
   boot collected. *)

module Node = Recovery.Node
module Trace = Recovery.Trace
module Config = Recovery.Config
module Wire_codec = Net.Wire_codec
module Trace_codec = Net.Trace_codec
module Transport = Net.Transport
module App = App_model.Kvstore_app

(* One control connection.  [live] turns false once its end (EOF or an
   undecodable frame) is in a batch; the loop closes the descriptor only
   when it processes that event, after the replies to everything queued
   ahead of it. *)
type client = {
  fd : Unix.file_descr;
  input : Bytes.t -> int -> int -> int; (* [Wire_codec.input fd] *)
  reader : Durable.Codec.reader;
  mutable greeted : bool; (* its Hello of this wire version is in *)
  mutable live : bool;
}

type timer_kind = [ `Flush | `Checkpoint | `Notice | `Retransmit | `Partition ]

type 'msg event =
  | From_net of 'msg Recovery.Wire.packet
  | Inject of { seq : int; cseq : int; msg : 'msg }  (* a client's, decoded *)
  | Control of Wire_codec.control * client
  | Control_closed of client
  | Timer of timer_kind

(* A periodic event: due [period] seconds after it last fired. *)
type timer = { kind : timer_kind; period : float; mutable due : float }

(* A batch takes client control frames only while it holds fewer than
   [batch_cap] events.  The cap bounds how much pending work (gated sends,
   uncommitted outputs) can pile up between two stability points, and so
   what the buffer rescan at each stability point costs (between them a
   delivery examines only the entries it added).  It also bounds what a
   client can queue in the daemon (see [read_clients] in [run]). *)
let batch_cap = 256

(* Once boot is over, drop the pages of the binary's read-only segments
   (text, rodata, headers), so that only what the loop runs faults back
   in; and return malloc's free pages after each full checkpoint (both in
   koptnode_runparam.c). *)
external drop_read_only_mappings : unit -> unit = "koptnode_drop_read_only" [@@noalloc]

external malloc_trim : unit -> unit = "koptnode_malloc_trim" [@@noalloc]

(* /proc/self/status into [buf], read through a descriptor, not a
   channel, so a scrape does not charge a channel buffer against the minor
   heap whose collections it reports; the bytes read, 0 when it cannot be
   read.  The five lines [memory_gauges] reads come early in the file. *)
let proc_status buf =
  match Unix.openfile "/proc/self/status" [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> 0
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let rec loop len =
          match Unix.read fd buf len (Bytes.length buf - len) with
          | 0 -> len
          | n -> loop (len + n)
        in
        loop 0)

(* The number on the line [key] of the status bytes [b.[0, len)], with a
   [kB] unit converted to bytes; [None] when the line is missing or holds
   no number.  Scanned byte by byte with no library call: this runs after
   the read, so it must fault no code of its own for the read to report
   the same resident set whether or not a scrape ran it before. *)
let status_field b len key =
  let ch i = if i < len then Bytes.unsafe_get b i else '\n' and k = String.length key in
  let rec named i j = j = k || (ch (i + j) = key.[j] && named i (j + 1)) in
  let rec line i =
    if i >= len then None
    else if named i 0 && ch (i + k) = ':' then number (i + k + 1) (-1)
    else next i
  and next i = if i >= len then None else if ch i = '\n' then line (i + 1) else next (i + 1)
  and number i v =
    match ch i with
    | ' ' | '\t' when v < 0 -> number (i + 1) v
    | '0' .. '9' as c -> number (i + 1) ((if v < 0 then 0 else 10 * v) + Char.code c - 48)
    | _ when v < 0 -> None
    | _ -> Some (float_of_int v *. if ch (i + 1) = 'k' && ch (i + 2) = 'B' then 1024. else 1.)
  in
  line 0

(* Entries of /proc/self/fd, less the descriptor listing them holds. *)
let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (float_of_int (Array.length entries - 1))
  | exception Sys_error _ -> None

(* The memory gauges, refreshed at every Stats scrape and just before the
   Quit-time metrics file: the runtime's heap sizes and collection counts,
   the process's resident set (whole, peak, and split into file-backed and
   anonymous pages), its threads and open descriptors, the node's three
   message buffers and archive, and the entries of its three exactly-once
   tables.  Each is one series.  The runtime
   samples its heap sizes at each minor collection and reads 0 before the
   first, so the two heap gauges are left out until one has run, as the
   process gauges are while /proc cannot be read.  The status file is read
   last, so the resident set it reports already holds the code of the
   refresh: a daemon reads the same whether or not it was scraped. *)
let memory_gauges obs =
  let gauge = Obs.Registry.gauge obs in
  let set name v = Obs.Gauge.set (gauge name) v in
  let status = Bytes.create 4096 in
  fun node ->
    let st = Gc.quick_stat () and ctl = Gc.get () in
    set "gc_minor_heap_words" (float_of_int ctl.Gc.minor_heap_size);
    set "gc_space_overhead" (float_of_int ctl.Gc.space_overhead);
    if st.Gc.minor_collections > 0 then begin
      set "gc_heap_words" (float_of_int st.Gc.heap_words);
      set "gc_top_heap_words" (float_of_int st.Gc.top_heap_words)
    end;
    set "gc_minor_collections" (float_of_int st.Gc.minor_collections);
    set "gc_major_collections" (float_of_int st.Gc.major_collections);
    set "send_buf_len" (float_of_int (Node.send_buffer_size node));
    set "out_buf_len" (float_of_int (Node.output_buffer_size node));
    set "recv_buf_len" (float_of_int (Node.receive_buffer_size node));
    set "archive_len" (float_of_int (Node.archive_size node));
    let held, released, committed = Node.id_table_sizes node in
    set "held_len" (float_of_int held);
    set "released_ids_len" (float_of_int released);
    set "committed_ids_len" (float_of_int committed);
    Option.iter (set "process_open_fds") (open_fds ());
    let len = proc_status status in
    List.iter
      (fun (name, key) -> Option.iter (set name) (status_field status len key))
      [
        ("process_resident_bytes", "VmRSS");
        ("process_resident_peak_bytes", "VmHWM");
        ("process_resident_file_bytes", "RssFile");
        ("process_resident_anon_bytes", "RssAnon");
        ("process_threads", "Threads");
      ]

(* [Unix.select] on the lists' descriptors, [timeout] seconds at most
   ([infinity]: no bound).  It can wait on descriptors numbered below
   FD_SETSIZE (1024) only, and refuses the whole call past that. *)
let select ~pid reads writes timeout =
  match Unix.select reads writes [] (if timeout = infinity then -1. else timeout) with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
    failwith
      (Printf.sprintf
         "koptnode %d: a socket's descriptor is 1024 or above, which \
          Unix.select cannot wait on (FD_SETSIZE); this daemon's peers and \
          control clients must stay under ~1000 connections"
         pid)

let run (type state msg) ~(app : (state, msg) App_model.App_intf.t)
    ~(wire : msg App_model.App_intf.wire_format) ~pid ~n ~k ~listen_port ~peers
    ~control_port ~store_dir ~trace_file ~metrics_file ~epoch ~time_scale
    ~ckpt_interval ~part_ckpt ~join =
  let config = Config.harden (Config.k_optimistic ~n ~k ()) in
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
  (* One registry for the whole process: the node's protocol metrics, the
     store (and its group-commit layer), the transport, the batch
     high-water mark and the main loop's phase spans all land in it, so a
     single Stats scrape — or the Quit-time metrics file — is the full
     picture. *)
  let obs = Obs.Registry.create () in
  let node = Node.create ~config ~pid ~app ~store_dir ~obs ~trace in
  let c_deliveries = Obs.Registry.counter obs "deliveries_total" in
  let high_water = Obs.Registry.gauge obs "batch_high_water" in

  (* The batch being gathered, newest event first, and its length. *)
  let incoming = ref [] and incoming_n = ref 0 in
  let add_event ev =
    incoming := ev :: !incoming;
    incr incoming_n
  in

  (* Transport: frames from peers become batch events; a payload that
     does not decode is returned to the transport, which counts it in
     [transport_decode_errors_total] and reports it on stderr. *)
  let on_error msg = Printf.eprintf "[koptnode %d] %s\n%!" pid msg in
  let on_frame ~src:_ ~kind ~body =
    if kind = Wire_codec.app_notice_kind then
      (* Piggybacked logging progress: absorb the notice before the app
         message it rode in on, as if it had arrived just ahead of it. *)
      Result.map
        (fun (m, notice) ->
          Option.iter (fun nt -> add_event (From_net (Recovery.Wire.Notice nt))) notice;
          add_event (From_net (Recovery.Wire.App m)))
        (Wire_codec.decode_data_body wire ~kind body)
    else
      Result.map
        (fun packet -> add_event (From_net packet))
        (Wire_codec.decode_packet_body wire ~kind body)
  in
  let transport = Transport.create ~self:pid ~listen_port ~peers ~on_frame ~on_error ~obs () in
  let dispatch actions =
    List.iter
      (fun action ->
        match (action : msg Node.action) with
        | Node.Unicast { dst; packet = Recovery.Wire.App m } ->
          (* Data frames carry the current stability frontier along. *)
          Transport.send transport ~dst
            (Wire_codec.encode_data wire ?piggyback:(Node.current_notice node) m)
        | Node.Unicast { dst; packet } ->
          Transport.send transport ~dst (Wire_codec.encode_packet wire packet)
        | Node.Broadcast packet ->
          Transport.broadcast transport (Wire_codec.encode_packet wire packet))
      actions
  in

  (* Timers, one per configured period (abstract units scaled to wall
     clock). *)
  let timers =
    let start = Unix.gettimeofday () in
    List.filter_map
      (fun (kind, interval) ->
        Option.map
          (fun period ->
            let period = period *. time_scale in
            { kind; period; due = start +. period })
          interval)
      [
        (`Flush, config.Config.timing.Config.flush_interval);
        (`Checkpoint, checkpoint_interval);
        (`Notice, config.Config.timing.Config.notice_interval);
        (`Retransmit, config.Config.timing.Config.retransmit_interval);
        (`Partition, part_ckpt);
      ]
  in

  (* Control socket: every accepted connection's frames become batch
     events; replies are written as the loop processes them. *)
  let control_sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt control_sock Unix.SO_REUSEADDR true;
  Unix.bind control_sock (Unix.ADDR_INET (Unix.inet_addr_loopback, control_port));
  Unix.listen control_sock 16;
  Unix.set_nonblock control_sock;
  let clients = ref [] in
  let rec accept_clients () =
    match Unix.accept ~cloexec:true control_sock with
    | fd, _ ->
      Unix.set_nonblock fd;
      let c =
        {
          fd;
          input = Wire_codec.input fd;
          reader = Durable.Codec.reader ();
          greeted = false;
          live = true;
        }
      in
      clients := !clients @ [ c ];
      accept_clients ()
    | exception Unix.Unix_error _ -> ()
  in
  let hang_up c =
    c.live <- false;
    add_event (Control_closed c)
  in
  (* A control frame that fails its framing or does not decode ends its
     connection, as one from a peer ends the peer's: counted in
     [control_decode_errors_total] and reported on stderr. *)
  let c_control_errors = Obs.Registry.counter obs "control_decode_errors_total" in
  let refuse c msg =
    Obs.Counter.incr c_control_errors;
    on_error msg;
    hang_up c;
    false
  in
  (* Take [c]'s control frames while the batch has room, reading its
     socket (if [select] found it readable) only once its buffer holds no
     whole frame.  [true] when the batch filled first: [c] may still hold
     buffered frames, which the next iteration takes without waiting. *)
  let unread _ _ _ = -1 in
  let rec from_client c ~readable =
    if !incoming_n >= batch_cap then true
    else
      match Wire_codec.next_frame c.reader (if readable then c.input else unread) with
      | Wire_codec.Frame (kind, body) when not c.greeted -> (
        match Wire_codec.greeting ~kind body with
        | Ok _ ->
          c.greeted <- true;
          from_client c ~readable
        | Error e ->
          on_error (Printf.sprintf "control connection refused: %s" e);
          hang_up c;
          false)
      | Wire_codec.Frame (kind, body) -> (
        let undecodable e =
          refuse c (Printf.sprintf "undecodable control frame (kind %d): %s" kind e)
        in
        match Wire_codec.decode_control_body ~kind body with
        | Ok (Wire_codec.Inject { seq; cseq; payload }) -> (
          match wire.App_model.App_intf.read payload with
          | Ok msg ->
            add_event (Inject { seq; cseq; msg });
            from_client c ~readable
          | Error e -> undecodable ("application payload: " ^ e))
        | Ok ctl ->
          add_event (Control (ctl, c));
          from_client c ~readable
        | Error e -> undecodable e)
      | Wire_codec.Refused e -> refuse c (Printf.sprintf "control frame: %s" e)
      | Wire_codec.Await -> false
      | Wire_codec.Closed ->
        hang_up c;
        false
  in
  (* Clients are served in turn; when a batch fills, the one served first
     goes last, so a flooding client cannot starve the others. *)
  let read_clients readable =
    let capped =
      List.fold_left
        (fun capped c ->
          (c.live && from_client c ~readable:(List.mem c.fd readable)) || capped)
        false !clients
    in
    (if capped then
       match !clients with c :: rest -> clients := rest @ [ c ] | [] -> ());
    capped
  in

  (* Boot: a pre-existing store means we are the successor of a killed
     incarnation.  [restart_begin] completes the protocol part of Figure
     3's Restart (announcement, incarnation bump) immediately and defers
     the application replay into per-partition queues — the daemon starts
     serving requests on recovered partitions while the main loop pumps
     [replay_step] in the background. *)
  if not (Node.is_up node) then begin
    (* What the open that found the store counted, a Hello and a
       snapshot of the reopen counters, for the driver to sum over this
       pid's incarnations: one SIGKILLed later writes no metrics file.
       Through a descriptor, as boot must not open a channel. *)
    let reopens = Durable.Fs.unix.open_append (metrics_file ^ ".reopens") in
    reopens.write
      (Wire_codec.snapshot_file ~pid
         (Obs.Snapshot.of_bindings
            (List.map
               (fun name ->
                 ( (name, []),
                   Obs.Snapshot.Counter (Obs.Counter.value (Obs.Registry.counter obs name)) ))
               Durable.Durable_store.reopen_counters)));
    reopens.close ();
    dispatch (fst (Node.restart_begin node ~now:(now ())))
  end;
  (* A joiner introduces itself: the Join broadcast carries its current
     frontier, and every incumbent widens its dependency vector on receipt
     (the driver has already pointed them at our data port via Add_peer). *)
  if join then dispatch (fst (Node.announce_join node ~now:(now ())));
  Trace_codec.sync writer trace;
  Transport.flush transport;

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
  let refresh_memory = memory_gauges obs in
  let reply c ctl =
    ignore (Wire_codec.write_all c.fd (Wire_codec.encode_control ctl) : bool)
  in
  let finish () =
    Trace_codec.sync writer trace;
    Trace_codec.close_writer writer;
    refresh_memory node;
    Out_channel.with_open_bin metrics_file (fun oc ->
        output_string oc (Wire_codec.snapshot_file ~pid (Obs.Registry.snapshot obs)));
    (* The drain's last frames get their one chance at the wire. *)
    Transport.flush transport;
    Transport.close transport;
    Wire_codec.close_quiet control_sock
  in
  (* On-demand recovery: replay the partition clients are actually asking
     for first.  Parked requests sit in the node's receive buffer; the most
     frequently named unrecovered partition is the hottest. *)
  let hot_partition () =
    let parts = Node.partition_count node in
    if parts = 0 then None
    else begin
      let votes = Array.make parts 0 in
      List.iter
        (fun (m : msg Recovery.Wire.app_message) ->
          match Node.partition_of_payload node m.Recovery.Wire.payload with
          | Some p when not (Node.partition_recovered node p) ->
            votes.(p) <- votes.(p) + 1
          | Some _ | None -> ())
        (Node.receive_buffer_messages node);
      let best = ref (-1) in
      Array.iteri (fun p c -> if c > 0 && (!best < 0 || c > votes.(!best)) then best := p) votes;
      if !best < 0 then None else Some !best
    end
  in
  (* Replay pacing: each re-executed record costs [t_replay] abstract
     units, the same charge the simulator's cost model levies — so ttfull
     measured here scales with log length the way E6 predicts.  The charge
     is a deadline for the next replay step, not a sleep: batches keep
     being served until it falls due. *)
  let replay_budget = 32 in
  let replay_due = ref 0. in
  (* The batch step.  Run every event through the node accumulating its
     actions (syncing the trace file as events produce entries), pump the
     replay if it is due, flush eagerly if the batch left gated sends or
     uncommitted outputs behind, and only then put the accumulated actions
     on the wire — the persisted trace is always ahead of the store's
     stability point and of anything a peer can have seen.  [Some c] when
     the batch asked to drain and exit: [c] gets the Bye. *)
  let step batch =
    let acc = ref [] in
    let add actions = if actions <> [] then acc := actions :: !acc in
    let quit = ref None in
    let pending = ref 0 in
    let step_up f = if Node.is_up node then add (fst (f node ~now:(now ()))) in
    let process ev =
      match ev with
      | From_net packet -> step_up (fun nd ~now -> Node.handle_packet nd ~now packet)
      | Timer `Partition ->
        step_up (fun nd ~now ->
            let _, actions, cost = Node.partition_checkpoint nd ~now in
            (actions, cost))
      | Timer ((`Flush | `Checkpoint | `Notice | `Retransmit) as kind) ->
        step_up
          (match kind with
          | `Flush -> Node.flush
          | `Checkpoint ->
            fun nd ~now ->
              let r = Node.checkpoint nd ~now in
              malloc_trim ();
              r
          | `Notice -> Node.broadcast_notice
          | `Retransmit -> Node.retransmit_tick)
      | Inject { seq; cseq; msg } ->
        step_up (fun nd ~now -> Node.inject nd ~now ~seq ~cseq msg)
      | Control (ctl, c) -> (
        match ctl with
        | Wire_codec.Status_req ->
          reply c
            (Wire_codec.Status
               {
                 st_up = Node.is_up node;
                 st_pending = !pending;
                 st_send_buf = Node.send_buffer_size node;
                 st_recv_buf = Node.receive_buffer_size node;
                 st_out_buf = Node.output_buffer_size node;
                 st_deliveries = Obs.Counter.value c_deliveries;
                 st_trace_len = Trace.length trace;
                 st_current = Node.current node;
                 st_recovering = Node.recovery_active node;
                 st_replay_pending = Node.recovery_pending node;
               })
        | Wire_codec.Add_peer { pid = peer_pid; port } ->
          (* Live membership: a joiner's data port.  The transport treats a
             known pid as a no-op, so re-announcement is harmless. *)
          Transport.add_peer transport ~pid:peer_pid ~port
        | Wire_codec.Retire_req ->
          (* Graceful permanent leave: broadcast the final frontier (a
             forced flush inside [Node.retire] makes it stable first), then
             drain and exit exactly like Quit — the accumulated Retire
             broadcast goes on the wire before the drain closes shop. *)
          step_up (fun nd ~now -> Node.retire nd ~now);
          quit := Some c
        | Wire_codec.Arm_brownout { rounds } -> Node.arm_storage_disk_full node ~rounds
        | Wire_codec.Stats_req ->
          (* Live scrape: the memory gauges refreshed, then a full
             snapshot of the registry in its binary form. *)
          refresh_memory node;
          reply c (Wire_codec.Stats (Obs.Registry.snapshot obs))
        | Wire_codec.Quit -> quit := Some c
        | Wire_codec.Hello _ | Wire_codec.Inject _ | Wire_codec.Status _
        | Wire_codec.Stats _ | Wire_codec.Bye -> ())
      | Control_closed c ->
        Wire_codec.close_quiet c.fd;
        clients := List.filter (fun c' -> c' != c) !clients
    in
    (* [left]: events of the batch not yet processed, this one included;
       a Status reply reports the ones after it as pending. *)
    let rec consume left = function
      | [] -> ()
      | ev :: rest ->
        pending := left - 1;
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
        if !quit = None then consume (left - 1) rest
    in
    let events = List.length batch in
    Obs.Counter.incr c_batches;
    Obs.Counter.add c_batch_events events;
    Obs.Span.time sp_handle (fun () -> consume events batch);
    (* Background replay pump: one bounded step when its pacing deadline
       has passed, prioritising the partition parked client requests are
       waiting on.  Interleaving with the batch processing above is what
       makes recovery on-demand — Gets on recovered partitions are
       answered between steps. *)
    if !quit = None && Node.recovery_active node && Unix.gettimeofday () >= !replay_due
    then begin
      let prefer = hot_partition () in
      let executed, actions, _cost =
        Node.replay_step node ~now:(now ()) ?prefer ~budget:replay_budget ()
      in
      add actions;
      Trace_codec.sync writer trace;
      replay_due :=
        Unix.gettimeofday ()
        +. (float_of_int executed *. config.Config.timing.Config.t_replay *. time_scale)
    end;
    (* Eager flush: anything the batch left volatile gets its stability
       point now instead of at the next flush-timer tick — gated sends
       release, outputs commit, and fresh deliveries are acknowledged
       before the senders' retransmission timers re-send them.  Idle
       batches skip it entirely. *)
    if
      !quit = None
      && Node.is_up node
      && (Node.volatile_log_length node > 0
         || Node.output_buffer_size node > 0
         || Node.send_buffer_size node > 0)
    then begin
      Obs.Counter.incr c_eager_flushes;
      Obs.Span.time sp_flush (fun () -> add (fst (Node.flush node ~now:(now ()))))
    end;
    Obs.Span.time sp_sync (fun () -> Trace_codec.sync writer trace);
    Obs.Span.time sp_dispatch (fun () -> List.iter dispatch (List.rev !acc));
    !quit
  in
  (* Graceful drain: one last flush gives everything volatile its
     stability point (and the dispatch below puts the resulting releases on
     the wire), then [halt] records the clean exit as a [Crashed] with no
     lost interval — the oracle treats that as a no-op, so a quit daemon is
     distinguishable in the merged trace from a torn SIGKILL without
     weakening certification. *)
  let drain c =
    if Node.is_up node then begin
      (* Finish any in-progress replay first so the drain leaves a fully
         recovered store (and the merged trace its Recovery_completed). *)
      if Node.recovery_active node then begin
        let _, actions, _ = Node.replay_step node ~now:(now ()) ~budget:max_int () in
        Trace_codec.sync writer trace;
        dispatch actions
      end;
      let actions = fst (Node.flush node ~now:(now ())) in
      Trace_codec.sync writer trace;
      dispatch actions;
      Node.halt node ~now:(now ())
    end;
    finish ();
    reply c Wire_codec.Bye
  in
  (* The loop.  [capped]: the last batch filled before every client's
     buffered frames were taken, so the next wait must not block. *)
  let rec main_loop ~capped =
    let t_reads, t_writes = Transport.interest transport in
    let reads =
      control_sock
      :: List.fold_left (fun acc c -> if c.live then c.fd :: acc else acc) t_reads !clients
    in
    let recovering = Node.recovery_active node in
    let deadline =
      List.fold_left
        (fun acc tm -> Float.min acc tm.due)
        (Float.min (Transport.deadline transport)
           (if recovering then !replay_due else infinity))
        timers
    in
    let timeout =
      if capped then 0. else Float.max 0. (deadline -. Unix.gettimeofday ())
    in
    let readable, writable = select ~pid reads t_writes timeout in
    let wall = Unix.gettimeofday () in
    List.iter
      (fun tm ->
        if wall >= tm.due then begin
          add_event (Timer tm.kind);
          tm.due <- wall +. tm.period
        end)
      timers;
    Transport.service transport ~readable ~writable;
    if List.mem control_sock readable then accept_clients ();
    let capped = read_clients readable in
    let batch = List.rev !incoming in
    let events = !incoming_n in
    incoming := [];
    incoming_n := 0;
    if float_of_int events > Obs.Gauge.value high_water then
      Obs.Gauge.set high_water (float_of_int events);
    let quit =
      if events > 0 || (recovering && wall >= !replay_due) then step batch else None
    in
    match quit with
    | Some c -> drain c
    | None ->
      Transport.flush transport;
      main_loop ~capped
  in
  (* What boot cost the minor heap, fixed once: with the 32k-word nursery
     and no channel beyond the standard three, a daemon boots (store
     reopen, restart, first sync) without a single minor collection,
     which is what keeps setup time unchanged.  Then boot's pages of the
     binary go: from here on only what the loop runs is resident. *)
  Obs.Gauge.set
    (Obs.Registry.gauge obs "gc_boot_minor_collections")
    (float_of_int (Gc.quick_stat ()).Gc.minor_collections);
  drop_read_only_mappings ();
  main_loop ~capped:false

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

(* A plain loop over argv, neither Cmdliner nor [Stdlib.Arg]: the flags
   are parsed once at boot, and what a parser links stays resident for the
   daemon's whole life (see bin/dune).  Every option but [--join] takes
   the next argument as its value.  A missing, malformed or unknown
   option ends the process with status 2, a first line naming it and the
   usage; [--help] prints the usage and exits 0. *)

let usage =
  "koptnode --pid P --nodes N --optimism K --listen PORT --control PORT\n\
  \  --store-dir DIR --trace-file FILE --metrics-file FILE [OPTION]...\n\
   K-optimistic logging daemon (one cluster process).  Options:"

(* One option: [param] names its value ([""]: it takes none), [expects]
   says what a value must be, and [set] stores one, [false] if it is
   malformed. *)
type flag = {
  name : string;
  param : string;
  doc : string;
  expects : string;
  set : string -> bool;
}

let usage_text flags =
  let help =
    { name = "--help"; param = ""; doc = "Display this list of options."; expects = "";
      set = (fun _ -> true) }
  in
  let flags = flags @ [ help ] in
  let left f = if f.param = "" then f.name else f.name ^ " " ^ f.param in
  let width = List.fold_left (fun w f -> max w (String.length (left f))) 0 flags in
  usage ^ "\n"
  ^ String.concat ""
      (List.map (fun f -> Printf.sprintf "  %-*s  %s\n" width (left f) f.doc) flags)

let parse_command_line flags =
  let prog = Sys.argv.(0) in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: %s.\n%s" prog m (usage_text flags);
        exit 2)
      fmt
  in
  let rec go = function
    | [] -> ()
    | ("--help" | "-help") :: _ ->
      print_string (usage_text flags);
      exit 0
    | arg :: rest -> (
      match (List.find_opt (fun f -> f.name = arg) flags, rest) with
      | None, _ when String.starts_with ~prefix:"-" arg -> fail "unknown option '%s'" arg
      | None, _ -> fail "unexpected argument '%s'" arg
      | Some f, _ when f.param = "" ->
        ignore (f.set "" : bool);
        go rest
      | Some f, [] -> fail "option '%s' needs an argument" f.name
      | Some f, v :: rest ->
        if not (f.set v) then
          fail "wrong argument '%s'; option '%s' expects %s" v f.name f.expects;
        go rest)
  in
  go (List.tl (Array.to_list Sys.argv))

(* PID:PORT[,PID:PORT...]; empty items are skipped, [None] if any other
   item is malformed. *)
let parse_peers s =
  List.fold_right
    (fun kv peers ->
      match (peers, List.map int_of_string_opt (String.split_on_char ':' kv)) with
      | _ when kv = "" -> peers
      | Some peers, [ Some pid; Some port ] -> Some ((pid, port) :: peers)
      | _ -> None)
    (String.split_on_char ',' s) (Some [])

let () =
  let pid = ref None and n = ref None and k = ref None in
  let listen_port = ref None and control_port = ref None in
  let store_dir = ref None and trace_file = ref None and metrics_file = ref None in
  let peers = ref [] and epoch = ref 0. and time_scale = ref Config.default_time_scale in
  let ckpt_interval = ref None and part_ckpt = ref None in
  let app = ref "kvstore" and join = ref false in
  (* [set] for a value [parse] reads: [store] it, or refuse it. *)
  let parsed parse store v =
    match parse v with
    | Some x ->
      store x;
      true
    | None -> false
  in
  let int name param doc r =
    { name; param; doc; expects = "an integer";
      set = parsed int_of_string_opt (fun v -> r := Some v) }
  and float name param doc store =
    { name; param; doc; expects = "a float"; set = parsed float_of_string_opt store }
  and string name param doc r =
    { name; param; doc; expects = "a string";
      set = parsed Option.some (fun v -> r := Some v) }
  in
  let flags =
    [
      int "--pid" "P" "Process id." pid;
      int "--nodes" "N" "Cluster size." n;
      int "--optimism" "K" "Degree of optimism." k;
      int "--listen" "PORT" "Data port to listen on." listen_port;
      { name = "--peers"; param = "PID:PORT,...";
        doc = "Peer data ports (proxy ports under faults).";
        expects = "PID:PORT[,PID:PORT...]";
        set = parsed parse_peers (( := ) peers) };
      int "--control" "PORT" "Control port." control_port;
      string "--store-dir" "DIR" "Durable store directory (survives SIGKILL)." store_dir;
      string "--trace-file" "FILE" "Trace output file." trace_file;
      string "--metrics-file" "FILE" "Metrics output file (written on Quit)."
        metrics_file;
      float "--epoch" "T" "Shared wall-clock origin (Unix time) for trace timestamps."
        (( := ) epoch);
      float "--time-scale" "S" "Seconds per abstract time unit." (( := ) time_scale);
      float "--ckpt-interval" "T"
        "Full-checkpoint period (abstract units); 0 disables it."
        (fun v -> ckpt_interval := Some v);
      float "--part-ckpt" "T"
        "Incremental per-partition checkpoint period (abstract units)."
        (fun v -> part_ckpt := Some v);
      { name = "--app"; param = "{kvstore|shardkv}";
        doc = "Application to run (default kvstore).";
        expects = "one of: kvstore shardkv";
        set =
          parsed (fun a -> List.find_opt (( = ) a) [ "kvstore"; "shardkv" ]) (( := ) app) };
      { name = "--join"; param = "";
        doc = "Announce this process as a joiner on boot (membership churn).";
        expects = ""; set = parsed Option.some (fun _ -> join := true) };
    ]
  in
  parse_command_line flags;
  let required name r =
    match !r with
    | Some v -> v
    | None ->
      Printf.eprintf "%s: option '%s' is required.\n%s" Sys.argv.(0) name
        (usage_text flags);
      exit 2
  in
  let pid = required "--pid" pid in
  let n = required "--nodes" n in
  let k = required "--optimism" k in
  let listen_port = required "--listen" listen_port in
  let control_port = required "--control" control_port in
  let store_dir = required "--store-dir" store_dir in
  let trace_file = required "--trace-file" trace_file in
  let metrics_file = required "--metrics-file" metrics_file in
  let go (type state msg)
      ((app, wire) :
        (state, msg) App_model.App_intf.t * msg App_model.App_intf.wire_format) =
    run ~app ~wire ~pid ~n ~k ~listen_port ~peers:!peers ~control_port ~store_dir
      ~trace_file ~metrics_file ~epoch:!epoch ~time_scale:!time_scale
      ~ckpt_interval:!ckpt_interval ~part_ckpt:!part_ckpt ~join:!join
  in
  if !app = "shardkv" then go (Shardkv.Shard_app.app, Shardkv.Shard_app.wire)
  else go (App.app, App.wire)
