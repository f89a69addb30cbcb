type route = { dst : int; listen_port : int; target_port : int }

(* The parent's handle: the relay runs in a forked child that exits when
   the parent closes its end of [pipe]. *)
type t = { child : int; pipe : Unix.file_descr; mutable closed : bool }

(* One relayed transport connection, after its hello.  Frames from the
   client wait in [held], in the order they were read, each with the wall
   time it is due; only the head is ever released, so a held frame holds
   the stream's suffix.  [to_server] and [to_client] are the bytes a
   nonblocking write has not taken yet. *)
type stream = {
  src : int;
  dst : int;
  client : Unix.file_descr;
  server : Unix.file_descr;
  frames : Wire_codec.Reader.t;
  held : (float * string) Queue.t;
  mutable held_bytes : int;
  to_server : Buffer.t;
  to_client : Buffer.t;
  mutable client_eof : bool;
  mutable open_ : bool;
}

(* An accepted connection whose hello has not arrived whole yet. *)
type greeting = { route : route; fd : Unix.file_descr; hello : Wire_codec.Reader.t }

(* The relay's state; the child process is its only owner. *)
type relay = {
  plan : Harness.Netmodel.fault_plan;
  rng : Sim.Rng.t;
  time_scale : float;
  epoch : float;
  mutable greetings : greeting list;
  mutable streams : stream list;
  forwarded : Obs.Counter.t;
  dropped : Obs.Counter.t;
  duplicated : Obs.Counter.t;
  delayed : Obs.Counter.t;
  severed : Obs.Counter.t;
}

(* A stream stops reading while this many bytes wait on its behalf, so a
   stalled receiver pushes back on its sender as TCP would. *)
let max_backlog = 1 lsl 20

let chunk = Bytes.create 65536

(* Abstract-time clock shared with the fault plan's partition windows. *)
let abstract_now r = (Unix.gettimeofday () -. r.epoch) /. r.time_scale

(* The partition (if any) currently cutting src from dst. *)
let active_partition r ~src ~dst =
  let now = abstract_now r in
  List.find_opt
    (fun (p : Harness.Netmodel.partition) ->
      p.from_ <= now && now < p.until
      && List.mem src p.group <> List.mem dst p.group)
    r.plan.partitions

let sever s =
  if s.open_ then begin
    s.open_ <- false;
    Wire_codec.close_quiet s.client;
    Wire_codec.close_quiet s.server
  end

(* Decide one client frame's fate, drawing in the order frames are read:
   dropped, or held until due, and written once or twice. *)
let admit r s frame =
  let now = Unix.gettimeofday () in
  let due =
    match active_partition r ~src:s.src ~dst:s.dst with
    | Some { mode = Harness.Netmodel.Drop_packets; _ } -> None
    | Some ({ mode = Harness.Netmodel.Queue_packets; _ } as p) ->
      (* Hold the frame, and hence the stream's suffix, until the
         partition heals. *)
      Obs.Counter.incr r.delayed;
      Some (r.epoch +. (p.until *. r.time_scale))
    | None ->
      if Sim.Rng.bernoulli r.rng ~p:r.plan.loss then None
      else if r.plan.reorder > 0. && Sim.Rng.bernoulli r.rng ~p:r.plan.reorder then begin
        let d =
          Sim.Rng.float r.rng (Float.max 1e-9 (r.plan.reorder_spread *. r.time_scale))
        in
        Obs.Counter.incr r.delayed;
        Some (now +. d)
      end
      else Some now
  in
  match due with
  | None -> Obs.Counter.incr r.dropped
  | Some due ->
    let dup = r.plan.duplicate > 0. && Sim.Rng.bernoulli r.rng ~p:r.plan.duplicate in
    if dup then Obs.Counter.incr r.duplicated;
    let bytes = if dup then frame ^ frame else frame in
    Queue.add (due, bytes) s.held;
    s.held_bytes <- s.held_bytes + String.length bytes

(* Move every due head of [held] to the server's outbox. *)
let release r s now =
  let rec go () =
    match Queue.peek_opt s.held with
    | Some (due, bytes) when due <= now ->
      ignore (Queue.pop s.held : float * string);
      s.held_bytes <- s.held_bytes - String.length bytes;
      Buffer.add_string s.to_server bytes;
      Obs.Counter.incr r.forwarded;
      go ()
    | Some _ | None -> ()
  in
  go ()

(* Write what [fd] takes now of [out]; [false] on a socket error. *)
let drain fd out =
  let len = Buffer.length out in
  len = 0
  ||
  match Unix.single_write_substring fd (Buffer.contents out) 0 len with
  | n ->
    let rest = Buffer.sub out n (len - n) in
    Buffer.clear out;
    Buffer.add_string out rest;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Read what the client has sent and admit each whole frame.  The
   endpoint's CRC check is the arbiter of integrity; a frame the reader
   cannot check severs the stream, like a middlebox dying mid-connection.
   Frames are forwarded as read: re-framing a checked frame yields its
   bytes. *)
let read_client r s =
  (match Wire_codec.Reader.read s.frames s.client with
  | `Read | `Again -> ()
  | `Eof -> s.client_eof <- true);
  let rec frames () =
    match Wire_codec.Reader.next s.frames with
    | None -> ()
    | Some (Error _) -> sever s
    | Some (Ok (kind, payload)) ->
      admit r s (Wire_codec.frame ~kind payload);
      frames ()
  in
  frames ()

(* The acceptor side of a transport connection never writes, but a relay
   must not wedge if it does. *)
let read_server s =
  match Unix.read s.server chunk 0 (Bytes.length chunk) with
  | 0 -> sever s
  | n -> Buffer.add_subbytes s.to_client chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> sever s

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.set_nonblock fd
  with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Wire_codec.close_quiet fd;
    None

(* Read a greeting; once its hello is whole, refuse it, sever it at a
   dropping partition, or dial the daemon and make it a stream.  The
   dialer's backoff keeps retrying a severed hello until the window
   closes.  [true] while it still waits for bytes. *)
let greet r g =
  let refuse () =
    Wire_codec.close_quiet g.fd;
    false
  in
  let eof = Wire_codec.Reader.read g.hello g.fd = `Eof in
  match Wire_codec.Reader.next g.hello with
  | None -> not eof || refuse ()
  | Some (Ok (kind, body)) when kind = Wire_codec.hello_kind && body <> "" -> (
    match Wire_codec.Prim.run Wire_codec.Prim.get_int body with
    | Error _ -> refuse ()
    | Ok src -> (
      match active_partition r ~src ~dst:g.route.dst with
      | Some { mode = Harness.Netmodel.Drop_packets; _ } ->
        Obs.Counter.incr r.severed;
        refuse ()
      | _ -> (
        match connect g.route.target_port with
        | None -> refuse ()
        | Some server ->
          let s =
            {
              src;
              dst = g.route.dst;
              client = g.fd;
              server;
              frames = g.hello;
              held = Queue.create ();
              held_bytes = 0;
              to_server = Buffer.create 256;
              to_client = Buffer.create 16;
              client_eof = false;
              open_ = true;
            }
          in
          Buffer.add_string s.to_server (Wire_codec.frame ~kind body);
          r.streams <- s :: r.streams;
          (* Frames that came in the hello's read. *)
          read_client r s;
          false)))
  | Some _ -> refuse () (* not a transport stream *)

let accept r (route, listener) =
  let rec go () =
    match Unix.accept listener with
    | fd, _ ->
      Unix.set_nonblock fd;
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      r.greetings <- { route; fd; hello = Wire_codec.Reader.create () } :: r.greetings;
      go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let backlog s = s.held_bytes + Buffer.length s.to_server

(* Serve until the parent closes its end of [pipe]. *)
let serve r ~listeners ~pipe =
  let rec loop () =
    let now = Unix.gettimeofday () in
    List.iter
      (fun s ->
        if s.open_ then begin
          release r s now;
          if not (drain s.server s.to_server && drain s.client s.to_client) then sever s;
          if s.client_eof && Queue.is_empty s.held && Buffer.length s.to_server = 0 then
            sever s
        end)
      r.streams;
    r.streams <- List.filter (fun s -> s.open_) r.streams;
    let reads =
      (pipe :: List.map snd listeners)
      @ List.map (fun g -> g.fd) r.greetings
      @ List.concat_map
          (fun s ->
            (if s.client_eof || backlog s >= max_backlog then [] else [ s.client ])
            @ if Buffer.length s.to_client >= max_backlog then [] else [ s.server ])
          r.streams
    in
    let writes =
      List.concat_map
        (fun s ->
          (if Buffer.length s.to_server > 0 then [ s.server ] else [])
          @ if Buffer.length s.to_client > 0 then [ s.client ] else [])
        r.streams
    in
    (* The earliest held head sets the timeout. *)
    let timeout =
      List.fold_left
        (fun acc s ->
          match Queue.peek_opt s.held with
          | Some (due, _) ->
            let wait = Float.max 0. (due -. now) in
            if acc < 0. then wait else Float.min acc wait
          | None -> acc)
        (-1.) r.streams
    in
    let ready, _, _ =
      try Unix.select reads writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let readable fd = List.mem fd ready in
    if not (readable pipe && Unix.read pipe chunk 0 1 = 0) then begin
      List.iter (fun l -> if readable (snd l) then accept r l) listeners;
      r.greetings <- List.filter (fun g -> (not (readable g.fd)) || greet r g) r.greetings;
      List.iter
        (fun s ->
          if s.open_ && readable s.client then read_client r s;
          if s.open_ && readable s.server then read_server s)
        r.streams;
      loop ()
    end
  in
  loop ()

(* Every descriptor open in this process but [keep] and stdio.  On Unix a
   [Unix.file_descr] is the descriptor number. *)
let close_all_but keep =
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | Some n when n > 2 ->
        let fd : Unix.file_descr = Obj.magic n in
        if not (List.mem fd keep) then Wire_codec.close_quiet fd
      | Some _ | None -> ())
    (try Sys.readdir "/proc/self/fd" with Sys_error _ -> [||])

let start ~routes ?(plan = Harness.Netmodel.benign) ?(seed = 0)
    ?(time_scale = Recovery.Config.default_time_scale) ~metrics_file () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let routes =
    List.map
      (fun (dst, listen_port, target_port) -> { dst; listen_port; target_port })
      routes
  in
  let listeners =
    List.map
      (fun route ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, route.listen_port));
        Unix.listen fd 64;
        (route, fd))
      routes
  in
  let epoch = Unix.gettimeofday () in
  let pipe_out, pipe_in = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    (* The child holds copies of every descriptor the driver had open:
       control connections, store and trace files, other proxies' pipes.
       A copy kept here would keep a connection half-open after the
       driver closed or severed it, so only the listeners, the pipe and
       stdio stay. *)
    (try
       let fds = List.map snd listeners in
       close_all_but (pipe_out :: fds);
       List.iter Unix.set_nonblock fds;
       let obs = Obs.Registry.create () in
       let c name = Obs.Registry.counter obs ("proxy_" ^ name ^ "_total") in
       let r =
         {
           plan;
           rng = Sim.Rng.create seed;
           time_scale;
           epoch;
           greetings = [];
           streams = [];
           forwarded = c "forwarded";
           dropped = c "dropped";
           duplicated = c "duplicated";
           delayed = c "delayed";
           severed = c "severed";
         }
       in
       serve r ~listeners ~pipe:pipe_out;
       Out_channel.with_open_bin metrics_file (fun oc ->
           output_string oc (Obs.Snapshot.to_text (Obs.Registry.snapshot obs)))
     with _ -> ());
    Unix._exit 0
  | child ->
    Unix.close pipe_out;
    List.iter (fun (_, fd) -> Unix.close fd) listeners;
    { child; pipe = pipe_in; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.pipe;
    let rec reap () =
      match Unix.waitpid [] t.child with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ()
  end
