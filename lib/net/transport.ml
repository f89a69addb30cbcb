(* Where a peer's outbound connection stands. *)
type link =
  | Idle  (** none: dial as soon as there is something to send *)
  | Connecting of Unix.file_descr  (** a nonblocking connect in progress *)
  | Up of Unix.file_descr
  | Backoff of float  (** a dial failed: the next one is due at this time *)

(* [out.[start .. len)] holds the frames accepted by [send] and not yet
   written, oldest first; [lens] their lengths, and [written] how much of
   the oldest one the current connection has taken. *)
type peer = {
  pid : int;
  port : int;
  mutable out : Bytes.t;
  mutable start : int;
  mutable len : int;
  lens : int Queue.t;
  mutable written : int;
  mutable link : link;
  mutable backoff : float; (* what the next failed dial waits *)
  mutable dialed : bool; (* a dial was attempted: later ones are reconnects *)
  mutable failures : int; (* writes failed since one last completed a frame *)
  mutable up_at : float; (* when the current connection sent its Hello *)
  mutable proven : bool;
      (* the current connection completed a frame [backoff_base] or more
         after its Hello *)
}

(* One accepted connection: a Hello frame of this wire version naming the
   dialer, then a stream of frames. *)
type inbound = {
  fd : Unix.file_descr;
  reader : Wire_codec.Reader.t;
  mutable src : int option; (* the dialer, once its Hello is in *)
}

type t = {
  listen_sock : Unix.file_descr;
  hello : string;
  mutable peers : peer list;
  mutable inbound : inbound list;
  on_frame : src:int -> kind:int -> body:string -> unit;
  on_error : string -> unit;
  max_queue : int;
  backoff_base : float;
  backoff_cap : float;
  mutable closed : bool;
  counters : Obs.Counter.t array; (* sent, dropped, received, decode_errors, reconnects *)
}

let c_sent = 0

let c_dropped = 1

let c_received = 2

let c_decode_errors = 3

let c_reconnects = 4

let bump_n t i n = if n > 0 then Obs.Counter.add t.counters.(i) n

let bump t i = bump_n t i 1

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* A peer's pending buffer starts at [out_initial] bytes and grows as a
   backlog needs; once drained it is replaced by a fresh small one only
   if it grew past [out_keep], so ordinary batches reuse it. *)
let out_initial = 4096

let out_keep = 65536

let pending p = not (Queue.is_empty p.lens)

(* ------------------------------------------------------------------ *)
(* Inbound                                                             *)

let close_inbound t c =
  Wire_codec.close_quiet c.fd;
  t.inbound <- List.filter (fun c' -> c' != c) t.inbound

(* Deliver every whole frame buffered on [c]; [false] once the connection
   must die.  Any framing or checksum error is counted, reported and
   kills the connection: the dialer brings up a fresh one. *)
let rec deliver t c =
  let reject e =
    bump t c_decode_errors;
    t.on_error e;
    false
  in
  match Wire_codec.Reader.next c.reader with
  | None -> true
  | Some (Error e) -> reject (Printf.sprintf "inbound frame: %s" e)
  | Some (Ok (kind, body)) -> (
    match c.src with
    | None -> (
      match Wire_codec.greeting ~kind body with
      | Ok src ->
        c.src <- Some src;
        deliver t c
      | Error e -> reject (Printf.sprintf "inbound connection refused: %s" e))
    | Some src ->
      bump t c_received;
      (try t.on_frame ~src ~kind ~body
       with exn ->
         t.on_error (Printf.sprintf "frame handler raised: %s" (Printexc.to_string exn)));
      deliver t c)

(* Read [c] until the socket has nothing more, as a dedicated reader
   would: peer frames never wait. *)
let read_inbound t c =
  let rec drain () =
    match Wire_codec.Reader.read c.reader c.fd with
    | `Again -> ()
    | `Eof -> close_inbound t c
    | `Read -> if deliver t c then drain () else close_inbound t c
  in
  drain ()

(* A fresh connection is read at once: its Hello often arrived with it. *)
let rec accept_all t =
  match Unix.accept ~cloexec:true t.listen_sock with
  | fd, _ ->
    Unix.set_nonblock fd;
    let c = { fd; reader = Wire_codec.Reader.create (); src = None } in
    t.inbound <- c :: t.inbound;
    read_inbound t c;
    accept_all t
  | exception Unix.Unix_error _ -> () (* none left, or the listener is closed *)

(* ------------------------------------------------------------------ *)
(* Outbound                                                            *)

let reset_out p =
  p.start <- 0;
  p.len <- 0;
  p.written <- 0;
  if Bytes.length p.out > out_keep then p.out <- Bytes.create out_initial

let drop_pending t p =
  bump_n t c_dropped (Queue.length p.lens);
  Queue.clear p.lens;
  reset_out p

let disconnect p =
  match p.link with
  | Up fd | Connecting fd ->
    Wire_codec.close_quiet fd;
    p.link <- Idle
  | Idle | Backoff _ -> ()

let failed_dial t p ~now =
  p.link <- Backoff (now +. p.backoff);
  p.backoff <- Float.min (2. *. p.backoff) t.backoff_cap

(* [k] more bytes went out: count every frame now complete as sent. *)
let advance t p k =
  p.written <- p.written + k;
  let sent = ref 0 in
  while pending p && p.written >= Queue.peek p.lens do
    let l = Queue.pop p.lens in
    p.written <- p.written - l;
    p.start <- p.start + l;
    incr sent
  done;
  if !sent > 0 then begin
    p.failures <- 0;
    if (not p.proven) && Unix.gettimeofday () -. p.up_at >= t.backoff_base then begin
      p.proven <- true;
      p.backoff <- t.backoff_base
    end;
    bump_n t c_sent !sent
  end;
  if not (pending p) then reset_out p

(* A write failure closes the connection; a frame it cut is discarded by
   the receiver's checksum, so it is sent again whole on the next one (a
   retry can at worst duplicate, which the protocol suppresses by
   identity).  Three failures in a row without a frame getting through
   drop everything pending, so a peer that accepts and resets at once
   cannot keep frames forever.  A connection that carried a frame
   [backoff_base] or more after its Hello was a working stream to a peer
   that since went away (killed, respawning), so it is redialled at once;
   any other is a peer cutting streams as they open (the fault proxy's
   partition does), and the peer backs off as after a failed dial.  A
   completed frame alone proves nothing: the kernel takes the frames
   written with the Hello before the peer's close arrives. *)
let write_failed t p =
  disconnect p;
  if not p.proven then failed_dial t p ~now:(Unix.gettimeofday ());
  p.written <- 0;
  p.failures <- p.failures + 1;
  if p.failures >= 3 then begin
    drop_pending t p;
    p.failures <- 0
  end

(* Everything pending in one write: frames are self-delimiting, so the
   concatenation is exactly the byte stream separate writes would have
   produced.  What the socket does not take waits for it to drain. *)
let write_out t p fd =
  if pending p then
    let off = p.start + p.written in
    match Unix.write fd p.out off (p.len - off) with
    | k -> advance t p k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> write_failed t p

(* A fresh connection's send buffer is empty, so the Hello goes out whole
   in its one write. *)
let established t p fd ~now =
  match
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.write_substring fd t.hello 0 (String.length t.hello)
  with
  | k when k = String.length t.hello ->
    p.link <- Up fd;
    p.up_at <- now;
    p.proven <- false;
    write_out t p fd
  | _ | (exception Unix.Unix_error _) ->
    Wire_codec.close_quiet fd;
    failed_dial t p ~now

let dial t p ~now =
  if p.dialed then bump t c_reconnects;
  p.dialed <- true;
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  match Unix.connect fd (loopback p.port) with
  | () -> established t p fd ~now
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR), _, _) ->
    p.link <- Connecting fd
  | exception Unix.Unix_error _ ->
    Wire_codec.close_quiet fd;
    failed_dial t p ~now

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)

let make_peer ~backoff ~pid ~port =
  {
    pid;
    port;
    out = Bytes.create out_initial;
    start = 0;
    len = 0;
    lens = Queue.create ();
    written = 0;
    link = Idle;
    backoff;
    dialed = false;
    failures = 0;
    up_at = 0.;
    proven = false;
  }

let create ~self ~listen_port ~peers ~on_frame ?(on_error = fun _ -> ())
    ?(max_queue = 1024) ?(backoff_base = 0.05) ?(backoff_cap = 2.) ?obs () =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  (* A peer SIGKILLed mid-write must surface as EPIPE (handled per write),
     not kill this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_sock Unix.SO_REUSEADDR true;
  Unix.bind listen_sock (loopback listen_port);
  Unix.listen listen_sock 64;
  Unix.set_nonblock listen_sock;
  {
    listen_sock;
    hello = Wire_codec.hello ~pid:self;
    peers = List.map (fun (pid, port) -> make_peer ~backoff:backoff_base ~pid ~port) peers;
    inbound = [];
    on_frame;
    on_error;
    max_queue;
    backoff_base;
    backoff_cap;
    closed = false;
    counters =
      (let c name = Obs.Registry.counter obs ("transport_" ^ name) in
       [|
         c "frames_sent_total"; c "frames_dropped_total"; c "frames_received_total";
         c "decode_errors_total"; c "reconnects_total";
       |]);
  }

let interest t =
  if t.closed then ([], [])
  else
    ( t.listen_sock :: List.map (fun c -> c.fd) t.inbound,
      List.filter_map
        (fun p ->
          match p.link with
          | Connecting fd -> Some fd
          | Up fd when pending p -> Some fd
          | Up _ | Idle | Backoff _ -> None)
        t.peers )

let deadline t =
  List.fold_left
    (fun acc p ->
      if not (pending p) then acc
      else
        match p.link with
        | Idle -> neg_infinity
        | Backoff at -> Float.min acc at
        | Connecting _ | Up _ -> acc)
    infinity t.peers

let service t ~readable ~writable =
  if not t.closed then begin
    let known = t.inbound in
    if List.mem t.listen_sock readable then accept_all t;
    List.iter (fun c -> if List.mem c.fd readable then read_inbound t c) known;
    let now = Unix.gettimeofday () in
    List.iter
      (fun p ->
        match p.link with
        | Connecting fd when List.mem fd writable -> (
          match Unix.getsockopt_error fd with
          | None -> established t p fd ~now
          | Some _ ->
            Wire_codec.close_quiet fd;
            failed_dial t p ~now)
        | Up fd when List.mem fd writable -> write_out t p fd
        | Connecting _ | Up _ | Idle | Backoff _ -> ())
      t.peers
  end

let flush t =
  if not t.closed then begin
    let now = Unix.gettimeofday () in
    List.iter
      (fun p ->
        if pending p then begin
          (match p.link with
          | Idle -> dial t p ~now
          | Backoff at when now >= at -> dial t p ~now
          | Backoff _ | Connecting _ | Up _ -> ());
          match p.link with
          | Up fd -> write_out t p fd
          | Idle | Backoff _ | Connecting _ -> ()
        end)
      t.peers
  end

let poll t ~timeout =
  let reads, writes = interest t in
  let timeout =
    Float.max 0. (Float.min timeout (deadline t -. Unix.gettimeofday ()))
  in
  let readable, writable, _ =
    try Unix.select reads writes [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  service t ~readable ~writable;
  flush t

(* Late peer registration: a joiner dialled after creation.  Known pids
   are a no-op, so re-announcing an existing peer is harmless. *)
let add_peer t ~pid ~port =
  if not (t.closed || List.exists (fun p -> p.pid = pid) t.peers) then
    t.peers <- t.peers @ [ make_peer ~backoff:t.backoff_base ~pid ~port ]

(* Append [frame] to [p]'s pending bytes, sliding them to the front of the
   buffer (from the oldest frame's first byte, which a failed connection
   may still have to resend) or growing it when they do not fit. *)
let append p frame =
  let n = String.length frame in
  if p.len + n > Bytes.length p.out then begin
    let have = p.len - p.start in
    let buf =
      if have + n <= Bytes.length p.out then p.out
      else Bytes.create (max (have + n) (2 * Bytes.length p.out))
    in
    Bytes.blit p.out p.start buf 0 have;
    p.out <- buf;
    p.start <- 0;
    p.len <- have
  end;
  Bytes.blit_string frame 0 p.out p.len n;
  p.len <- p.len + n;
  Queue.add n p.lens

let send t ~dst frame =
  match List.find_opt (fun p -> p.pid = dst) t.peers with
  | Some p when (not t.closed) && Queue.length p.lens < t.max_queue -> append p frame
  | Some _ | None -> bump t c_dropped

let broadcast t frame = List.iter (fun p -> send t ~dst:p.pid frame) t.peers

let close t =
  if not t.closed then begin
    t.closed <- true;
    Wire_codec.close_quiet t.listen_sock;
    List.iter (fun c -> Wire_codec.close_quiet c.fd) t.inbound;
    t.inbound <- [];
    (* Frames never written are counted dropped here, so sent + dropped
       accounts for every accepted frame. *)
    List.iter
      (fun p ->
        disconnect p;
        drop_pending t p)
      t.peers
  end
