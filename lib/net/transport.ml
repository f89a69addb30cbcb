type peer = {
  pid : int;
  port : int;
  queue : string Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable sock : Unix.file_descr option;
}

type t = {
  self : int;
  listen_sock : Unix.file_descr;
  mutable peers : peer list;
  peers_mutex : Mutex.t; (* guards [peers] updates; reads see a whole list *)
  on_frame : src:int -> kind:int -> body:string -> unit;
  on_error : string -> unit;
  max_queue : int;
  backoff_base : float;
  backoff_cap : float;
  mutable stopping : bool;
  counters : Obs.Counter.t array; (* sent, dropped, received, decode_errors, reconnects *)
  counters_mutex : Mutex.t; (* serializes the reader and writer threads' bumps *)
}

let c_sent = 0

let c_dropped = 1

let c_received = 2

let c_decode_errors = 3

let c_reconnects = 4

let bump_n t i n =
  if n > 0 then begin
    Mutex.lock t.counters_mutex;
    Obs.Counter.add t.counters.(i) n;
    Mutex.unlock t.counters_mutex
  end

let bump t i = bump_n t i 1

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Read exactly [n] bytes; [None] on EOF or any socket error (the
   connection is finished either way). *)
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

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One inbound connection: a Hello frame naming the dialer, then a stream
   of frames.  Any framing or checksum error is reported and kills the
   connection — the dialer's backoff loop brings up a fresh one. *)
let read_frame t fd =
  match read_exact fd Wire_codec.header_bytes with
  | None -> None
  | Some header -> (
    match Wire_codec.parse_header header ~pos:0 with
    | Error e ->
      bump t c_decode_errors;
      t.on_error (Fmt.str "inbound frame header: %s" e);
      None
    | Ok (kind, len) -> (
      match if len = 0 then Some "" else read_exact fd len with
      | None -> None
      | Some payload -> (
        match Wire_codec.check_frame ~header ~payload with
        | Error e ->
          bump t c_decode_errors;
          t.on_error (Fmt.str "inbound frame: %s" e);
          None
        | Ok () -> Some (kind, payload))))

let reader_loop t fd =
  let src =
    match read_frame t fd with
    | Some (kind, payload) when kind = Wire_codec.hello_kind ->
      (* The hello payload is a bare pid (see Wire_codec.encode_control). *)
      Result.to_option
        (Wire_codec.Prim.run Wire_codec.Prim.get_int payload)
    | Some _ ->
      bump t c_decode_errors;
      t.on_error "inbound connection did not start with Hello";
      None
    | None -> None
  in
  match src with
  | None -> close_quiet fd
  | Some src ->
    let rec loop () =
      match read_frame t fd with
      | None -> close_quiet fd
      | Some (kind, body) ->
        bump t c_received;
        (try t.on_frame ~src ~kind ~body
         with exn ->
           t.on_error (Fmt.str "frame handler raised: %s" (Printexc.to_string exn)));
        loop ()
    in
    loop ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_sock with
    | fd, _ ->
      ignore (Thread.create (reader_loop t) fd : Thread.t);
      loop ()
    | exception Unix.Unix_error _ -> () (* listener closed: shutting down *)
  in
  loop ()

let hello_frame self =
  Wire_codec.encode_control App_model.App_intf.string_wire_format
    (Wire_codec.Hello { pid = self })

(* Sleep [d] seconds in small slices, returning early once [close] sets
   the stop flag — a writer parked in a multi-second backoff must not hold
   shutdown hostage for the remainder of its nap (the graceful-quit test
   asserts a bound on shutdown latency). *)
let interruptible_delay t d =
  let slice = 0.02 in
  let rec nap remaining =
    if (not t.stopping) && remaining > 0. then begin
      Thread.delay (Float.min slice remaining);
      nap (remaining -. slice)
    end
  in
  nap d

(* Dial with exponential backoff until connected or shutdown. *)
let rec dial t peer ~backoff ~first =
  if t.stopping then None
  else begin
    if not first then bump t c_reconnects;
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (loopback peer.port);
      Unix.setsockopt fd Unix.TCP_NODELAY true
    with
    | () ->
      if write_all fd (hello_frame t.self) then Some fd
      else begin
        close_quiet fd;
        interruptible_delay t backoff;
        dial t peer ~backoff:(Float.min (2. *. backoff) t.backoff_cap) ~first:false
      end
    | exception Unix.Unix_error _ ->
      close_quiet fd;
      interruptible_delay t backoff;
      dial t peer ~backoff:(Float.min (2. *. backoff) t.backoff_cap) ~first:false
  end

(* Each wakeup drains the peer's whole queue and writes it as one
   coalesced batch: frames are self-delimiting (header carries the
   length), so concatenation is exactly the byte stream N separate writes
   would have produced, for one syscall instead of N.  The QCheck suite
   pins that a coalesced batch decodes to the same frame sequence.

   Retry accounting distinguishes the two failure modes: [writes] counts
   write failures on the current connection (a batch cut mid-write is
   discarded by the receiver's checksum, so a retry can at worst duplicate
   — which the protocol suppresses by identity) and resets to zero after
   every successful dial, because a fresh connection deserves a fresh
   budget; [dials] bounds reconnect cycles within one batch so a peer that
   accepts and immediately resets cannot spin this thread forever.  Every
   frame popped from the queue is counted exactly once, as sent or as
   dropped — including when shutdown lands mid-batch. *)
let writer_loop t peer =
  let first = ref true in
  let buf = Buffer.create 4096 in
  let rec loop () =
    Mutex.lock peer.mutex;
    while Queue.is_empty peer.queue && not t.stopping do
      Condition.wait peer.nonempty peer.mutex
    done;
    if t.stopping then Mutex.unlock peer.mutex
    else begin
      Buffer.clear buf;
      let count = ref 0 in
      while not (Queue.is_empty peer.queue) do
        Buffer.add_string buf (Queue.pop peer.queue);
        incr count
      done;
      Mutex.unlock peer.mutex;
      let batch = Buffer.contents buf in
      let n = !count in
      let rec send_batch ~dials ~writes =
        if t.stopping then bump_n t c_dropped n
        else
          match peer.sock with
          | Some fd ->
            if write_all fd batch then bump_n t c_sent n
            else begin
              (* Close under the peer mutex, and only if [close t] has not
                 raced us to it: a second close of the same descriptor
                 number can land on an unrelated fd opened in between. *)
              Mutex.lock peer.mutex;
              (match peer.sock with
              | Some fd' when fd' == fd ->
                close_quiet fd;
                peer.sock <- None
              | _ -> ());
              Mutex.unlock peer.mutex;
              if writes < 2 then send_batch ~dials ~writes:(writes + 1)
              else bump_n t c_dropped n
            end
          | None -> (
            match dial t peer ~backoff:t.backoff_base ~first:!first with
            | None -> bump_n t c_dropped n (* shutdown *)
            | Some fd ->
              first := false;
              peer.sock <- Some fd;
              if dials < 2 then send_batch ~dials:(dials + 1) ~writes:0
              else bump_n t c_dropped n)
      in
      send_batch ~dials:0 ~writes:0;
      loop ()
    end
  in
  loop ()

let create ~self ~listen_port ~peers ~on_frame ?(on_error = fun _ -> ())
    ?(max_queue = 1024) ?(backoff_base = 0.05) ?(backoff_cap = 2.) ?obs () =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  (* A peer SIGKILLed mid-write must surface as EPIPE (handled per write),
     not kill this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_sock Unix.SO_REUSEADDR true;
  Unix.bind listen_sock (loopback listen_port);
  Unix.listen listen_sock 64;
  let make_peer (pid, port) =
    {
      pid;
      port;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      sock = None;
    }
  in
  let peers = List.map make_peer peers in
  let t =
    {
      self;
      listen_sock;
      peers;
      peers_mutex = Mutex.create ();
      on_frame;
      on_error;
      max_queue;
      backoff_base;
      backoff_cap;
      stopping = false;
      counters =
        (let c name = Obs.Registry.counter obs ("transport_" ^ name) in
         [|
           c "frames_sent_total"; c "frames_dropped_total"; c "frames_received_total";
           c "decode_errors_total"; c "reconnects_total";
         |]);
      counters_mutex = Mutex.create ();
    }
  in
  ignore (Thread.create accept_loop t : Thread.t);
  List.iter (fun peer -> ignore (Thread.create (writer_loop t) peer : Thread.t)) peers;
  t

(* Late peer registration: a joiner dialled after creation.  Known pids are
   a no-op (re-announcing an existing peer must not spawn a second writer);
   new ones get the same queue + writer-thread setup as creation-time
   peers.  The list is replaced whole under the mutex, so concurrent
   [send]/[broadcast] reads see either the old or the new membership,
   never a torn list. *)
let add_peer t ~pid ~port =
  Mutex.lock t.peers_mutex;
  if List.exists (fun p -> p.pid = pid) t.peers || t.stopping then
    Mutex.unlock t.peers_mutex
  else begin
    let peer =
      {
        pid;
        port;
        queue = Queue.create ();
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        sock = None;
      }
    in
    t.peers <- t.peers @ [ peer ];
    Mutex.unlock t.peers_mutex;
    ignore (Thread.create (writer_loop t) peer : Thread.t)
  end

let send t ~dst frame =
  match List.find_opt (fun p -> p.pid = dst) t.peers with
  | None -> bump t c_dropped
  | Some peer ->
    Mutex.lock peer.mutex;
    if Queue.length peer.queue >= t.max_queue then bump t c_dropped
    else begin
      Queue.add frame peer.queue;
      Condition.signal peer.nonempty
    end;
    Mutex.unlock peer.mutex

let broadcast t frame = List.iter (fun p -> send t ~dst:p.pid frame) t.peers

let close t =
  t.stopping <- true;
  close_quiet t.listen_sock;
  List.iter
    (fun peer ->
      Mutex.lock peer.mutex;
      (match peer.sock with
      | Some fd ->
        close_quiet fd;
        peer.sock <- None
      | None -> ());
      (* Frames still queued will never be popped by a writer: count them
         dropped here so sent + dropped accounts for every accepted frame
         even across shutdown.  (Frames a writer already popped are its to
         count, exactly once, in its batch path.) *)
      bump_n t c_dropped (Queue.length peer.queue);
      Queue.clear peer.queue;
      Condition.broadcast peer.nonempty;
      Mutex.unlock peer.mutex)
    t.peers
