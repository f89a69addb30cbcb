type route = { dst : int; listen_port : int; target_port : int }

type t = {
  routes : route list;
  plan : Harness.Netmodel.fault_plan;
  rng : Sim.Rng.t;
  rng_mutex : Mutex.t;
  time_scale : float;
  epoch : float;
  listeners : Unix.file_descr list;
  conns : (Unix.file_descr, bool ref) Hashtbl.t; (* fd -> closed? *)
  conns_mutex : Mutex.t;
  forwarded : Obs.Counter.t;
  dropped : Obs.Counter.t;
  duplicated : Obs.Counter.t;
  delayed : Obs.Counter.t;
  severed : Obs.Counter.t;
  counters_mutex : Mutex.t; (* serializes relay-thread bumps *)
  mutable stopping : bool;
}

let bump t c =
  Mutex.lock t.counters_mutex;
  Obs.Counter.incr c;
  Mutex.unlock t.counters_mutex

let draw t f =
  Mutex.lock t.rng_mutex;
  let v = f t.rng in
  Mutex.unlock t.rng_mutex;
  v

(* Each proxied stream is served by two pump threads, and shutdown may
   race both: a tracked descriptor therefore carries a close guard so
   it is closed exactly once no matter who gets there first.  A double
   close is not harmless — between the two closes the kernel can hand
   the same descriptor number to a brand-new connection, and the
   second close then silently destroys that one. *)
let track t fd =
  Mutex.lock t.conns_mutex;
  Hashtbl.replace t.conns fd (ref false);
  Mutex.unlock t.conns_mutex

let close_tracked t fd =
  Mutex.lock t.conns_mutex;
  let do_close =
    match Hashtbl.find_opt t.conns fd with
    | Some closed when not !closed ->
      closed := true;
      true
    | Some _ -> false
    | None -> true (* untracked: the caller is the sole owner *)
  in
  Mutex.unlock t.conns_mutex;
  if do_close then Wire_codec.close_quiet fd

(* Abstract-time clock shared with the fault plan's partition windows. *)
let abstract_now t = (Unix.gettimeofday () -. t.epoch) /. t.time_scale

(* The partition (if any) currently cutting src from dst. *)
let active_partition t ~src ~dst =
  let now = abstract_now t in
  List.find_opt
    (fun (p : Harness.Netmodel.partition) ->
      p.from_ <= now && now < p.until
      && List.mem src p.group <> List.mem dst p.group)
    t.plan.partitions

(* Relay frames client -> server, applying per-frame faults. *)
let pump_frames t ~src ~dst ~client ~server =
  let rec loop () =
    if t.stopping then ()
    else
      match Wire_codec.read_frame client with
      | None | Some (Error _) ->
        close_tracked t client;
        close_tracked t server
      | Some (Ok (_, header, payload)) ->
        (* Forward verbatim; the endpoint's CRC check is the arbiter of
           integrity, the proxy only needs the framing to cut the stream
           into faultable units. *)
        let frame = header ^ payload in
        let forward =
          match active_partition t ~src ~dst with
          | Some { mode = Harness.Netmodel.Drop_packets; _ } ->
            bump t t.dropped;
            false
          | Some ({ mode = Harness.Netmodel.Queue_packets; _ } as p) ->
            (* Hold the frame (and hence the whole stream suffix) until
               the partition heals, then deliver. *)
            let heal = t.epoch +. (p.until *. t.time_scale) in
            let wait = heal -. Unix.gettimeofday () in
            if wait > 0. then Thread.delay wait;
            bump t t.delayed;
            true
          | None ->
            if draw t (fun rng -> Sim.Rng.bernoulli rng ~p:t.plan.loss) then begin
              bump t t.dropped;
              false
            end
            else begin
              (if t.plan.reorder > 0.
               && draw t (fun rng -> Sim.Rng.bernoulli rng ~p:t.plan.reorder)
              then begin
                let d =
                  draw t (fun rng ->
                      Sim.Rng.float rng
                        (Float.max 1e-9 (t.plan.reorder_spread *. t.time_scale)))
                in
                bump t t.delayed;
                Thread.delay d
              end);
              true
            end
        in
        if forward then begin
          let dup =
            t.plan.duplicate > 0.
            && draw t (fun rng -> Sim.Rng.bernoulli rng ~p:t.plan.duplicate)
          in
          if dup then bump t t.duplicated;
          let payload = if dup then frame ^ frame else frame in
          if Wire_codec.write_all server payload then begin
            bump t t.forwarded;
            loop ()
          end
          else begin
            close_tracked t client;
            close_tracked t server
          end
        end
        else loop ()
  in
  loop ()

(* Drain server -> client bytes (the acceptor side of a transport
   connection never writes, but a relay must not wedge if it does). *)
let pump_raw t client server =
  let buf = Bytes.create 4096 in
  let rec loop () =
    match Unix.read server buf 0 4096 with
    | 0 | (exception Unix.Unix_error _) ->
      close_tracked t client;
      close_tracked t server
    | n -> if Wire_codec.write_all client (Bytes.sub_string buf 0 n) then loop ()
  in
  loop ()

let handle_conn t route client =
  track t client;
  match Wire_codec.read_frame client with
  | Some (Ok (kind, header, body)) when kind = Wire_codec.hello_kind && body <> "" -> (
    let frame = header ^ body in
    match Wire_codec.Prim.run Wire_codec.Prim.get_int body with
    | Error _ -> close_tracked t client
    | Ok src -> (
      (* A connection attempted across an active dropping partition is
         severed at the hello; the dialer's backoff keeps retrying until
         the window closes. *)
      match active_partition t ~src ~dst:route.dst with
      | Some { mode = Harness.Netmodel.Drop_packets; _ } ->
        bump t t.severed;
        close_tracked t client
      | _ -> (
        let server = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_close_on_exec server;
        match
          Unix.connect server
            (Unix.ADDR_INET (Unix.inet_addr_loopback, route.target_port));
          Unix.setsockopt server Unix.TCP_NODELAY true
        with
        | () ->
          track t server;
          if Wire_codec.write_all server frame then begin
            ignore (Thread.create (fun () -> pump_raw t client server) () : Thread.t);
            pump_frames t ~src ~dst:route.dst ~client ~server
          end
          else begin
            close_tracked t client;
            close_tracked t server
          end
        | exception Unix.Unix_error _ ->
          Wire_codec.close_quiet server;
          close_tracked t client)))
  | _ -> close_tracked t client (* not a transport stream: refuse *)

let accept_loop t route listener =
  let rec loop () =
    match Unix.accept listener with
    | fd, _ ->
      (* The proxy lives in the driver process, which forks daemon
         respawns: none of its sockets may leak into those children (a
         leaked duplicate would keep a "severed" connection half-open). *)
      Unix.set_close_on_exec fd;
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      ignore (Thread.create (fun () -> handle_conn t route fd) () : Thread.t);
      loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ()

let start ~routes ?(plan = Harness.Netmodel.benign) ?(seed = 0)
    ?(time_scale = Recovery.Config.default_time_scale) ~obs () =
  let c name = Obs.Registry.counter obs ("proxy_" ^ name ^ "_total") in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let routes =
    List.map
      (fun (dst, listen_port, target_port) -> { dst; listen_port; target_port })
      routes
  in
  let listeners =
    List.map
      (fun r ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_close_on_exec fd;
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, r.listen_port));
        Unix.listen fd 64;
        fd)
      routes
  in
  let t =
    {
      routes;
      plan;
      rng = Sim.Rng.create seed;
      rng_mutex = Mutex.create ();
      time_scale;
      epoch = Unix.gettimeofday ();
      listeners;
      conns = Hashtbl.create 64;
      conns_mutex = Mutex.create ();
      forwarded = c "forwarded";
      dropped = c "dropped";
      duplicated = c "duplicated";
      delayed = c "delayed";
      severed = c "severed";
      counters_mutex = Mutex.create ();
      stopping = false;
    }
  in
  List.iter2
    (fun route listener ->
      ignore (Thread.create (fun () -> accept_loop t route listener) () : Thread.t))
    t.routes listeners;
  t

let close t =
  Mutex.lock t.conns_mutex;
  let first = not t.stopping in
  t.stopping <- true;
  let pending =
    if not first then []
    else
      Hashtbl.fold
        (fun fd closed acc ->
          if !closed then acc
          else begin
            closed := true;
            fd :: acc
          end)
        t.conns []
  in
  Mutex.unlock t.conns_mutex;
  (* Second call is a no-op: listeners and streams close exactly once. *)
  if first then begin
    List.iter Wire_codec.close_quiet t.listeners;
    List.iter Wire_codec.close_quiet pending
  end
