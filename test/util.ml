(* Shared test helpers: testables, generators, and a hand-driving harness
   for exercising a Node without the full cluster. *)

open Depend

let entry = Alcotest.testable Depend.Pp.entry Entry.equal

let entry_set = Alcotest.testable Depend.Pp.entry_set Entry_set.equal

let dep_vector = Alcotest.testable Depend.Pp.dep_vector Dep_vector.equal

let e ~inc ~sii = Entry.make ~inc ~sii

(* A node protocol counter read back from the node's registry, the way a
   scrape sees it: [metric nd "deliveries"] is [deliveries_total]. *)
let metric nd name =
  Obs.Snapshot.counter (Obs.Registry.snapshot (Recovery.Node.obs nd)) (name ^ "_total")

(* A run-wide counter from a cluster's merged stats snapshot:
   [total s "restarts"] is [restarts_total]. *)
let total (s : Harness.Cluster.stats) name = Obs.Snapshot.counter s.obs (name ^ "_total")

(* Outputs committed to the outside world, oldest first, with their
   commit times: the trace's [Output_committed] events, of [pid] only when
   given. *)
let committed_outputs ?pid trace =
  List.filter_map
    (fun { Recovery.Trace.time; ev; _ } ->
      match ev with
      | Recovery.Trace.Output_committed { pid = p; text; _ }
        when Option.fold ~none:true ~some:(Int.equal p) pid ->
        Some (text, time)
      | _ -> None)
    (Recovery.Trace.events trace)

(* QCheck generators *)

let gen_entry =
  QCheck2.Gen.(
    map2 (fun inc sii -> Entry.make ~inc ~sii) (int_bound 5) (int_range 1 40))

let gen_entry_list = QCheck2.Gen.(list_size (int_bound 12) gen_entry)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Frames *)

(* [f size input] over the bytes of [s], as [Fs.t.read_with] gives a
   file's: a file's decoder fed a string. *)
let of_string f s =
  let at = ref 0 in
  f (String.length s) (fun b pos len ->
      let n = Int.min len (String.length s - !at) in
      Bytes.blit_string s !at b pos n;
      at := !at + n;
      n)

(* Every frame of [s], [(kind, payload)] oldest first, read whole through
   the one frame reader as a file of [String.length s] bytes, with the
   valid prefix's length and the tail. *)
let frames_of s =
  let got, valid, tail =
    of_string
      (fun size input ->
        Durable.Codec.frames ~size input ~init:[] ~f:(fun acc ~pos:_ ~kind b ~off ~len ->
            (kind, Bytes.sub_string b off len) :: acc))
      s
  in
  (List.rev got, valid, tail)

(* A minimal driver that feeds packets to a single node and records its
   outgoing actions, without network, timers or time costs.  Tests drive
   protocol routines one call at a time and inspect the node in between.
   The driver owns the node's store (an in-memory tree, or [store_dir] on
   real files) and its registry, so a [halt] followed by [restart] is a
   process death and a fresh node over what it left behind, as in a
   daemon. *)
module Driver = struct
  module Node = Recovery.Node
  module Wire = Recovery.Wire

  type ('s, 'm) t = {
    mutable node : ('s, 'm) Node.t;
    respawn : unit -> ('s, 'm) Node.t; (* a new node over the same store *)
    trace : Recovery.Trace.t;
    mutable outbox : 'm Node.action list; (* newest first *)
    mutable clock : float;
  }

  let make ?(pid = 0) ?store_dir config app =
    let trace = Recovery.Trace.create () in
    let fs, store_dir =
      match store_dir with
      | Some dir -> (Durable.Fs.unix, dir)
      | None -> (Durable.Fs.mem (), "store")
    in
    let obs = Obs.Registry.create () in
    let respawn () = Node.create_on ~fs ~config ~pid ~app ~store_dir ~obs ~trace in
    { node = respawn (); respawn; trace; outbox = []; clock = 0. }

  let absorb t (actions, _cost) = t.outbox <- List.rev_append actions t.outbox

  let tick t =
    t.clock <- t.clock +. 1.;
    t.clock

  let packet t p = absorb t (Node.handle_packet t.node ~now:(tick t) p)

  let inject ?cseq t ~seq msg = absorb t (Node.inject t.node ~now:(tick t) ~seq ?cseq msg)

  let flush t = absorb t (Node.flush t.node ~now:(tick t))

  let checkpoint t = absorb t (Node.checkpoint t.node ~now:(tick t))

  let notice t = absorb t (Node.broadcast_notice t.node ~now:(tick t))

  let halt t = Node.halt t.node ~now:(tick t)

  (* A fresh node over the store, then Figure 3's Restart.  [restart_begin]
     leaves a partitioned application's deferred replay for the test to
     pump; [restart] drains it at once, as a daemon does at quit.  The old
     node is halted first; that does nothing to one already dead. *)
  let respawn_at ?now t =
    let now = match now with Some now -> now | None -> tick t in
    Node.halt t.node ~now;
    t.node <- t.respawn ();
    absorb t (Node.restart_begin t.node ~now);
    now

  let restart_begin ?now t = ignore (respawn_at ?now t : float)

  let restart ?now t =
    let now = respawn_at ?now t in
    while Node.recovery_active t.node do
      let _, actions, cost = Node.replay_step t.node ~now ~budget:max_int () in
      absorb t (actions, cost)
    done

  let perform t effects = absorb t (Node.perform t.node ~now:(tick t) effects)

  let actions t = List.rev t.outbox

  let clear t = t.outbox <- []

  (* Outgoing released application messages, oldest first. *)
  let released t =
    List.filter_map
      (function
        | Node.Unicast { packet = Wire.App m; _ } -> Some m
        | Node.Unicast _ | Node.Broadcast _ -> None)
      (actions t)

  let announcements t =
    List.filter_map
      (function
        | Node.Broadcast (Wire.Ann a) -> Some a
        | Node.Unicast _ | Node.Broadcast _ -> None)
      (actions t)

  (* Build an incoming application message by hand. *)
  let app_msg ?(idx = 0) ?(cseq = Wire.no_cseq) ~src ~dst ~send_interval ~dep payload =
    {
      Wire.id = { Wire.origin = src; origin_interval = send_interval; idx };
      src;
      dst;
      send_interval;
      dep;
      payload;
      epoch = 0;
      cseq;
    }

  let ann ~from_ ~ending ?(failure = true) () = { Wire.from_; ending; failure }

  let notice_packet ~from_ ~rows =
    Wire.Notice { Wire.from_; rows; anns = []; floor = Depend.Entry.make ~inc:0 ~sii:0 }
end

let counter_config ?(k = 2) ?(n = 4) () =
  Recovery.Config.k_optimistic ~n ~k ()

let quiet_timing =
  {
    Recovery.Config.default_timing with
    flush_interval = None;
    checkpoint_interval = None;
    notice_interval = None;
  }
