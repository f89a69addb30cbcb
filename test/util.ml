(* Shared test helpers: testables, generators, and a hand-driving harness
   for exercising a Node without the full cluster. *)

open Depend

let entry = Alcotest.testable Entry.pp Entry.equal

let entry_set = Alcotest.testable Entry_set.pp Entry_set.equal

let dep_vector = Alcotest.testable Dep_vector.pp Dep_vector.equal

let e ~inc ~sii = Entry.make ~inc ~sii

(* A node protocol counter read back from the node's registry, the way a
   scrape sees it: [metric nd "deliveries"] is [deliveries_total]. *)
let metric nd name =
  Obs.Snapshot.counter (Obs.Registry.snapshot (Recovery.Node.obs nd)) (name ^ "_total")

(* QCheck generators *)

let gen_entry =
  QCheck2.Gen.(
    map2 (fun inc sii -> Entry.make ~inc ~sii) (int_bound 5) (int_range 1 40))

let gen_entry_list = QCheck2.Gen.(list_size (int_bound 12) gen_entry)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* A minimal driver that feeds packets to a single node and records its
   outgoing actions, without network, timers or time costs.  Tests drive
   protocol routines one call at a time and inspect the node in between. *)
module Driver = struct
  module Node = Recovery.Node
  module Wire = Recovery.Wire

  type ('s, 'm) t = {
    node : ('s, 'm) Node.t;
    trace : Recovery.Trace.t;
    mutable outbox : 'm Node.action list; (* newest first *)
    mutable clock : float;
  }

  let make ?(pid = 0) ?store_dir config app =
    let trace = Recovery.Trace.create () in
    let node = Node.create ~config ~pid ~app ?store_dir ?obs:None ~trace in
    { node; trace; outbox = []; clock = 0. }

  let absorb t (actions, _cost) = t.outbox <- List.rev_append actions t.outbox

  let tick t =
    t.clock <- t.clock +. 1.;
    t.clock

  let packet t p = absorb t (Node.handle_packet t.node ~now:(tick t) p)

  let inject t ~seq msg = absorb t (Node.inject t.node ~now:(tick t) ~seq msg)

  let flush t = absorb t (Node.flush t.node ~now:(tick t))

  let checkpoint t = absorb t (Node.checkpoint t.node ~now:(tick t))

  let notice t = absorb t (Node.broadcast_notice t.node ~now:(tick t))

  let crash t = Node.crash t.node ~now:(tick t)

  let restart t = absorb t (Node.restart t.node ~now:(tick t))

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
  let app_msg ?(idx = 0) ~src ~dst ~send_interval ~dep payload =
    {
      Wire.id = { Wire.origin = src; origin_interval = send_interval; idx };
      src;
      dst;
      send_interval;
      dep;
      payload;
    }

  let ann ~from_ ~ending ?(failure = true) () = { Wire.from_; ending; failure }

  let notice_packet ~from_ ~rows = Wire.Notice { Wire.from_; rows; anns = [] }
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
