(* Sender-side retransmission archive (footnote 3's "senders' volatile
   logs").

   Semantically an ordered set of released application messages keyed by
   {!Wire.identity}.  Acks and announcements remove entries by identity or
   by predicate on every ack/announcement received, so membership
   operations must be O(1) — a plain list made each of those a full scan
   and the whole run O(n^2) in the number of released messages.  Entries
   carry a monotone insertion sequence number so retransmission still
   walks the archive in exactly release order (the order matters: it is
   the order retransmitted packets hit the network model). *)

type 'msg item = {
  seq : int;
  msg : 'msg Wire.app_message;
  mutable due : int; (* tick count at which the next re-send is allowed *)
  mutable gap : int; (* current backoff, in ticks; quadruples per re-send *)
}

(* Cap the per-message backoff so a stuck message is still retried within
   a bounded number of ticks — retransmission must stay {e eventual} for
   the lossy-network delivery argument.  A message is first re-sent at the
   second tick after its release, so its ack always has at least one full
   period to return: a message released just before a tick is not yet
   overdue at that tick (under a burst, acks are one or two batches away,
   and re-sending at the next tick sent most messages twice).  The gap grows
   4x per re-send (schedule 2, 3, 7, 23, 87, 151, ... ticks after the
   release's tick): under a benign burst the receiver's ack can take a
   second or more to fight back through the backlog, and a doubling
   schedule still re-sent every message ~6 times in that window — over 80%%
   of all received traffic was duplicates. *)
let max_gap = 64

type 'msg t = {
  tbl : (Wire.identity, 'msg item) Hashtbl.t;
  mutable next_seq : int;
  mutable ticks : int;
}

let create () = { tbl = Hashtbl.create 64; next_seq = 0; ticks = 0 }

let length t = Hashtbl.length t.tbl

let mem t id = Hashtbl.mem t.tbl id

let add t (msg : 'msg Wire.app_message) =
  Hashtbl.replace t.tbl msg.Wire.id
    { seq = t.next_seq; msg; due = t.ticks + 2; gap = 1 };
  t.next_seq <- t.next_seq + 1

let remove t id = Hashtbl.remove t.tbl id

let remove_if t pred =
  Hashtbl.filter_map_inplace
    (fun _ item -> if pred item.msg then None else Some item)
    t.tbl

let items t = Hashtbl.fold (fun _ item acc -> item :: acc) t.tbl []

(* Release order: the order retransmissions go out in. *)
let oldest_first t =
  List.sort (fun a b -> Stdlib.compare a.seq b.seq) (items t)
  |> List.map (fun item -> item.msg)

(* Reverse release order: the shape the checkpointed snapshot has always
   had (the archive used to be a newest-first list), preserved so restart
   rebuilds retransmit in the historical order. *)
let newest_first t =
  List.sort (fun a b -> Stdlib.compare b.seq a.seq) (items t)
  |> List.map (fun item -> item.msg)

let iter_oldest t f = List.iter f (oldest_first t)

let due_oldest t f =
  t.ticks <- t.ticks + 1;
  List.sort (fun a b -> Stdlib.compare a.seq b.seq) (items t)
  |> List.iter (fun item ->
         if t.ticks >= item.due then begin
           item.due <- t.ticks + item.gap;
           item.gap <- Stdlib.min (item.gap * 4) max_gap;
           f item.msg
         end)
