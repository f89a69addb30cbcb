(** Wire formats of the recovery layer.

    Three kinds of traffic cross the network (Section 2's "major
    components"): application messages carrying piggybacked dependency
    vectors, rollback/failure announcements, and logging progress
    notifications.  We add two pieces of supporting traffic that the paper
    leaves to its references: stability acknowledgements (so senders can
    garbage-collect their retransmission archives — the "senders' volatile
    logs" of footnote 3) and flush requests (output-driven logging,
    reference [6]). *)

open Depend

(** Deterministic message identity.

    [origin_interval] is the state interval the send was performed in and
    [idx] the rank of the send within that interval.  Because execution
    within an interval is deterministic, a replayed send reproduces the same
    identity, which is what makes receiver-side duplicate suppression
    sound.  [origin = App_model.App_intf.outside_world] marks injected
    client messages; their [origin_interval] carries a unique injection
    sequence number instead. *)
type identity = { origin : int; origin_interval : Entry.t; idx : int }

(** An application message as released on the wire. *)
type 'msg app_message = {
  id : identity;
  src : int;
  dst : int;
  send_interval : Entry.t;  (** sender's state interval at send time *)
  dep : (int * Entry.t) list;
      (** non-NULL dependency entries frozen at release time *)
  payload : 'msg;
  epoch : int;
      (** dedup metadata: the incarnation the sender last restarted as (0
          if it never crashed); the outside world always uses 0.  With
          [origin] it names the message's channel. *)
  cseq : int;
      (** dedup metadata: the message's dense position among everything
          released on its channel to [dst] — stamped at release, kept by
          the retransmission archive, reused by client retries; [-1] when
          unnumbered ({!no_cseq}).  The protocol needs no FIFO: numbers
          only let a receiver fold committed deliveries into runs
          (PROTOCOL.md, "Bounded duplicate suppression"). *)
}

let no_cseq = -1

(** A rollback announcement (Figure 1's dotted [r] lines).

    [ending] is "the ending index number of the failed incarnation":
    intervals [(s, y)] of [from_] with [s <= ending.inc] and
    [y > ending.sii] are rolled back.  [failure] distinguishes genuine
    failure announcements from the induced-rollback announcements that only
    the Strom–Yemini preset broadcasts (Theorem 1 makes the latter
    unnecessary). *)
type announcement = { from_ : int; ending : Entry.t; failure : bool }

(** A logging progress notification: for each process, the per-incarnation
    stability frontier the sender knows.  With gossiping disabled the list
    has a single row — the sender's own.  [anns] is empty unless
    announcement gossip is enabled ({!Config.protocol.gossip_announcements}),
    in which case it carries every failure announcement the sender has
    absorbed, as anti-entropy against announcement loss. *)
type notice = {
  from_ : int;
  rows : (int * Entry.t list) list;
  anns : announcement list;
  floor : Entry.t;
      (** [(e, x)]: the sender's epoch [e] (the incarnation it last
          restarted as) and its replay floor [x], the least index named by
          its anchor checkpoint, the newer checkpoints, and the sends,
          outputs and unacked releases they saved; 0 before it knows one.
          Every message it created at an incarnation of at least [e] with
          an [origin_interval] index below [x] has been released under one
          channel number only, and acked: its destination logged it.  This
          life never releases it again.  A later one does only if storage
          damage dropped the anchor checkpoint; the copy then carries a
          newer epoch than its origin incarnation, and its destination
          drops it by this floor. *)
}

let notice_entry_count n =
  List.fold_left (fun acc (_, es) -> acc + List.length es) 0 n.rows
  + List.length n.anns

(** Stability acknowledgement: the listed deliveries from [to_] have become
    stable at [from_], so [to_] may drop them from its retransmission
    archive. *)
type ack = { from_ : int; to_ : int; ids : identity list }

(** Answer to a dependency query about one state interval of the
    receiver (direct-tracking assembly). *)
type dep_info =
  | Info of { stable : bool; parents : (int * Entry.t) list }
      (** the interval exists; whether it is stable yet, and its direct
          parents (chain predecessor plus the sending interval, if any) *)
  | Gone  (** the interval was rolled back (or never existed) *)

(** Everything a node can put on the network. *)
type 'msg packet =
  | App of 'msg app_message
  | Ann of announcement
  | Notice of notice
  | Ack of ack
  | Flush_request of { from_ : int }
      (** output-driven logging: asks the receiver to flush and notify *)
  | Dep_query of { from_ : int; intervals : Entry.t list }
      (** direct-tracking assembly: asks the receiver about its own
          intervals *)
  | Dep_reply of { from_ : int; infos : (Entry.t * dep_info) list }
  | Join of { from_ : int; n : int; current : Entry.t }
      (** membership join handshake: [from_] (a pid at or beyond the
          receiver's current width) announces itself; [n] is the joiner's
          own view of the cluster width (at least [from_ + 1]) and
          [current] its current state interval.  Receivers grow their
          vectors and tables to width [n] (Corollary 3 makes the widening
          verdict-preserving: a process nobody has depended on contributes
          only NULL entries) and adopt [current] as stable — a joiner's
          pre-join intervals are recovered or initial, hence logged. *)
  | Retire of { from_ : int; upto : Entry.t }
      (** membership retirement: [from_] leaves for good after flushing, so
          every interval up to and including [upto] is stable.  Receivers
          record the frontier and elide the retiree's entries (Theorem 2),
          so its vector slot drains to NULL and no send ever blocks on a
          process that is gone. *)

let packet_kind = function
  | App _ -> "app"
  | Ann _ -> "ann"
  | Notice _ -> "notice"
  | Ack _ -> "ack"
  | Flush_request _ -> "flush-req"
  | Dep_query _ -> "dep-query"
  | Dep_reply _ -> "dep-reply"
  | Join _ -> "join"
  | Retire _ -> "retire"

(** Identity of an output sent to the outside world. *)
type output_id = { out_interval : Entry.t; out_idx : int }

(** Collected deliveries as duplicate suppression needs them.  Most fold
    into runs of channel numbers; the rest keep their identity. *)
type stubs = {
  gs_runs : (int * int * (int * int) list) list;
      (** [(origin, epoch, runs)]: the channel numbers of collected
          deliveries, as maximal runs [(lo, hi)] *)
  gs_exact : (identity * int * int) list;
      (** [(id, epoch, cseq)]: collected deliveries not folded when
          collected — a copy may still arrive under another channel number,
          or they carry none *)
  gs_floors : (int * Entry.t) list;
      (** [(pid, floor)]: every floor (see {!notice}) the writer knew when
          it collected, its own included *)
}

(** Records written synchronously to stable storage.  Figure 3 logs received
    announcements and its own announcement synchronously; we additionally
    persist incarnation bumps (so numbers are never reused after a crash
    that follows a rollback) and committed outputs (so replay never repeats
    an external action). *)
type sync_record =
  | Ann_logged of announcement
  | Marker of { entry : Entry.t; log_pos : int }
      (** incarnation bump: after replaying [log_pos] stable records, the
          process continued as interval [entry] *)
  | Committed of output_id
  | Gc_stubs of stubs
      (** the deliveries whose log records this garbage collection
          discarded, in compact form, so duplicate suppression survives GC
          and crashes; restart takes the union of every record *)

let identity_packing =
  {
    Id_pack.pack = (fun id -> Id_pack.message ~origin:id.origin id.origin_interval ~idx:id.idx);
    unpack =
      (fun k ->
        {
          origin = Id_pack.message_origin k;
          origin_interval = Id_pack.message_interval k;
          idx = Id_pack.message_idx k;
        });
  }

let output_packing =
  {
    Id_pack.pack = (fun oid -> Id_pack.output oid.out_interval ~idx:oid.out_idx);
    unpack =
      (fun k -> { out_interval = Id_pack.output_interval k; out_idx = Id_pack.output_idx k });
  }

let unit_packing = { Id_pack.pack = (fun () -> 0); unpack = (fun _ -> ()) }

let position_packing =
  {
    Id_pack.pack = (fun (epoch, cseq) -> Id_pack.pair epoch cseq);
    unpack = (fun k -> (Id_pack.pair_fst k, Id_pack.pair_snd k));
  }
