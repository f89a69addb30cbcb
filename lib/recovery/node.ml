open Depend
module App_intf = App_model.App_intf

type 'msg action =
  | Unicast of { dst : int; packet : 'msg Wire.packet }
  | Broadcast of 'msg Wire.packet

type cost = {
  deliveries : int;
  replays : int;
  sync_writes : int;
  checkpoints : int;
}

(* Protocol metrics, one registry group (see Node.obs): the paper's two
   axes, failure-free overhead (blocked sends, piggyback size, output
   latency) and recovery cost (rollbacks, undone intervals, replay).
   Instantiating the group is a handful of allocations — the model
   checker creates nodes by the million — and get-or-create, so a node
   re-created over its predecessor's registry keeps counting. *)
type meters = {
  deliveries : Obs.Counter.t;  (* application messages delivered live *)
  sends : Obs.Counter.t;  (* logical sends performed by the application *)
  releases : Obs.Counter.t;  (* messages actually released to the network *)
  orphans_discarded : Obs.Counter.t;
  duplicates_dropped : Obs.Counter.t;
  cancelled_sends : Obs.Counter.t;  (* unreleased sends dropped at rollback *)
  induced_rollbacks : Obs.Counter.t;  (* rollbacks of non-failed processes *)
  restarts : Obs.Counter.t;  (* recoveries from actual crashes *)
  undone_intervals : Obs.Counter.t;  (* state intervals rolled back *)
  lost_intervals : Obs.Counter.t;  (* intervals irrecoverably lost to crashes *)
  replayed : Obs.Counter.t;  (* logged deliveries re-executed during recovery *)
  outputs_committed : Obs.Counter.t;
  notices : Obs.Counter.t;
  notice_entries : Obs.Counter.t;
  announcements_sent : Obs.Counter.t;
  acks_sent : Obs.Counter.t;
  retransmissions : Obs.Counter.t;
  gc_records : Obs.Counter.t;  (* stable-log records reclaimed by GC *)
  dep_queries : Obs.Counter.t;  (* direct-tracking assembly queries sent *)
  part_ckpt_dropped : Obs.Counter.t;  (* partition snapshots the app refused *)
  blocked_time : Obs.Histogram.t;  (* per release: time held in the send buffer *)
  release_dep_entries : Obs.Histogram.t;  (* piggybacked entries per release *)
  wire_vector_size : Obs.Histogram.t;  (* entries, or N for fixed-size vectors *)
  delivery_delay : Obs.Histogram.t;  (* per live delivery: receive-buffer wait *)
  output_latency : Obs.Histogram.t;  (* buffer-to-commit delay per output *)
  recovery_active : Obs.Gauge.t;
  recovery_replay_pending : Obs.Gauge.t;
  recovery_partitions_total : Obs.Gauge.t;
  recovery_partitions_recovered : Obs.Gauge.t;
}

let meters_group =
  Obs.Group.make (fun cells ->
      let c = Obs.Group.counter cells in
      let h = Obs.Group.histogram cells in
      let g = Obs.Group.gauge cells in
      {
        deliveries = c "deliveries_total";
        sends = c "sends_total";
        releases = c "releases_total";
        orphans_discarded = c "orphans_discarded_total";
        duplicates_dropped = c "duplicates_dropped_total";
        cancelled_sends = c "cancelled_sends_total";
        induced_rollbacks = c "induced_rollbacks_total";
        restarts = c "restarts_total";
        undone_intervals = c "undone_intervals_total";
        lost_intervals = c "lost_intervals_total";
        replayed = c "replayed_total";
        outputs_committed = c "outputs_committed_total";
        notices = c "notices_total";
        notice_entries = c "notice_entries_total";
        announcements_sent = c "announcements_sent_total";
        acks_sent = c "acks_sent_total";
        retransmissions = c "retransmissions_total";
        gc_records = c "gc_records_total";
        dep_queries = c "dep_queries_total";
        part_ckpt_dropped = c "part_ckpt_dropped_total";
        blocked_time = h "blocked_time";
        release_dep_entries = h "release_dep_entries";
        wire_vector_size = h "wire_vector_size";
        delivery_delay = h "delivery_delay";
        output_latency = h "output_latency";
        recovery_active = g "recovery_active";
        recovery_replay_pending = g "recovery_replay_pending";
        recovery_partitions_total = g "recovery_partitions_total";
        recovery_partitions_recovered = g "recovery_partitions_recovered";
      })

(* A buffered, not-yet-released send (Figure 2's Send_buffer entry).  Its
   vector snapshot is mutated in place as stability news arrives. *)
type 'msg pending_send = {
  ps_id : Wire.identity;
  ps_dst : int;
  ps_interval : Entry.t;
  ps_tdv : Dep_vector.t;
  ps_payload : 'msg;
  ps_enqueued : float;
  ps_k : int;
}

type pending_output = {
  po_id : Wire.output_id;
  po_text : string;
  po_tdv : Dep_vector.t;
  po_buffered : float;
}

(* Stable-log records.  A [Delivery] is an incoming message together with
   the state interval its delivery started: replay re-executes the
   application on it and must land on exactly that interval.  A [Requeued]
   record persists a non-orphan message that a rollback truncated out of
   the delivery log and put back into the receive buffer ("add non-orphans
   to Receive buffer", Figure 3): without it, a crash between the rollback
   and the re-delivery would lose the message with no retransmission
   source left (the sender may have garbage-collected it after the
   original delivery became stable). *)
type 'msg logged =
  | Delivery of {
      lg_msg : 'msg Wire.app_message;
      lg_interval : Entry.t;
      lg_window : bool;
          (* delivered inside a recovery window, i.e. while partitioned
             replay of an earlier crash was still in progress.  The live
             digest of such an interval covers a partially-recovered state,
             so a later recovery must not re-certify it (the frontier
             digest event is suppressed when the frontier record is
             window-marked). *)
    }
  | Requeued of 'msg Wire.app_message

(* Immutable snapshots of buffered-but-unreleased sends and outputs.  They
   are part of the process state a checkpoint must capture: a send still
   held back by the K rule when the checkpoint is taken belongs to an
   interval the post-crash replay will never re-execute (replay starts at
   the checkpoint), so without these snapshots a crash would silently drop
   it. *)
type 'msg saved_send = {
  sv_id : Wire.identity;
  sv_dst : int;
  sv_interval : Entry.t;
  sv_dep : (int * Entry.t) list;
  sv_payload : 'msg;
  sv_enqueued : float;
  sv_k : int;
}

type saved_output = {
  so_id : Wire.output_id;
  so_text : string;
  so_dep : (int * Entry.t) list;
  so_buffered : float;
}

(* A partition checkpoint: the app's slice of one partition, and the
   pending sends, outputs and archive that replaying the records it
   covers would otherwise regenerate. *)
type 'msg part_snapshot =
  string * 'msg saved_send list * saved_output list * 'msg Wire.app_message list

(* Direct-tracking commit assembly: the transitive closure of one pending
   output, grown by querying each member interval's owner for its direct
   parents, and committed once every member is known stable. *)
type member_state = {
  mutable m_stable : bool;
  mutable m_expanded : bool;
  mutable m_queried : bool;
      (* a query about this member is in flight; cleared once per
         notice period so reply traffic stays bounded *)
}

type assembly = { members : (int * Entry.t, member_state) Hashtbl.t }

(* A delivery whose interval may still be rolled back: its identity, the
   interval it started and its channel position. *)
type delivery = { dl_interval : Entry.t; dl_epoch : int; dl_cseq : int }

type ('state, 'msg) ckpt = {
  ck_current : Entry.t;
  ck_tdv : (int * Entry.t) list;
  ck_state : 'state;
  ck_log_pos : int;
  ck_sends : 'msg saved_send list;
  ck_outs : saved_output list;
  ck_archive : 'msg Wire.app_message list;
      (* released-message archive at checkpoint time.  Replay only
         regenerates sends from intervals at or after the checkpoint; for
         anything released earlier the archive is the only copy a
         restarted sender can retransmit (footnote 3's "senders' volatile
         logs" must survive the sender's own crash once the send interval
         is absorbed into a checkpoint). *)
  ck_stubs : Wire.stubs;
      (* the committed duplicate-suppression state at save time, in the
         form Gc_stubs persists: channel runs, held identities, floors *)
  ck_open : (Wire.identity * delivery) list;
      (* the deliveries not yet known committed at save time.  With
         [ck_stubs] they stand for every delivery before [ck_log_pos], so
         a restart reads the log from there only *)
}

(* --- Duplicate suppression ----------------------------------------- *)

(* One of the process's own checkpoints from the anchor on: its interval,
   its dependency vector and the least interval index anything it saved
   (itself, its pending sends and outputs) names.  Once the vector is all
   stable the checkpoint can never be rolled past, so every delivery up to
   its interval is committed. *)
type commit_point = {
  cp_interval : Entry.t;
  cp_dep : (int * Entry.t) list;
  cp_floor : int;
}

(* --- Partitioned (fast) recovery ----------------------------------- *)

(* One logged delivery awaiting partitioned replay.  The deferred
   restart's log walk takes each record's interval step {e without}
   running the application, so it can pre-compute per-record context: the
   interval the replay must land on and the dependency-vector snapshot the
   record's regenerated effects must carry.  Replaying records of different
   partitions in any order then yields the serial result, because
   cross-partition handlers commute (the {!App_intf.partitioning}
   contract). *)
type 'msg replay_item = {
  ri_msg : 'msg Wire.app_message;
  ri_interval : Entry.t;
  ri_tdv : Dep_vector.t; (* vector after this delivery, from the log walk *)
  ri_window : bool; (* the record's [lg_window] flag *)
  ri_covered : bool;
      (* a per-partition checkpoint already covers this record: count it
         done without re-executing the handler *)
}

(* A barrier-separated stage: the per-partition queues replay in any
   order/interleaving; the trailing barrier (a record touching state
   outside any single partition) runs only once every queue has drained,
   preserving its exact log position relative to both sides. *)
type 'msg replay_stage = {
  rs_queues : 'msg replay_item Queue.t array; (* one queue per partition *)
  rs_barrier : 'msg replay_item option;
}

type 'msg recovery = {
  rc_parts : int;
  mutable rc_stages : 'msg replay_stage list; (* head = current stage *)
  rc_part_pending : int array; (* items left per partition, all stages *)
  mutable rc_barriers_pending : int;
  mutable rc_replayed : int; (* records actually re-executed *)
  rc_frontier : 'msg replay_item option;
      (* last delivery record in the log; its interval is certified
         against the live digest once replay completes (unless
         window-marked) *)
  mutable rc_next : int; (* round-robin cursor over partitions *)
  mutable rc_live_delivered : bool;
      (* a fresh (non-replay) message was delivered during the recovery
         window: the state at completion is past the frontier, so the
         frontier digest certification must be skipped *)
}

type ('state, 'msg) t = {
  cfg : Config.t;
  pid : int;
  mutable n : int;
      (* protocol membership width: how many processes the dependency
         vector and per-process tables cover.  Grows (never shrinks) on any
         evidence of a wider cluster — a Join handshake, a piggybacked
         dependency, an announcement or notice row from an unknown pid, or
         sync-area records from a previous, wider incarnation.  Corollary 3
         makes the widening verdict-preserving: a process nobody has yet
         depended on contributes only NULL entries. *)
  app_n : int;
      (* the width the application was initialised with, frozen at
         [create].  All application calls ([handle], [part_of_msg]) use
         this, not [n]: apps route by [~n] (e.g. [owner ~n key]), so the
         value must be identical between a delivery and its post-crash
         replay — and membership can change between the two. *)
  app : ('state, 'msg) App_intf.t;
  trace : Trace.t;
  obs : Obs.Registry.t;
  meters : meters;
  store :
    ( ('state, 'msg) ckpt,
      'msg logged,
      Wire.sync_record,
      'msg part_snapshot )
    Durable.Durable_store.t;
  (* --- volatile protocol state (lost at crash) --- *)
  mutable up : bool;
  mutable current : Entry.t;
  mutable tdv : Dep_vector.t;
  mutable state : 'state;
  mutable log_tab : Entry_set.t array; (* log[j]: stability knowledge *)
  mutable log_gen : int;
      (* moves whenever [log_tab] grows ([note_stable]); the buffers below
         re-examine an entry they found waiting only after it moves *)
  mutable iet : Entry_set.t array; (* incarnation end tables *)
  mutable max_ann_inc : int array; (* highest announced incarnation, or -1 *)
  mutable recv_buf : (float * 'msg Wire.app_message) list;
      (* (arrival time, message), oldest first *)
  send_buf : 'msg pending_send Backlog.t;
  out_buf : pending_output Backlog.t;
  mutable delivered : (Wire.identity, delivery) Hashtbl.t;
      (* deliveries not yet known committed; see [fold_committed] *)
  held : (Wire.identity, int * int) Id_pack.t;
      (* committed deliveries that cannot fold yet, with their channel
         position: another copy may still arrive under another number *)
  chans : (int * int, Seq_set.t) Hashtbl.t;
      (* (origin, epoch) -> channel numbers of folded committed deliveries *)
  floors : (int, Entry.t list) Hashtbl.t;
      (* pid -> the highest floor it advertised in each epoch, newest first *)
  mutable floor : int;
      (* own replay floor: every send created below it was released and
         acked, every output committed; see Wire.notice *)
  mutable ckpts : commit_point list;
      (* own checkpoints from the anchor on, newest first *)
  mutable folded_sii : int; (* interval index of the anchor last folded *)
  mutable epoch : int; (* channel epoch of this process's releases *)
  chan_next : (int, int) Hashtbl.t; (* dst -> next channel number *)
  direct_parents : (Entry.t, (int * Entry.t) list) Hashtbl.t;
      (* direct tracking only (empty otherwise): each local interval's
         chain predecessor and, for delivery-started intervals, the sending
         interval.  Rebuilt by replay; pruned with the chain on rollback. *)
  assemblies : (Wire.output_id, assembly) Hashtbl.t;
      (* direct tracking: one transitive-closure assembly per pending
         output *)
  released_ids : (Wire.identity, unit) Id_pack.t;
  buffered_send_ids : (Wire.identity, unit) Hashtbl.t;
  buffered_out_ids : (Wire.output_id, unit) Hashtbl.t;
  committed_ids : (Wire.output_id, unit) Id_pack.t; (* cache of stable records *)
  archive : 'msg Archive.t; (* released msgs awaiting ack, in release order *)
  anns_seen : (Wire.announcement, unit) Hashtbl.t;
  mutable anns_order : Wire.announcement list;
      (* announcements absorbed (received or own), newest first; gossiped
         on notices when [gossip_announcements] is set *)
  mutable unacked : (int * Wire.identity) list; (* deliveries awaiting ack *)
  mutable send_idx : int; (* sends performed in the current interval *)
  mutable out_idx : int; (* outputs performed in the current interval *)
  mutable frontier : Entry.t; (* own chain's known-stable frontier *)
  mutable ckpt_ops : int;
  mutable actions : 'msg action list; (* reversed accumulator *)
  mutable recovery : 'msg recovery option;
      (* in-progress partitioned replay; [None] once recovery completes
         (or after an unpartitioned application's restart).  Volatile: a
         crash drops it and the next restart replays from the log again. *)
  part_dirty : int array;
      (* per-partition deliveries since that partition's last incremental
         checkpoint; [[||]] for unpartitioned applications *)
  retired : (int, Entry.t) Hashtbl.t;
      (* pid -> retirement frontier: the process announced (via
         {!Wire.packet.Retire}) that it left for good after flushing, so
         every interval up to the frontier is stable and its vector slot
         drains to NULL (Theorem 2).  Volatile — a restarted node relearns
         retirements from re-broadcasts or simply never hears from the
         retiree again. *)
}

module Store = Durable.Durable_store

let push t a = t.actions <- a :: t.actions

let trace t ~now ev = Trace.add t.trace ~time:now ev

let proto t = t.cfg.Config.protocol

let breakage t = (proto t).Config.breakage

(* Only direct tracking's [Dep_query] answers ([local_dep_info]) read an
   interval's parents, so transitive tracking does not record them. *)
let note_parents t interval parents =
  if (proto t).tracking = Config.Direct then
    Hashtbl.replace t.direct_parents interval parents

(* Remember an announcement (received or our own) for dedup and gossip. *)
let note_ann t ann =
  if not (Hashtbl.mem t.anns_seen ann) then begin
    Hashtbl.replace t.anns_seen ann ();
    t.anns_order <- ann :: t.anns_order
  end

let gossip_anns t =
  if (proto t).gossip_announcements then List.rev t.anns_order else []

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

(* Grow the protocol membership to cover pid [j].  Every per-process table
   widens with its neutral element (no stability knowledge, no incarnation
   endings, no announced incarnations) and the dependency vector widens
   with NULL entries — Corollary 3: a process execution "can be considered
   as starting with an initial checkpoint", so before anyone acquires a
   dependency on the newcomer, every orphan and stability verdict computed
   over the narrower vector is preserved by the wider one.  Called on any
   evidence of a wider cluster; idempotent and cheap when [j] is already
   covered. *)
let ensure_member t j =
  if j >= t.n then begin
    let n' = j + 1 in
    let grow_tab a neutral =
      let a' = Array.make n' neutral in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.tdv <- Dep_vector.grow t.tdv ~n:n';
    t.log_tab <- grow_tab t.log_tab Entry_set.empty;
    t.iet <- grow_tab t.iet Entry_set.empty;
    t.max_ann_inc <- grow_tab t.max_ann_inc (-1);
    t.n <- n'
  end

(* Dependency lists arrive from the wire, from checkpoints and from log
   records written by a (possibly wider) previous incarnation: each pid in
   one is membership evidence. *)
let ensure_deps t dep = List.iter (fun (j, (_ : Entry.t)) -> ensure_member t j) dep

(* ------------------------------------------------------------------ *)
(* Dependency bookkeeping                                              *)

let stable_in_log t j e =
  ensure_member t j;
  Entry_set.covers t.log_tab.(j) e

(* Figure 3's Insert into log[j].  Only an insert that grows the row moves
   [log_gen], so a notice that repeats known progress leaves the buffers'
   verdicts standing. *)
let note_stable t j e =
  if not (Entry_set.covers t.log_tab.(j) e) then begin
    t.log_tab.(j) <- Entry_set.insert t.log_tab.(j) e;
    t.log_gen <- t.log_gen + 1
  end

(* Theorem 2: dependencies on stable intervals are redundant. *)
let elide_tdv t =
  if (proto t).commit_tracking then
    ignore (Dep_vector.elide_stable t.tdv ~stable:(stable_in_log t) : int)

let orphan_entry (ann : Wire.announcement) (e : Entry.t) =
  e.inc <= ann.ending.inc && e.sii > ann.ending.sii

(* Check_orphan of Figure 2, applied to a wire message. *)
let orphan_wire t (m : 'msg Wire.app_message) =
  ensure_deps t m.dep;
  List.exists (fun (j, e) -> Entry_set.orphans t.iet.(j) e) m.dep

(* A copy of this message is already waiting in the receive buffer.
   Retransmissions (sender archives, outside-world retries) can race with
   the original while it is still undeliverable, so duplicate suppression
   must look at the buffer as well as the delivered table. *)
let buffered_in_recv t id =
  List.exists (fun (_, (m : 'msg Wire.app_message)) -> m.id = id) t.recv_buf

(* The floors process [j] advertised, newest epoch first; see Wire.notice. *)
let floors_of t j = Option.value (Hashtbl.find_opt t.floors j) ~default:[]

(* Keep the highest floor heard in each epoch, older epochs included. *)
let note_floor t j (f : Entry.t) =
  let rec insert = function
    | (g : Entry.t) :: rest when g.inc > f.inc -> g :: insert rest
    | g :: rest when g.inc = f.inc -> (if f.sii > g.sii then f else g) :: rest
    | fs -> f :: fs
  in
  match floors_of t j with
  | g :: _ when Entry.equal g f -> ()
  | fs -> Hashtbl.replace t.floors j (insert fs)

(* A copy released in a later life of its sender than the one that created
   it, below a floor the sender advertised in or before that life: the
   floor says the original reached this process and was logged here, so
   this copy is a duplicate even if the original's identity was folded
   away.  Only storage damage that drops the sender's anchor checkpoint
   makes its replay regenerate such a copy. *)
let rereleased_below_floor t (m : 'msg Wire.app_message) =
  let o = m.id.origin_interval in
  m.epoch > o.inc
  && List.exists (fun (f : Entry.t) -> f.inc <= o.inc && o.sii < f.sii) (floors_of t m.id.origin)

(* Was this message delivered on the surviving history?  Non-committed
   deliveries and committed ones that cannot fold are known by identity,
   folded ones by their channel position or their sender's floor. *)
let seen t (m : 'msg Wire.app_message) =
  Hashtbl.mem t.delivered m.id
  || Id_pack.mem t.held m.id
  || (m.cseq >= 0
     &&
     match Hashtbl.find_opt t.chans (m.id.origin, m.epoch) with
     | Some s -> Seq_set.mem m.cseq s
     | None -> false)
  || rereleased_below_floor t m

let note_delivered t (m : 'msg Wire.app_message) interval =
  Hashtbl.replace t.delivered m.id
    { dl_interval = interval; dl_epoch = m.epoch; dl_cseq = m.cseq }

let orphan_vector t v =
  let found = ref false in
  Dep_vector.iteri v ~f:(fun j e ->
      match e with
      | None -> ()
      | Some e -> if Entry_set.orphans t.iet.(j) e then found := true);
  !found

(* Mark the whole current chain stable (everything delivered is now in the
   stable log, and marker intervals are reconstructable from sync records). *)
let advance_stability t ~now =
  note_stable t t.pid t.current;
  if Entry.lt t.frontier t.current then begin
    t.frontier <- t.current;
    trace t ~now (Stability_advanced { pid = t.pid; upto = t.current })
  end

(* ------------------------------------------------------------------ *)
(* Check_deliverability (Figure 2)                                     *)

let deliverable t (m : 'msg Wire.app_message) =
  ensure_deps t m.dep;
  match (proto t).delivery_rule with
  | Config.Corollary1 ->
    (* Delivering must not leave us depending on two incarnations of the
       same process unless the smaller one is known stable.  No local entry
       at all means no conflict and no delay (the Corollary 1 special
       case illustrated by m7/P5 in Figure 1). *)
    List.for_all
      (fun (j, e) ->
        match Dep_vector.get t.tdv j with
        | None -> true
        | Some mine ->
          mine.Entry.inc = e.Entry.inc
          || stable_in_log t j (Entry.min mine e))
      m.dep
  | Config.Wait_announcement ->
    (* Strom & Yemini: a dependency on incarnation t of P_j may only be
       acquired after the rollback announcement ending incarnation t-1 has
       arrived.  A process does not receive its own broadcasts but trivially
       knows its own incarnations up to the current one. *)
    List.for_all
      (fun (j, e) ->
        e.Entry.inc = 0
        || (if j = t.pid then e.Entry.inc <= t.current.inc
            else t.max_ann_inc.(j) >= e.Entry.inc - 1))
      m.dep

(* What process [j] guarantees about its numbering; see Wire.notice. *)
let floor_of t j =
  if j = t.pid then Entry.make ~inc:t.epoch ~sii:t.floor
  else match floors_of t j with f :: _ -> f | [] -> Entry.make ~inc:0 ~sii:0

(* The notice this process sends: its own stability row and floor. *)
let own_notice t =
  {
    Wire.from_ = t.pid;
    rows = [ (t.pid, Entry_set.entries t.log_tab.(t.pid)) ];
    anns = gossip_anns t;
    floor = floor_of t t.pid;
  }

(* Theorem 2 applied to duplicate suppression.  The all-stable predicate
   [gc_anchor] uses, asked of the current vector at a flush or of the
   process's own recent checkpoints, names a point no rollback restores
   past: every delivery up to it is committed, and its identity is needed
   only to reject a copy.  A committed delivery folds into its channel's
   runs unless a copy may still arrive under another channel number.  A
   sender that crashed re-releases, under fresh numbers, what its replay
   regenerates and what its checkpoints saved — all created before the
   restart, and none below the floor it advertised before the crash.  So a
   message folds only if it was created at or after its sender's latest
   restart known here (origin incarnation at least the advertised epoch,
   and at least its own release epoch) and below the advertised floor.
   Everything else committed stays [held] by identity: what a crash may
   still re-release, and what it already did.  Direct tracking's vectors
   prove nothing about remote dependencies, so it never folds — as it never
   collects logs. *)
let foldable_at t ~origin ~inc ~sii ~epoch ~cseq =
  cseq >= 0
  && (origin = App_intf.outside_world
     ||
     let f = floor_of t origin in
     inc >= Stdlib.max epoch f.inc && sii < f.sii)

let foldable t (id : Wire.identity) ~epoch ~cseq =
  let o = id.origin_interval in
  foldable_at t ~origin:id.origin ~inc:o.inc ~sii:o.sii ~epoch ~cseq

let fold t ~origin ~epoch ~cseq =
  let key = (origin, epoch) in
  let runs = Option.value (Hashtbl.find_opt t.chans key) ~default:Seq_set.empty in
  Hashtbl.replace t.chans key (Seq_set.add cseq runs)

(* Every open delivery up to [upto] on the current chain is committed:
   fold it, or hold it by identity.  The table is rebuilt rather than
   filtered, so its size follows what is still open, not its high-water
   mark. *)
let commit_upto t (upto : Entry.t) =
  if Hashtbl.length t.delivered > 0 then begin
    let open_ = Hashtbl.create 64 in
    Hashtbl.iter
      (fun id dl ->
        if dl.dl_interval.sii > upto.sii then Hashtbl.replace open_ id dl
        else if foldable t id ~epoch:dl.dl_epoch ~cseq:dl.dl_cseq then
          fold t ~origin:id.origin ~epoch:dl.dl_epoch ~cseq:dl.dl_cseq
        else Id_pack.replace t.held id (dl.dl_epoch, dl.dl_cseq))
      t.delivered;
    t.delivered <- open_
  end

let all_stable t dep = List.for_all (fun (j, e) -> stable_in_log t j e) dep

(* The anchor: the newest of [cks] (newest first) whose dependency vector
   [dep_of] is all stable, with its index.  Log GC and duplicate
   suppression both ask it; nothing after the anchor is forced. *)
let find_anchor t dep_of cks =
  Seq.find_mapi (fun i ck -> if all_stable t (dep_of ck) then Some (i, ck) else None) cks

(* A flush that leaves the current vector all stable commits everything
   delivered so far, checkpoint or not. *)
let commit_current t =
  if (proto t).tracking = Config.Transitive && all_stable t (Dep_vector.non_null t.tdv)
  then commit_upto t t.current

(* Move the anchor to the newest own checkpoint whose vector is now all
   stable, if that is newer than the last one, and fold what it commits. *)
let fold_committed t =
  match find_anchor t (fun cp -> cp.cp_dep) (List.to_seq t.ckpts) with
  | Some (i, anchor)
    when (proto t).tracking = Config.Transitive
         && anchor.cp_interval.sii > t.folded_sii ->
    let kept = List.filteri (fun j _ -> j <= i) t.ckpts in
    t.ckpts <- kept;
    t.folded_sii <- anchor.cp_interval.sii;
    let floor = List.fold_left (fun acc cp -> Stdlib.min acc cp.cp_floor) max_int kept in
    t.floor <- Stdlib.max t.floor floor;
    (* Neither restart nor rollback regenerates or re-instates a send or
       an output from below the floor again.  The packed bindings are
       read as ints (the packings are Wire's), so a kept entry costs no
       allocation. *)
    Id_pack.filter
      ~packed:(fun p _ -> Id_pack.message_sii p >= t.floor)
      (fun (id : Wire.identity) () -> id.origin_interval.sii >= t.floor)
      t.released_ids;
    Id_pack.filter
      ~packed:(fun p _ -> Id_pack.output_sii p >= t.floor)
      (fun (oid : Wire.output_id) () -> oid.out_interval.sii >= t.floor)
      t.committed_ids;
    let keep ~origin ~inc ~sii ~epoch ~cseq =
      let folds = foldable_at t ~origin ~inc ~sii ~epoch ~cseq in
      if folds then fold t ~origin ~epoch ~cseq;
      not folds
    in
    Id_pack.filter
      ~packed:(fun p q ->
        keep ~origin:(Id_pack.message_origin p) ~inc:(Id_pack.message_inc p)
          ~sii:(Id_pack.message_sii p) ~epoch:(Id_pack.pair_fst q) ~cseq:(Id_pack.pair_snd q))
      (fun (id : Wire.identity) (epoch, cseq) ->
        let o = id.origin_interval in
        keep ~origin:id.origin ~inc:o.inc ~sii:o.sii ~epoch ~cseq)
      t.held;
    commit_upto t anchor.cp_interval
  | Some _ | None -> ()

(* Channel runs and every floor heard, in the form Gc_stubs persists. *)
let runs_of chans =
  List.sort compare (Hashtbl.fold (fun (o, e) r acc -> (o, e, Seq_set.runs r) :: acc) chans [])

let heard_floors t = Hashtbl.fold (fun j fs acc -> List.map (fun f -> (j, f)) fs @ acc) t.floors []

(* Collected deliveries in the compact form Gc_stubs persists: folded ones
   as runs per channel, the rest by identity. *)
let stubs_of t msgs =
  let runs = Hashtbl.create 4 in
  let exact = ref [] in
  List.iter
    (fun (m : 'msg Wire.app_message) ->
      let key = (m.id.origin, m.epoch) in
      if Hashtbl.mem t.delivered m.id || Id_pack.mem t.held m.id then
        exact := (m.id, m.epoch, m.cseq) :: !exact
      else
        let r = Option.value (Hashtbl.find_opt runs key) ~default:Seq_set.empty in
        Hashtbl.replace runs key (Seq_set.add m.cseq r))
    msgs;
  {
    Wire.gs_runs = runs_of runs;
    gs_exact = !exact;
    gs_floors = (t.pid, floor_of t t.pid) :: heard_floors t;
  }

let no_stubs = { Wire.gs_runs = []; gs_exact = []; gs_floors = [] }

(* The whole committed state in the same form, for a checkpoint. *)
let committed_stubs t =
  {
    Wire.gs_runs = runs_of t.chans;
    gs_exact = Id_pack.fold (fun id (epoch, cseq) acc -> (id, epoch, cseq) :: acc) t.held [];
    gs_floors = heard_floors t;
  }

(* Take in persisted stubs — a Gc_stubs record's or a checkpoint's. *)
let absorb_stubs t (gs : Wire.stubs) =
  List.iter
    (fun (origin, epoch, runs) ->
      let key = (origin, epoch) in
      let s = Option.value (Hashtbl.find_opt t.chans key) ~default:Seq_set.empty in
      Hashtbl.replace t.chans key (List.fold_left (Fun.flip Seq_set.add_run) s runs))
    gs.gs_runs;
  List.iter (fun (id, epoch, cseq) -> Id_pack.replace t.held id (epoch, cseq)) gs.gs_exact;
  List.iter (fun (j, f) -> note_floor t j f) gs.gs_floors

(* Below the floor every send was released and acked and every output
   committed, so the tables that say so keep nothing there.  A rollback
   that has to restore a checkpoint older than the anchor (storage damage
   dropped the newer ones) regenerates nothing there a second time.  A
   restart knows only the floor of its last GC; receivers drop what it
   re-releases below the floor it advertised ([rereleased_below_floor]). *)
let released t (id : Wire.identity) =
  id.origin_interval.sii < t.floor || Id_pack.mem t.released_ids id

let committed t (oid : Wire.output_id) =
  oid.out_interval.sii < t.floor || Id_pack.mem t.committed_ids oid

(* ------------------------------------------------------------------ *)
(* Send path: Send_message / Check_send_buffer (Figure 2)              *)

let release_send t ~now (ps : 'msg pending_send) =
  Hashtbl.remove t.buffered_send_ids ps.ps_id;
  Id_pack.replace t.released_ids ps.ps_id ();
  let dep =
    match (proto t).tracking with
    | Config.Transitive -> Dep_vector.non_null ps.ps_tdv
    | Config.Direct ->
      (* Only the sender's current interval travels (Section 5).  It is
         never elided: it is the receiver's sole handle for arrival-time
         orphan checks. *)
      [ (t.pid, ps.ps_interval) ]
  in
  (* The channel number is stamped here, not at send time: partitioned
     replay regenerates sends out of log order and could not reproduce a
     send-time count. *)
  let cseq = Option.value (Hashtbl.find_opt t.chan_next ps.ps_dst) ~default:0 in
  Hashtbl.replace t.chan_next ps.ps_dst (cseq + 1);
  let wire =
    {
      Wire.id = ps.ps_id;
      src = t.pid;
      dst = ps.ps_dst;
      send_interval = ps.ps_interval;
      dep;
      payload = ps.ps_payload;
      epoch = t.epoch;
      cseq;
    }
  in
  let dep_size = List.length dep in
  let wire_vector = if (proto t).commit_tracking then dep_size else t.n in
  let blocked = now -. ps.ps_enqueued in
  Obs.Counter.incr t.meters.releases;
  Obs.Histogram.observe t.meters.blocked_time blocked;
  Obs.Histogram.observe t.meters.release_dep_entries (float_of_int dep_size);
  Obs.Histogram.observe t.meters.wire_vector_size (float_of_int wire_vector);
  Archive.add t.archive wire;
  trace t ~now (Message_released { id = ps.ps_id; dep_size; wire_vector; blocked });
  push t (Unicast { dst = ps.ps_dst; packet = Wire.App wire })

(* A send's verdict depends only on [log_tab], so only the sends buffered
   since the last check are examined unless [log_gen] moved. *)
let check_send_buffer t ~now =
  let ready =
    Backlog.take_ready t.send_buf ~gen:t.log_gen (fun ps ->
        if (proto t).commit_tracking then
          ignore (Dep_vector.elide_stable ps.ps_tdv ~stable:(stable_in_log t) : int);
        (breakage t).break_send_gate || Dep_vector.non_null_count ps.ps_tdv <= ps.ps_k)
  in
  List.iter (release_send t ~now) ready

(* [send_message_at] performs a send in an explicit interval context
   instead of the node's live one — partitioned replay re-executes records
   out of log order, so the regenerated sends must carry the interval and
   vector snapshot the log walk computed for their record, not
   whatever the interleaved replay happens to have made current. *)
let send_message_at t ~now ~interval ~tdv ~idx ~dst ~k payload =
  let id = { Wire.origin = t.pid; origin_interval = interval; idx } in
  (* A replayed execution regenerates the sends of reconstructed intervals
     with identical identities; suppress the ones still accounted for.
     After a crash both tables are empty, so replayed sends at or above the
     floor are re-released — receivers drop the duplicates by identity. *)
  if released t id || Hashtbl.mem t.buffered_send_ids id then ()
  else begin
    Obs.Counter.incr t.meters.sends;
    trace t ~now (Message_sent { id; src = t.pid; dst; send_interval = interval });
    let k =
      match k with
      | Some k when (proto t).commit_tracking -> Stdlib.max 0 (Stdlib.min t.n k)
      | Some _ | None -> (proto t).k
    in
    Hashtbl.replace t.buffered_send_ids id ();
    let ps =
      {
        ps_id = id;
        ps_dst = dst;
        ps_interval = interval;
        ps_tdv = Dep_vector.copy tdv;
        ps_payload = payload;
        ps_enqueued = now;
        ps_k = k;
      }
    in
    Backlog.push t.send_buf ps
  end

let send_message t ~now ~dst ~k payload =
  let idx = t.send_idx in
  t.send_idx <- t.send_idx + 1;
  send_message_at t ~now ~interval:t.current ~tdv:t.tdv ~idx ~dst ~k payload

(* ------------------------------------------------------------------ *)
(* Output commit                                                       *)

(* "An output can be viewed as a 0-optimistic message": it is released when
   every interval it depends on is known stable.  For the commit-tracking
   protocol that is the all-entries-NULL condition of Section 4.2; checking
   coverage directly gives the same answer and also serves the fixed-vector
   baselines, whose entries are never elided. *)
let output_ready t po =
  List.for_all (fun (j, e) -> stable_in_log t j e) (Dep_vector.non_null po.po_tdv)

(* The [Committed] record is written buffered: [with_cost] fsyncs the
   synchronous area once at the end of the step, for every output the
   step committed, before the step's trace entries or actions can leave
   the process.  So the record is durable before the output is visible,
   and a flush that releases k outputs costs two fsyncs (the log's and
   this one), not k + 1. *)
let commit_output t ~now po =
  Hashtbl.remove t.buffered_out_ids po.po_id;
  Hashtbl.remove t.assemblies po.po_id;
  Id_pack.replace t.committed_ids po.po_id ();
  Store.log_announcement ~fsync:false t.store (Wire.Committed po.po_id);
  let latency = now -. po.po_buffered in
  Obs.Counter.incr t.meters.outputs_committed;
  Obs.Histogram.observe t.meters.output_latency latency;
  trace t ~now (Output_committed { pid = t.pid; id = po.po_id; text = po.po_text; latency })

(* --- Direct-tracking commit assembly (Section 5's tradeoff) --------- *)

(* What this process can answer about one of its own intervals. *)
let local_dep_info t (interval : Entry.t) =
  match Hashtbl.find_opt t.direct_parents interval with
  | Some parents ->
    Wire.Info { stable = stable_in_log t t.pid interval; parents }
  | None ->
    if Entry.equal interval Entry.initial then
      Wire.Info { stable = true; parents = [] }
    else Wire.Gone

let assembly_member asm key =
  match Hashtbl.find_opt asm.members key with
  | Some st -> st
  | None ->
    let st = { m_stable = false; m_expanded = false; m_queried = false } in
    Hashtbl.add asm.members key st;
    st

let assembly_absorb t asm (pid, interval) (info : Wire.dep_info) =
  let st = assembly_member asm (pid, interval) in
  match info with
  | Wire.Gone ->
    (* The interval was rolled back: this output is orphan and will be
       pruned when the corresponding announcement rolls us back too. *)
    ()
  | Wire.Info { stable; parents } ->
    if stable then st.m_stable <- true;
    if not st.m_expanded then begin
      st.m_expanded <- true;
      List.iter
        (fun (p, e) -> ignore (assembly_member asm (p, e) : member_state))
        parents
    end;
    ignore t

let assembly_complete asm =
  Hashtbl.fold
    (fun _ st acc -> acc && st.m_stable && st.m_expanded)
    asm.members true

(* Advance one assembly: resolve local members, query remote owners about
   unresolved ones.  Queries are re-sent on every poll; they are idempotent
   and their volume is precisely the assembly cost Section 5 talks about. *)
let assembly_step t ~now asm =
  ignore now;
  let pending_remote = Hashtbl.create 4 in
  let local = ref [] in
  Hashtbl.iter
    (fun (pid, interval) st ->
      if not (st.m_stable && st.m_expanded) then
        if pid = t.pid then local := interval :: !local
        else if not st.m_queried then begin
          st.m_queried <- true;
          Hashtbl.replace pending_remote pid
            (interval :: (try Hashtbl.find pending_remote pid with Not_found -> []))
        end)
    asm.members;
  List.iter
    (fun interval -> assembly_absorb t asm (t.pid, interval) (local_dep_info t interval))
    !local;
  Hashtbl.iter
    (fun owner intervals ->
      Obs.Counter.incr t.meters.dep_queries;
      push t
        (Unicast { dst = owner; packet = Wire.Dep_query { from_ = t.pid; intervals } }))
    pending_remote

let check_output_buffer t ~now =
  match (proto t).tracking with
  | Config.Transitive ->
    (* Like the send buffer: an output waits on [log_tab] alone. *)
    List.iter (commit_output t ~now)
      (Backlog.take_ready t.out_buf ~gen:t.log_gen (output_ready t))
  | Config.Direct ->
    let ready =
      Backlog.remove_if t.out_buf
        (fun po ->
          match Hashtbl.find_opt t.assemblies po.po_id with
          | Some asm ->
            (* keep resolving local members until a fixpoint, then decide *)
            let rec settle () =
              let before = Hashtbl.length asm.members in
              let unstable_local =
                Hashtbl.fold
                  (fun (pid, interval) st acc ->
                    if pid = t.pid && not (st.m_stable && st.m_expanded) then
                      (pid, interval) :: acc
                    else acc)
                  asm.members []
              in
              List.iter
                (fun (_, interval) ->
                  assembly_absorb t asm (t.pid, interval) (local_dep_info t interval))
                unstable_local;
              if Hashtbl.length asm.members > before then settle ()
            in
            settle ();
            assembly_complete asm
          | None -> false)
    in
    List.iter (commit_output t ~now) ready;
    Backlog.iter t.out_buf (fun po ->
        match Hashtbl.find_opt t.assemblies po.po_id with
        | Some asm -> assembly_step t ~now asm
        | None -> ())

(* Explicit-context variant of [buffer_output], for the same reason as
   {!send_message_at}: partitioned replay regenerates outputs out of log
   order, so their identity and dependency snapshot come from the log
   walk, not from the node's live interval. *)
let rec buffer_output_at t ~now ~interval ~tdv ~idx text =
  let oid = { Wire.out_interval = interval; out_idx = idx } in
  if committed t oid || Hashtbl.mem t.buffered_out_ids oid then ()
  else begin
    Hashtbl.replace t.buffered_out_ids oid ();
    let po =
      { po_id = oid; po_text = text; po_tdv = Dep_vector.copy tdv; po_buffered = now }
    in
    Backlog.push t.out_buf po;
    (match (proto t).tracking with
    | Config.Direct ->
      let asm = { members = Hashtbl.create 8 } in
      ignore (assembly_member asm (t.pid, t.current) : member_state);
      Hashtbl.replace t.assemblies oid asm
    | Config.Transitive -> ());
    trace t ~now (Output_buffered { pid = t.pid; id = oid; text });
    if (proto t).output_driven_logging then begin
      (* Force logging progress at the processes the output depends on
         instead of waiting for their periodic notifications (Section 2's
         output-driven logging alternative, reference [6]). *)
      Dep_vector.iteri po.po_tdv ~f:(fun j e ->
          match e with
          | Some _ when j <> t.pid ->
            push t (Unicast { dst = j; packet = Wire.Flush_request { from_ = t.pid } })
          | Some _ | None -> ());
      do_flush t ~now
    end
  end

(* ------------------------------------------------------------------ *)
(* Flush: asynchronous logging progress                                *)

and do_flush ?(forced = false) t ~now =
  ignore
    ((if forced then Store.flush_forced t.store else Store.flush t.store) : int);
  (* A brownout-refused flush left records volatile: nothing new is stable,
     so neither stability nor acks may advance — the K rule keeps holding
     the affected sends, which is the graceful-degradation contract. *)
  if Store.volatile_length t.store > 0 then begin
    check_send_buffer t ~now;
    check_output_buffer t ~now
  end
  else begin
    advance_stability t ~now;
    elide_tdv t;
    commit_current t;
    do_flush_acks t;
    check_send_buffer t ~now;
    check_output_buffer t ~now
  end

and do_flush_acks t =
  if t.unacked <> [] then begin
    (* Everything delivered so far is now stable: tell the senders so they
       can garbage-collect their retransmission archives. *)
    let by_src = Hashtbl.create 8 in
    List.iter
      (fun (src, id) ->
        let ids = try Hashtbl.find by_src src with Not_found -> [] in
        Hashtbl.replace by_src src (id :: ids))
      t.unacked;
    Hashtbl.iter
      (fun src ids ->
        Obs.Counter.incr t.meters.acks_sent;
        push t (Unicast { dst = src; packet = Wire.Ack { from_ = t.pid; to_ = src; ids } }))
      by_src;
    t.unacked <- []
  end

let buffer_output t ~now text =
  let idx = t.out_idx in
  t.out_idx <- t.out_idx + 1;
  buffer_output_at t ~now ~interval:t.current ~tdv:t.tdv ~idx text

(* ------------------------------------------------------------------ *)
(* Deliver_message (Figure 2) and the delivery loop                    *)

(* Partition of a payload under the application's decomposition, or [None]
   when the app is unpartitioned or the message is a barrier. *)
let part_of_payload t payload =
  match t.app.App_intf.partitioning with
  | None -> None
  | Some pt -> pt.part_of_msg ~n:t.app_n payload

let mark_part_dirty t payload =
  if t.part_dirty <> [||] then
    match part_of_payload t payload with
    | Some p -> t.part_dirty.(p) <- t.part_dirty.(p) + 1
    | None -> ()

(* The interval step of Deliver_message: start the next interval, merge
   the message's dependencies into the vector, and note the interval's
   parents and the delivery.  Live delivery, serial replay and the
   deferred restart's walk all take it; it returns the interval left. *)
let step_interval t (m : 'msg Wire.app_message) =
  let pred = t.current in
  ensure_deps t m.dep;
  (match (proto t).tracking with
  | Config.Transitive ->
    let wire_vec = Dep_vector.of_non_null ~n:t.n m.dep in
    Dep_vector.merge_max ~into:t.tdv wire_vec
  | Config.Direct ->
    (* No vector merging: the piggybacked entry only records the direct
       parent. *)
    ());
  t.current <- Entry.next_interval t.current;
  Dep_vector.set t.tdv t.pid (Some t.current);
  t.send_idx <- 0;
  t.out_idx <- 0;
  note_parents t t.current
    ((t.pid, pred) :: (if m.src >= 0 then [ (m.src, m.send_interval) ] else []));
  note_delivered t m t.current;
  pred

let deliver t ~now ~replay ~waited (m : 'msg Wire.app_message) =
  let pred = step_interval t m in
  elide_tdv t;
  if replay then Obs.Counter.incr t.meters.replayed
  else begin
    Store.append_volatile t.store
      (Delivery
         {
           lg_msg = m;
           lg_interval = t.current;
           lg_window = t.recovery <> None;
         });
    (match t.recovery with
    | Some rc -> rc.rc_live_delivered <- true
    | None -> ());
    if m.src >= 0 then t.unacked <- (m.src, m.id) :: t.unacked;
    Obs.Counter.incr t.meters.deliveries;
    Obs.Histogram.observe t.meters.delivery_delay waited;
    trace t ~now (Message_delivered { id = m.id; dst = t.pid; interval = t.current; waited })
  end;
  mark_part_dirty t m.payload;
  let state', effects = t.app.handle ~pid:t.pid ~n:t.app_n t.state ~src:m.src m.payload in
  t.state <- state';
  trace t ~now
    (Interval_started
       {
         pid = t.pid;
         interval = t.current;
         pred = Some pred;
         by = Some m.id;
         sender_interval = (if m.src >= 0 then Some m.send_interval else None);
         digest = t.app.digest state';
         replay;
       });
  List.iter
    (function
      | App_intf.Send { dst; msg; k } -> send_message t ~now ~dst ~k msg
      | App_intf.Output text -> buffer_output t ~now text)
    effects;
  (* Pessimistic logging: the volatile buffer is written synchronously on
     every delivery, before any message leaves the send buffer. *)
  if (proto t).sync_logging && not replay then do_flush t ~now
  else begin
    (* Low-risk sends leave immediately; only riskier-than-K ones wait. *)
    check_send_buffer t ~now;
    check_output_buffer t ~now
  end

(* During a recovery window only messages whose partition has fully
   replayed may be delivered: a new delivery is logged {e after} every
   replayed record, so serially it happens after all of them — executing
   it on a partition whose replay is still pending would read a slice the
   remaining replay is about to change.  Barrier-class messages (and every
   message of an unpartitioned app — vacuous, since those recover
   serially) wait for full recovery.  Parked messages simply stay in the
   receive buffer. *)
let partition_admissible t (m : 'msg Wire.app_message) =
  match t.recovery with
  | None -> true
  | Some rc -> (
    match part_of_payload t m.Wire.payload with
    | Some p ->
      p >= 0 && p < rc.rc_parts
      && rc.rc_part_pending.(p) = 0
      && rc.rc_barriers_pending = 0
    | None -> false)

let rec drain t ~now =
  let rec find = function
    | [] -> None
    | ((_, m) as cell) :: _ when deliverable t m && partition_admissible t m ->
      Some cell
    | _ :: rest -> find rest
  in
  match find t.recv_buf with
  | None -> ()
  | Some ((arrived, m) as cell) ->
    t.recv_buf <- List.filter (fun x -> x != cell) t.recv_buf;
    deliver t ~now ~replay:false ~waited:(now -. arrived) m;
    drain t ~now

let recheck t ~now =
  drain t ~now;
  check_send_buffer t ~now;
  check_output_buffer t ~now

(* ------------------------------------------------------------------ *)
(* Partitioned replay engine (fast recovery)                           *)

(* Re-execute one pre-analysed log record in its own context.  No trace
   event is emitted here: the state a partitioned replay holds mid-way is
   an interleaving-dependent hybrid whose digest matches no serially
   created interval, so per-record replay certification would flag false
   divergence.  Certification happens once, at the frontier, when the
   state has converged to the serial result. *)
let replay_exec t ~now (ri : 'msg replay_item) =
  Obs.Counter.incr t.meters.replayed;
  let state', effects =
    t.app.handle ~pid:t.pid ~n:t.app_n t.state ~src:ri.ri_msg.Wire.src
      ri.ri_msg.Wire.payload
  in
  t.state <- state';
  let sidx = ref 0 in
  let oidx = ref 0 in
  List.iter
    (function
      | App_intf.Send { dst; msg; k } ->
        let idx = !sidx in
        incr sidx;
        send_message_at t ~now ~interval:ri.ri_interval ~tdv:ri.ri_tdv ~idx ~dst ~k
          msg
      | App_intf.Output text ->
        let idx = !oidx in
        incr oidx;
        buffer_output_at t ~now ~interval:ri.ri_interval ~tdv:ri.ri_tdv ~idx text)
    effects

(* Replay up to [budget] records (checkpoint-covered records are free),
   preferring partition [prefer] when it still has work — the on-demand
   hook: a daemon replays the partitions clients are actually waiting on
   first.  Returns the number of records re-executed.  On completion,
   certifies the frontier interval against its live digest (unless the
   frontier record was delivered inside an earlier recovery window) and
   emits [Recovery_completed]. *)
let do_replay_step t ~now ?prefer ~budget () =
  match t.recovery with
  | None -> 0
  | Some rc ->
    let executed = ref 0 in
    let finished = ref false in
    while (not !finished) && !executed < max budget 1 do
      match rc.rc_stages with
      | [] -> finished := true
      | stage :: rest -> (
        let nonempty p = not (Queue.is_empty stage.rs_queues.(p)) in
        let pick =
          match prefer with
          | Some p when p >= 0 && p < rc.rc_parts && nonempty p -> Some p
          | _ ->
            let rec probe i =
              if i = rc.rc_parts then None
              else
                let p = (rc.rc_next + i) mod rc.rc_parts in
                if nonempty p then Some p else probe (i + 1)
            in
            probe 0
        in
        match pick with
        | Some p ->
          let ri = Queue.pop stage.rs_queues.(p) in
          rc.rc_next <- (p + 1) mod rc.rc_parts;
          rc.rc_part_pending.(p) <- rc.rc_part_pending.(p) - 1;
          if not ri.ri_covered then begin
            replay_exec t ~now ri;
            if t.part_dirty <> [||] then t.part_dirty.(p) <- t.part_dirty.(p) + 1;
            rc.rc_replayed <- rc.rc_replayed + 1;
            incr executed
          end
        | None ->
          (* Stage drained: run its barrier at its exact position. *)
          (match stage.rs_barrier with
          | Some ri ->
            replay_exec t ~now ri;
            rc.rc_barriers_pending <- rc.rc_barriers_pending - 1;
            rc.rc_replayed <- rc.rc_replayed + 1;
            incr executed
          | None -> ());
          rc.rc_stages <- rest)
    done;
    if rc.rc_stages = [] then begin
      t.recovery <- None;
      (match rc.rc_frontier with
      | Some ri when (not ri.ri_window) && not rc.rc_live_delivered ->
        (* The state has converged to the serial replay result, which is
           exactly the live state after the frontier (last logged)
           delivery: certify it against the live digest.  A window-marked
           frontier was itself executed on a partially recovered state, so
           its live digest covers no serially reachable state — skip.
           Likewise when fresh deliveries were served during the window
           (on-demand recovery): the completed state is already past the
           frontier, so its digest certifies nothing. *)
        trace t ~now
          (Interval_started
             {
               pid = t.pid;
               interval = ri.ri_interval;
               pred = None;
               by = Some ri.ri_msg.Wire.id;
               sender_interval =
                 (if ri.ri_msg.Wire.src >= 0 then Some ri.ri_msg.Wire.send_interval
                  else None);
               digest = t.app.digest t.state;
               replay = true;
             })
      | Some _ | None -> ());
      trace t ~now (Recovery_completed { pid = t.pid; replayed = rc.rc_replayed })
    end;
    (* Newly recovered partitions may have parked requests; regenerated
       sends and outputs release under the usual rules. *)
    recheck t ~now;
    !executed

(* Complete any in-progress partitioned replay synchronously.  Rollback,
   full checkpoints and announcements that force a rollback all reason
   about a single coherent state, so they drain the recovery first. *)
let finish_recovery t ~now =
  while t.recovery <> None do
    ignore (do_replay_step t ~now ~budget:max_int () : int)
  done

(* ------------------------------------------------------------------ *)
(* Rebuild: common replay engine for Restart and Rollback (Figure 3)   *)

(* Incarnation markers persisted in the sync area, latest-writer-wins per
   log position: a marker supersedes every earlier marker at the same or a
   later position, mirroring how a rollback truncates the future it was
   part of.  [anns] is the synchronous area, oldest first. *)
let effective_markers anns ~from_pos =
  let all =
    List.fold_left
      (fun acc r ->
        match r with
        | Wire.Marker { entry; log_pos } ->
          List.filter (fun (_, p) -> p < log_pos) acc @ [ (entry, log_pos) ]
        | Wire.Ann_logged _ | Wire.Committed _ | Wire.Gc_stubs _ -> acc)
      [] anns
  in
  List.filter (fun (_, p) -> p >= from_pos) all

(* End of an incarnation's stable prefix: remember its frontier, then
   continue as the marker interval. *)
let apply_marker t ((entry : Entry.t), _pos) =
  note_stable t t.pid t.current;
  note_parents t entry [ (t.pid, t.current) ];
  t.current <- entry;
  Dep_vector.set t.tdv t.pid (Some entry);
  note_stable t t.pid entry;
  t.send_idx <- 0;
  t.out_idx <- 0

(* "Each process execution can be considered as starting with an initial
   checkpoint" (Corollary 3): interval (0,1) in the app's initial [state].
   Its empty stubs at the log base leave a restart from it to re-seed
   duplicate suppression from the whole surviving log. *)
let initial_checkpoint t state =
  {
    ck_current = Entry.initial;
    ck_tdv = [];
    ck_state = state;
    ck_log_pos = Store.log_base t.store;
    ck_sends = [];
    ck_outs = [];
    ck_archive = [];
    ck_stubs = no_stubs;
    ck_open = [];
  }

let commit_point ck =
  let low acc (e : Entry.t) = Stdlib.min acc e.sii in
  let floor = ck.ck_current.sii in
  let floor = List.fold_left (fun acc sv -> low acc sv.sv_interval) floor ck.ck_sends in
  let floor =
    List.fold_left (fun acc so -> low acc so.so_id.Wire.out_interval) floor ck.ck_outs
  in
  (* An unacked release may still need its archive copy retransmitted. *)
  let floor =
    List.fold_left
      (fun acc (m : 'msg Wire.app_message) -> low acc m.id.origin_interval)
      floor ck.ck_archive
  in
  { cp_interval = ck.ck_current; cp_dep = ck.ck_tdv; cp_floor = floor }

(* A damaged synchronous area can lose an incarnation marker (open-time
   recovery reports the loss).  Each logged delivery still names the
   interval it started, so replay applies the marker that record implies
   instead of running into an interval that never existed.  A lost marker
   always shows as an incarnation jump; any other mismatch is a replay bug,
   and the assert after the delivery catches it. *)
let resync_lost_marker t ~pos (logged : Entry.t) =
  if logged.inc > t.current.inc then
    apply_marker t (Entry.make ~inc:logged.inc ~sii:(logged.sii - 1), pos)

(* Re-instate checkpointed pending sends and outputs that are not already
   accounted for (released since the checkpoint, still buffered live, or
   committed). *)
let reinstate_saved_sends t svs =
  List.iter
    (fun sv ->
      if
        (not (released t sv.sv_id)) && not (Hashtbl.mem t.buffered_send_ids sv.sv_id)
      then begin
        ensure_deps t sv.sv_dep;
        Hashtbl.replace t.buffered_send_ids sv.sv_id ();
        Backlog.push t.send_buf
          {
            ps_id = sv.sv_id;
            ps_dst = sv.sv_dst;
            ps_interval = sv.sv_interval;
            ps_tdv = Dep_vector.of_non_null ~n:t.n sv.sv_dep;
            ps_payload = sv.sv_payload;
            ps_enqueued = sv.sv_enqueued;
            ps_k = sv.sv_k;
          }
      end)
    svs

let reinstate_saved_outs t sos =
  List.iter
    (fun so ->
      if
        (not (committed t so.so_id)) && not (Hashtbl.mem t.buffered_out_ids so.so_id)
      then begin
        ensure_deps t so.so_dep;
        Hashtbl.replace t.buffered_out_ids so.so_id ();
        Backlog.push t.out_buf
          {
            po_id = so.so_id;
            po_text = so.so_text;
            po_tdv = Dep_vector.of_non_null ~n:t.n so.so_dep;
            po_buffered = so.so_buffered;
          }
      end)
    sos

(* Restore a released-message archive snapshot: anything not already
   re-archived or still buffered comes back as a released message replay
   will not regenerate. *)
let reinstate_archive t msgs =
  List.iter
    (fun (m : 'msg Wire.app_message) ->
      if (not (Archive.mem t.archive m.id)) && not (Hashtbl.mem t.buffered_send_ids m.id)
      then begin
        Archive.add t.archive m;
        Id_pack.replace t.released_ids m.id ()
      end)
    msgs

(* Restore the checkpoint [ck]'s state, interval, dependency vector and
   the sends and outputs it saved; restart and rollback start here. *)
let restore_checkpoint t ck =
  t.state <- ck.ck_state;
  t.current <- ck.ck_current;
  ensure_deps t ck.ck_tdv;
  t.tdv <- Dep_vector.of_non_null ~n:t.n ck.ck_tdv;
  t.send_idx <- 0;
  t.out_idx <- 0;
  reinstate_saved_sends t ck.ck_sends;
  reinstate_saved_outs t ck.ck_outs

(* The one log walk of Restart and Rollback (Figure 3): from the restored
   checkpoint [ck], apply incarnation markers at their recorded positions
   and hand each logged delivery to [exec], which must leave the node on
   the interval the record names.  Rollback and the restart of an
   unpartitioned application re-execute the delivery; a partitioned
   application's restart takes its interval step and queues the handler.
   Stops before the first delivery satisfying [halt].  [anns] is the synchronous area and [records] the stable log from
   [ck.ck_log_pos] on, both as the caller read them.  Returns the log
   position reached and the [Requeued] messages passed, oldest first. *)
let walk_log t ~ck ~anns ~records ~halt ~exec =
  let pos = ref ck.ck_log_pos in
  let requeued = ref [] in
  let rec walk markers records =
    match markers, records with
    | ((_, p) as m) :: ms, _ when p <= !pos ->
      apply_marker t m;
      walk ms records
    | _, [] -> ()
    | _, Requeued m :: rs ->
      (* Not a state transition: the caller puts the undelivered ones back
         into the receive buffer. *)
      requeued := m :: !requeued;
      incr pos;
      walk markers rs
    | _, Delivery d :: rs ->
      if not (halt d.lg_msg) then begin
        resync_lost_marker t ~pos:!pos d.lg_interval;
        exec ~pos:!pos ~window:d.lg_window d.lg_msg;
        assert (Entry.equal t.current d.lg_interval);
        incr pos;
        walk markers rs
      end
  in
  walk (effective_markers anns ~from_pos:ck.ck_log_pos) records;
  (!pos, List.rev !requeued)

(* The immediate executor of [walk_log]: re-execute the delivery now. *)
let redeliver t ~now ~pos:_ ~window:_ m = deliver t ~now ~replay:true ~waited:0. m

(* Requeued messages not re-delivered since go back to the receive buffer,
   oldest first; known orphans and anything already delivered are
   dropped. *)
let requeue_undelivered t ~now requeued =
  List.iter
    (fun (m : 'msg Wire.app_message) ->
      if
        (not (seen t m))
        && (not (buffered_in_recv t m.id))
        && not (orphan_wire t m)
      then t.recv_buf <- t.recv_buf @ [ (now, m) ])
    requeued

(* Absorb a failure or rollback announcement — received, our own, or read
   back from the synchronous area ([persist] is false only then): the
   ending incarnation's end table entry and, by Corollary 1, its
   stability.  A pid beyond the current width is membership evidence. *)
let absorb_ann t ~persist (ann : Wire.announcement) =
  if persist then Store.log_announcement t.store (Wire.Ann_logged ann);
  let j = ann.from_ in
  ensure_member t j;
  note_ann t ann;
  t.iet.(j) <- Entry_set.insert_min t.iet.(j) ann.ending;
  note_stable t j ann.ending;
  if ann.ending.inc > t.max_ann_inc.(j) then t.max_ann_inc.(j) <- ann.ending.inc

(* Start incarnation [inc] right after the current interval, which is
   stable (replayed from the log, or just flushed), "as if it itself has
   failed".  The marker persists the bump at log position [log_pos], so a
   crash right after it cannot reuse the number. *)
let bump_incarnation t ~inc ~log_pos =
  let next = Entry.make ~inc ~sii:(t.current.sii + 1) in
  Store.log_announcement t.store (Wire.Marker { entry = next; log_pos });
  apply_marker t (next, log_pos);
  t.frontier <- next

(* ------------------------------------------------------------------ *)
(* Rollback (Figure 3)                                                 *)

let cancel_send t ~now (ps : 'msg pending_send) =
  Hashtbl.remove t.buffered_send_ids ps.ps_id;
  Obs.Counter.incr t.meters.cancelled_sends;
  trace t ~now (Send_cancelled { id = ps.ps_id; src = t.pid })

let rollback t ~now ~(because : Wire.announcement) =
  let ann = because in
  (* A rollback reasons about one coherent state and truncates the log the
     pending replay items point into: complete the replay first. *)
  finish_recovery t ~now;
  Obs.Counter.incr t.meters.induced_rollbacks;
  let old_current = t.current in
  (* "Log all the unlogged messages to the stable storage": the surviving
     prefix must be replayable.  No stability is claimed here — part of
     what we just wrote is about to be truncated.  Forced: a brownout
     refusal here would let the truncation below drop still-volatile
     deliveries the process has already absorbed. *)
  ignore (Store.flush_forced t.store : int);
  let j = ann.from_ in
  (* A logged delivery that would make us depend on a rolled-back interval
     of P_j: condition (I) of Figure 3 fails there. *)
  let orphaned_by (m : 'msg Wire.app_message) =
    List.exists (fun (i, e) -> i = j && orphan_entry ann e) m.dep
  in
  let ck_ok =
    match (proto t).tracking with
    | Config.Transitive ->
      fun ck ->
        (match List.assoc_opt j ck.ck_tdv with
        | Some e -> not (orphan_entry ann e)
        | None -> true)
    | Config.Direct ->
      (* The checkpoint's vector records no remote dependencies, so locate
         the first directly-orphan record and restore behind it.  Direct
         tracking forbids log GC, so the scan always reaches the record. *)
      let exception Halt of int in
      let halt_pos =
        match
          Store.fold_log_from t.store ~pos:(Store.log_base t.store) ~init:()
            ~f:(fun () pos -> function
              | Delivery d when orphaned_by d.lg_msg -> raise (Halt pos)
              | Delivery _ | Requeued _ -> ())
        with
        | () -> Store.stable_log_length t.store
        | exception Halt pos -> pos
      in
      fun ck -> ck.ck_log_pos <= halt_pos
  in
  let ck, reseed =
    match Store.restore_checkpoint t.store ~satisfying:ck_ok with
    | Some ck -> (ck, false)
    | None -> (
      (* The initial checkpoint has an empty vector at position 0 and
         satisfies either predicate, and GC never discards it without a
         newer anchor that does too — but damage can: open-time recovery
         drops a corrupt checkpoint file and reports it.  Roll back to the
         initial state when the whole log is still there; otherwise the
         oldest survivor is the best state left, and the oracle judges what
         it holds against the reported loss. *)
      match
        if Store.log_base t.store > 0 then Store.oldest_checkpoint t.store else None
      with
      | Some oldest -> (oldest, false)
      | None -> (initial_checkpoint t (t.app.App_intf.init ~pid:t.pid ~n:t.app_n), true))
  in
  t.ckpts <-
    commit_point ck
    :: List.filter (fun cp -> cp.cp_interval.sii < ck.ck_current.sii) t.ckpts;
  t.ckpt_ops <- t.ckpt_ops + 1;
  (* Replay "till condition (I) is not satisfied". *)
  restore_checkpoint t ck;
  let stop_pos, walked_requeued =
    walk_log t ~ck ~anns:(Store.announcements t.store)
      ~records:(Store.stable_log_from t.store ~pos:ck.ck_log_pos)
      ~halt:orphaned_by
      ~exec:(redeliver t ~now)
  in
  let stop = t.current in
  let removed = Store.truncate_stable_log t.store ~keep:stop_pos in
  (* A re-seeded initial checkpoint must outlive this rollback: every
     checkpoint left in the store is orphaned. *)
  if reseed then Store.save_checkpoint t.store ck;
  let first_undone =
    match
      List.find_map (function Delivery d -> Some d.lg_interval | Requeued _ -> None) removed
    with
    | Some interval -> interval
    | None -> old_current
  in
  (* "Among remaining logged messages, discard orphans and add non-orphans
     to Receive buffer."  The survivors are also re-persisted as Requeued
     records: once truncated out of the delivery log they would otherwise
     exist only in the volatile receive buffer, and a crash before their
     re-delivery would lose them for good (their senders may have
     garbage-collected them after the original deliveries became stable). *)
  List.iter
    (fun lg ->
      let m = match lg with Delivery d -> d.lg_msg | Requeued m -> m in
      if orphan_wire t m && not (breakage t).break_orphan_check then begin
        Obs.Counter.incr t.meters.orphans_discarded;
        trace t ~now
          (Message_discarded { id = m.Wire.id; dst = t.pid; reason = Trace.Orphan_message })
      end
      else begin
        Store.append_volatile t.store (Requeued m);
        if not (buffered_in_recv t m.Wire.id) then
          t.recv_buf <- t.recv_buf @ [ (now, m) ]
      end)
    removed;
  (* Requeued records inside the replayed prefix are messages an {e
     earlier} rollback re-buffered and whose re-delivery this restore just
     undid (or never happened).  Restart re-buffers exactly these after a
     crash, so the live node must too — dropping them here would leave the
     store remembering a message the process forgot, and the next restart
     would deliver it, diverging from the live run. *)
  requeue_undelivered t ~now walked_requeued;
  ignore (Store.flush_forced t.store : int);
  (* Prune volatile structures of the undone intervals.  State-interval
     indices are monotone along a process history, so "undone" is exactly
     "index greater than the replay stop point". *)
  let undone (e : Entry.t) = e.sii > stop.sii in
  Hashtbl.filter_map_inplace
    (fun _ dl -> if undone dl.dl_interval then None else Some dl)
    t.delivered;
  Hashtbl.filter_map_inplace
    (fun interval parents -> if undone interval then None else Some parents)
    t.direct_parents;
  (* Unacked deliveries are all open: a delivery commits only once flushed,
     and every flush acks. *)
  t.unacked <- List.filter (fun (_, id) -> Hashtbl.mem t.delivered id) t.unacked;
  List.iter (cancel_send t ~now)
    (Backlog.remove_if t.send_buf (fun ps -> undone ps.ps_interval));
  let dropped_outs =
    Backlog.remove_if t.out_buf (fun po -> undone po.po_id.Wire.out_interval)
  in
  List.iter
    (fun po ->
      Hashtbl.remove t.buffered_out_ids po.po_id;
      Hashtbl.remove t.assemblies po.po_id)
    dropped_outs;
  Obs.Counter.add t.meters.undone_intervals (old_current.sii - stop.sii);
  (* The new number must exceed every incarnation this process ever used;
     [old_current.inc] is that maximum. *)
  bump_incarnation t ~inc:(old_current.inc + 1) ~log_pos:stop_pos;
  let new_current = t.current in
  (* The pre-restore flush made the surviving prefix stable; record that
     transition (the new marker interval is stable by construction). *)
  trace t ~now (Stability_advanced { pid = t.pid; upto = stop });
  trace t ~now
    (Rolled_back
       { pid = t.pid; restored = stop; first_undone; new_current; because = ann });
  if (proto t).announce_all_rollbacks then begin
    (* Pre-Theorem 1 behaviour (Strom & Yemini): every rollback is
       announced, not just failures. *)
    let fa =
      {
        Wire.from_ = t.pid;
        ending = Entry.make ~inc:old_current.inc ~sii:stop.sii;
        failure = false;
      }
    in
    absorb_ann t ~persist:true fa;
    Obs.Counter.incr t.meters.announcements_sent;
    push t (Broadcast (Wire.Ann fa))
  end

(* ------------------------------------------------------------------ *)
(* Receive_failure_ann (Figure 3)                                      *)

let discard_orphan_receives t ~now =
  let orphans, kept =
    if (breakage t).break_orphan_check then ([], t.recv_buf)
    else List.partition (fun (_, m) -> orphan_wire t m) t.recv_buf
  in
  t.recv_buf <- kept;
  List.iter
    (fun ((_, m) : float * 'msg Wire.app_message) ->
      Obs.Counter.incr t.meters.orphans_discarded;
      trace t ~now
        (Message_discarded { id = m.id; dst = t.pid; reason = Trace.Orphan_message }))
    orphans

let cancel_orphan_sends t ~now =
  List.iter (cancel_send t ~now)
    (Backlog.remove_if t.send_buf (fun ps -> orphan_vector t ps.ps_tdv))

let retransmit t ~dst =
  Archive.iter_oldest t.archive (fun (m : 'msg Wire.app_message) ->
      if m.dst = dst && not (orphan_wire t m) then begin
        Obs.Counter.incr t.meters.retransmissions;
        push t (Unicast { dst; packet = Wire.App m })
      end)

(* Periodic retransmission (armed by [Config.timing.retransmit_interval]):
   re-send the archived messages whose per-message backoff has expired
   (not yet acked, not orphan).  On a lossless network the archive drains
   via acks before the first tick; on a lossy one this is what makes
   delivery eventually happen.  The backoff ({!Archive.due_oldest}) keeps
   an undrained archive from flooding the wire every tick and starving the
   very acks that would drain it. *)
let do_retransmit_tick t =
  Archive.due_oldest t.archive (fun (m : 'msg Wire.app_message) ->
      if not (orphan_wire t m) then begin
        Obs.Counter.incr t.meters.retransmissions;
        push t (Unicast { dst = m.Wire.dst; packet = Wire.App m })
      end)

let receive_ann t ~now (ann : Wire.announcement) =
  let j = ann.from_ in
  (* Dedup: a re-broadcast, a duplicated packet or a gossiped copy of an
     announcement already absorbed is a no-op (announcement contents are
     unique per rollback/restart, so structural equality identifies them). *)
  if j = t.pid || Hashtbl.mem t.anns_seen ann then ()
  else begin
    trace t ~now (Announcement_received { pid = t.pid; ann });
    (* "Synchronously log the received announcement". *)
    absorb_ann t ~persist:true ann;
    discard_orphan_receives t ~now;
    cancel_orphan_sends t ~now;
    Archive.remove_if t.archive (orphan_wire t);
    (match (proto t).tracking with
    | Config.Transitive -> (
      match Dep_vector.get t.tdv j with
      | Some e when orphan_entry ann e -> rollback t ~now ~because:ann
      | Some _ | None -> ())
    | Config.Direct ->
      (* Only direct dependencies are visible; transitive orphans are caught
         by the cascade of rollback announcements this rollback emits. *)
      let hit =
        Hashtbl.fold
          (fun (id : Wire.identity) _interval acc ->
            acc || (id.origin = j && orphan_entry ann id.origin_interval))
          t.delivered false
      in
      if hit then rollback t ~now ~because:ann);
    elide_tdv t;
    recheck t ~now;
    (* Footnote 3: messages lost in transit to a failed process "can be
       retrieved from the senders' volatile logs". *)
    if ann.failure then retransmit t ~dst:j
  end

(* ------------------------------------------------------------------ *)
(* Receive_log (Figure 3)                                              *)

let receive_notice t ~now (notice : Wire.notice) =
  if notice.Wire.from_ <> t.pid then note_floor t notice.Wire.from_ notice.Wire.floor;
  List.iter
    (fun (j, entries) ->
      ensure_member t j;
      List.iter (note_stable t j) entries)
    notice.Wire.rows;
  elide_tdv t;
  fold_committed t;
  recheck t ~now;
  (* Gossiped announcements (anti-entropy against announcement loss): each
     is absorbed exactly as a direct broadcast would be; already-seen ones
     are deduplicated inside [receive_ann]. *)
  List.iter (fun ann -> receive_ann t ~now ann) notice.Wire.anns

let receive_ack t (ack : Wire.ack) =
  List.iter (fun id -> Archive.remove t.archive id) ack.ids

(* ------------------------------------------------------------------ *)
(* Receive_message (Figure 2)                                          *)

let receive_app t ~now (m : 'msg Wire.app_message) =
  match
    if (breakage t).break_dup_suppression then None
    else if buffered_in_recv t m.id then Some `Buffered
    else if seen t m then Some `Delivered
    else None
  with
  | Some kind ->
    Obs.Counter.incr t.meters.duplicates_dropped;
    trace t ~now (Message_discarded { id = m.id; dst = t.pid; reason = Trace.Duplicate });
    (* The duplicate proves the sender still archives this message; if its
       delivery is already stable here, ack it so the sender can GC.  A
       buffered copy is not even delivered yet, let alone stable. *)
    if
      kind = `Delivered
      && m.src >= 0
      && not (List.exists (fun (_, id) -> id = m.id) t.unacked)
    then
      push t (Unicast { dst = m.src; packet = Wire.Ack { from_ = t.pid; to_ = m.src; ids = [ m.id ] } })
  | None ->
    if orphan_wire t m && not (breakage t).break_orphan_check then begin
      Obs.Counter.incr t.meters.orphans_discarded;
      trace t ~now (Message_discarded { id = m.id; dst = t.pid; reason = Trace.Orphan_message })
    end
    else begin
      t.recv_buf <- t.recv_buf @ [ (now, m) ];
      drain t ~now
    end

(* ------------------------------------------------------------------ *)
(* Checkpoint (Figure 3)                                               *)

(* Log/checkpoint garbage collection.  A checkpoint all of whose
   dependency entries are currently known stable can never be orphaned: if
   it were, it would transitively depend on a never-stable lost interval,
   whose entry is never elided (Theorem 3) and can never be covered — so
   the vector would contain a never-stable entry.  Rollback therefore
   never restores past such a checkpoint and Restart never replays records
   before it: older checkpoints and the log prefix are reclaimable.  Two
   safeguards: the boundary never crosses a still-undelivered Requeued
   record (the only persistent copy of its message), and the collected
   deliveries are persisted as Gc_stubs in the synchronous area so
   duplicate suppression survives crashes.  The anchor checkpoint is
   named by its index in the newest-first checkpoint sequence: a durable
   store reads checkpoints back from their files, newest first and only
   as far as the anchor, so no two reads return the same physical
   value. *)
let gc_anchor t =
  if Dep_vector.non_null_count t.tdv = 0 then Some (Store.stable_log_length t.store, None)
  else
    Option.map
      (fun (i, ck) -> (ck.ck_log_pos, Some i))
      (find_anchor t (fun ck -> ck.ck_tdv) (Store.checkpoints t.store))

let run_gc t =
  match gc_anchor t with
  | None -> ()
  | Some (anchor_pos, anchor_idx) ->
    let base = Store.log_base t.store in
    if anchor_pos > base then begin
      let boundary = ref base in
      let collected = ref [] in
      (try
         Store.fold_log_from t.store ~pos:base ~init:() ~f:(fun () pos record ->
             if pos >= anchor_pos then raise Exit;
             (match record with
             | Requeued m when not (seen t m) -> raise Exit
             | Delivery d -> collected := d.lg_msg :: !collected
             | Requeued _ ->
               (* its re-delivery is a later record, collected with it or
                  still in the log *)
               ());
             boundary := pos + 1)
       with Exit -> ());
      if !boundary > base then begin
        (* Persist the collected deliveries before dropping their records. *)
        Store.log_announcement t.store (Wire.Gc_stubs (stubs_of t !collected));
        Obs.Counter.add t.meters.gc_records (Store.discard_log_prefix t.store ~before:!boundary)
      end
    end;
    (* Checkpoints older than the anchor are never restored again. *)
    (match anchor_idx with
    | Some i -> ignore (Store.prune_checkpoints t.store ~keep_latest:(i + 1) : int)
    | None ->
      (* anchor is the about-to-be-saved state: prune after it is saved *)
      ())

(* Immutable snapshots of the buffered sends and outputs, for a full or a
   per-partition checkpoint. *)
let saved_effects t =
  ( List.map
      (fun ps ->
        {
          sv_id = ps.ps_id;
          sv_dst = ps.ps_dst;
          sv_interval = ps.ps_interval;
          sv_dep = Dep_vector.non_null ps.ps_tdv;
          sv_payload = ps.ps_payload;
          sv_enqueued = ps.ps_enqueued;
          sv_k = ps.ps_k;
        })
      (Backlog.to_list t.send_buf),
    List.map
      (fun po ->
        {
          so_id = po.po_id;
          so_text = po.po_text;
          so_dep = Dep_vector.non_null po.po_tdv;
          so_buffered = po.po_buffered;
        })
      (Backlog.to_list t.out_buf) )

let do_checkpoint t ~now =
  (* A full checkpoint snapshots the whole state; a partially replayed
     hybrid is not a state serial replay can reach, so drain first.  The
     flush is forced: the checkpoint's log position must cover every
     delivery its state absorbed, brownout or not. *)
  finish_recovery t ~now;
  do_flush ~forced:true t ~now;
  let sends, outs = saved_effects t in
  let ck =
    {
      ck_current = t.current;
      ck_tdv = Dep_vector.non_null t.tdv;
      ck_state = t.state;
      ck_log_pos = Store.stable_log_length t.store;
      ck_sends = sends;
      ck_outs = outs;
      ck_archive = Archive.newest_first t.archive;
      ck_stubs = no_stubs;
      ck_open = [];
    }
  in
  (* Direct tracking never folds: do not let its checkpoints pile up. *)
  if (proto t).tracking = Config.Transitive then t.ckpts <- commit_point ck :: t.ckpts;
  fold_committed t;
  if (proto t).gc_logs then run_gc t;
  (* The duplicate-suppression state as this checkpoint's fold left it
     covers every delivery before its log position; direct tracking never
     folds, so its checkpoints carry every delivery as open. *)
  let ck =
    {
      ck with
      ck_stubs = committed_stubs t;
      ck_open = Hashtbl.fold (fun id dl acc -> (id, dl) :: acc) t.delivered [];
    }
  in
  Store.save_checkpoint t.store ck;
  if (proto t).gc_logs && ck.ck_tdv = [] then
    (* the state just checkpointed is itself a clean anchor *)
    ignore (Store.prune_checkpoints t.store ~keep_latest:1 : int);
  t.ckpt_ops <- t.ckpt_ops + 1;
  (* Corollary 2: after a checkpoint the dependency on the process's own
     current incarnation can be omitted. *)
  Dep_vector.set t.tdv t.pid None;
  trace t ~now (Checkpoint_taken { pid = t.pid; interval = t.current });
  recheck t ~now

(* ------------------------------------------------------------------ *)
(* Crash / Restart (Figure 3)                                          *)

(* Restart prologue.  It runs only on a node [create]d over the store
   its predecessor halted on, so every volatile field is already at its
   initial value.  Rebuild durable knowledge from the synchronous area
   (announcements we logged — ours and others' — committed outputs,
   incarnation markers), take the store's per-partition checkpoints as
   candidates, locate the full
   checkpoint to rebuild from, take in the duplicate-suppression state it
   saved, and make one streamed pass over the stable log from its
   position that re-seeds the deliveries after it and finds the highest
   incarnation.  Nothing before the checkpoint's position is read: its
   deliveries are in its stubs and open entries, and their incarnations
   are at most its interval's.  Returns the checkpoint and the
   per-partition checkpoint candidates (the newest file per partition; a
   rollback's truncation below a file's position unlinked it before the
   rollback wrote its marker), together with the synchronous area and that
   log suffix.  A
   durable store answers both from its files, so the prologue reads each
   once and the rest of the restart reuses them. *)
let restart_prologue t =
  Obs.Counter.incr t.meters.restarts;
  let parts =
    match t.app.App_intf.partitioning with Some pt -> pt.parts | None -> 0
  in
  let part_ck = Array.make (Stdlib.max parts 1) None in
  List.iter
    (fun (p, pos, snap) -> if p < parts then part_ck.(p) <- Some (pos, snap))
    (Store.part_checkpoints t.store);
  let anns = Store.announcements t.store in
  (* Nothing below the floor of the last GC is regenerated again: see
     [released]. *)
  t.floor <-
    List.fold_left
      (fun acc -> function
        | Wire.Gc_stubs gs ->
          List.fold_left
            (fun acc (j, (f : Entry.t)) -> if j = t.pid then Stdlib.max acc f.sii else acc)
            acc gs.gs_floors
        | _ -> acc)
      0 anns;
  List.iter
    (function
      | Wire.Ann_logged ann -> absorb_ann t ~persist:false ann
      | Wire.Committed oid ->
        if oid.out_interval.sii >= t.floor then Id_pack.replace t.committed_ids oid ()
      | Wire.Gc_stubs gs -> absorb_stubs t gs
      | Wire.Marker _ -> ())
    anns;
  let ck =
    match Store.latest_checkpoint t.store with
    | Some ck -> ck
    | None -> assert false (* the initial checkpoint always exists *)
  in
  t.ckpt_ops <- t.ckpt_ops + 1;
  t.ckpts <- [ commit_point ck ];
  t.folded_sii <- 0;
  absorb_stubs t ck.ck_stubs;
  List.iter (fun (id, dl) -> Hashtbl.replace t.delivered id dl) ck.ck_open;
  (* The failed incarnation is the highest number this process ever used,
     which every bump persisted as a marker (a logged interval still names
     one whose marker a damaged sync area lost).  The next one numbers
     this life's releases too: no earlier life released under it. *)
  let max_inc =
    List.fold_left
      (fun acc r ->
        match r with
        | Wire.Marker { entry; _ } -> Stdlib.max acc entry.Entry.inc
        | Wire.Ann_logged a when a.from_ = t.pid -> Stdlib.max acc a.ending.Entry.inc
        | Wire.Ann_logged _ | Wire.Committed _ | Wire.Gc_stubs _ -> acc)
      ck.ck_current.inc anns
  in
  (* GC never discards past the oldest retained checkpoint. *)
  assert (ck.ck_log_pos >= Store.log_base t.store);
  let max_inc, suffix =
    Store.fold_log_from t.store ~pos:ck.ck_log_pos ~init:(max_inc, [])
      ~f:(fun (max_inc, suffix) _ record ->
        let max_inc =
          match record with
          | Delivery d ->
            note_delivered t d.lg_msg d.lg_interval;
            Stdlib.max max_inc d.lg_interval.inc
          | Requeued _ -> max_inc
        in
        (max_inc, record :: suffix))
  in
  t.epoch <- max_inc + 1;
  (ck, part_ck, anns, List.rev suffix)

(* Apply the per-partition checkpoints that survive over the restored
   full checkpoint [ck], and re-instate the pending effects their covered
   (skipped) records would have regenerated.  [records] is the log suffix
   the walk will replay.  Slots that cannot be used are cleared. *)
let apply_part_checkpoints t (pt : ('state, 'msg) App_intf.partitioning) ~ck ~part_ck
    ~records =
  (* A barrier in the replay range reads and writes state outside any
     single partition, so no per-partition snapshot is sound across it;
     applications with barriers declare no export anyway. *)
  let has_barrier =
    List.exists
      (function
        | Delivery d -> pt.part_of_msg ~n:t.app_n d.lg_msg.Wire.payload = None
        | Requeued _ -> false)
      records
  in
  let stable_len = Store.stable_log_length t.store in
  Array.iteri
    (fun p slot ->
      match (slot, pt.part_import) with
      | Some (pos, (slice, sends, outs, archive)), Some import
        when (not has_barrier) && pos > ck.ck_log_pos && pos <= stable_len -> (
        (* A slice the app refuses is a reported loss: the slot is
           dropped, the partition falls back to replaying from the full
           checkpoint, and the drop is counted. *)
        match import t.state p slice with
        | state' ->
          t.state <- state';
          reinstate_saved_sends t sends;
          reinstate_saved_outs t outs;
          reinstate_archive t archive
        | exception Failure _ ->
          part_ck.(p) <- None;
          Obs.Counter.incr t.meters.part_ckpt_dropped)
      | Some _, _ -> part_ck.(p) <- None
      | None, _ -> ())
    part_ck

(* The deferred restart's executor: take each logged delivery's interval
   step now, with the dependency-vector snapshot its regenerated effects
   must carry, and queue its handler per partition (a barrier closes a
   stage).  [finish] turns the queues into the recovery window, or [None]
   when nothing is left to replay. *)
let deferred_exec t (pt : ('state, 'msg) App_intf.partitioning) ~part_ck =
  let fresh_queues () = Array.init pt.parts (fun _ -> Queue.create ()) in
  let stages_rev = ref [] in
  let cur = ref (fresh_queues ()) in
  let part_pending = Array.make pt.parts 0 in
  let barriers = ref 0 in
  let frontier = ref None in
  let exec ~pos ~window (m : 'msg Wire.app_message) =
    ignore (step_interval t m : Entry.t);
    let item covered =
      {
        ri_msg = m;
        ri_interval = t.current;
        ri_tdv = Dep_vector.copy t.tdv;
        ri_window = window;
        ri_covered = covered;
      }
    in
    match pt.part_of_msg ~n:t.app_n m.payload with
    | Some p ->
      let covered =
        match part_ck.(p) with Some (cpos, _) -> pos < cpos | None -> false
      in
      let ri = item covered in
      Queue.add ri (!cur).(p);
      part_pending.(p) <- part_pending.(p) + 1;
      frontier := Some ri
    | None ->
      let ri = item false in
      stages_rev := { rs_queues = !cur; rs_barrier = Some ri } :: !stages_rev;
      cur := fresh_queues ();
      incr barriers;
      frontier := Some ri
  in
  let finish () =
    if Array.fold_left ( + ) 0 part_pending + !barriers = 0 then None
    else
      Some
        {
          rc_parts = pt.parts;
          rc_stages = List.rev ({ rs_queues = !cur; rs_barrier = None } :: !stages_rev);
          rc_part_pending = part_pending;
          rc_barriers_pending = !barriers;
          rc_replayed = 0;
          rc_frontier = !frontier;
          rc_next = 0;
          rc_live_delivered = false;
        }
  in
  (exec, finish)

(* Restart (Figure 3): rebuild durable knowledge, restore the newest
   checkpoint, walk the log from it, re-instate the archive and the
   undelivered requeued messages, and start a new incarnation.  The
   application's partitioning picks the executor.  An unpartitioned
   application re-executes each logged delivery as the walk reaches it.
   A partitioned one first applies the surviving per-partition
   checkpoints, then queues each delivery's handler: the node comes back
   up {e before} replaying, and the caller pumps {!do_replay_step} while
   already serving requests on partitions whose queues have drained. *)
let do_restart t ~now =
  let rep0 = Obs.Counter.value t.meters.replayed in
  let ck, part_ck, anns, records = restart_prologue t in
  restore_checkpoint t ck;
  let exec, recovery =
    match t.app.App_intf.partitioning with
    | Some pt ->
      apply_part_checkpoints t pt ~ck ~part_ck ~records;
      deferred_exec t pt ~part_ck
    | None -> (redeliver t ~now, fun () -> None)
  in
  let _, requeued = walk_log t ~ck ~anns ~records ~halt:(fun _ -> false) ~exec in
  (* Recover the retransmission archive: replay re-released the sends of
     replayed intervals; anything older comes from the checkpoint copy. *)
  reinstate_archive t ck.ck_archive;
  requeue_undelivered t ~now requeued;
  (* Everything reconstructed from the stable log is stable by definition;
     announce the failure and continue in the incarnation the prologue
     chose. *)
  trace t ~now (Stability_advanced { pid = t.pid; upto = t.current });
  let fa =
    {
      Wire.from_ = t.pid;
      ending = Entry.make ~inc:(t.epoch - 1) ~sii:t.current.sii;
      failure = true;
    }
  in
  absorb_ann t ~persist:true fa;
  bump_incarnation t ~inc:t.epoch ~log_pos:(Store.stable_log_length t.store);
  elide_tdv t;
  t.up <- true;
  Obs.Counter.incr t.meters.announcements_sent;
  trace t ~now (Restarted { pid = t.pid; announced = fa; new_current = t.current });
  push t (Broadcast (Wire.Ann fa));
  (match recovery () with
  | Some rc -> t.recovery <- Some rc
  | None ->
    trace t ~now
      (Recovery_completed
         { pid = t.pid; replayed = Obs.Counter.value t.meters.replayed - rep0 }));
  recheck t ~now

(* ------------------------------------------------------------------ *)
(* Per-partition incremental checkpoints                               *)

(* Snapshot the dirtiest partition's slice together with the pending
   sends, outputs and retransmission archive (the effects replay of its
   covered records would otherwise regenerate — a superset is safe, the
   restore paths deduplicate by identity exactly as full-checkpoint
   restore does) into the store's file for that partition, which
   replaces the partition's previous one.  Returns false when the
   application exports no slices or nothing is dirty. *)
let do_partition_checkpoint t ~now =
  match t.app.App_intf.partitioning with
  | Some { part_export = Some export; _ } when t.recovery = None ->
    let best = ref (-1) in
    Array.iteri
      (fun p c -> if c > 0 && (!best < 0 || c > t.part_dirty.(!best)) then best := p)
      t.part_dirty;
    if !best < 0 then false
    else begin
      let p = !best in
      (* Flush first (forced, like the full checkpoint's) so the snapshot
         corresponds exactly to the stable prefix it claims to cover. *)
      do_flush ~forced:true t ~now;
      let sends, outs = saved_effects t in
      Store.save_part_checkpoint t.store ~part:p
        (export t.state p, sends, outs, Archive.newest_first t.archive);
      t.part_dirty.(p) <- 0;
      true
    end
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Public driver interface                                             *)

let recovery_active t = t.recovery <> None

let recovery_pending t =
  match t.recovery with
  | None -> 0
  | Some rc -> Array.fold_left ( + ) 0 rc.rc_part_pending + rc.rc_barriers_pending

let partition_count t =
  match t.app.App_intf.partitioning with Some pt -> pt.parts | None -> 0

let partition_recovered t p =
  match t.recovery with
  | None -> true
  | Some rc ->
    p >= 0 && p < rc.rc_parts
    && rc.rc_part_pending.(p) = 0
    && rc.rc_barriers_pending = 0

(* The recovery-window gauges: set at creation, then refreshed after a
   halt and after every driver step while a window is open or has just
   closed — the only places it can move. *)
let set_recovery_gauges t =
  let parts = partition_count t in
  let recovered = List.length (List.filter (partition_recovered t) (List.init parts Fun.id)) in
  let set g v = Obs.Gauge.set g (float_of_int v) in
  set t.meters.recovery_active (if recovery_active t then 1 else 0);
  set t.meters.recovery_replay_pending (recovery_pending t);
  set t.meters.recovery_partitions_total parts;
  set t.meters.recovery_partitions_recovered recovered

let refresh_recovery_gauges t =
  if t.recovery <> None || Obs.Gauge.value t.meters.recovery_active > 0. then
    set_recovery_gauges t

(* [?obs] sits before the labelled [~trace], so it can never be erased by
   a positional application — warning 16 does not apply to how these
   functions are actually used (every caller passes it or forwards
   [?obs:None]). *)
let[@warning "-16"] create_on ~fs ~config ~pid ~app ~store_dir ?obs ~trace:tr =
  let config = Config.validate_exn config in
  let n = config.Config.n in
  if pid < 0 || pid >= n then invalid_arg "Node.create: pid out of range";
  let state = app.App_intf.init ~pid ~n in
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let store = Store.open_ ~fs ~dir:store_dir ~obs () in
  let fresh_store = Store.fresh store in
  let t =
    {
      cfg = config;
      pid;
      n;
      app_n = n;
      app;
      trace = tr;
      obs;
      meters = Obs.Registry.group obs meters_group;
      store;
      up = fresh_store;
      current = Entry.initial;
      tdv = Dep_vector.create ~n;
      state;
      log_tab = Array.make n Entry_set.empty;
      log_gen = 0;
      iet = Array.make n Entry_set.empty;
      max_ann_inc = Array.make n (-1);
      recv_buf = [];
      send_buf = Backlog.create ();
      out_buf = Backlog.create ();
      delivered = Hashtbl.create 64;
      held = Id_pack.create Wire.identity_packing Wire.position_packing;
      chans = Hashtbl.create 8;
      floors = Hashtbl.create 8;
      floor = 0;
      ckpts = [];
      folded_sii = 0;
      epoch = 0;
      chan_next = Hashtbl.create 8;
      direct_parents = Hashtbl.create 64;
      assemblies = Hashtbl.create 8;
      released_ids = Id_pack.create Wire.identity_packing Wire.unit_packing;
      buffered_send_ids = Hashtbl.create 16;
      buffered_out_ids = Hashtbl.create 16;
      committed_ids = Id_pack.create Wire.output_packing Wire.unit_packing;
      archive = Archive.create ();
      anns_seen = Hashtbl.create 16;
      anns_order = [];
      unacked = [];
      send_idx = 0;
      out_idx = 0;
      frontier = Entry.initial;
      ckpt_ops = 0;
      actions = [];
      recovery = None;
      part_dirty =
        (match app.App_intf.partitioning with
        | Some pt -> Array.make pt.parts 0
        | None -> [||]);
      retired = Hashtbl.create 4;
    }
  in
  (* A damaged store can come back with every checkpoint dropped (e.g. a
     bit flip in the only checkpoint file).  Open-time recovery already
     counted the loss ([storage_checkpoints_dropped_total]); restart still
     needs a checkpoint to rebuild from, so re-seed the initial one —
     replay then reconstructs whatever the surviving log suffix allows. *)
  if Store.checkpoint_count store = 0 then Store.save_checkpoint t.store (initial_checkpoint t state);
  if fresh_store then begin
    note_stable t pid t.current;
    Trace.add tr ~time:0.
      (Interval_started
         {
           pid;
           interval = t.current;
           pred = None;
           by = None;
           sender_interval = None;
           digest = app.App_intf.digest state;
           replay = false;
         })
  end;
  (* A node reopened over a pre-existing store starts down (the previous
     incarnation of the process died); the driver brings it back with
     [restart_begin], which rebuilds everything from the persisted state —
     Figure 3's Restart, now from real files. *)
  set_recovery_gauges t;
  t

let[@warning "-16"] create ~config ~pid ~app ~store_dir ?obs ~trace =
  create_on ~fs:Durable.Fs.unix ~config ~pid ~app ~store_dir ?obs ~trace

let with_cost t f =
  let sync0 = Store.sync_writes t.store in
  let del0 = Obs.Counter.value t.meters.deliveries in
  let rep0 = Obs.Counter.value t.meters.replayed in
  let ck0 = t.ckpt_ops in
  t.actions <- [];
  f ();
  (* One fsync for the step's output-commit records ([commit_output]). *)
  Store.sync_announcements t.store;
  refresh_recovery_gauges t;
  let actions = List.rev t.actions in
  t.actions <- [];
  ( actions,
    {
      deliveries = Obs.Counter.value t.meters.deliveries - del0;
      replays = Obs.Counter.value t.meters.replayed - rep0;
      sync_writes = Store.sync_writes t.store - sync0;
      checkpoints = t.ckpt_ops - ck0;
    } )

let guard t f = if t.up then f () else ()

let handle_packet t ~now packet =
  with_cost t (fun () ->
      guard t (fun () ->
          match packet with
          | Wire.App m -> receive_app t ~now m
          | Wire.Ann ann -> receive_ann t ~now ann
          | Wire.Notice notice -> receive_notice t ~now notice
          | Wire.Ack ack -> receive_ack t ack
          | Wire.Flush_request { from_ } ->
            do_flush t ~now;
            push t (Unicast { dst = from_; packet = Wire.Notice (own_notice t) })
          | Wire.Dep_query { from_; intervals } ->
            let infos =
              List.map (fun interval -> (interval, local_dep_info t interval)) intervals
            in
            push t (Unicast { dst = from_; packet = Wire.Dep_reply { from_ = t.pid; infos } })
          | Wire.Dep_reply { from_; infos } ->
            Hashtbl.iter
              (fun _ asm ->
                List.iter
                  (fun (interval, info) ->
                    if Hashtbl.mem asm.members (from_, interval) then
                      assembly_absorb t asm (from_, interval) info)
                  infos)
              t.assemblies;
            check_output_buffer t ~now
          | Wire.Join { from_; n; current } ->
            if from_ >= 0 && n >= from_ + 1 then begin
              (* Widen to the joiner's view of the cluster (Corollary 3)
                 and adopt its current interval as stable: a joiner's
                 pre-join history is recovered-from-log or initial, hence
                 logged.  A {e re}-join (known pid, fresh incarnation
                 after a retire or a long partition) takes the same path —
                 the widening is a no-op and the adoption refreshes the
                 stability row. *)
              ensure_member t (n - 1);
              Hashtbl.remove t.retired from_;
              note_stable t from_ current;
              elide_tdv t;
              recheck t ~now;
              (* Hand the joiner our stability knowledge so its own vector
                 entries start draining without waiting a notice period. *)
              push t (Unicast { dst = from_; packet = Wire.Notice (own_notice t) })
            end
          | Wire.Retire { from_; upto } ->
            if from_ >= 0 && from_ <> t.pid then begin
              ensure_member t from_;
              (* The retiree flushed before announcing: everything up to
                 [upto] is stable, and nothing after [upto] will ever
                 exist.  Recording the frontier lets Theorem 2 elide its
                 entries, so no send blocks forever on a process that is
                 gone. *)
              Hashtbl.replace t.retired from_ upto;
              note_stable t from_ upto;
              elide_tdv t;
              recheck t ~now
            end))

let inject t ~now ~seq ?(cseq = Wire.no_cseq) payload =
  with_cost t (fun () ->
      guard t (fun () ->
          let m =
            {
              Wire.id =
                {
                  Wire.origin = App_intf.outside_world;
                  origin_interval = Entry.make ~inc:0 ~sii:seq;
                  idx = 0;
                };
              src = App_intf.outside_world;
              dst = t.pid;
              send_interval = Entry.initial;
              dep = [];
              payload;
              epoch = 0;
              cseq;
            }
          in
          receive_app t ~now m))

let flush t ~now = with_cost t (fun () -> guard t (fun () -> do_flush t ~now))

let perform t ~now effects =
  with_cost t (fun () ->
      guard t (fun () ->
          List.iter
            (function
              | App_intf.Send { dst; msg; k } -> send_message t ~now ~dst ~k msg
              | App_intf.Output text -> buffer_output t ~now text)
            effects;
          check_send_buffer t ~now;
          check_output_buffer t ~now))

let checkpoint t ~now = with_cost t (fun () -> guard t (fun () -> do_checkpoint t ~now))

let broadcast_notice t ~now =
  with_cost t (fun () ->
      guard t (fun () ->
          (* Direct tracking: allow one assembly query round per notice
             period, and advance pending assemblies. *)
          if (proto t).tracking = Config.Direct then begin
            Hashtbl.iter
              (fun _ asm ->
                Hashtbl.iter (fun _ st -> st.m_queried <- false) asm.members)
              t.assemblies;
            check_output_buffer t ~now
          end;
          let notice = own_notice t in
          let entries =
            List.fold_left (fun acc (_, es) -> acc + List.length es) 0 notice.Wire.rows
          in
          Obs.Counter.incr t.meters.notices;
          Obs.Counter.add t.meters.notice_entries entries;
          trace t ~now (Notice_sent { pid = t.pid; entries });
          push t (Broadcast (Wire.Notice notice))))

let retransmit_tick t ~now =
  ignore now;
  with_cost t (fun () -> guard t (fun () -> do_retransmit_tick t))

let halt t ~now =
  if t.up then begin
    let first_lost =
      match Store.volatile_peek t.store with
      | Some (Delivery d) -> Some d.lg_interval
      | Some (Requeued _) | None ->
        (* Requeued records are flushed as soon as they are written, so the
           volatile buffer starts with a delivery whenever it is non-empty. *)
        None
    in
    Obs.Counter.add t.meters.lost_intervals (Store.volatile_length t.store);
    t.up <- false;
    t.recovery <- None;
    trace t ~now (Crashed { pid = t.pid; first_lost })
  end;
  Store.kill t.store;
  refresh_recovery_gauges t

let restart_begin t ~now = with_cost t (fun () -> if not t.up then do_restart t ~now)

let replay_step t ~now ?prefer ~budget () =
  let executed = ref 0 in
  let actions, cost =
    with_cost t (fun () ->
        guard t (fun () -> executed := do_replay_step t ~now ?prefer ~budget ()))
  in
  (!executed, actions, cost)

let partition_checkpoint t ~now =
  let did = ref false in
  let actions, cost =
    with_cost t (fun () ->
        guard t (fun () -> did := do_partition_checkpoint t ~now))
  in
  (!did, actions, cost)

let is_up t = t.up

let storage_words t = Obj.reachable_words (Obj.repr t.store)

let dedup_words t =
  Obj.reachable_words
    (Obj.repr (t.delivered, t.held, t.chans, t.released_ids, t.committed_ids))

let dedup_sizes t =
  ( Hashtbl.length t.delivered,
    Id_pack.length t.held,
    Hashtbl.fold (fun _ runs acc -> acc + Seq_set.run_count runs) t.chans 0 )

let id_table_sizes t =
  (Id_pack.length t.held, Id_pack.length t.released_ids, Id_pack.length t.committed_ids)

let id_table_words t = Obj.reachable_words (Obj.repr (t.held, t.released_ids, t.committed_ids))

let arm_storage_disk_full t ~rounds = Store.arm_disk_full t.store ~rounds

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

let membership_n t = t.n

let is_retired t j = Hashtbl.mem t.retired j

let retired_frontier t j = Hashtbl.find_opt t.retired j

let announce_join t ~now =
  with_cost t (fun () ->
      guard t (fun () ->
          (* Receivers adopt [t.current] as stable (Corollary 3), so make it
             true first, as [retire] does: a re-announcement by a process
             that never left may hold unlogged deliveries. *)
          do_flush ~forced:true t ~now;
          push t (Broadcast (Wire.Join { from_ = t.pid; n = t.n; current = t.current }))))

let retire t ~now =
  with_cost t (fun () ->
      guard t (fun () ->
          (* Flush first (forced — a leaver must not be stoppable by a
             brownout window): the Retire frontier claims stability up to
             [t.current], so make it true before anyone hears the claim. *)
          do_flush ~forced:true t ~now;
          push t (Broadcast (Wire.Retire { from_ = t.pid; upto = t.current }))))

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let pid t = t.pid

let config t = t.cfg

let current t = t.current

let dep_vector t = Dep_vector.copy t.tdv

let app_state t = t.state

let log_row t j = t.log_tab.(j)

let iet_row t j = t.iet.(j)

(* The notice broadcast_notice would send right now, without the metrics
   or trace side effects — for piggybacking on outgoing data frames. *)
let current_notice t =
  if not t.up then None
  else Some (own_notice t)

let send_buffer_size t = Backlog.length t.send_buf

let receive_buffer_size t = List.length t.recv_buf

let archive_size t = Archive.length t.archive

let receive_buffer_messages t = List.map snd t.recv_buf

let output_buffer_size t = Backlog.length t.out_buf

let stable_frontier t = t.frontier

(* --- fast-recovery inspection --- *)

let partition_of_payload t payload = part_of_payload t payload

let partition_digest t p =
  match t.app.App_intf.partitioning with
  | Some pt when p >= 0 && p < pt.parts -> Some (pt.part_digest t.state p)
  | Some _ | None -> None

let obs t = t.obs

let volatile_log_length t = Store.volatile_length t.store

let stable_log_length t = Store.stable_log_length t.store

let live_log_records t = Store.live_log_records t.store
