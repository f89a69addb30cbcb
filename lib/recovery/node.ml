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

let zero_cost = { deliveries = 0; replays = 0; sync_writes = 0; checkpoints = 0 }

let add_cost a b =
  {
    deliveries = a.deliveries + b.deliveries;
    replays = a.replays + b.replays;
    sync_writes = a.sync_writes + b.sync_writes;
    checkpoints = a.checkpoints + b.checkpoints;
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
  part_ckpt_dropped : Obs.Counter.t;  (* damaged Part_ckpt payloads dropped *)
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
}

(* --- Partitioned (fast) recovery ----------------------------------- *)

(* One logged delivery awaiting partitioned replay.  The metadata pass of
   [restart_begin] walks the log serially {e without} running the
   application, so it can pre-compute per-record context: the interval the
   replay must land on and the dependency-vector snapshot the record's
   regenerated effects must carry.  Replaying records of different
   partitions in any order then yields the serial result, because
   cross-partition handlers commute (the {!App_intf.partitioning}
   contract). *)
type 'msg replay_item = {
  ri_msg : 'msg Wire.app_message;
  ri_interval : Entry.t;
  ri_tdv : Dep_vector.t; (* vector after this delivery, from the metadata pass *)
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
  store : (('state, 'msg) ckpt, 'msg logged, Wire.sync_record) Storage.Stable_store.t;
  (* --- volatile protocol state (lost at crash) --- *)
  mutable up : bool;
  mutable current : Entry.t;
  mutable tdv : Dep_vector.t;
  mutable state : 'state;
  mutable log_tab : Entry_set.t array; (* log[j]: stability knowledge *)
  mutable iet : Entry_set.t array; (* incarnation end tables *)
  mutable max_ann_inc : int array; (* highest announced incarnation, or -1 *)
  mutable recv_buf : (float * 'msg Wire.app_message) list;
      (* (arrival time, message), oldest first *)
  mutable send_buf : 'msg pending_send list; (* oldest first *)
  mutable out_buf : pending_output list; (* oldest first *)
  delivered : (Wire.identity, Entry.t) Hashtbl.t;
  stubs : (Wire.identity, unit) Hashtbl.t;
      (* deliveries whose records were GC'd; see Wire.Gc_stubs *)
  direct_parents : (Entry.t, (int * Entry.t) list) Hashtbl.t;
      (* direct tracking: each local interval's chain predecessor and, for
         delivery-started intervals, the sending interval.  Rebuilt by
         replay; pruned with the chain on rollback. *)
  assemblies : (Wire.output_id, assembly) Hashtbl.t;
      (* direct tracking: one transitive-closure assembly per pending
         output *)
  released_ids : (Wire.identity, unit) Hashtbl.t;
  buffered_send_ids : (Wire.identity, unit) Hashtbl.t;
  buffered_out_ids : (Wire.output_id, unit) Hashtbl.t;
  committed_ids : (Wire.output_id, unit) Hashtbl.t; (* cache of stable records *)
  archive : 'msg Archive.t; (* released msgs awaiting ack, in release order *)
  anns_seen : (Wire.announcement, unit) Hashtbl.t;
  mutable anns_order : Wire.announcement list;
      (* announcements absorbed (received or own), newest first; gossiped
         on notices when [gossip_announcements] is set *)
  mutable unacked : (int * Wire.identity) list; (* deliveries awaiting ack *)
  mutable send_idx : int; (* sends performed in the current interval *)
  mutable out_idx : int; (* outputs performed in the current interval *)
  mutable frontier : Entry.t; (* own chain's known-stable frontier *)
  mutable outputs_log : (string * float) list; (* outside world's ledger *)
  mutable ckpt_ops : int;
  mutable actions : 'msg action list; (* reversed accumulator *)
  mutable recovery : 'msg recovery option;
      (* in-progress partitioned replay; [None] once recovery completes
         (or for serial restarts).  Volatile: a crash drops it and the
         next restart replays from the log again. *)
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

module Store = Storage.Stable_store

let push t a = t.actions <- a :: t.actions

let trace t ~now ev = Trace.add t.trace ~time:now ev

let proto t = t.cfg.Config.protocol

let breakage t = (proto t).Config.breakage

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
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) t.current;
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

(* ------------------------------------------------------------------ *)
(* Send path: Send_message / Check_send_buffer (Figure 2)              *)

let release_send t ~now (ps : 'msg pending_send) =
  Hashtbl.remove t.buffered_send_ids ps.ps_id;
  Hashtbl.replace t.released_ids ps.ps_id ();
  let dep =
    match (proto t).tracking with
    | Config.Transitive -> Dep_vector.non_null ps.ps_tdv
    | Config.Direct ->
      (* Only the sender's current interval travels (Section 5).  It is
         never elided: it is the receiver's sole handle for arrival-time
         orphan checks. *)
      [ (t.pid, ps.ps_interval) ]
  in
  let wire =
    {
      Wire.id = ps.ps_id;
      src = t.pid;
      dst = ps.ps_dst;
      send_interval = ps.ps_interval;
      dep;
      payload = ps.ps_payload;
    }
  in
  let dep_size = List.length dep in
  let wire_vector = if (proto t).commit_tracking then dep_size else t.n in
  let blocked = now -. ps.ps_enqueued in
  Obs.Counter.incr t.meters.releases;
  Obs.Histogram.observe t.meters.blocked_time blocked;
  Obs.Histogram.observe t.meters.release_dep_entries (float_of_int dep_size);
  Obs.Histogram.observe t.meters.wire_vector_size (float_of_int wire_vector);
  if (proto t).retransmit_on_failure || t.cfg.Config.timing.retransmit_interval <> None
  then Archive.add t.archive wire;
  trace t ~now (Message_released { id = ps.ps_id; dep_size; wire_vector; blocked });
  push t (Unicast { dst = ps.ps_dst; packet = Wire.App wire })

let check_send_buffer t ~now =
  if (proto t).commit_tracking then
    List.iter
      (fun ps -> ignore (Dep_vector.elide_stable ps.ps_tdv ~stable:(stable_in_log t) : int))
      t.send_buf;
  let ready, blocked =
    List.partition
      (fun ps ->
        (breakage t).break_send_gate
        || Dep_vector.non_null_count ps.ps_tdv <= ps.ps_k)
      t.send_buf
  in
  t.send_buf <- blocked;
  List.iter (release_send t ~now) ready

(* [send_message_at] performs a send in an explicit interval context
   instead of the node's live one — partitioned replay re-executes records
   out of log order, so the regenerated sends must carry the interval and
   vector snapshot the metadata pass computed for their record, not
   whatever the interleaved replay happens to have made current. *)
let send_message_at t ~now ~interval ~tdv ~idx ~dst ~k payload =
  let id = { Wire.origin = t.pid; origin_interval = interval; idx } in
  (* A replayed execution regenerates the sends of reconstructed intervals
     with identical identities; suppress the ones still accounted for.
     After a crash both tables are empty, so replayed sends are re-released
     — receivers drop the duplicates by identity. *)
  if Hashtbl.mem t.released_ids id || Hashtbl.mem t.buffered_send_ids id then ()
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
    t.send_buf <- t.send_buf @ [ ps ]
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

let commit_output t ~now po =
  Hashtbl.remove t.buffered_out_ids po.po_id;
  Hashtbl.remove t.assemblies po.po_id;
  Hashtbl.replace t.committed_ids po.po_id ();
  Store.log_announcement t.store (Wire.Committed po.po_id);
  t.outputs_log <- (po.po_text, now) :: t.outputs_log;
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
    let ready, waiting = List.partition (output_ready t) t.out_buf in
    t.out_buf <- waiting;
    List.iter (commit_output t ~now) ready
  | Config.Direct ->
    let ready, waiting =
      List.partition
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
        t.out_buf
    in
    t.out_buf <- waiting;
    List.iter (commit_output t ~now) ready;
    List.iter
      (fun po ->
        match Hashtbl.find_opt t.assemblies po.po_id with
        | Some asm -> assembly_step t ~now asm
        | None -> ())
      waiting

(* Explicit-context variant of [buffer_output], for the same reason as
   {!send_message_at}: partitioned replay regenerates outputs out of log
   order, so their identity and dependency snapshot come from the metadata
   pass, not from the node's live interval. *)
let rec buffer_output_at t ~now ~interval ~tdv ~idx text =
  let oid = { Wire.out_interval = interval; out_idx = idx } in
  if Hashtbl.mem t.committed_ids oid || Hashtbl.mem t.buffered_out_ids oid then ()
  else begin
    Hashtbl.replace t.buffered_out_ids oid ();
    let po =
      { po_id = oid; po_text = text; po_tdv = Dep_vector.copy tdv; po_buffered = now }
    in
    t.out_buf <- t.out_buf @ [ po ];
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
      do_flush t ~now ~ack:true
    end
  end

(* ------------------------------------------------------------------ *)
(* Flush: asynchronous logging progress                                *)

and do_flush ?(forced = false) t ~now ~ack =
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
    do_flush_acks t ~ack;
    check_send_buffer t ~now;
    check_output_buffer t ~now
  end

and do_flush_acks t ~ack =
  if ack && t.unacked <> [] then begin
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

let deliver t ~now ~replay ~waited (m : 'msg Wire.app_message) =
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
  elide_tdv t;
  t.send_idx <- 0;
  t.out_idx <- 0;
  Hashtbl.replace t.direct_parents t.current
    ((t.pid, pred) :: (if m.src >= 0 then [ (m.src, m.send_interval) ] else []));
  Hashtbl.replace t.delivered m.id t.current;
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
  if (proto t).sync_logging && not replay then do_flush t ~now ~ack:true
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
   part of. *)
let effective_markers t ~from_pos =
  let all =
    List.fold_left
      (fun acc r ->
        match r with
        | Wire.Marker { entry; log_pos } ->
          List.filter (fun (_, p) -> p < log_pos) acc @ [ (entry, log_pos) ]
        | Wire.Ann_logged _ | Wire.Committed _ | Wire.Gc_stubs _
        | Wire.Part_ckpt _ -> acc)
      []
      (Store.announcements t.store)
  in
  List.filter (fun (_, p) -> p >= from_pos) all

(* End of an incarnation's stable prefix: remember its frontier, then
   continue as the marker interval. *)
let apply_marker t ((entry : Entry.t), _pos) =
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) t.current;
  Hashtbl.replace t.direct_parents entry [ (t.pid, t.current) ];
  t.current <- entry;
  Dep_vector.set t.tdv t.pid (Some entry);
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) entry;
  t.send_idx <- 0;
  t.out_idx <- 0

(* Re-instate checkpointed pending sends and outputs that are not already
   accounted for (released since the checkpoint, still buffered live, or
   committed). *)
let reinstate_saved_sends t svs =
  List.iter
    (fun sv ->
      if
        (not (Hashtbl.mem t.released_ids sv.sv_id))
        && not (Hashtbl.mem t.buffered_send_ids sv.sv_id)
      then begin
        ensure_deps t sv.sv_dep;
        Hashtbl.replace t.buffered_send_ids sv.sv_id ();
        t.send_buf <-
          t.send_buf
          @ [
              {
                ps_id = sv.sv_id;
                ps_dst = sv.sv_dst;
                ps_interval = sv.sv_interval;
                ps_tdv = Dep_vector.of_non_null ~n:t.n sv.sv_dep;
                ps_payload = sv.sv_payload;
                ps_enqueued = sv.sv_enqueued;
                ps_k = sv.sv_k;
              };
            ]
      end)
    svs

let reinstate_saved_outs t sos =
  List.iter
    (fun so ->
      if
        (not (Hashtbl.mem t.committed_ids so.so_id))
        && not (Hashtbl.mem t.buffered_out_ids so.so_id)
      then begin
        ensure_deps t so.so_dep;
        Hashtbl.replace t.buffered_out_ids so.so_id ();
        t.out_buf <-
          t.out_buf
          @ [
              {
                po_id = so.so_id;
                po_text = so.so_text;
                po_tdv = Dep_vector.of_non_null ~n:t.n so.so_dep;
                po_buffered = so.so_buffered;
              };
            ]
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
        Hashtbl.replace t.released_ids m.id ()
      end)
    msgs

(* Restore the checkpoint [ck] and replay the stable log through the
   application, applying incarnation markers at their recorded positions.
   Stops before the first record satisfying [halt] and returns the log
   position reached. *)
let rebuild t ~now ~ck ~halt =
  t.state <- ck.ck_state;
  t.current <- ck.ck_current;
  ensure_deps t ck.ck_tdv;
  t.tdv <- Dep_vector.of_non_null ~n:t.n ck.ck_tdv;
  t.send_idx <- 0;
  t.out_idx <- 0;
  reinstate_saved_sends t ck.ck_sends;
  reinstate_saved_outs t ck.ck_outs;
  let markers = effective_markers t ~from_pos:ck.ck_log_pos in
  let records = Store.stable_log_from t.store ~pos:ck.ck_log_pos in
  let pos = ref ck.ck_log_pos in
  let requeued = ref [] in
  let rec walk markers records =
    match markers, records with
    | ((_, p) as m) :: ms, _ when p <= !pos ->
      apply_marker t m;
      walk ms records
    | _, [] -> ()
    | _, Requeued m :: rs ->
      (* Not a state transition: remember it for the caller (Restart puts
         undelivered ones back into the receive buffer). *)
      requeued := m :: !requeued;
      incr pos;
      walk markers rs
    | _, (Delivery d as r) :: rs ->
      if halt r then ()
      else begin
        deliver t ~now ~replay:true ~waited:0. d.lg_msg;
        assert (Entry.equal t.current d.lg_interval);
        incr pos;
        walk markers rs
      end
  in
  walk markers records;
  (!pos, List.rev !requeued)

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
      let base = Store.log_base t.store in
      let halt_pos = ref (Store.stable_log_length t.store) in
      List.iteri
        (fun i record ->
          match record with
          | Delivery d
            when base + i < !halt_pos
                 && List.exists
                      (fun (p, e) -> p = j && orphan_entry ann e)
                      d.lg_msg.Wire.dep ->
            halt_pos := base + i
          | Delivery _ | Requeued _ -> ())
        (Store.stable_log_from t.store ~pos:base);
      fun ck -> ck.ck_log_pos <= !halt_pos
  in
  let ck =
    match Store.restore_checkpoint t.store ~satisfying:ck_ok with
    | Some ck -> ck
    | None ->
      (* The initial checkpoint has an empty vector at position 0 and
         satisfies either predicate, and it is never discarded. *)
      assert false
  in
  t.ckpt_ops <- t.ckpt_ops + 1;
  (* Replay "till condition (I) is not satisfied": stop before the first
     logged delivery whose piggyback would make us depend on a rolled-back
     interval of P_j. *)
  let halt = function
    | Requeued _ -> false
    | Delivery d ->
      List.exists (fun (i, e) -> i = j && orphan_entry ann e) d.lg_msg.Wire.dep
  in
  let stop_pos, walked_requeued = rebuild t ~now ~ck ~halt in
  let stop = t.current in
  let removed = Store.truncate_stable_log t.store ~keep:stop_pos in
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
  List.iter
    (fun (m : 'msg Wire.app_message) ->
      if
        (not (Hashtbl.mem t.delivered m.Wire.id))
        && (not (buffered_in_recv t m.Wire.id))
        && not (orphan_wire t m)
      then t.recv_buf <- t.recv_buf @ [ (now, m) ])
    walked_requeued;
  ignore (Store.flush_forced t.store : int);
  (* Prune volatile structures of the undone intervals.  State-interval
     indices are monotone along a process history, so "undone" is exactly
     "index greater than the replay stop point". *)
  let undone (e : Entry.t) = e.sii > stop.sii in
  Hashtbl.filter_map_inplace
    (fun _ interval -> if undone interval then None else Some interval)
    t.delivered;
  Hashtbl.filter_map_inplace
    (fun interval parents -> if undone interval then None else Some parents)
    t.direct_parents;
  t.unacked <- List.filter (fun (_, id) -> Hashtbl.mem t.delivered id) t.unacked;
  let cancelled, kept_sends =
    List.partition (fun ps -> undone ps.ps_interval) t.send_buf
  in
  t.send_buf <- kept_sends;
  List.iter (cancel_send t ~now) cancelled;
  let dropped_outs, kept_outs =
    List.partition (fun po -> undone po.po_id.Wire.out_interval) t.out_buf
  in
  t.out_buf <- kept_outs;
  List.iter
    (fun po ->
      Hashtbl.remove t.buffered_out_ids po.po_id;
      Hashtbl.remove t.assemblies po.po_id)
    dropped_outs;
  Obs.Counter.add t.meters.undone_intervals (old_current.sii - stop.sii);
  (* Start a new incarnation, "as if it itself has failed".  The new number
     must exceed every incarnation this process ever used; [old_current.inc]
     is that maximum.  The bump is persisted so that a crash immediately
     after this rollback cannot lead to number reuse. *)
  let new_current = Entry.make ~inc:(old_current.inc + 1) ~sii:(stop.sii + 1) in
  t.current <- new_current;
  Hashtbl.replace t.direct_parents new_current [ (t.pid, stop) ];
  Store.log_announcement t.store (Wire.Marker { entry = new_current; log_pos = stop_pos });
  Dep_vector.set t.tdv t.pid (Some new_current);
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) stop;
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) new_current;
  t.frontier <- new_current;
  t.send_idx <- 0;
  t.out_idx <- 0;
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
    Store.log_announcement t.store (Wire.Ann_logged fa);
    note_ann t fa;
    t.iet.(t.pid) <- Entry_set.insert_min t.iet.(t.pid) fa.ending;
    t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) fa.ending;
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
  let orphans, kept = List.partition (fun ps -> orphan_vector t ps.ps_tdv) t.send_buf in
  t.send_buf <- kept;
  List.iter (cancel_send t ~now) orphans

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
    ensure_member t j;
    note_ann t ann;
    trace t ~now (Announcement_received { pid = t.pid; ann });
    (* "Synchronously log the received announcement". *)
    Store.log_announcement t.store (Wire.Ann_logged ann);
    t.iet.(j) <- Entry_set.insert_min t.iet.(j) ann.ending;
    (* Corollary 1: the announcement doubles as a logging-progress
       notification that the ending interval is stable. *)
    t.log_tab.(j) <- Entry_set.insert t.log_tab.(j) ann.ending;
    if ann.ending.inc > t.max_ann_inc.(j) then t.max_ann_inc.(j) <- ann.ending.inc;
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
    if ann.failure && (proto t).retransmit_on_failure then retransmit t ~dst:j
  end

(* ------------------------------------------------------------------ *)
(* Receive_log (Figure 3)                                              *)

let receive_notice t ~now (notice : Wire.notice) =
  List.iter
    (fun (j, entries) ->
      ensure_member t j;
      List.iter (fun e -> t.log_tab.(j) <- Entry_set.insert t.log_tab.(j) e) entries)
    notice.Wire.rows;
  elide_tdv t;
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
    else if Hashtbl.mem t.delivered m.id || Hashtbl.mem t.stubs m.id then
      Some `Delivered
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
   record (the only persistent copy of its message), and the identities of
   collected deliveries are persisted as Gc_stubs in the synchronous area
   so duplicate suppression survives crashes. *)
let gc_anchor t =
  let all_stable entries = List.for_all (fun (j, e) -> stable_in_log t j e) entries in
  if Dep_vector.non_null_count t.tdv = 0 then Some (Store.stable_log_length t.store, None)
  else
    List.find_map
      (fun ck -> if all_stable ck.ck_tdv then Some (ck.ck_log_pos, Some ck) else None)
      (Store.checkpoints t.store)

let run_gc t =
  match gc_anchor t with
  | None -> ()
  | Some (anchor_pos, anchor_ck) ->
    let base = Store.log_base t.store in
    if anchor_pos > base then begin
      let prefix = Store.stable_log_from t.store ~pos:base in
      let boundary = ref base in
      let stub_ids = ref [] in
      (try
         List.iter
           (fun record ->
             if !boundary >= anchor_pos then raise Exit;
             (match record with
             | Requeued m when not (Hashtbl.mem t.delivered m.Wire.id) -> raise Exit
             | Delivery d -> stub_ids := d.lg_msg.Wire.id :: !stub_ids
             | Requeued m -> stub_ids := m.Wire.id :: !stub_ids);
             incr boundary)
           prefix
       with Exit -> ());
      if !boundary > base then begin
        (* Persist the stub identities before dropping the records. *)
        Store.log_announcement t.store (Wire.Gc_stubs (List.rev !stub_ids));
        List.iter (fun id -> Hashtbl.replace t.stubs id ()) !stub_ids;
        Obs.Counter.add t.meters.gc_records (Store.discard_log_prefix t.store ~before:!boundary)
      end
    end;
    (* Checkpoints older than the anchor are never restored again. *)
    (match anchor_ck with
    | Some anchor ->
      ignore (Store.prune_checkpoints_older_than t.store ~anchor:(fun c -> c == anchor) : int)
    | None ->
      (* anchor is the about-to-be-saved state: prune after it is saved *)
      ())

let do_checkpoint t ~now =
  (* A full checkpoint snapshots the whole state; a partially replayed
     hybrid is not a state serial replay can reach, so drain first.  The
     flush is forced: the checkpoint's log position must cover every
     delivery its state absorbed, brownout or not. *)
  finish_recovery t ~now;
  do_flush ~forced:true t ~now ~ack:true;
  let ck =
    {
      ck_current = t.current;
      ck_tdv = Dep_vector.non_null t.tdv;
      ck_state = t.state;
      ck_log_pos = Store.stable_log_length t.store;
      ck_sends =
        List.map
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
          t.send_buf;
      ck_outs =
        List.map
          (fun po ->
            {
              so_id = po.po_id;
              so_text = po.po_text;
              so_dep = Dep_vector.non_null po.po_tdv;
              so_buffered = po.po_buffered;
            })
          t.out_buf;
      ck_archive = Archive.newest_first t.archive;
    }
  in
  if (proto t).gc_logs then run_gc t;
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

let do_crash t ~now =
  let first_lost =
    match Store.volatile_peek t.store with
    | Some (Delivery d) -> Some d.lg_interval
    | Some (Requeued _) | None ->
      (* Requeued records are flushed as soon as they are written, so the
         volatile buffer starts with a delivery whenever it is non-empty. *)
      None
  in
  Obs.Counter.add t.meters.lost_intervals (Store.volatile_length t.store);
  ignore (Store.crash t.store : int);
  t.up <- false;
  t.recovery <- None;
  trace t ~now (Crashed { pid = t.pid; first_lost })

(* Shared restart prologue: wipe volatile state, rebuild durable knowledge
   from the synchronous area (announcements we logged — ours and others' —
   committed outputs, incarnation markers, per-partition checkpoints),
   re-seed the duplicate-suppression table from the whole stable log and
   locate the full checkpoint to rebuild from.  Returns the checkpoint and
   the surviving per-partition checkpoint candidates (latest record per
   partition, invalidated by any later marker that truncated below its
   covered prefix). *)
let restart_prologue t =
  Obs.Counter.incr t.meters.restarts;
  (* Volatile state is gone. *)
  t.recovery <- None;
  if t.part_dirty <> [||] then Array.fill t.part_dirty 0 (Array.length t.part_dirty) 0;
  t.recv_buf <- [];
  t.send_buf <- [];
  t.out_buf <- [];
  Hashtbl.reset t.delivered;
  Hashtbl.reset t.stubs;
  Hashtbl.reset t.direct_parents;
  Hashtbl.reset t.assemblies;
  Hashtbl.reset t.released_ids;
  Hashtbl.reset t.buffered_send_ids;
  Hashtbl.reset t.buffered_out_ids;
  Hashtbl.reset t.committed_ids;
  Archive.clear t.archive;
  Hashtbl.reset t.anns_seen;
  t.anns_order <- [];
  t.unacked <- [];
  t.log_tab <- Array.make t.n Entry_set.empty;
  t.iet <- Array.make t.n Entry_set.empty;
  t.max_ann_inc <- Array.make t.n (-1);
  let parts =
    match t.app.App_intf.partitioning with Some pt -> pt.parts | None -> 0
  in
  let part_ck = Array.make (Stdlib.max parts 1) None in
  List.iter
    (function
      | Wire.Ann_logged (ann : Wire.announcement) ->
        (* Announcements persisted by a previous, wider incarnation are
           membership evidence too. *)
        ensure_member t ann.from_;
        note_ann t ann;
        t.iet.(ann.from_) <- Entry_set.insert_min t.iet.(ann.from_) ann.ending;
        t.log_tab.(ann.from_) <- Entry_set.insert t.log_tab.(ann.from_) ann.ending;
        if ann.ending.inc > t.max_ann_inc.(ann.from_) then
          t.max_ann_inc.(ann.from_) <- ann.ending.inc
      | Wire.Committed oid -> Hashtbl.replace t.committed_ids oid ()
      | Wire.Gc_stubs ids -> List.iter (fun id -> Hashtbl.replace t.stubs id ()) ids
      | Wire.Marker { log_pos; _ } ->
        (* A rollback truncated the log at [log_pos]: any partition
           checkpoint covering a longer prefix describes state that no
           longer exists. *)
        Array.iteri
          (fun p slot ->
            match slot with
            | Some (pos, _) when pos > log_pos -> part_ck.(p) <- None
            | Some _ | None -> ())
          part_ck
      | Wire.Part_ckpt { pc_part; pc_pos; pc_payload } ->
        if pc_part >= 0 && pc_part < parts then
          part_ck.(pc_part) <- Some (pc_pos, pc_payload))
    (Store.announcements t.store);
  let ck =
    match Store.latest_checkpoint t.store with
    | Some ck -> ck
    | None -> assert false (* the initial checkpoint always exists *)
  in
  t.ckpt_ops <- t.ckpt_ops + 1;
  (* Deliveries that predate the checkpoint are stable and still valid;
     their identities must survive into the duplicate-suppression table. *)
  List.iter
    (function
      | Delivery d -> Hashtbl.replace t.delivered d.lg_msg.Wire.id d.lg_interval
      | Requeued _ -> ())
    (Store.stable_log_from t.store ~pos:(Store.log_base t.store));
  (ck, part_ck)

(* Shared restart epilogue: announce the failure, persist the incarnation
   bump, continue as a fresh interval and come back up.  [t.current] must
   be the frontier of the (metadata or full) replay when this runs. *)
let restart_epilogue t ~now =
  (* Everything reconstructed from the stable log is stable by definition. *)
  trace t ~now (Stability_advanced { pid = t.pid; upto = t.current });
  (* The failed incarnation is the highest number this process ever used,
     which every bump persisted as a marker. *)
  let max_inc =
    List.fold_left
      (fun acc r ->
        match r with
        | Wire.Marker { entry; _ } -> Stdlib.max acc entry.Entry.inc
        | Wire.Ann_logged a when a.from_ = t.pid -> Stdlib.max acc a.ending.Entry.inc
        | Wire.Ann_logged _ | Wire.Committed _ | Wire.Gc_stubs _ | Wire.Part_ckpt _
          -> acc)
      t.current.inc
      (Store.announcements t.store)
  in
  let fa =
    {
      Wire.from_ = t.pid;
      ending = Entry.make ~inc:max_inc ~sii:t.current.sii;
      failure = true;
    }
  in
  Store.log_announcement t.store (Wire.Ann_logged fa);
  note_ann t fa;
  t.iet.(t.pid) <- Entry_set.insert_min t.iet.(t.pid) fa.ending;
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) fa.ending;
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) t.current;
  let new_current = Entry.make ~inc:(max_inc + 1) ~sii:(t.current.sii + 1) in
  Hashtbl.replace t.direct_parents new_current [ (t.pid, t.current) ];
  t.current <- new_current;
  Store.log_announcement t.store
    (Wire.Marker { entry = new_current; log_pos = Store.stable_log_length t.store });
  Dep_vector.set t.tdv t.pid (Some new_current);
  t.log_tab.(t.pid) <- Entry_set.insert t.log_tab.(t.pid) new_current;
  t.frontier <- new_current;
  t.send_idx <- 0;
  t.out_idx <- 0;
  elide_tdv t;
  t.up <- true;
  Obs.Counter.incr t.meters.announcements_sent;
  trace t ~now (Restarted { pid = t.pid; announced = fa; new_current });
  push t (Broadcast (Wire.Ann fa))

let do_restart t ~now =
  let rep0 = Obs.Counter.value t.meters.replayed in
  let ck, _part_ck = restart_prologue t in
  let _, requeued = rebuild t ~now ~ck ~halt:(fun _ -> false) in
  (* Recover the retransmission archive: replay re-released the sends of
     replayed intervals; anything older comes from the checkpoint copy. *)
  reinstate_archive t ck.ck_archive;
  (* Requeued messages not re-delivered before the crash go back to the
     receive buffer; known orphans and anything already delivered are
     dropped. *)
  List.iter
    (fun (m : 'msg Wire.app_message) ->
      if
        (not (Hashtbl.mem t.delivered m.id))
        && (not (buffered_in_recv t m.id))
        && not (orphan_wire t m)
      then t.recv_buf <- t.recv_buf @ [ (now, m) ])
    requeued;
  restart_epilogue t ~now;
  trace t ~now
    (Recovery_completed { pid = t.pid; replayed = Obs.Counter.value t.meters.replayed - rep0 });
  recheck t ~now

(* Restart's fast-path variant: come back up {e before} replaying.  The
   serial metadata pass reconstructs everything replay can derive from the
   log alone (intervals, dependency snapshots, duplicate suppression,
   direct parents) and queues the application re-execution per partition;
   the caller then pumps {!do_replay_step} while already serving requests
   on partitions whose queues have drained.  Falls back to the serial
   restart when the application declares no partitioning. *)
let do_restart_begin t ~now =
  match t.app.App_intf.partitioning with
  | None -> do_restart t ~now
  | Some pt ->
    let ck, part_ck = restart_prologue t in
    t.state <- ck.ck_state;
    t.current <- ck.ck_current;
    ensure_deps t ck.ck_tdv;
    t.tdv <- Dep_vector.of_non_null ~n:t.n ck.ck_tdv;
    t.send_idx <- 0;
    t.out_idx <- 0;
    reinstate_saved_sends t ck.ck_sends;
    reinstate_saved_outs t ck.ck_outs;
    let records = Store.stable_log_from t.store ~pos:ck.ck_log_pos in
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
        match slot with
        | Some (pos, _)
          when pt.part_import <> None
               && (not has_barrier)
               && pos > ck.ck_log_pos && pos <= stable_len -> ()
        | Some _ -> part_ck.(p) <- None
        | None -> ())
      part_ck;
    (* Apply the surviving per-partition checkpoints over the full
       checkpoint's state, and re-instate the pending effects their
       covered (skipped) records would have regenerated. *)
    Array.iteri
      (fun p slot ->
        match slot with
        | None -> ()
        | Some (_, payload) ->
          (* The payload is a sealed (length- and CRC-witnessed) blob; the
             witness covers exactly the marshalled bytes, so [Marshal] never
             runs on damaged input it could crash on — and a blob that fails
             the witness (or the unmarshal, or the app's import) is a
             {e reported} loss: the slot is dropped, the partition falls
             back to replaying from the full checkpoint, and the drop is
             counted.  Never a silent acceptance, never an abort. *)
          let decoded =
            match Durable.Codec.unseal payload with
            | Error _ -> None
            | Ok bytes -> (
              match
                (Marshal.from_string bytes 0
                  : string
                    * 'msg saved_send list
                    * saved_output list
                    * 'msg Wire.app_message list)
              with
              | v -> Some v
              | exception (Failure _ | Invalid_argument _ | End_of_file) -> None)
          in
          let imported =
            match decoded with
            | None -> None
            | Some ((slice, _, _, _) as v) -> (
              match pt.part_import with
              | None -> Some v
              | Some import -> (
                match import t.state p slice with
                | state' ->
                  t.state <- state';
                  Some v
                | exception Failure _ -> None))
          in
          match imported with
          | None ->
            part_ck.(p) <- None;
            Obs.Counter.incr t.meters.part_ckpt_dropped
          | Some (_, sends, outs, archive) ->
            reinstate_saved_sends t sends;
            reinstate_saved_outs t outs;
            reinstate_archive t archive)
      part_ck;
    (* Serial metadata pass: evolve intervals, vectors and bookkeeping
       exactly as [rebuild] would, but defer the application handlers into
       per-partition queues. *)
    let markers = effective_markers t ~from_pos:ck.ck_log_pos in
    let pos = ref ck.ck_log_pos in
    let requeued = ref [] in
    let fresh_queues () = Array.init pt.parts (fun _ -> Queue.create ()) in
    let stages_rev = ref [] in
    let cur = ref (fresh_queues ()) in
    let part_pending = Array.make pt.parts 0 in
    let barriers = ref 0 in
    let frontier = ref None in
    let rec walk markers records =
      match markers, records with
      | ((_, p) as m) :: ms, _ when p <= !pos ->
        apply_marker t m;
        walk ms records
      | _, [] -> ()
      | _, Requeued m :: rs ->
        requeued := m :: !requeued;
        incr pos;
        walk markers rs
      | _, Delivery d :: rs ->
        let pred = t.current in
        ensure_deps t d.lg_msg.Wire.dep;
        (match (proto t).tracking with
        | Config.Transitive ->
          Dep_vector.merge_max ~into:t.tdv
            (Dep_vector.of_non_null ~n:t.n d.lg_msg.Wire.dep)
        | Config.Direct -> ());
        t.current <- Entry.next_interval t.current;
        Dep_vector.set t.tdv t.pid (Some t.current);
        assert (Entry.equal t.current d.lg_interval);
        Hashtbl.replace t.direct_parents t.current
          ((t.pid, pred)
          ::
          (if d.lg_msg.Wire.src >= 0 then
             [ (d.lg_msg.Wire.src, d.lg_msg.Wire.send_interval) ]
           else []));
        Hashtbl.replace t.delivered d.lg_msg.Wire.id t.current;
        let item covered =
          {
            ri_msg = d.lg_msg;
            ri_interval = t.current;
            ri_tdv = Dep_vector.copy t.tdv;
            ri_window = d.lg_window;
            ri_covered = covered;
          }
        in
        (match pt.part_of_msg ~n:t.app_n d.lg_msg.Wire.payload with
        | Some p ->
          let covered =
            match part_ck.(p) with
            | Some (cpos, _) -> !pos < cpos
            | None -> false
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
          frontier := Some ri);
        incr pos;
        walk markers rs
    in
    walk markers records;
    stages_rev := { rs_queues = !cur; rs_barrier = None } :: !stages_rev;
    reinstate_archive t ck.ck_archive;
    List.iter
      (fun (m : 'msg Wire.app_message) ->
        if
          (not (Hashtbl.mem t.delivered m.Wire.id))
          && (not (buffered_in_recv t m.Wire.id))
          && not (orphan_wire t m)
        then t.recv_buf <- t.recv_buf @ [ (now, m) ])
      (List.rev !requeued);
    restart_epilogue t ~now;
    let pending = Array.fold_left ( + ) 0 part_pending + !barriers in
    if pending = 0 then begin
      trace t ~now (Recovery_completed { pid = t.pid; replayed = 0 });
      recheck t ~now
    end
    else begin
      t.recovery <-
        Some
          {
            rc_parts = pt.parts;
            rc_stages = List.rev !stages_rev;
            rc_part_pending = part_pending;
            rc_barriers_pending = !barriers;
            rc_replayed = 0;
            rc_frontier = !frontier;
            rc_next = 0;
            rc_live_delivered = false;
          };
      recheck t ~now
    end

(* ------------------------------------------------------------------ *)
(* Per-partition incremental checkpoints                               *)

(* Snapshot the dirtiest partition's slice together with the pending
   sends, outputs and retransmission archive (the effects replay of its
   covered records would otherwise regenerate — a superset is safe, the
   restore paths deduplicate by identity exactly as full-checkpoint
   restore does).  The record is synchronous like every sync-area write;
   superseded same-partition records are compacted away.  Returns false
   when the application exports no slices or nothing is dirty. *)
let do_partition_checkpoint t ~now =
  match t.app.App_intf.partitioning with
  | Some ({ part_export = Some export; _ } as pt) when t.recovery = None ->
    let best = ref (-1) in
    Array.iteri
      (fun p c -> if c > 0 && (!best < 0 || c > t.part_dirty.(!best)) then best := p)
      t.part_dirty;
    if !best < 0 then false
    else begin
      let p = !best in
      (* Flush first (forced, like the full checkpoint's) so the snapshot
         corresponds exactly to the stable prefix it claims to cover. *)
      do_flush ~forced:true t ~now ~ack:true;
      let pos = Store.stable_log_length t.store in
      let sends =
        List.map
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
          t.send_buf
      in
      let outs =
        List.map
          (fun po ->
            {
              so_id = po.po_id;
              so_text = po.po_text;
              so_dep = Dep_vector.non_null po.po_tdv;
              so_buffered = po.po_buffered;
            })
          t.out_buf
      in
      let payload =
        (* Sealed so restart can witness integrity before unmarshalling;
           see the decode side in [do_restart_begin]. *)
        Durable.Codec.seal
          (Marshal.to_string
             (export t.state p, sends, outs, Archive.newest_first t.archive)
             [ Marshal.Closures ])
      in
      Store.log_announcement t.store
        (Wire.Part_ckpt { pc_part = p; pc_pos = pos; pc_payload = payload });
      (* Drop the records this one supersedes so the sync area stays
         bounded by one snapshot per partition. *)
      ignore
        (Store.compact_sync t.store ~keep:(function
           | Wire.Part_ckpt { pc_part; pc_pos; _ } ->
             not (pc_part = p && pc_pos < pos)
           | Wire.Ann_logged _ | Wire.Marker _ | Wire.Committed _
           | Wire.Gc_stubs _ -> true)
          : int);
      ignore pt.parts;
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
   crash and after every driver step while a window is open or has just
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

(* [?store_dir] and [?obs] sit before the labelled [~trace], so they can
   never be erased by a positional application — warning 16 does not apply
   to how this function is actually used (every caller passes the
   arguments or forwards [?store_dir:None] / [?obs:None]). *)
let[@warning "-16"] create ~config ~pid ~app ?store_dir ?obs ~trace:tr =
  let config = Config.validate_exn config in
  let n = config.Config.n in
  if pid < 0 || pid >= n then invalid_arg "Node.create: pid out of range";
  let state = app.App_intf.init ~pid ~n in
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let store, fresh_store =
    match store_dir with
    | None -> (Store.create (), true)
    | Some dir ->
      let store, report = Store.open_durable ~dir ~obs () in
      (store, report.Store.fresh)
  in
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
      iet = Array.make n Entry_set.empty;
      max_ann_inc = Array.make n (-1);
      recv_buf = [];
      send_buf = [];
      out_buf = [];
      delivered = Hashtbl.create 64;
      stubs = Hashtbl.create 16;
      direct_parents = Hashtbl.create 64;
      assemblies = Hashtbl.create 8;
      released_ids = Hashtbl.create 64;
      buffered_send_ids = Hashtbl.create 16;
      buffered_out_ids = Hashtbl.create 16;
      committed_ids = Hashtbl.create 16;
      archive = Archive.create ();
      anns_seen = Hashtbl.create 16;
      anns_order = [];
      unacked = [];
      send_idx = 0;
      out_idx = 0;
      frontier = Entry.initial;
      outputs_log = [];
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
     bit flip in the only checkpoint file).  The loss is already reported
     by open-time recovery; restart still needs a checkpoint to rebuild
     from, so re-seed the initial one — replay then reconstructs whatever
     the surviving log suffix allows. *)
  let reseed = (not fresh_store) && Store.latest_checkpoint t.store = None in
  if fresh_store || reseed then
    (* "Each process execution can be considered as starting with an initial
       checkpoint" (Corollary 3): interval (0,1) is stable from the start. *)
    Store.save_checkpoint t.store
      {
        ck_current = t.current;
        ck_tdv = [];
        ck_state = state;
        ck_log_pos = Store.log_base t.store;
        ck_sends = [];
        ck_outs = [];
        ck_archive = [];
      };
  if fresh_store then begin
    t.log_tab.(pid) <- Entry_set.insert t.log_tab.(pid) t.current;
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
     [restart], which rebuilds everything from the persisted state —
     Figure 3's Restart, now from real files. *)
  set_recovery_gauges t;
  t

let with_cost t f =
  let sync0 = Store.sync_writes t.store in
  let del0 = Obs.Counter.value t.meters.deliveries in
  let rep0 = Obs.Counter.value t.meters.replayed in
  let ck0 = t.ckpt_ops in
  t.actions <- [];
  f ();
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
            do_flush t ~now ~ack:true;
            let rows = [ (t.pid, Entry_set.entries t.log_tab.(t.pid)) ] in
            push t
              (Unicast
                 {
                   dst = from_;
                   packet = Wire.Notice { from_ = t.pid; rows; anns = gossip_anns t };
                 })
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
              t.log_tab.(from_) <- Entry_set.insert t.log_tab.(from_) current;
              elide_tdv t;
              recheck t ~now;
              (* Hand the joiner our stability knowledge so its own vector
                 entries start draining without waiting a notice period. *)
              let rows = [ (t.pid, Entry_set.entries t.log_tab.(t.pid)) ] in
              push t
                (Unicast
                   {
                     dst = from_;
                     packet = Wire.Notice { from_ = t.pid; rows; anns = gossip_anns t };
                   })
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
              t.log_tab.(from_) <- Entry_set.insert t.log_tab.(from_) upto;
              elide_tdv t;
              recheck t ~now
            end))

let inject t ~now ~seq payload =
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
            }
          in
          receive_app t ~now m))

let flush t ~now = with_cost t (fun () -> guard t (fun () -> do_flush t ~now ~ack:true))

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
          let rows =
            if (proto t).gossip_notices then
              List.filter_map
                (fun j ->
                  let es = Entry_set.entries t.log_tab.(j) in
                  if es = [] then None else Some (j, es))
                (List.init t.n Fun.id)
            else [ (t.pid, Entry_set.entries t.log_tab.(t.pid)) ]
          in
          let entries = List.fold_left (fun acc (_, es) -> acc + List.length es) 0 rows in
          Obs.Counter.incr t.meters.notices;
          Obs.Counter.add t.meters.notice_entries entries;
          trace t ~now (Notice_sent { pid = t.pid; entries });
          push t (Broadcast (Wire.Notice { from_ = t.pid; rows; anns = gossip_anns t }))))

let retransmit_tick t ~now =
  ignore now;
  with_cost t (fun () -> guard t (fun () -> do_retransmit_tick t))

let crash t ~now =
  if t.up then do_crash t ~now;
  refresh_recovery_gauges t

let halt t ~now =
  if not (Store.is_durable t.store) then
    invalid_arg "Node.halt: only a node with a durable store can be killed";
  crash t ~now;
  Store.kill t.store

let restart t ~now =
  with_cost t (fun () -> if not t.up then do_restart t ~now)

let restart_begin t ~now =
  with_cost t (fun () -> if not t.up then do_restart_begin t ~now)

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

let storage_report t = Store.storage_report t.store

let arm_storage_fsync_failure t = Store.arm_fsync_failure t.store

let arm_storage_disk_full t ~rounds = Store.arm_disk_full t.store ~rounds

let arm_storage_slow_fsync t ~delay ~rounds =
  Store.arm_slow_fsync t.store ~delay ~rounds

let storage_degraded_flushes t = Store.degraded_flushes t.store

let storage_slowed_fsyncs t = Store.slowed_fsyncs t.store

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

let membership_n t = t.n

let is_retired t j = Hashtbl.mem t.retired j

let retired_frontier t j = Hashtbl.find_opt t.retired j

let announce_join t ~now =
  ignore now;
  with_cost t (fun () ->
      guard t (fun () ->
          push t (Broadcast (Wire.Join { from_ = t.pid; n = t.n; current = t.current }))))

let retire t ~now =
  with_cost t (fun () ->
      guard t (fun () ->
          (* Flush first (forced — a leaver must not be stoppable by a
             brownout window): the Retire frontier claims stability up to
             [t.current], so make it true before anyone hears the claim. *)
          do_flush ~forced:true t ~now ~ack:true;
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
  else
    let rows =
      if (proto t).gossip_notices then
        List.filter_map
          (fun j ->
            let es = Entry_set.entries t.log_tab.(j) in
            if es = [] then None else Some (j, es))
          (List.init t.n Fun.id)
      else [ (t.pid, Entry_set.entries t.log_tab.(t.pid)) ]
    in
    Some { Wire.from_ = t.pid; rows; anns = gossip_anns t }

let send_buffer_size t = List.length t.send_buf

let receive_buffer_size t = List.length t.recv_buf

let receive_buffer_messages t = List.map snd t.recv_buf

let max_announced_inc t j = t.max_ann_inc.(j)

let output_buffer_size t = List.length t.out_buf

let committed_outputs t = List.rev t.outputs_log

let stable_frontier t = t.frontier

(* --- fast-recovery inspection --- *)

let partition_of_payload t payload = part_of_payload t payload

let partition_digest t p =
  match t.app.App_intf.partitioning with
  | Some pt when p >= 0 && p < pt.parts -> Some (pt.part_digest t.state p)
  | Some _ | None -> None

let obs t = t.obs

let sync_writes t = Store.sync_writes t.store

let flushes t = Store.flushes t.store

let volatile_log_length t = Store.volatile_length t.store

let stable_log_length t = Store.stable_log_length t.store

let live_log_records t = Store.live_log_records t.store

let pp_state ppf t =
  Fmt.pf ppf "P%d%s at %a tdv=%a recv=%d send=%d out=%d stable=%a" t.pid
    (if t.up then "" else " (down)")
    Entry.pp t.current Dep_vector.pp t.tdv
    (List.length t.recv_buf)
    (List.length t.send_buf)
    (List.length t.out_buf)
    Entry.pp t.frontier
