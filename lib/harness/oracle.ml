open Depend
module Trace = Recovery.Trace
module Wire = Recovery.Wire

type ikey = int * int * int (* pid, incarnation, state-interval index *)

type info = {
  dep : Multi_dep.t; (* true transitive dependency set, self included *)
  digest : int;
  mutable stable_at : float option;
  mutable lost : bool;
}

type report = {
  violations : string list;
  intervals : int;
  lost : int;
  undone : int;
  orphans_at_end : int;
  released : int;
  max_risk : int;
  outputs_committed : int;
}

let ok r = r.violations = []

let pp_report ppf r =
  Fmt.pf ppf
    "oracle: %s (%d intervals, %d lost, %d undone, %d released, max risk %d, %d \
     outputs)"
    (if ok r then "OK" else Fmt.str "%d VIOLATIONS" (List.length r.violations))
    r.intervals r.lost r.undone r.released r.max_risk r.outputs_committed;
  if not (ok r) then
    List.iter (fun v -> Fmt.pf ppf "@\n  - %s" v) r.violations

let key pid (e : Entry.t) : ikey = (pid, e.inc, e.sii)

let pp_ikey ppf (pid, inc, sii) = Fmt.pf ppf "(%d,%d)_%d" inc sii pid

let dependencies ~n trace ~pid interval =
  (* Lightweight forward pass: rebuild only the dependency sets.  Chains
     are implicit — an interval's predecessor and sender are named by the
     trace events, so a single table suffices. *)
  let table : (ikey, Multi_dep.t) Hashtbl.t = Hashtbl.create 256 in
  let chains : Entry.t list array = Array.make n [] (* newest first *) in
  let add pid interval ~pred_dep ~sender_dep =
    let dep = Multi_dep.create ~n in
    (match pred_dep with Some d -> Multi_dep.merge ~into:dep d | None -> ());
    (match sender_dep with Some d -> Multi_dep.merge ~into:dep d | None -> ());
    Multi_dep.add dep pid interval;
    Hashtbl.replace table (key pid interval) dep;
    chains.(pid) <- interval :: chains.(pid)
  in
  let head_dep pid =
    match chains.(pid) with
    | [] -> None
    | h :: _ -> Hashtbl.find_opt table (key pid h)
  in
  let truncate pid ~keep_le =
    chains.(pid) <-
      List.filter (fun (e : Entry.t) -> e.sii <= keep_le) chains.(pid)
  in
  let handle (e : Trace.entry) =
    match e.ev with
    | Trace.Interval_started { pid; interval; pred; by; sender_interval; replay; _ }
      when not replay ->
      let pred_dep =
        Option.bind pred (fun p -> Hashtbl.find_opt table (key pid p))
      in
      let sender_dep =
        match by, sender_interval with
        | Some id, Some si when id.Wire.origin >= 0 ->
          Hashtbl.find_opt table (key id.Wire.origin si)
        | _, _ -> None
      in
      add pid interval ~pred_dep ~sender_dep
    | Trace.Crashed { pid; first_lost = Some fl } -> truncate pid ~keep_le:(fl.sii - 1)
    | Trace.Crashed { first_lost = None; _ } -> ()
    | Trace.Restarted { pid; new_current; _ } ->
      add pid new_current ~pred_dep:(head_dep pid) ~sender_dep:None
    | Trace.Rolled_back { pid; restored; new_current; _ } ->
      truncate pid ~keep_le:restored.sii;
      add pid new_current ~pred_dep:(head_dep pid) ~sender_dep:None
    | _ -> ()
  in
  List.iter handle (Trace.events trace);
  Option.map Multi_dep.entries (Hashtbl.find_opt table (key pid interval))

let check ?k ~n trace =
  let violations = ref [] in
  let violation fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  let table : (ikey, info) Hashtbl.t = Hashtbl.create 1024 in
  let chains : ikey list array = Array.make n [] (* newest first *) in
  let lost_set : (ikey, unit) Hashtbl.t = Hashtbl.create 64 in
  let sent : (Wire.identity, ikey) Hashtbl.t = Hashtbl.create 256 in
  let released = ref [] in
  let committed = ref [] in
  let undone_count = ref 0 in
  let find ikey = Hashtbl.find_opt table ikey in
  let dep_of ikey =
    match find ikey with
    | Some info -> Some info.dep
    | None ->
      violation "internal: unknown interval %a referenced" pp_ikey ikey;
      None
  in
  (* An interval is a true orphan iff its dependency closure meets the set
     of intervals lost in crashes (Definition 1 + Theorem 1 roots). *)
  let orphan dep =
    Hashtbl.fold
      (fun (pid, inc, sii) () acc ->
        acc || Multi_dep.depends_on dep pid (Entry.make ~inc ~sii))
      lost_set false
  in
  let add_interval ~pid ~interval ~pred_dep ~sender_dep ~digest ~stable_at =
    let dep = Multi_dep.create ~n in
    (match pred_dep with Some d -> Multi_dep.merge ~into:dep d | None -> ());
    (match sender_dep with Some d -> Multi_dep.merge ~into:dep d | None -> ());
    Multi_dep.add dep pid interval;
    let ikey = key pid interval in
    Hashtbl.replace table ikey { dep; digest; stable_at; lost = false };
    chains.(pid) <- ikey :: chains.(pid);
    ikey
  in
  let marker ~now ~pid ~interval =
    let pred_dep =
      match chains.(pid) with
      | [] -> None
      | head :: _ -> Option.map (fun i -> i.dep) (find head)
    in
    ignore
      (add_interval ~pid ~interval ~pred_dep ~sender_dep:None ~digest:0
         ~stable_at:(Some now)
        : ikey)
  in
  let handle (e : Trace.entry) =
    let now = e.time in
    match e.ev with
    | Trace.Interval_started { pid; interval; pred; by; sender_interval; digest; replay }
      ->
      let ikey = key pid interval in
      if replay then begin
        match find ikey with
        | Some info ->
          if info.digest <> digest then
            violation
              "replay divergence: interval %a digest %d != original %d (PWD \
               determinism broken)"
              pp_ikey ikey digest info.digest
        | None ->
          violation "replayed interval %a was never created live" pp_ikey ikey
      end
      else begin
        if Hashtbl.mem table ikey then
          violation "interval %a created twice" pp_ikey ikey;
        let pred_dep =
          match pred with
          | None -> None
          | Some p -> Option.map (fun i -> i.dep) (find (key pid p))
        in
        let sender_dep =
          match by, sender_interval with
          | Some id, Some si when id.Wire.origin >= 0 ->
            Option.bind (dep_of (key id.Wire.origin si)) Option.some
          | _, _ -> None
        in
        ignore
          (add_interval ~pid ~interval ~pred_dep ~sender_dep ~digest ~stable_at:None
            : ikey)
      end
    | Trace.Message_sent { id; src; send_interval; _ } ->
      Hashtbl.replace sent id (key src send_interval)
    | Trace.Message_released { id; _ } -> released := (id, now) :: !released
    | Trace.Message_delivered _ | Trace.Send_cancelled _ -> ()
    | Trace.Message_discarded { id; reason = Trace.Orphan_message; dst } -> (
      match Hashtbl.find_opt sent id with
      | None ->
        violation "P%d discarded %a as orphan but it has no sender interval"
          dst Recovery.Pp.identity id
      | Some src_key -> (
        match dep_of src_key with
        | None -> ()
        | Some dep ->
          if not (orphan dep) then
            violation "P%d discarded non-orphan message %a (sent from %a)" dst
              Recovery.Pp.identity id pp_ikey src_key))
    | Trace.Message_discarded { reason = Trace.Duplicate; _ } -> ()
    | Trace.Stability_advanced { pid; upto } ->
      (* Stamp unstable chain entries at or below [upto].  Stability is
         monotone along the chain, so the walk can stop at the first
         already-stable entry within range; newer-than-[upto] entries (and
         marker intervals, stable from birth) are skipped. *)
      let rec stamp = function
        | [] -> ()
        | ((_, inc, sii) as ikey) :: rest -> (
          match find ikey with
          | None -> stamp rest
          | Some info ->
            if Entry.le (Entry.make ~inc ~sii) upto then begin
              if info.stable_at = None then begin
                info.stable_at <- Some now;
                stamp rest
              end
            end
            else stamp rest)
      in
      stamp chains.(pid)
    | Trace.Checkpoint_taken _ | Trace.Notice_sent _ | Trace.Announcement_received _
    | Trace.Output_buffered _ | Trace.Recovery_completed _ ->
      ()
    | Trace.Crashed { pid; first_lost } -> (
      match first_lost with
      | None -> ()
      | Some fl ->
        let rec pop = function
          | ikey :: rest when (fun (_, _, sii) -> sii >= fl.Entry.sii) ikey ->
            (match find ikey with
            | Some info ->
              if info.stable_at <> None then
                violation
                  "interval %a was announced stable yet lost in P%d's crash"
                  pp_ikey ikey pid;
              info.lost <- true
            | None -> ());
            Hashtbl.replace lost_set ikey ();
            pop rest
          | rest -> rest
        in
        chains.(pid) <- pop chains.(pid))
    | Trace.Restarted { pid; new_current; _ } -> marker ~now ~pid ~interval:new_current
    | Trace.Rolled_back { pid; restored; new_current; _ } ->
      let rec pop = function
        | ikey :: rest when (fun (_, _, sii) -> sii > restored.Entry.sii) ikey ->
          incr undone_count;
          (match find ikey with
          | Some info ->
            if not (orphan info.dep) then
              violation
                "P%d's induced rollback undid %a, which is not a true orphan"
                pid pp_ikey ikey
          | None -> ());
          pop rest
        | rest -> rest
      in
      chains.(pid) <- pop chains.(pid);
      marker ~now ~pid ~interval:new_current
    | Trace.Output_committed { pid; id; text; _ } ->
      committed := (pid, id.Wire.out_interval, text) :: !committed
  in
  List.iter handle (Trace.events trace);
  (* --- end-of-run checks --- *)
  let orphans_at_end = ref 0 in
  Array.iteri
    (fun pid chain ->
      List.iter
        (fun ikey ->
          match find ikey with
          | None -> ()
          | Some info ->
            if orphan info.dep then begin
              incr orphans_at_end;
              violation "P%d's surviving interval %a is orphan at end of run" pid
                pp_ikey ikey
            end)
        chain)
    chains;
  List.iter
    (fun (pid, out_interval, text) ->
      match dep_of (key pid out_interval) with
      | None -> ()
      | Some dep ->
        if orphan dep then
          violation "committed output %S at P%d depends on a lost interval" text
            pid)
    !committed;
  (* Theorem 4: released messages are revocable by at most K failures. *)
  let max_risk = ref 0 in
  let check_release (id, time) =
    match Hashtbl.find_opt sent id with
    | None -> violation "released message %a was never sent" Recovery.Pp.identity id
    | Some src_key -> (
      match dep_of src_key with
      | None -> ()
      | Some dep ->
        let risky = Hashtbl.create 8 in
        List.iter
          (fun (pid, e) ->
            let stable =
              match find (key pid e) with
              | Some info -> (
                match info.stable_at with Some s -> s <= time | None -> false)
              | None -> false
            in
            if not stable then Hashtbl.replace risky pid ())
          (Multi_dep.entries dep);
        let risk = Hashtbl.length risky in
        if risk > !max_risk then max_risk := risk;
        match k with
        | Some k when risk > k ->
          violation
            "Theorem 4 violated: message %a released with %d risky processes > K=%d"
            Recovery.Pp.identity id risk k
        | Some _ | None -> ())
  in
  List.iter check_release (List.rev !released);
  {
    violations = List.rev !violations;
    intervals = Hashtbl.length table;
    lost = Hashtbl.length lost_set;
    undone = !undone_count;
    orphans_at_end = !orphans_at_end;
    released = List.length !released;
    max_risk = !max_risk;
    outputs_committed = List.length !committed;
  }
