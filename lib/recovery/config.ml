type delivery_rule = Corollary1 | Wait_announcement

type tracking = Transitive | Direct

type breakage = {
  break_orphan_check : bool;
  break_dup_suppression : bool;
  break_send_gate : bool;
}

let no_breakage =
  { break_orphan_check = false; break_dup_suppression = false; break_send_gate = false }

type protocol = {
  tracking : tracking;
  k : int;
  commit_tracking : bool;
  announce_all_rollbacks : bool;
  delivery_rule : delivery_rule;
  sync_logging : bool;
  output_driven_logging : bool;
  gossip_announcements : bool;
  gc_logs : bool;
  breakage : breakage;
}

type timing = {
  t_proc : float;
  t_sync_write : float;
  t_replay : float;
  t_checkpoint : float;
  per_entry_overhead : float;
  flush_interval : float option;
  checkpoint_interval : float option;
  notice_interval : float option;
  retransmit_interval : float option;
  restart_delay : float;
  net_latency : float;
  net_jitter : float;
  fifo : bool;
}

type t = { n : int; protocol : protocol; timing : timing }

(* Times are in abstract milliseconds.  The ratios follow the paper's
   setting: a synchronous stable write costs an order of magnitude more than
   message processing, which is why pessimistic logging's failure-free
   overhead is "higher" and why asynchronous logging amortizes it. *)
let default_timing =
  {
    t_proc = 0.2;
    t_sync_write = 4.0;
    t_replay = 0.05;
    t_checkpoint = 8.0;
    per_entry_overhead = 0.02;
    flush_interval = Some 50.;
    checkpoint_interval = Some 400.;
    notice_interval = Some 25.;
    retransmit_interval = None;
    restart_delay = 30.;
    net_latency = 1.0;
    net_jitter = 0.5;
    fifo = false;
  }

let validate t =
  let p = t.protocol in
  if t.n <= 0 then Error "n must be positive"
  else if p.k < 0 || p.k > t.n then Error "k must be in [0, n]"
  else if (not p.commit_tracking) && p.k < t.n then
    Error "k < n requires commit dependency tracking (entries are never \
           elided otherwise, so sends would block forever)"
  else if p.delivery_rule = Wait_announcement && not p.announce_all_rollbacks
  then
    Error "the wait-for-announcement delivery rule requires announcing all \
           rollbacks (otherwise delivery can block forever on an induced \
           rollback that is never announced)"
  else if p.tracking = Direct && not p.announce_all_rollbacks then
    Error "direct dependency tracking requires announcing all rollbacks \
           (transitive orphans are only detectable through cascading \
           announcements)"
  else if p.tracking = Direct && p.k < t.n then
    Error "direct dependency tracking carries no vector to bound, so K must \
           equal N"
  else if p.tracking = Direct && p.gc_logs then
    Error "log garbage collection needs the transitive vector to prove a \
           checkpoint can never be rolled past"
  else Ok t

let validate_exn t =
  match validate t with Ok t -> t | Error msg -> invalid_arg ("Config: " ^ msg)

let base_protocol ~k =
  {
    tracking = Transitive;
    k;
    commit_tracking = true;
    announce_all_rollbacks = false;
    delivery_rule = Corollary1;
    sync_logging = false;
    output_driven_logging = false;
    gossip_announcements = false;
    gc_logs = false;
    breakage = no_breakage;
  }

let k_optimistic ?(timing = default_timing) ~n ~k () =
  validate_exn { n; protocol = base_protocol ~k; timing }

let pessimistic ?(timing = default_timing) ~n () =
  validate_exn
    { n; protocol = { (base_protocol ~k:0) with sync_logging = true }; timing }

let optimistic ?(timing = default_timing) ~n () = k_optimistic ~timing ~n ~k:n ()

let strom_yemini ?(timing = default_timing) ~n () =
  validate_exn
    {
      n;
      protocol =
        {
          (base_protocol ~k:n) with
          commit_tracking = false;
          announce_all_rollbacks = true;
          delivery_rule = Wait_announcement;
        };
      timing = { timing with fifo = true };
    }

let direct_dependency ?(timing = default_timing) ~n () =
  validate_exn
    {
      n;
      protocol =
        {
          (base_protocol ~k:n) with
          tracking = Direct;
          announce_all_rollbacks = true;
          delivery_rule = Wait_announcement;
        };
      timing;
    }

let damani_garg ?(timing = default_timing) ~n () =
  validate_exn
    { n; protocol = { (base_protocol ~k:n) with commit_tracking = false }; timing }

(* One scale, one formula, two real runtimes (threads and processes):
   the outage between a kill and the recovery attempt must not depend on
   which deployment style injected the kill. *)
let default_time_scale = 0.001

let real_restart_delay ?(time_scale = default_time_scale) timing =
  timing.restart_delay *. time_scale

(* Turn on the reliability machinery needed to survive a lossy network:
   a periodic retransmission timer (every 40 units) on every sender's
   archive, and announcement gossip so a dropped failure announcement is
   eventually healed by a periodic notice.  Off by default so the
   benign-network experiments are bit-for-bit unchanged. *)
let harden t =
  {
    t with
    protocol = { t.protocol with gossip_announcements = true };
    timing = { t.timing with retransmit_interval = Some 40. };
  }

let describe t =
  let p = t.protocol in
  if p.tracking = Direct then "direct dependency tracking (assembly at commit)"
  else if p.sync_logging then "pessimistic (sync logging, K=0)"
  else if not p.commit_tracking then
    if p.announce_all_rollbacks then "strom-yemini (full vector, all rollbacks announced)"
    else "damani-garg (full vector, failures-only announcements)"
  else if p.k >= t.n then "optimistic (K=N)"
  else Printf.sprintf "%d-optimistic" p.k
