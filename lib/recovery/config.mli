(** Protocol and cost-model configuration.

    Every behavioural difference between the protocols the paper discusses
    is an independent axis here, so both the named presets and the paper's
    three improvements can be ablated one at a time. *)

type delivery_rule =
  | Corollary1
      (** Check_deliverability of Figure 2: when local and piggybacked
          entries for some process disagree on the incarnation, wait only
          until the smaller one is known stable; no entry at all means no
          wait. *)
  | Wait_announcement
      (** Strom & Yemini: delay a message carrying a dependency on
          incarnation [t] of [P_i] until the rollback announcement for
          incarnation [t-1] has arrived. *)

type tracking =
  | Transitive
      (** the paper's scheme: piggyback the whole (elidable) vector, so
          orphanhood and output commit are decidable locally *)
  | Direct
      (** related-work comparator (Johnson & Zwaenepoel; Sistla & Welch):
          piggyback only the sender's current interval.  Cheaper on the
          wire, but output commit must {e assemble} transitive dependencies
          with query/reply traffic at commit time — exactly the tradeoff
          Section 5 describes.  Failure recovery under direct tracking
          additionally needs {e coordinated} recovery: with only local
          information, in-flight transitively-orphan messages pass the
          arrival check, re-infect receivers and sustain a rollback storm
          (the test suite demonstrates this).  This implementation provides
          the uncoordinated data path only; use it for failure-free
          comparisons. *)

type breakage = {
  break_orphan_check : bool;
      (** deliberately skip the arrival-time orphan check (Figure 2's
          discard rule) — for validating that the chaos harness and the
          offline oracle actually detect protocol violations. *)
  break_dup_suppression : bool;
      (** deliberately deliver duplicate copies of a message. *)
  break_send_gate : bool;
      (** deliberately release messages regardless of the K bound. *)
}

val no_breakage : breakage

type protocol = {
  tracking : tracking;
  k : int;
      (** degree of optimism: a message is released only when at most [k]
          dependency entries are non-NULL.  [0] = pessimistic end of the
          spectrum, [n] = classical optimistic logging. *)
  commit_tracking : bool;
      (** apply Theorem 2: elide dependency entries on known-stable
          intervals.  Without it the vector always holds every acquired
          entry, as in Strom–Yemini, and [k] must equal [n]. *)
  announce_all_rollbacks : bool;
      (** broadcast announcements for induced rollbacks too (pre-Theorem 1
          behaviour). *)
  delivery_rule : delivery_rule;
  sync_logging : bool;
      (** flush the volatile buffer synchronously on every delivery
          (pessimistic logging). *)
  output_driven_logging : bool;
      (** on buffering an output, send flush requests to the processes it
          depends on instead of waiting for periodic notices (the
          alternative discussed at the end of Section 2). *)
  gossip_announcements : bool;
      (** periodic notices also carry every failure announcement the
          sender has seen, so an announcement lost on the wire is healed
          by anti-entropy.  Needed for safety under message loss; off by
          default (benign networks deliver each broadcast exactly once). *)
  gc_logs : bool;
      (** garbage-collect the stable log and old checkpoints behind any
          checkpoint whose dependency vector is empty — such a checkpoint
          can never be rolled past (Theorem 2's argument), so nothing
          before it is ever replayed again.  The collected deliveries are
          first persisted in compact form ({!Wire.Gc_stubs}) in the
          synchronous area so duplicate suppression stays sound; a stable
          log prefix holding a still-undelivered requeued message is never
          collected.  The paper attributes garbage collection to
          accumulated logging progress information (Section 2). *)
  breakage : breakage;
      (** deliberate protocol breaks, all false in every preset; used only
          to prove the chaos harness detects violations. *)
}

type timing = {
  t_proc : float;  (** application processing time per delivery *)
  t_sync_write : float;  (** synchronous stable-storage write *)
  t_replay : float;  (** re-execution of one logged delivery *)
  t_checkpoint : float;  (** taking or restoring a checkpoint *)
  per_entry_overhead : float;
      (** added network latency per piggybacked dependency entry *)
  flush_interval : float option;  (** period of asynchronous flushes *)
  checkpoint_interval : float option;
  notice_interval : float option;  (** logging-progress broadcast period *)
  retransmit_interval : float option;
      (** period of the sender-side retransmission timer: unacknowledged
          archived messages are re-sent each period.  [None] (the default)
          retransmits only on failure announcements, which suffices on a
          lossless network. *)
  restart_delay : float;  (** crash detection + reboot time *)
  net_latency : float;  (** base one-way latency *)
  net_jitter : float;  (** uniform jitter added to the base latency *)
  fifo : bool;  (** enforce FIFO channels (Strom–Yemini assume them) *)
}

type t = { n : int; protocol : protocol; timing : timing }

val default_timing : timing

val validate : t -> (t, string) result
(** Check internal consistency (e.g. [0 <= k <= n]; [k < n] requires
    commit tracking; [Wait_announcement] requires announcing all
    rollbacks). *)

val validate_exn : t -> t

(** {1 Presets} *)

val k_optimistic : ?timing:timing -> n:int -> k:int -> unit -> t
(** The paper's protocol (Figures 2–3) with degree of optimism [k]. *)

val pessimistic : ?timing:timing -> n:int -> unit -> t
(** 0-optimistic with synchronous logging: no failure ever revokes a
    message, recovery is localized. *)

val optimistic : ?timing:timing -> n:int -> unit -> t
(** N-optimistic: classical optimistic logging with all three of the
    paper's improvements applied. *)

val strom_yemini : ?timing:timing -> n:int -> unit -> t
(** The baseline of reference [12]: size-N vectors (no Theorem 2),
    announcements for every rollback, delivery delayed until announcements
    arrive, FIFO channels. *)

val direct_dependency : ?timing:timing -> n:int -> unit -> t
(** The direct-tracking comparator of Section 5 (references [6,7,10]):
    one piggybacked entry per message, all rollbacks announced, transitive
    dependencies assembled by query/reply at output-commit time.  See
    {!tracking} for the failure-recovery caveat. *)

val damani_garg : ?timing:timing -> n:int -> unit -> t
(** The baseline of reference [2]: failures-only announcements (Theorem 1)
    but no commit dependency tracking.  (Their protocol tracks multiple
    incarnations per process; this preset approximates it within the
    single-entry-per-process engine — see DESIGN.md.) *)

val default_time_scale : float
(** Seconds per abstract time unit when a configuration drives {e real}
    processes (the [koptnode] daemon and its driver): [0.001], i.e.
    abstract time units are interpreted as milliseconds. *)

val real_restart_delay : ?time_scale:float -> timing -> float
(** Wall-clock seconds a dead process stays down before it is recovered:
    [timing.restart_delay] scaled by [time_scale] (default
    {!default_time_scale}).  This is the single source of the
    restart-backoff used by the multi-process deployment's respawn path
    ([Net.Deployment]), which carries no magic number of its own. *)

val harden : t -> t
(** Enable the reliability machinery required on a lossy network:
    periodic sender retransmission (every 40 abstract units) and
    announcement gossip.  Leaves every
    other axis untouched; never weakens the K bound (see PROTOCOL.md). *)

val describe : t -> string
(** Short human-readable protocol description for report headers. *)
