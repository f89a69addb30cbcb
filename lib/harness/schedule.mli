(** Serialized, replayable schedules.

    A schedule pins one execution of the harness: which scenario to build
    (a model-checker configuration, a chaos case, or the Figure 1 worked
    example), which protocol safeguards to deliberately break, the exact
    sequence of scheduling choices taken, and the verdict the execution is
    expected to reproduce.  The model checker ({!Explore}) writes a
    schedule for every counter-example it finds; the chaos shrinker saves
    minimized failing cases in the same format; the corpus under
    [test/corpus/] replays them on every test run.

    The on-disk format is line-based text (see PROTOCOL.md): a magic
    header, [key: value] lines, [fault:] lines for chaos cases, and a
    [choices:] line holding the recorded scheduling decisions.  Floats are
    printed with 17 significant digits so every schedule replays
    byte-for-byte; {!of_string} inverts {!to_string} exactly. *)

(** {1 Fault directives}

    These are the chaos campaign's fault types; {!Chaos} re-exports them,
    so [Chaos.fault] and [Schedule.fault] are interchangeable.  They live
    here so the codec does not depend on the campaign runner. *)

type crash_kind =
  | Single of int
  | Group of int list  (** simultaneous multi-node crash *)
  | Cascade of int list
      (** staggered crashes, each while the previous victim is down *)
  | In_checkpoint of int  (** crash mid-checkpoint *)
  | In_flush of int  (** crash mid-flush *)

(** One removable unit of adversity (the chaos shrinker drops directives
    one at a time). *)
type fault =
  | Loss of float  (** per-packet loss probability *)
  | Duplication of float
  | Reorder of float * float  (** probability, extra-delay spread *)
  | Partition of { group : int list; from_ : float; until : float; drop : bool }
  | Crash of { kind : crash_kind; time : float }
  | Kill of { pid : int; time : float; storage : Durable.Fault.t option }
      (** process death over a durable store, optionally followed by
          post-mortem file damage *)
  | Join of { pid : int; time : float }
      (** membership churn: a brand-new process joins ([pid = n]) or a
          retired/crashed one rejoins under its old identity ([pid < n]) *)
  | Retire of { pid : int; time : float }
      (** graceful leave: force-flush, broadcast the final frontier, fall
          permanently silent *)
  | Brownout of { pid : int; time : float; rounds : int }
      (** disk-full window: the node's next [rounds] ordinary flushes
          refuse; degradation must stay graceful (sends gated, no data
          loss) *)

type case = { n : int; k : int; seed : int; faults : fault list }
(** One chaos campaign case. *)

val crash_times : restart_delay:float -> time:float -> crash_kind -> (int * float) list
(** The deaths a crash directive at [time] expands to, as [(pid, time)]
    in the order they are scheduled: [Single] and [Group] kill every pid
    at [time]; [Cascade] kills its [i]-th pid [i] half restart delays
    later, while the previous victim is still down.  The simulator
    ({!Chaos.run_case}) and the deployment ([Net.Deployment.play]) both
    schedule these.
    @raise Invalid_argument for [In_checkpoint] and [In_flush], which aim
    at a busy window only the simulator models. *)

(** {1 Scenarios} *)

type explore_params = {
  n : int;  (** processes *)
  k : int;  (** degree of optimism *)
  messages : int;  (** client injections ([Forward] one-hop chains) *)
  crashes : int;  (** fail-stop crashes, all enabled from time 0 *)
  flushes : int;  (** explicit flush events (stability progress) *)
  seed : int;
}
(** A bounded model-checking configuration.  The scenario it denotes is a
    pure function of these six integers (see {!Explore.build}), so the
    params plus a choice sequence pin one execution exactly. *)

type scenario =
  | Explore of explore_params
      (** untimed cluster under explicit scheduling; [choices] are
          positions into {!Cluster.enabled_events} *)
  | Chaos of { case : case; calls : int }
      (** a chaos case replayed through {!Chaos.run_case} with [calls]
          telecom calls; the timed simulator's earliest-time order is
          already deterministic given the seeds, so [choices] is empty.
          [Net.Deployment.play] runs the same case on live daemons, with
          [calls] kvstore operations. *)
  | Figure1 of [ `Improved | `Strom_yemini ]
      (** the paper's worked example, via {!Figure1.run} *)

(** The verdict class a replay must reproduce ({!Chaos.verdict} stripped
    of its payloads). *)
type expect = Certified | Detected | Violated | Crashed

type t = {
  name : string;  (** identifier; single token, no spaces *)
  expect : expect;
  breakage : Recovery.Config.breakage;
      (** deliberately disabled safeguards the scenario runs under *)
  scenario : scenario;
  choices : int list;
      (** recorded scheduling decisions, oldest first: each is a position
          into the canonical pending-event order at that step.  Replay
          applies them in order, then drains remaining events in
          canonical order. *)
}

(** {1 Codec} *)

val to_string : t -> string
(** Canonical text form, ending in a newline.  [of_string (to_string t)]
    is [Ok t] for every well-formed [t]. *)

val of_string : string -> (t, string) result
(** Parse; the error names the offending line. *)

val save : t -> file:string -> unit

val load : file:string -> (t, string) result
(** [Error] covers both unreadable files and malformed contents. *)

val expect_to_string : expect -> string

val expect_of_string : string -> expect option

val pp_expect : expect Fmt.t

val pp : t Fmt.t
(** Prints {!to_string}. *)
