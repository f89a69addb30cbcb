(** The piecewise-deterministic (PWD) application contract.

    The paper's execution model: "process execution is divided into a
    sequence of state intervals each of which is started by a
    nondeterministic event such as message receipt.  The execution within an
    interval is completely deterministic."  An application is therefore a
    pure transition function: delivering a message to a state yields the
    next state plus a list of effects (message sends and outputs to the
    outside world).  Recovery replays exactly this function, so determinism
    is a correctness requirement — the test suite checks it by comparing
    state digests across replays. *)

type 'msg effect =
  | Send of { dst : int; msg : 'msg; k : int option }
      (** Send [msg] to process [dst].  [k], when given, overrides the
          system-wide degree of optimism for this message ("different values
          of K can in fact be applied to different messages in the same
          system", Section 4.2). *)
  | Output of string
      (** Output to the outside world; committed only when every interval it
          depends on is stable (the output-commit problem, Section 2). *)

(** Optional state decomposition for fast recovery.

    An application that can split its state into [parts] independent
    partitions — such that handling a message of partition [p] reads and
    writes only partition [p]'s slice of the state — declares the
    decomposition here.  Recovery then replays the partitions of a crashed
    process's log {e independently} (any interleaving of per-partition
    replay yields the state serial replay yields, because cross-partition
    handlers commute) and can serve requests on already-replayed partitions
    while the rest of the log is still being redone.

    [part_of_msg] maps a payload to its partition, or [None] for a
    {e barrier} message that touches state outside any single partition
    (e.g. a cross-shard transaction): a barrier is replayed only after
    everything logged before it and before everything logged after it, and
    its presence in a replay range disables per-partition checkpoint
    skipping.

    [part_digest] fingerprints one partition's slice only, so tests can
    compare partitioned replay against serial replay slice by slice.

    [part_export]/[part_import], when provided, snapshot and restore one
    partition's slice as opaque bytes — the basis of per-partition
    incremental checkpoints.  [part_import state p bytes] must restore
    partition [p] of [state] to exactly the exported slice while leaving
    every other partition untouched; applications whose state includes
    global (cross-partition) counters must omit these two rather than
    silently lose the counters of skipped records. *)
type ('state, 'msg) partitioning = {
  parts : int;  (** number of partitions; must be >= 1 *)
  part_of_msg : n:int -> 'msg -> int option;
      (** partition of a payload, or [None] for a barrier message *)
  part_digest : 'state -> int -> int;
      (** deterministic fingerprint of one partition's state slice *)
  part_export : ('state -> int -> string) option;
  part_import : ('state -> int -> string -> 'state) option;
}

type ('state, 'msg) t = {
  name : string;
  init : pid:int -> n:int -> 'state;
      (** Initial state of process [pid] in an [n]-process system. *)
  handle : pid:int -> n:int -> 'state -> src:int -> 'msg -> 'state * 'msg effect list;
      (** Deterministic transition on message delivery.  [src] is the sending
          process, or {!outside_world} for client/injected messages. *)
  digest : 'state -> int;
      (** Deterministic fingerprint of a state, used to verify replay. *)
  partitioning : ('state, 'msg) partitioning option;
      (** State decomposition for partitioned replay; [None] means the
          state is monolithic and recovery replays serially. *)
}

(** Byte-level payload serialization, supplied by applications that want to
    run over a real network ([Net.Wire_codec] is parameterized over this).
    [read] must invert [write]; it returns [Error] — never a wrong value —
    on bytes it does not recognise, so transport-level corruption that
    slips past the frame checksum still cannot inject a fabricated
    message. *)
type 'msg wire_format = {
  write : 'msg -> string;
  read : string -> ('msg, string) result;
}

(** Strings go on the wire verbatim — the format for label/bytes payloads
    ({!Script_app}, tests). *)
let string_wire_format = { write = Fun.id; read = (fun s -> Ok s) }

let outside_world = -1

let send ?k dst msg = Send { dst; msg; k }

let output s = Output s
