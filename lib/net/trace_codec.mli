(** Serialization of execution-trace entries.

    Each daemon appends its {!Recovery.Trace} entries to a per-process
    trace file as they happen (one {!Durable.Codec} frame per entry,
    flushed after every protocol step, after the Hello that opens each
    writer's stretch), so the trace written {e before} a [SIGKILL]
    survives the kill.  The deployment driver loads the per-process files,
    merges them into one global trace and certifies it with the offline
    causality oracle — the same end-to-end argument the simulator uses,
    now across real process boundaries.

    The file is read with the store's codec ({!Durable.Codec.fold}).  A
    file killed mid-append ends in a torn frame; the loader truncates at
    the first undecodable byte and {e reports} the damage, mirroring the
    durable store's open-time recovery discipline.  A file whose first
    frame is not a Hello of {!Wire_codec.version}, or that holds a Hello
    of another version, is refused from that frame on, also reported. *)

val encode_entry : Recovery.Trace.entry -> string
(** One full frame. *)

val decode_entry : string -> (Recovery.Trace.entry, string) result

type load = {
  entries : Recovery.Trace.entry list;  (** file order *)
  damage : string option;
      (** [Some reason] if the file ended in a torn or corrupt frame;
          never silent *)
}

val decode_stream : string -> load
(** Decode a trace file's bytes: a Hello, then entries and further Hellos,
    until the bytes run out or stop decoding. *)

val load_file : string -> (load, string) result
(** [Error] only if the file cannot be read at all. *)

(** {1 Incremental writer} *)

type writer

val open_writer : string -> writer
(** Open (append mode, created if missing) a trace file, and start its
    stretch with a Hello of {!Wire_codec.version}. *)

val close_writer : writer -> unit

val sync : writer -> Recovery.Trace.t -> unit
(** Write and release: append the entries added to [trace] since the
    previous sync ({!Recovery.Trace.drain}) to the file in one write to its
    descriptor, so they survive a later [SIGKILL] of the writing process.
    The file then holds the only copy: the daemon calls this after each
    protocol step, so its memory does not grow with the length of its
    trace.  O(1) when the step added nothing. *)
