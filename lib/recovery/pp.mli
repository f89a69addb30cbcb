(** Printers for the recovery layer's wire identities and trace events.

    They live apart from {!Wire} and {!Trace} so that a program that never
    prints one (the koptnode daemon) links no [Stdlib.Format]: the OCaml
    linker takes from a library only the modules a program references.
    Dependency entries print with {!Depend.Pp}. *)

val identity : Format.formatter -> Wire.identity -> unit

val announcement : Format.formatter -> Wire.announcement -> unit

val output_id : Format.formatter -> Wire.output_id -> unit

val reason : Format.formatter -> Trace.discard_reason -> unit

val event : Format.formatter -> Trace.event -> unit

val trace_entry : Format.formatter -> Trace.entry -> unit

val trace : Format.formatter -> Trace.t -> unit
(** The whole trace, one event per line. *)
