(** Printers for the store's reports and faults.

    They live apart from {!Durable_store} and {!Fault} so that a program
    that never prints one (the koptnode daemon) links no [Stdlib.Format]:
    the OCaml linker takes from a library only the modules a program
    references. *)

val open_report : Format.formatter -> Durable_store.open_report -> unit

val fault : Format.formatter -> Fault.t -> unit
(** {!Fault.to_string}. *)
