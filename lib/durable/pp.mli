(** Printers for the store's faults.

    They live apart from {!Fault} so that a program that never prints one
    (the koptnode daemon) links no [Stdlib.Format]: the OCaml linker takes
    from a library only the modules a program references. *)

val fault : Format.formatter -> Fault.t -> unit
(** {!Fault.to_string}. *)
