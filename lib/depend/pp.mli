(** Printers for the dependency-tracking types, in the paper's notation.

    They live apart from the types they print so that a program that never
    prints one (the koptnode daemon) links no [Stdlib.Format]: the OCaml
    linker takes from a library only the modules a program references. *)

val entry : Format.formatter -> Entry.t -> unit
(** Prints [(t,x)], matching the paper. *)

val entry_at : int -> Format.formatter -> Entry.t -> unit
(** [entry_at i] prints [(t,x)_i], the paper's subscripted form. *)

val entry_string : Entry.t -> string
(** [entry] as a string. *)

val dep_vector : Format.formatter -> Dep_vector.t -> unit
(** Prints the non-NULL entries as [{(t,x)_j; ...}], matching the paper's
    dependency-set notation. *)

val entry_set : Format.formatter -> Entry_set.t -> unit

val multi_dep : Format.formatter -> Multi_dep.t -> unit
(** Paper-style set notation [{(t,x)_j; ...}]. *)
