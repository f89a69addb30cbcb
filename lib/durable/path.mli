(** Unix path names, as the store builds and reads them.

    [Stdlib.Filename] computes the same names, but linking it brings ~165
    frame descriptors and its dependencies into every program that opens
    a store, the koptnode daemon included, for the three functions this
    library calls.  Separators are ['/'] only. *)

val concat : string -> string -> string
(** [concat dir name] is [Filename.concat dir name]: [dir] and [name]
    joined by one ['/'], none added if [dir] is empty or ends in one. *)

val dirname : string -> string
(** [Filename.dirname] on Unix: [dirname "a/b/"] is ["a"], [dirname "a"]
    is ["."], [dirname "/a"] is ["/"]. *)

val basename : string -> string
(** What follows the last ['/'], the whole path if it has none: what
    [Filename.basename] gives for a path that is not empty and does not
    end in ['/']. *)
