(** The file-system calls of the durable store, behind one signature.

    {!Segment_log}, {!Durable_store} and {!Fault} make every file call
    through a [t], so the same store runs on real files ({!unix}) and on
    an in-memory tree ({!mem}).  Paths are plain strings in both
    instances; a store never looks outside the directory it is given.

    The in-memory instance models what a store relies on from a kernel:
    written bytes are readable at once and outlive the store handle that
    wrote them (a store [kill] followed by a reopen over the same [t]
    sees them, as after a process death), and each file's fsynced length
    is recorded, so a test can build the images a power loss could leave
    behind ({!Mem}).  It is also the one place that models a lying disk:
    while a tree lies, fsyncs stop making bytes durable, and the death of
    the process over it loses what they did not ({!Mem.lie},
    {!Mem.halt}).  Creating, truncating, renaming and unlinking take
    effect at once and are treated as durable: no caller fsyncs a
    directory. *)

type file = {
  write : string -> unit;  (** append the whole string *)
  fsync : unit -> unit;
  close : unit -> unit;
}
(** An open, write-only file handle.  A handle names the file it opened,
    not its path: after a rename over that path it still writes to the
    file it opened. *)

type t = {
  mkdir_p : string -> unit;
  readdir : string -> string list;
      (** entry names, unsorted; raises [Sys_error] if the directory does
          not exist *)
  exists : string -> bool;
  size : string -> int;
  read : string -> string;  (** the whole file *)
  read_with : 'a. string -> (int -> (Bytes.t -> int -> int -> int) -> 'a) -> 'a;
      (** [read_with path k] opens [path] and runs [k size input]: [size] is
          the file's length at open, and [input buf pos len] reads up to
          [len] of the following bytes into [buf] at [pos], returning how
          many it read, 0 at the end.  The file is closed when [k] returns
          or raises.  The streaming read: nothing the size of the file is
          allocated ({!Codec.reader}). *)
  truncate : string -> int -> unit;
  unlink : string -> unit;
  rename : string -> string -> unit;
  open_append : string -> file;  (** create if missing; writes append *)
  create : string -> file;  (** create, or empty an existing file *)
}

val unix : t
(** Real files, through [Unix]. *)

val mem : unit -> t
(** A fresh, empty in-memory tree.  Holds no OS resource, so dropping it
    is enough to free it. *)

val numbered : string -> int -> string
(** [numbered prefix n] is [Printf.sprintf "%s%012d.dat" prefix n], built
    in one allocation: a store opening over many files names each one. *)

val write_file : t -> ?fsync:bool -> string -> string -> unit
(** [write_file fs path s] replaces [path]'s contents with [s], fsyncing
    them before it returns unless [~fsync:false]. *)

(** {1 Inspecting the in-memory instance} *)

module Mem : sig
  type tree

  val create : unit -> tree

  val fs : tree -> t

  type entry = { path : string; bytes : string; synced : int }
  (** A file's contents and how many leading bytes an fsync has made
      durable. *)

  val files : tree -> entry list
  (** Every file, sorted by path. *)

  val of_files : (string * string) list -> tree
  (** A tree holding exactly these (path, contents) files, all synced,
      with their parent directories. *)

  val before_fsync : tree -> (unit -> unit) -> unit
  (** Run [f] at the start of every later fsync, before it makes anything
      durable: the point where the most bytes are still unsynced. *)

  val lie : tree -> (string -> bool) -> unit
  (** A lying disk: from now on, an fsync of a file opened under a path
      [covers] accepts reports success and leaves its synced length where
      it was, until {!halt}. *)

  val halt : tree -> unit
  (** The process over the tree died.  While the tree lies, every file
      whose path the lie covers is cut back to its synced length (the
      writes the lying disk never made durable) and the lie ends.  An
      honest tree loses nothing: a death leaves every written byte in
      place, as a kernel's page cache does. *)
end
