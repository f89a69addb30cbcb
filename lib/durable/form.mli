(** Payload forms: each record's byte layout, described once.

    A form ['a t] both writes an ['a] ({!encode}) and reads a whole
    payload back ({!decode}), so an encoder and its decoder cannot drift
    apart.
    Forms are built once, when a codec module is initialised.  The
    payloads of peer packets, control messages and trace entries inside
    a {!Codec} frame, and the key-value applications' messages, are
    forms (PROTOCOL.md §Primitive encodings).

    {!decode} never raises: a short payload, a length or count over the
    bytes left (bounded as [n > bytes_left], which cannot overflow), a
    bad [bool] byte, an unknown tag, trailing bytes, and a [Failure]
    raised by a {!map} or {!record} function to refuse a value (a
    validating map) are all an [Error]. *)

type 'a t

val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> ('a, string) result
(** [Error] unless the form reads exactly the whole payload. *)

val int : int t
(** 8 bytes, two's complement, little-endian. *)

val float : float t
(** The IEEE 754 bit pattern as an {!int}: exact. *)

val bool : bool t
(** One byte, [\x00] or [\x01]. *)

val string : string t
(** An {!int} length, then the bytes. *)

val list : 'a t -> 'a list t
(** An {!int} count, then the elements; a count over the bytes left is
    refused before any element is read (no element takes zero bytes). *)

val option : 'a t -> 'a option t
(** A {!bool}, then the value when it is [true]. *)

val pair : 'a t -> 'b t -> ('a * 'b) t

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map of_ to_ f] reads through [of_] and writes through [to_] with the
    layout of [f]. *)

(** {1 Records}

    A record is its fields in order, each a form and the projection that
    takes it out of the value; the function builds the value from the
    fields read (an empty list is a constant, which takes no bytes):

    {[
      Form.record
        (fun origin origin_interval idx -> { origin; origin_interval; idx })
        Form.[ (int, fun i -> i.origin); (entry, fun i -> i.origin_interval);
               (int, fun i -> i.idx) ]
    ]} *)

type ('r, 'mk) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('a t * ('r -> 'a)) * ('r, 'mk) fields -> ('r, 'a -> 'mk) fields

val record : 'mk -> ('r, 'mk) fields -> 'r t

(** {1 Tagged cases}

    A variant's cases, each a tag (0-255) and the form of its values
    (usually a {!record} whose projections take the fields out of that
    constructor), with the function giving a value's tag.  One table
    serves two framings: a tag byte opening the payload ({!tagged}), or
    the tag as a {!Codec} frame's kind ({!frame}, {!decode_kind}). *)

type 'a cases

val cases : string -> ('a -> int) -> (int * 'a t) list -> 'a cases
(** [cases name tag_of list]: [name] says what the tag is ("packet kind",
    "trace event tag") in the [Error] for a tag with no case.  Raises
    [Invalid_argument] on a tag outside 0-255 or given twice. *)

val tagged : 'a cases -> 'a t

val frame : 'a cases -> 'a -> string
(** The frame whose kind is the value's tag and whose payload is its
    case's form. *)

val decode_kind : 'a cases -> kind:int -> string -> ('a, string) result
