type cursor = { s : string; mutable pos : int }

type 'a t = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }

let encode f v =
  let b = Buffer.create 64 in
  f.put b v;
  Buffer.contents b

let run get s =
  let c = { s; pos = 0 } in
  match get c with
  | v when c.pos = String.length s -> Ok v
  | _ -> Error (Printf.sprintf "trailing bytes: %d consumed of %d" c.pos (String.length s))
  | exception (Failure e | Invalid_argument e) -> Error e

let decode f s = run f.get s

(* [pos <= length] always holds, so the bytes left never overflow, and
   neither does a comparison with them. *)
let left c = String.length c.s - c.pos

let short c n =
  failwith
    (Printf.sprintf "short payload: need %d bytes at offset %d of %d" n c.pos
       (String.length c.s))

(* Inlined: only a short payload calls out. *)
let[@inline] need c n = if n > left c then short c n

let u8 c =
  need c 1;
  c.pos <- c.pos + 1;
  Char.code c.s.[c.pos - 1]

(* Inlined where an int or a float is read, so the int64 is not boxed
   (B10 reads ~11% slower without the two hints). *)
let[@inline] word c =
  need c 8;
  c.pos <- c.pos + 8;
  String.get_int64_le c.s (c.pos - 8)

let int =
  { put = (fun b v -> Buffer.add_int64_le b (Int64.of_int v));
    get = (fun c -> Int64.to_int (word c)) }

let float =
  { put = (fun b v -> Buffer.add_int64_le b (Int64.bits_of_float v));
    get = (fun c -> Int64.float_of_bits (word c)) }

(* A length or count, held to the bytes left: no element takes none. *)
let count c what =
  let n = int.get c in
  if n < 0 || n > left c then failwith (Printf.sprintf "bad %s %d" what n);
  n

let string =
  { put = (fun b s -> int.put b (String.length s); Buffer.add_string b s);
    get =
      (fun c ->
        let n = count c "string length" in
        c.pos <- c.pos + n;
        String.sub c.s (c.pos - n) n) }

let list f =
  { put = (fun b xs -> int.put b (List.length xs); List.iter (f.put b) xs);
    get = (fun c -> List.init (count c "list length") (fun _ -> f.get c)) }

let map of_ to_ f = { put = (fun b v -> f.put b (to_ v)); get = (fun c -> of_ (f.get c)) }

(* [forms.(tag)] is the case of [tag]; the array ends at the largest.
   [name] says what the tag is in an error. *)
type 'a cases = { name : string; tag_of : 'a -> int; forms : 'a t option array }

let cases name tag_of list =
  let size = List.fold_left (fun m (tag, _) -> max m (tag + 1)) 0 list in
  let forms = Array.make size None in
  List.iter
    (fun (tag, f) ->
      if tag < 0 || tag > 255 || Option.is_some forms.(tag) then
        invalid_arg (Printf.sprintf "Form.cases: tag %d" tag);
      forms.(tag) <- Some f)
    list;
  { name; tag_of; forms }

let find cs tag = if tag >= 0 && tag < Array.length cs.forms then cs.forms.(tag) else None

let case cs tag =
  match find cs tag with
  | Some f -> f
  | None -> failwith (Printf.sprintf "unknown %s %d" cs.name tag)

let tagged cs =
  { put =
      (fun b v ->
        let tag = cs.tag_of v in
        Buffer.add_char b (Char.chr tag);
        (case cs tag).put b v);
    get =
      (fun c ->
        let tag = u8 c in
        match find cs tag with
        | Some f -> f.get c
        | None ->
          failwith (Printf.sprintf "unknown %s %d at offset %d" cs.name tag (c.pos - 1))) }

let frame cs v =
  let kind = cs.tag_of v in
  Codec.encode ~kind (encode (case cs kind) v)

let decode_kind cs ~kind s = run (fun c -> (case cs kind).get c) s

(* Defined last: below, [[]] and [::] build a field list wherever one is
   expected. *)
type ('r, 'mk) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('a t * ('r -> 'a)) * ('r, 'mk) fields -> ('r, 'a -> 'mk) fields

let rec put_fields : type r mk. (r, mk) fields -> Buffer.t -> r -> unit =
 fun fields b r ->
  match fields with
  | [] -> ()
  | (f, field) :: rest ->
    f.put b (field r);
    put_fields rest b r

let rec get_fields : type r mk. (r, mk) fields -> mk -> cursor -> r =
 fun fields mk c ->
  match fields with
  | [] -> mk
  | (f, _) :: rest ->
    let v = f.get c in
    get_fields rest (mk v) c

let record mk fields = { put = put_fields fields; get = get_fields fields mk }

let pair fa fb = record (fun x y -> (x, y)) [ (fa, fst); (fb, snd) ]

let bool = tagged (cases "bool byte" Bool.to_int [ (0, record false []); (1, record true []) ])

let option f =
  tagged
    (cases "option tag"
       (function None -> 0 | Some _ -> 1)
       [ (0, record None []); (1, map Option.some Option.get f) ])
