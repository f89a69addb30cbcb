let none = -1

(* [k] shifted up by [w] bits with [x] below it, or [none] when [x] is
   negative or needs more than [w] bits.  The widths of each packing sum
   to 62, so a packed value is nonnegative. *)
let push k w x = if k = none || x lsr w <> 0 then none else (k lsl w) lor x

let field k ~at w = (k lsr at) land ((1 lsl w) - 1)

(* From the top: sii 36, inc 9, idx 10, origin + 1 7. *)
let message ~origin (e : Entry.t) ~idx =
  push (push (push (push 0 36 e.sii) 9 e.inc) 10 idx) 7 (origin + 1)

let message_origin k = field k ~at:0 7 - 1
let message_idx k = field k ~at:7 10
let message_interval k = Entry.make ~inc:(field k ~at:17 9) ~sii:(k lsr 26)

(* From the top: sii 38, inc 10, idx 14. *)
let output (e : Entry.t) ~idx = push (push (push 0 38 e.sii) 10 e.inc) 14 idx

let output_idx k = field k ~at:0 14
let output_interval k = Entry.make ~inc:(field k ~at:14 10) ~sii:(k lsr 24)

let pair a b = push (push 0 16 a) 46 (b + 1)
let pair_fst k = k lsr 46
let pair_snd k = field k ~at:0 46 - 1

type 'a packing = { pack : 'a -> int; unpack : int -> 'a }

module Ints = Hashtbl.Make (Int)

(* A key lives in at most one of the two. *)
type ('k, 'v) t = {
  key : 'k packing;
  value : 'v packing;
  mutable packed : int Ints.t;
  mutable boxed : ('k, 'v) Hashtbl.t;
}

let create key value = { key; value; packed = Ints.create 16; boxed = Hashtbl.create 1 }

let length t = Ints.length t.packed + Hashtbl.length t.boxed

let mem t k =
  let p = t.key.pack k in
  (p <> none && Ints.mem t.packed p)
  || (Hashtbl.length t.boxed > 0 && Hashtbl.mem t.boxed k)

let replace t k v =
  let p = t.key.pack k and q = t.value.pack v in
  if p <> none && q <> none then begin
    if Hashtbl.length t.boxed > 0 then Hashtbl.remove t.boxed k;
    Ints.replace t.packed p q
  end
  else begin
    if p <> none then Ints.remove t.packed p;
    Hashtbl.replace t.boxed k v
  end

let fold f t acc =
  Ints.fold
    (fun p q acc -> f (t.key.unpack p) (t.value.unpack q) acc)
    t.packed (Hashtbl.fold f t.boxed acc)

let filter f t =
  let packed = Ints.create 16 and boxed = Hashtbl.create 1 in
  Ints.iter
    (fun p q -> if f (t.key.unpack p) (t.value.unpack q) then Ints.replace packed p q)
    t.packed;
  Hashtbl.iter (fun k v -> if f k v then Hashtbl.replace boxed k v) t.boxed;
  t.packed <- packed;
  t.boxed <- boxed
