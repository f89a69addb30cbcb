type 'a t = {
  mutable items : 'a array; (* [items.(0 .. len - 1)], oldest first *)
  mutable len : int;
  mutable examined : int;
      (* [items.(0 .. examined - 1)] were judged waiting at generation [gen] *)
  mutable gen : int;
}

let create () = { items = [||]; len = 0; examined = 0; gen = -1 }

let length b = b.len

let push b x =
  if b.len = Array.length b.items then begin
    let items = Array.make (Stdlib.max 8 (2 * b.len)) x in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- x;
  b.len <- b.len + 1

(* Remove the entries of [items.(from ..)] that [p] accepts, compacting the
   rest in place; return the removed ones oldest first.  Slots past the new
   length are overwritten so they keep no removed entry alive. *)
let remove_from b ~from p =
  let removed = ref [] in
  let w = ref from in
  let examined = ref (Stdlib.min from b.examined) in
  for i = from to b.len - 1 do
    let x = b.items.(i) in
    if p x then removed := x :: !removed
    else begin
      if i < b.examined then incr examined;
      b.items.(!w) <- x;
      incr w
    end
  done;
  if !w = 0 then b.items <- [||]
  else Array.fill b.items !w (b.len - !w) b.items.(0);
  b.len <- !w;
  b.examined <- !examined;
  List.rev !removed

let take_ready b ~gen ready =
  let from = if gen = b.gen then b.examined else 0 in
  let taken = remove_from b ~from ready in
  b.examined <- b.len;
  b.gen <- gen;
  taken

let remove_if b p = remove_from b ~from:0 p

let to_list b = List.init b.len (fun i -> b.items.(i))

let iter b f =
  for i = 0 to b.len - 1 do
    f b.items.(i)
  done
