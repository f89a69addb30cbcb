module Int_map = Map.Make (Int)

type t = int Int_map.t
(* incarnation -> recorded max interval index *)

let empty = Int_map.empty

let is_empty = Int_map.is_empty

let insert t (e : Entry.t) =
  Int_map.update e.inc
    (function None -> Some e.sii | Some x -> Some (Stdlib.max x e.sii))
    t

(* First writer wins: for tables recording where an incarnation {e ended}
   (the iet), a conflicting later claim must not widen the recorded ending
   — an incarnation ends exactly once, so on correct inputs this equals
   [insert], and on contradictory ones the earliest (most conservative)
   ending governs every subsequent orphan judgment. *)
let insert_min t (e : Entry.t) =
  Int_map.update e.inc
    (function None -> Some e.sii | Some x -> Some (Stdlib.min x e.sii))
    t

let find t ~inc = Int_map.find_opt inc t

let covers t (e : Entry.t) =
  match Int_map.find_opt e.inc t with
  | None -> false
  | Some x' -> e.sii <= x'

let orphans t (e : Entry.t) =
  (* Any recorded incarnation t >= e.inc ending before e.sii revokes e. *)
  Int_map.exists (fun inc x0 -> inc >= e.inc && x0 < e.sii) t

let max_inc t =
  match Int_map.max_binding_opt t with
  | None -> None
  | Some (inc, _) -> Some inc

let merge a b = Int_map.fold (fun inc sii acc -> insert acc { inc; sii }) b a

let cardinal = Int_map.cardinal

let entries t =
  Int_map.fold (fun inc sii acc -> Entry.make ~inc ~sii :: acc) t []
  |> List.rev

let of_entries es = List.fold_left insert empty es

let equal = Int_map.equal Int.equal

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Entry.pp)
    (entries t)
