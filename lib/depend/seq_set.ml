(* Runs keyed by their least member: lo -> hi.  Runs are disjoint and
   never adjacent (a gap of at least one number separates any two). *)
module M = Map.Make (Int)

type t = int M.t

let empty = M.empty

let run_below x s = M.find_last_opt (fun lo -> lo <= x) s

let mem x s = match run_below x s with Some (_, hi) -> x <= hi | None -> false

let add_run (lo, hi) s =
  if hi < lo then s
  else begin
    (* Absorb every run that overlaps or touches [lo - 1, hi + 1]. *)
    let lo, hi, s =
      match run_below (lo - 1) s with
      | Some (l, h) when h >= lo - 1 -> (l, Stdlib.max hi h, M.remove l s)
      | Some _ | None -> (lo, hi, s)
    in
    let rec absorb hi s =
      match M.find_first_opt (fun l -> l >= lo) s with
      | Some (l, h) when l <= hi + 1 -> absorb (Stdlib.max hi h) (M.remove l s)
      | Some _ | None -> (hi, s)
    in
    let hi, s = absorb hi s in
    M.add lo hi s
  end

let add x s = if mem x s then s else add_run (x, x) s

let runs s = M.bindings s

let run_count = M.cardinal
