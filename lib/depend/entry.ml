type t = { inc : int; sii : int }

let make ~inc ~sii = { inc; sii }

let initial = { inc = 0; sii = 1 }

let compare a b =
  let c = Int.compare a.inc b.inc in
  if c <> 0 then c else Int.compare a.sii b.sii

let equal a b = compare a b = 0

let max a b = if compare a b >= 0 then a else b

let min a b = if compare a b <= 0 then a else b

let lt a b = compare a b < 0

let le a b = compare a b <= 0

let next_interval e = { e with sii = e.sii + 1 }

let next_incarnation e = { inc = e.inc + 1; sii = e.sii + 1 }
