type policy =
  | Earliest
  | Replay of { mutable upcoming : int list }

type t = { policy : policy; mutable picked_rev : int list }

let earliest () = { policy = Earliest; picked_rev = [] }

let replay choices = { policy = Replay { upcoming = choices }; picked_rev = [] }

let clamp ~n_enabled i = if i < 0 then 0 else if i >= n_enabled then n_enabled - 1 else i

let pick t ~n_enabled =
  if n_enabled <= 0 then invalid_arg "Scheduler.pick: nothing is pending";
  let i =
    match t.policy with
    | Earliest -> 0
    | Replay r -> (
      match r.upcoming with
      | [] -> 0
      | i :: rest ->
        r.upcoming <- rest;
        clamp ~n_enabled i)
  in
  t.picked_rev <- i :: t.picked_rev;
  i

let choices t = List.rev t.picked_rev
