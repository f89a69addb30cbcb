type t = {
  mutable samples : float list;
  mutable sorted : float array option; (* cache invalidated by [add] *)
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  {
    samples = [];
    sorted = None;
    n = 0;
    mean = 0.;
    m2 = 0.;
    min = Float.infinity;
    max = Float.neg_infinity;
  }

let add t x =
  t.samples <- x :: t.samples;
  t.sorted <- None;
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_int t x = add t (float_of_int x)

let count t = t.n

let total t = t.mean *. float_of_int t.n

let mean t = if t.n = 0 then 0. else t.mean

let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int t.n)

let min t = if t.n = 0 then Float.nan else t.min

let max t = if t.n = 0 then Float.nan else t.max

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.n = 0 then Float.nan
  else begin
    let a = sorted t in
    let p = Stdlib.max 0. (Stdlib.min 100. p) in
    (* Nearest-rank: the smallest sample with at least p% of samples <= it. *)
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
    let idx = Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)) in
    a.(idx)
  end

let median t = percentile t 50.

let merge a b =
  let t = create () in
  List.iter (add t) (List.rev b.samples);
  List.iter (add t) (List.rev a.samples);
  t

let pp ppf t =
  if t.n = 0 then Fmt.string ppf "n=0"
  else
    Fmt.pf ppf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" t.n (mean t)
      (median t) (percentile t 99.) (max t)
