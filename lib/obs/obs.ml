(* Process-local metric registry with a mergeable snapshot algebra.  See
   obs.mli for the consistency contract; the short version: one registry,
   one owner, no lock. *)

(* ------------------------------------------------------------------ *)
(* Live cells                                                          *)

module Counter = struct
  type t = { mutable c : int }

  let make () = { c = 0 }
  let value t = t.c
  let incr t = t.c <- t.c + 1
  let add t n = t.c <- t.c + n
end

module Gauge = struct
  type t = { mutable g : float }

  let make () = { g = 0. }
  let value t = t.g
  let set t v = t.g <- v
  let add t v = t.g <- t.g +. v
end

module Histogram = struct
  (* Base-2 log-scale buckets: bucket [i] covers (2^(i-31), 2^(i-30)]
     seconds for i in 0..37 (~1 ns up to 128 s), bucket 38 is the
     overflow.  [frexp] gives the exponent directly, so placing an
     observation costs one primitive call and a clamp. *)

  let bucket_count = 39
  let lowest_exp = -30

  let bound i =
    if i >= bucket_count - 1 then infinity else Float.ldexp 1.0 (lowest_exp + i)

  let bucket_of v =
    if not (v > 0.) then 0
    else begin
      (* v = m * 2^e with m in [0.5, 1): v <= 2^e, with equality iff
         m = 0.5 — in which case v belongs to the next bucket down. *)
      let m, e = Float.frexp v in
      let e = if m = 0.5 then e - 1 else e in
      let i = e - lowest_exp in
      if i < 0 then 0 else if i > bucket_count - 1 then bucket_count - 1 else i
    end

  type t = {
    mutable counts : int array; (* [||] until the first observation *)
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let make () =
    { counts = [||]; n = 0; sum = 0.; minv = nan; maxv = nan }

  let observe t v =
    if not (Float.is_nan v) then begin
      let i = bucket_of v in
      if t.n = 0 then t.counts <- Array.make bucket_count 0;
      t.counts.(i) <- t.counts.(i) + 1;
      t.n <- t.n + 1;
      t.sum <- t.sum +. v;
      if Float.is_nan t.minv || v < t.minv then t.minv <- v;
      if Float.is_nan t.maxv || v > t.maxv then t.maxv <- v
    end

  let count t = t.n
  let sum t = t.sum
  let min_value t = t.minv
  let max_value t = t.maxv
end

(* ------------------------------------------------------------------ *)
(* Names and labels                                                    *)

let valid_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let check_name what s =
  if not (valid_name s) then invalid_arg (Printf.sprintf "Obs: bad %s %S" what s)

let norm_labels labels =
  List.iter (fun (k, _) -> check_name "label name" k) labels;
  List.sort_uniq compare labels

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)

module Snapshot = struct
  type hist = { counts : int array; sum : float; minv : float; maxv : float }
  type value = Counter of int | Gauge of float | Hist of hist

  type key = string * (string * string) list
  type t = (key * value) list (* sorted by key *)

  let empty = []
  let bindings t = t

  let of_bindings l =
    List.sort (fun (k1, _) (k2, _) -> compare k1 k2) l

  let find t ?(labels = []) name =
    match List.assoc_opt (name, norm_labels labels) t with
    | Some v -> Some v
    | None -> None

  let counter t ?labels name =
    match find t ?labels name with Some (Counter c) -> c | _ -> 0

  let gauge t ?labels name =
    match find t ?labels name with Some (Gauge g) -> g | _ -> 0.

  let hist t ?labels name =
    match find t ?labels name with Some (Hist h) -> Some h | _ -> None

  let hist_count h = Array.fold_left ( + ) 0 h.counts
  let hist_mean h =
    let n = hist_count h in
    if n = 0 then nan else h.sum /. float_of_int n

  let quantile h p =
    let total = hist_count h in
    if total = 0 then None
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100. *. float_of_int total)) in
        if r < 1 then 1 else if r > total then total else r
      in
      let rec bucket i cum =
        let cum = cum + h.counts.(i) in
        if cum >= rank || i = Histogram.bucket_count - 1 then i else bucket (i + 1) cum
      in
      let est = Histogram.bound (bucket 0 0) in
      let est = if est < h.minv then h.minv else est in
      let est = if est > h.maxv then h.maxv else est in
      Some est
    end

  let fmin a b = if Float.is_nan a then b else if Float.is_nan b then a else Float.min a b
  let fmax a b = if Float.is_nan a then b else if Float.is_nan b then a else Float.max a b

  let combine (name, _) a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (x +. y)
    | Hist x, Hist y ->
      Hist
        {
          counts = Array.map2 ( + ) x.counts y.counts;
          sum = x.sum +. y.sum;
          minv = fmin x.minv y.minv;
          maxv = fmax x.maxv y.maxv;
        }
    | _ -> invalid_arg (Printf.sprintf "Obs.Snapshot.merge: kind clash on %S" name)

  let rec merge a b =
    match (a, b) with
    | [], t | t, [] -> t
    | ((ka, va) :: ra as la), ((kb, vb) :: rb as lb) ->
      let c = compare ka kb in
      if c < 0 then (ka, va) :: merge ra lb
      else if c > 0 then (kb, vb) :: merge la rb
      else (ka, combine ka va vb) :: merge ra rb

  let merge_all l = List.fold_left merge empty l

  let fbits = Int64.bits_of_float
  let feq a b = fbits a = fbits b

  let value_equal a b =
    match (a, b) with
    | Counter x, Counter y -> x = y
    | Gauge x, Gauge y -> feq x y
    | Hist x, Hist y ->
      x.counts = y.counts && feq x.sum y.sum && feq x.minv y.minv && feq x.maxv y.maxv
    | _ -> false

  let equal a b =
    List.length a = List.length b
    && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && value_equal va vb) a b
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

module Registry = struct
  type metric =
    | MCounter of Counter.t
    | MGauge of Gauge.t
    | MHist of Histogram.t

  (* A group instance's cells, newest first.  Only the defining run
     records their names ([naming]): every instance creates the same
     cells in the same order, so one name list serves them all. *)
  type cells = { mutable metrics : metric list; mutable names : string list; naming : bool }

  (* [names]: newest first, like [metrics]; group metrics are unlabeled *)
  type 'a group = { id : 'a Type.Id.t; build : cells -> 'a; names : string list }

  type instance = Instance : 'a Type.Id.t * 'a -> instance

  type t = {
    tbl : (Snapshot.key, metric) Hashtbl.t;
    kinds : (string, string) Hashtbl.t; (* family name -> kind *)
    mutable instances : instance list; (* groups instantiated here *)
    mutable unindexed : (string list * metric list) list;
        (* their cells, until the next lookup or snapshot moves them
           into [tbl] *)
  }

  let create () =
    { tbl = Hashtbl.create 16; kinds = Hashtbl.create 16; instances = []; unindexed = [] }

  let kind_name = function
    | MCounter _ -> "counter"
    | MGauge _ -> "gauge"
    | MHist _ -> "histogram"

  (* Insert a cell under [key], validating its family; the caller has
     checked that [key] is absent. *)
  let insert t ((name, _) as key) m =
    check_name "metric name" name;
    (match Hashtbl.find_opt t.kinds name with
    | Some k when k <> kind_name m ->
      invalid_arg (Printf.sprintf "Obs.Registry: %s already registered as a %s" name k)
    | _ -> Hashtbl.replace t.kinds name (kind_name m));
    Hashtbl.replace t.tbl key m

  let index t =
    let pending = t.unindexed in
    t.unindexed <- [];
    List.iter
      (fun (names, metrics) ->
        List.iter2
          (fun name m ->
            if Hashtbl.mem t.tbl (name, []) then
              invalid_arg (Printf.sprintf "Obs.Registry: group metric %s already registered" name);
            insert t (name, []) m)
          names metrics)
      pending

  let get_or_create t ?(labels = []) name make =
    let key = (name, norm_labels labels) in
    index t;
    match Hashtbl.find_opt t.tbl key with
    | Some m -> m
    | None ->
      let m = make () in
      insert t key m;
      m

  let counter t ?labels name =
    match get_or_create t ?labels name (fun () -> MCounter (Counter.make ())) with
    | MCounter c -> c
    | m ->
      invalid_arg
        (Printf.sprintf "Obs.Registry: %s is a %s, not a counter" name (kind_name m))

  let gauge t ?labels name =
    match get_or_create t ?labels name (fun () -> MGauge (Gauge.make ())) with
    | MGauge g -> g
    | m ->
      invalid_arg
        (Printf.sprintf "Obs.Registry: %s is a %s, not a gauge" name (kind_name m))

  let histogram t ?labels name =
    match get_or_create t ?labels name (fun () -> MHist (Histogram.make ())) with
    | MHist h -> h
    | m ->
      invalid_arg
        (Printf.sprintf "Obs.Registry: %s is a %s, not a histogram" name (kind_name m))

  let group (type a) t (g : a group) : a =
    let same (Instance (id, v)) : a option =
      match Type.Id.provably_equal id g.id with Some Type.Equal -> Some v | None -> None
    in
    match List.find_map same t.instances with
    | Some v -> v
    | None ->
      let c = { metrics = []; names = []; naming = false } in
      let v = g.build c in
      t.unindexed <- (g.names, c.metrics) :: t.unindexed;
      t.instances <- Instance (g.id, v) :: t.instances;
      v

  let snapshot t =
    index t;
    Snapshot.of_bindings
      (Hashtbl.fold
         (fun key m acc ->
           let v =
             match m with
             | MCounter c -> Snapshot.Counter (Counter.value c)
             | MGauge g -> Snapshot.Gauge (Gauge.value g)
             | MHist h ->
               let counts = h.Histogram.counts in
               Snapshot.Hist
                 {
                   Snapshot.counts =
                     (if Array.length counts = 0 then Array.make Histogram.bucket_count 0
                      else Array.copy counts);
                   sum = h.Histogram.sum;
                   minv = h.Histogram.minv;
                   maxv = h.Histogram.maxv;
                 }
           in
           (key, v) :: acc)
         t.tbl [])
end

(* ------------------------------------------------------------------ *)
(* Groups                                                              *)

module Group = struct
  type 'a t = 'a Registry.group
  type cells = Registry.cells

  let add (c : cells) name m cell =
    c.metrics <- m :: c.metrics;
    if c.naming then c.names <- name :: c.names;
    cell

  let counter cells name = let c = Counter.make () in add cells name (Registry.MCounter c) c
  let gauge cells name = let g = Gauge.make () in add cells name (Registry.MGauge g) g
  let histogram cells name = let h = Histogram.make () in add cells name (Registry.MHist h) h

  let make build =
    let c = { Registry.metrics = []; names = []; naming = true } in
    ignore (build c);
    { Registry.id = Type.Id.make (); build; names = c.names }
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

module Span = struct
  type t = Histogram.t

  let create reg ?labels name = Registry.histogram reg ?labels name
  let record t ~seconds = Histogram.observe t seconds

  let time t f =
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> Histogram.observe t (Unix.gettimeofday () -. t0)) f
end
