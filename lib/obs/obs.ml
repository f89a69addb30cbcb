(* Process-local metric registry with a mergeable snapshot algebra and a
   versioned text exposition format.  See obs.mli for the consistency
   contract; the short version: one registry, one owner, no lock. *)

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
(* Names, labels, float text                                           *)

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

(* Shortest decimal rendering that survives float_of_string exactly;
   readable for the common case, never lossy. *)
let float_repr f =
  if Float.is_nan f then "nan"
  else if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_label_value v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

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

  (* ---------------------------------------------------------------- *)
  (* Exposition                                                        *)

  let header = "# koptlog-obs v1"

  let render_labels b labels =
    match labels with
    | [] -> ()
    | _ ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b k;
          Buffer.add_string b "=\"";
          Buffer.add_string b (escape_label_value v);
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

  let render_sample b name labels value =
    Buffer.add_string b name;
    render_labels b labels;
    Buffer.add_char b ' ';
    Buffer.add_string b value;
    Buffer.add_char b '\n'

  let kind_of = function Counter _ -> "counter" | Gauge _ -> "gauge" | Hist _ -> "histogram"

  let to_text t =
    let b = Buffer.create 1024 in
    Buffer.add_string b header;
    Buffer.add_char b '\n';
    let last_family = ref "" in
    List.iter
      (fun ((name, labels), v) ->
        if name <> !last_family then begin
          last_family := name;
          Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name (kind_of v))
        end;
        match v with
        | Counter c -> render_sample b name labels (string_of_int c)
        | Gauge g -> render_sample b name labels (float_repr g)
        | Hist h ->
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              cum := !cum + n;
              if n > 0 && i < Histogram.bucket_count - 1 then
                render_sample b (name ^ "_bucket")
                  (labels @ [ ("le", float_repr (Histogram.bound i)) ])
                  (string_of_int !cum))
            h.counts;
          render_sample b (name ^ "_bucket") (labels @ [ ("le", "+Inf") ])
            (string_of_int !cum);
          render_sample b (name ^ "_sum") labels (float_repr h.sum);
          render_sample b (name ^ "_count") labels (string_of_int !cum);
          render_sample b (name ^ "_min") labels (float_repr h.minv);
          render_sample b (name ^ "_max") labels (float_repr h.maxv))
      t;
    Buffer.contents b

  (* Parsing.  Line-oriented: [# TYPE name kind] declares a family,
     other comments are skipped, and every sample line must belong to a
     declared family (histogram components by suffix). *)

  exception Bad of string

  let parse_labels ln s =
    (* s is the full text inside the braces *)
    let n = String.length s in
    let out = ref [] in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "line %d: %s" ln msg)) in
    while !pos < n do
      let eq =
        match String.index_from_opt s !pos '=' with
        | Some e -> e
        | None -> fail "label without '='"
      in
      let k = String.sub s !pos (eq - !pos) in
      if not (valid_name k) then fail (Printf.sprintf "bad label name %S" k);
      if eq + 1 >= n || s.[eq + 1] <> '"' then fail "label value not quoted";
      let b = Buffer.create 16 in
      let i = ref (eq + 2) in
      let closed = ref false in
      while not !closed do
        if !i >= n then fail "unterminated label value"
        else
          match s.[!i] with
          | '"' ->
            closed := true;
            incr i
          | '\\' ->
            if !i + 1 >= n then fail "dangling escape";
            (match s.[!i + 1] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            i := !i + 2
          | c ->
            Buffer.add_char b c;
            incr i
      done;
      out := (k, Buffer.contents b) :: !out;
      if !i < n then
        if s.[!i] = ',' then pos := !i + 1 else fail "expected ',' between labels"
      else pos := !i
    done;
    List.rev !out

  let parse_sample ln line =
    let fail msg = raise (Bad (Printf.sprintf "line %d: %s" ln msg)) in
    let name_end =
      let rec go i =
        if i >= String.length line then i
        else
          match line.[i] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> go (i + 1)
          | _ -> i
      in
      go 0
    in
    let name = String.sub line 0 name_end in
    if not (valid_name name) then fail "sample without a metric name";
    let labels, rest_pos =
      if name_end < String.length line && line.[name_end] = '{' then begin
        (* The closing brace must be found outside quoted label values
           ('}' and escaped '"' may occur inside them). *)
        let n = String.length line in
        let rec close i in_quote =
          if i >= n then fail "unterminated label set"
          else
            match line.[i] with
            | '\\' when in_quote -> close (i + 2) in_quote
            | '"' -> close (i + 1) (not in_quote)
            | '}' when not in_quote -> i
            | _ -> close (i + 1) in_quote
        in
        let close = close (name_end + 1) false in
        ( parse_labels ln (String.sub line (name_end + 1) (close - name_end - 1)),
          close + 1 )
      end
      else ([], name_end)
    in
    if rest_pos >= String.length line || line.[rest_pos] <> ' ' then
      fail "expected ' ' before sample value";
    let value = String.sub line (rest_pos + 1) (String.length line - rest_pos - 1) in
    if String.trim value = "" then fail "missing sample value";
    (name, labels, String.trim value)

  type hacc = {
    mutable cums : (int * int) list; (* bucket index, cumulative count *)
    mutable inf : int option;
    mutable hsum : float option;
    mutable hcount : int option;
    mutable hmin : float option;
    mutable hmax : float option;
  }

  (* le strings are matched against the canonical rendering of each
     bucket bound — the same [float_repr] that produced them. *)
  let le_table =
    lazy
      (let tbl = Hashtbl.create 64 in
       for i = 0 to Histogram.bucket_count - 2 do
         Hashtbl.replace tbl (float_repr (Histogram.bound i)) i
       done;
       tbl)

  let of_text s =
    try
      let lines = String.split_on_char '\n' s in
      (match lines with
      | first :: _ when first = header -> ()
      | _ -> raise (Bad (Printf.sprintf "missing %s header" header)));
      let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
      let plain : (key * value) list ref = ref [] in
      let hists : (key, hacc) Hashtbl.t = Hashtbl.create 16 in
      let hist_order : key list ref = ref [] in
      let hacc key =
        match Hashtbl.find_opt hists key with
        | Some a -> a
        | None ->
          let a =
            { cums = []; inf = None; hsum = None; hcount = None; hmin = None; hmax = None }
          in
          Hashtbl.replace hists key a;
          hist_order := key :: !hist_order;
          a
      in
      let int_of ln v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> raise (Bad (Printf.sprintf "line %d: bad integer %S" ln v))
      in
      let float_of ln v =
        match float_of_string_opt v with
        | Some f -> f
        | None -> raise (Bad (Printf.sprintf "line %d: bad float %S" ln v))
      in
      let hist_component name =
        (* [name] ends in a histogram suffix of a declared histogram family *)
        let strip suffix =
          let ls = String.length suffix and ln = String.length name in
          if ln > ls && String.sub name (ln - ls) ls = suffix then
            let base = String.sub name 0 (ln - ls) in
            if Hashtbl.find_opt types base = Some "histogram" then Some base else None
          else None
        in
        match strip "_bucket" with
        | Some b -> Some (`Bucket, b)
        | None -> (
          match strip "_sum" with
          | Some b -> Some (`Sum, b)
          | None -> (
            match strip "_count" with
            | Some b -> Some (`Count, b)
            | None -> (
              match strip "_min" with
              | Some b -> Some (`Min, b)
              | None -> (
                match strip "_max" with
                | Some b -> Some (`Max, b)
                | None -> None))))
      in
      List.iteri
        (fun idx line ->
          let ln = idx + 1 in
          let fail msg = raise (Bad (Printf.sprintf "line %d: %s" ln msg)) in
          if ln = 1 || String.trim line = "" then ()
          else if String.length line > 0 && line.[0] = '#' then begin
            match String.split_on_char ' ' line with
            | "#" :: "TYPE" :: name :: kind :: [] ->
              if not (valid_name name) then fail "bad TYPE name";
              (match kind with
              | "counter" | "gauge" | "histogram" -> ()
              | k -> fail (Printf.sprintf "unknown TYPE kind %S" k));
              (match Hashtbl.find_opt types name with
              | Some k when k <> kind -> fail (Printf.sprintf "conflicting TYPE for %s" name)
              | _ -> Hashtbl.replace types name kind)
            | _ -> () (* other comments are ignored *)
          end
          else begin
            let name, labels, value = parse_sample ln line in
            match hist_component name with
            | Some (`Bucket, base) -> (
              let le =
                match List.assoc_opt "le" labels with
                | Some le -> le
                | None -> fail "_bucket sample without le label"
              in
              let key = (base, norm_labels (List.remove_assoc "le" labels)) in
              let a = hacc key in
              let cum = int_of ln value in
              if le = "+Inf" then
                match a.inf with
                | Some _ -> fail "duplicate +Inf bucket"
                | None -> a.inf <- Some cum
              else
                match Hashtbl.find_opt (Lazy.force le_table) le with
                | None -> fail (Printf.sprintf "unknown bucket bound le=%S" le)
                | Some i ->
                  if List.mem_assoc i a.cums then fail "duplicate bucket"
                  else a.cums <- (i, cum) :: a.cums)
            | Some (comp, base) -> (
              let key = (base, norm_labels labels) in
              let a = hacc key in
              let dup () = fail (Printf.sprintf "duplicate histogram component for %s" base) in
              match comp with
              | `Sum -> if a.hsum <> None then dup () else a.hsum <- Some (float_of ln value)
              | `Count ->
                if a.hcount <> None then dup () else a.hcount <- Some (int_of ln value)
              | `Min -> if a.hmin <> None then dup () else a.hmin <- Some (float_of ln value)
              | `Max -> if a.hmax <> None then dup () else a.hmax <- Some (float_of ln value)
              | `Bucket -> assert false)
            | None -> (
              let key = (name, norm_labels labels) in
              match Hashtbl.find_opt types name with
              | Some "counter" -> plain := (key, Counter (int_of ln value)) :: !plain
              | Some "gauge" -> plain := (key, Gauge (float_of ln value)) :: !plain
              | Some "histogram" -> fail "bare sample for a histogram family"
              | Some _ -> assert false
              | None -> fail (Printf.sprintf "sample %S has no TYPE declaration" name))
          end)
        lines;
      let finished =
        List.rev_map
          (fun ((base, _) as key) ->
            let a = Hashtbl.find hists key in
            let fail msg = raise (Bad (Printf.sprintf "histogram %s: %s" base msg)) in
            let total =
              match a.inf with Some t -> t | None -> fail "missing +Inf bucket"
            in
            let counts = Array.make Histogram.bucket_count 0 in
            let cums = List.sort compare a.cums in
            let prev = ref 0 in
            List.iter
              (fun (i, cum) ->
                if cum < !prev then fail "non-monotone bucket cumulative";
                counts.(i) <- cum - !prev;
                prev := cum)
              cums;
            if total < !prev then fail "non-monotone bucket cumulative";
            counts.(Histogram.bucket_count - 1) <- total - !prev;
            (match a.hcount with
            | Some c when c <> total -> fail "_count disagrees with +Inf cumulative"
            | Some _ -> ()
            | None -> fail "missing _count");
            let sum = match a.hsum with Some s -> s | None -> fail "missing _sum" in
            let minv = match a.hmin with Some m -> m | None -> fail "missing _min" in
            let maxv = match a.hmax with Some m -> m | None -> fail "missing _max" in
            (key, Hist { counts; sum; minv; maxv }))
          !hist_order
      in
      Ok (of_bindings (!plain @ finished))
    with Bad msg -> Error msg
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

  (* Histogram families own their [_bucket]/[_sum]/... sample names in
     the exposition, so those names are reserved both ways. *)
  let hist_suffixes = [ "_bucket"; "_sum"; "_count"; "_min"; "_max" ]

  let check_suffixes t name is_hist =
    List.iter
      (fun suf ->
        let ls = String.length suf and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = suf then
          match Hashtbl.find_opt t.kinds (String.sub name 0 (ln - ls)) with
          | Some "histogram" ->
            invalid_arg
              (Printf.sprintf "Obs.Registry: %s collides with histogram %s" name
                 (String.sub name 0 (ln - ls)))
          | _ -> ())
      hist_suffixes;
    if is_hist then
      List.iter
        (fun suf ->
          if Hashtbl.mem t.kinds (name ^ suf) then
            invalid_arg
              (Printf.sprintf "Obs.Registry: histogram %s collides with metric %s%s" name
                 name suf))
        hist_suffixes

  (* Insert a cell under [key], validating its family; the caller has
     checked that [key] is absent. *)
  let insert t ((name, _) as key) m =
    check_name "metric name" name;
    (match Hashtbl.find_opt t.kinds name with
    | Some k when k <> kind_name m ->
      invalid_arg (Printf.sprintf "Obs.Registry: %s already registered as a %s" name k)
    | _ ->
      check_suffixes t name (kind_name m = "histogram");
      Hashtbl.replace t.kinds name (kind_name m));
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
    (match labels with
    | Some ls when List.mem_assoc "le" ls ->
      invalid_arg "Obs.Registry: the le label is reserved on histograms"
    | _ -> ());
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
