(* Laws for the observability core: histogram quantile estimates are
   bounded by the recorded extremes, the snapshot merge algebra is
   associative/commutative with counter sums exact, and the binary form
   every snapshot crosses a process boundary in ([Wire_codec.snapshot])
   round-trips and refuses malformed payloads.  Snapshots can only be
   built through a registry, so the generators produce little metric
   programs and run them. *)

open Util

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

open QCheck2.Gen

(* Label values get the characters a text format would have to escape:
   the form carries them as they are. *)
let gen_label_value =
  string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\n'; ' '; '{'; '}'; '='; ',' ])
    (int_bound 6)

let gen_labels =
  let lab name = opt (map (fun v -> (name, v)) gen_label_value) in
  map2 (fun a b -> List.filter_map Fun.id [ a; b ]) (lab "phase") (lab "shard")

(* Observations spanning the bucket range, including exact powers of
   two, zero and sub-nanosecond underflow. *)
let gen_obs_value =
  oneof
    [
      map2
        (fun m e -> (0.001 +. m) *. Float.ldexp 1.0 e)
        (float_bound_inclusive 1.) (int_range (-35) 9);
      map (fun e -> Float.ldexp 1.0 e) (int_range (-35) 9);
      return 0.;
    ]

let gen_obs_list = list_size (int_range 1 30) gen_obs_value

(* A metric program: names come from a fixed pool with a fixed kind per
   name, so any two generated snapshots agree on kinds and overlap. *)
type spec =
  | SC of string * (string * string) list * int
  | SG of string * (string * string) list * float
  | SH of string * (string * string) list * float list

let gen_spec_item =
  oneof
    [
      map3 (fun n ls v -> SC (n, ls, v)) (oneofl [ "c_one"; "c_two" ]) gen_labels (int_bound 1000);
      map3 (fun n ls v -> SG (n, ls, v)) (oneofl [ "g_one" ]) gen_labels (float_bound_inclusive 50.);
      map3 (fun n ls vs -> SH (n, ls, vs)) (oneofl [ "h_one"; "h_two" ]) gen_labels gen_obs_list;
    ]

let gen_spec = list_size (int_bound 8) gen_spec_item

let build spec =
  let reg = Obs.Registry.create () in
  List.iter
    (function
      | SC (n, labels, v) -> Obs.Counter.add (Obs.Registry.counter reg ~labels n) v
      | SG (n, labels, v) -> Obs.Gauge.add (Obs.Registry.gauge reg ~labels n) v
      | SH (n, labels, vs) ->
        let h = Obs.Registry.histogram reg ~labels n in
        List.iter (Obs.Histogram.observe h) vs)
    spec;
  Obs.Registry.snapshot reg

let keys_of spec =
  List.map (function SC (n, ls, _) | SG (n, ls, _) | SH (n, ls, _) -> (n, ls)) spec

(* ------------------------------------------------------------------ *)
(* Histogram laws                                                      *)

let test_quantile_bounded =
  qtest ~count:500 "histogram: quantile estimates bounded by recorded min/max"
    (tup2 gen_obs_list (list_size (int_range 1 5) (float_bound_inclusive 100.)))
    (fun (values, quantiles) ->
      let reg = Obs.Registry.create () in
      let h = Obs.Registry.histogram reg "h_law" in
      List.iter (Obs.Histogram.observe h) values;
      let snap = Obs.Registry.snapshot reg in
      match Obs.Snapshot.hist snap "h_law" with
      | None -> false
      | Some hist ->
        let lo = List.fold_left Float.min infinity values in
        let hi = List.fold_left Float.max neg_infinity values in
        hist.Obs.Snapshot.minv = lo
        && hist.Obs.Snapshot.maxv = hi
        && Obs.Snapshot.hist_count hist = List.length values
        && List.for_all
             (fun p ->
               match Obs.Snapshot.quantile hist p with
               | None -> false
               | Some est -> est >= lo && est <= hi)
             quantiles)

let test_quantile_empty () =
  let reg = Obs.Registry.create () in
  let _ = Obs.Registry.histogram reg "h_empty" in
  let snap = Obs.Registry.snapshot reg in
  match Obs.Snapshot.hist snap "h_empty" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some h ->
    Alcotest.(check bool) "empty quantile is None" true (Obs.Snapshot.quantile h 50. = None);
    Alcotest.(check int) "empty count" 0 (Obs.Snapshot.hist_count h)

(* ------------------------------------------------------------------ *)
(* Merge algebra                                                       *)

let seq = Obs.Snapshot.equal

let test_merge_commutative =
  qtest ~count:300 "merge: commutative" (tup2 gen_spec gen_spec) (fun (sa, sb) ->
      let a = build sa and b = build sb in
      seq (Obs.Snapshot.merge a b) (Obs.Snapshot.merge b a))

let test_merge_associative =
  qtest ~count:300 "merge: associative" (tup3 gen_spec gen_spec gen_spec)
    (fun (sa, sb, sc) ->
      let a = build sa and b = build sb and c = build sc in
      seq
        (Obs.Snapshot.merge a (Obs.Snapshot.merge b c))
        (Obs.Snapshot.merge (Obs.Snapshot.merge a b) c))

let test_merge_identity =
  qtest ~count:300 "merge: empty is the identity" gen_spec (fun s ->
      let a = build s in
      seq (Obs.Snapshot.merge a Obs.Snapshot.empty) a
      && seq (Obs.Snapshot.merge Obs.Snapshot.empty a) a)

let test_merge_counter_sums =
  qtest ~count:300 "merge: counter sums exact on every key"
    (tup2 gen_spec gen_spec)
    (fun (sa, sb) ->
      let a = build sa and b = build sb in
      let m = Obs.Snapshot.merge a b in
      List.for_all
        (fun (name, labels) ->
          (not (String.length name > 1 && name.[0] = 'c'))
          || Obs.Snapshot.counter m ~labels name
             = Obs.Snapshot.counter a ~labels name + Obs.Snapshot.counter b ~labels name)
        (keys_of sa @ keys_of sb))

let test_merge_kind_clash () =
  let a =
    let reg = Obs.Registry.create () in
    Obs.Counter.incr (Obs.Registry.counter reg "clash");
    Obs.Registry.snapshot reg
  in
  let b =
    let reg = Obs.Registry.create () in
    Obs.Gauge.set (Obs.Registry.gauge reg "clash") 1.;
    Obs.Registry.snapshot reg
  in
  Alcotest.check_raises "kind clash raises"
    (Invalid_argument "Obs.Snapshot.merge: kind clash on \"clash\"") (fun () ->
      ignore (Obs.Snapshot.merge a b : Obs.Snapshot.t))

(* ------------------------------------------------------------------ *)
(* The snapshot form                                                   *)

module F = Durable.Form

let form = Net.Wire_codec.snapshot

let test_form_roundtrip =
  qtest ~count:500 "snapshot form: decode inverts encode" gen_spec (fun s ->
      let snap = build s in
      match F.decode form (F.encode form snap) with
      | Ok snap' -> seq snap snap'
      | Error _ -> false)

(* Payloads written field by field in the layout PROTOCOL.md gives: a
   sample count, then each sample's name, labels, tag byte and value. *)
let test_form_rejects () =
  let int = F.encode F.int and float = F.encode F.float and str = F.encode F.string in
  let sample ?(labels = []) name tag value =
    str name
    ^ int (List.length labels)
    ^ String.concat "" (List.map (fun (k, v) -> str k ^ str v) labels)
    ^ String.make 1 (Char.chr tag)
    ^ value
  in
  let snapshot samples = int (List.length samples) ^ String.concat "" samples in
  let hist buckets =
    float 2.5 ^ float 0.5 ^ float 2.
    ^ int (List.length buckets)
    ^ String.concat "" (List.map (fun (i, n) -> int i ^ int n) buckets)
  in
  let good =
    snapshot
      [
        sample "c_total" ~labels:[ ("a", "1"); ("b", "\"\n") ] 0 (int 7);
        sample "g" 1 (float 1.25);
        sample "h" 2 (hist [ (30, 1); (31, 2) ]);
      ]
  in
  (match F.decode form good with
  | Error e -> Alcotest.failf "a well-formed payload was refused: %s" e
  | Ok snap ->
    Alcotest.(check int) "counter" 7
      (Obs.Snapshot.counter snap ~labels:[ ("b", "\"\n"); ("a", "1") ] "c_total");
    Alcotest.(check (float 0.)) "gauge" 1.25 (Obs.Snapshot.gauge snap "g");
    Alcotest.(check (option (pair int (float 0.)))) "histogram" (Some (3, 2.5))
      (Option.map
         (fun h -> (Obs.Snapshot.hist_count h, h.Obs.Snapshot.sum))
         (Obs.Snapshot.hist snap "h"));
    Alcotest.(check string) "the form writes those bytes" good (F.encode form snap));
  let reject what payload =
    match F.decode form payload with
    | Ok _ -> Alcotest.failf "decoder accepted %s" what
    | Error _ -> ()
  in
  reject "a short payload" (String.sub good 0 (String.length good - 1));
  reject "a bucket index out of range"
    (snapshot [ sample "h" 2 (hist [ (Obs.Histogram.bucket_count, 1) ]) ]);
  reject "a negative bucket index" (snapshot [ sample "h" 2 (hist [ (-1, 1) ]) ]);
  reject "a repeated bucket index" (snapshot [ sample "h" 2 (hist [ (3, 1); (3, 2) ]) ]);
  reject "a decreasing bucket index" (snapshot [ sample "h" 2 (hist [ (4, 1); (3, 2) ]) ]);
  reject "a negative bucket count" (snapshot [ sample "h" 2 (hist [ (3, -1) ]) ]);
  reject "an unknown value tag" (snapshot [ sample "x" 3 (int 1) ]);
  reject "trailing bytes" (good ^ "\000");
  reject "samples out of order" (snapshot [ sample "y" 0 (int 1); sample "x" 0 (int 1) ]);
  reject "a repeated sample" (snapshot [ sample "x" 0 (int 1); sample "x" 0 (int 2) ]);
  reject "labels out of order"
    (snapshot [ sample "x" ~labels:[ ("b", "1"); ("a", "1") ] 0 (int 1) ])

let test_registry_guards () =
  let reg = Obs.Registry.create () in
  let _ = Obs.Registry.histogram reg "lat_seconds" in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s was not rejected" what
  in
  expect_invalid "kind clash" (fun () -> Obs.Registry.gauge reg "lat_seconds");
  expect_invalid "bad name" (fun () -> Obs.Registry.counter reg "no spaces");
  (* get-or-create: same key twice is the same cell *)
  let c1 = Obs.Registry.counter reg ~labels:[ ("a", "1") ] "hits_total" in
  let c2 = Obs.Registry.counter reg ~labels:[ ("a", "1") ] "hits_total" in
  Obs.Counter.incr c1;
  Obs.Counter.incr c2;
  Alcotest.(check int) "one cell behind one key" 2 (Obs.Counter.value c1)

let group =
  Obs.Group.make (fun cells ->
      (Obs.Group.counter cells "hits_total", Obs.Group.histogram cells "wait"))

let test_group () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s was not rejected" what
  in
  let reg = Obs.Registry.create () in
  let hits, wait = Obs.Registry.group reg group in
  Obs.Counter.incr hits;
  (* get-or-create: a second instantiation returns the same cells ... *)
  let hits', _ = Obs.Registry.group reg group in
  Obs.Counter.incr hits';
  (* ... which lookups by name and snapshots see as ordinary metrics *)
  Obs.Counter.incr (Obs.Registry.counter reg "hits_total");
  Obs.Histogram.observe wait 0.5;
  let snap = Obs.Registry.snapshot reg in
  Alcotest.(check int) "one counter behind three handles" 3
    (Obs.Snapshot.counter snap "hits_total");
  Alcotest.(check (option int)) "histogram indexed" (Some 1)
    (Option.map Obs.Snapshot.hist_count (Obs.Snapshot.hist snap "wait"));
  expect_invalid "kind clash with a group metric" (fun () ->
      Obs.Registry.gauge reg "hits_total");
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.counter reg "hits_total");
  ignore (Obs.Registry.group reg group);
  expect_invalid "group name registered on its own first" (fun () ->
      Obs.Registry.snapshot reg);
  let bad = Obs.Group.make (fun cells -> Obs.Group.counter cells "bad name") in
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.group reg bad);
  expect_invalid "malformed group name" (fun () -> Obs.Registry.snapshot reg)

let suite =
  [
    test_quantile_bounded;
    Alcotest.test_case "empty histogram has no quantile" `Quick test_quantile_empty;
    test_merge_commutative;
    test_merge_associative;
    test_merge_identity;
    test_merge_counter_sums;
    Alcotest.test_case "merge rejects kind clashes" `Quick test_merge_kind_clash;
    test_form_roundtrip;
    Alcotest.test_case "snapshot form refuses malformed payloads" `Quick test_form_rejects;
    Alcotest.test_case "registry guards names, kinds and labels" `Quick
      test_registry_guards;
    Alcotest.test_case "groups are get-or-create registry metrics" `Quick test_group;
  ]
