(* Packed identities and the exactly-once tables keyed by them, checked
   against a plain Hashtbl keyed by the records under random inserts,
   lookups, prunes and checkpoint round trips.  Every field is drawn from
   small numbers, the powers of two around each slot's width up to 2^61,
   and negative numbers, so values that do not pack reach the side table. *)

open Depend
open Util
module Wire = Recovery.Wire

let gen_field =
  QCheck2.Gen.(
    frequency
      [
        (6, int_bound 40);
        (3, map2 (fun w d -> (1 lsl w) + d) (int_range 0 61) (int_range (-1) 1));
        (1, oneofl [ -2; -1; min_int; max_int ]);
        (1, int);
      ])

let gen_entry = QCheck2.Gen.map2 (fun inc sii -> Entry.make ~inc ~sii) gen_field gen_field

(* Origins start at -1, the outside world. *)
let gen_identity =
  QCheck2.Gen.map3
    (fun origin origin_interval idx -> { Wire.origin = origin - 1; origin_interval; idx })
    gen_field gen_entry gen_field

let gen_output =
  QCheck2.Gen.map2
    (fun out_interval out_idx -> { Wire.out_interval; out_idx })
    gen_entry gen_field

(* Epochs and channel positions; -1 is an unnumbered delivery. *)
let gen_position = QCheck2.Gen.(pair gen_field (oneof [ return (-1); gen_field ]))

let fits w x = x >= 0 && x < 1 lsl w

let law_packing =
  qtest ~count:1000 "a value packs iff its fields fit, and unpacks to itself"
    QCheck2.Gen.(triple gen_identity gen_output gen_position)
    (fun ((id : Wire.identity), (oid : Wire.output_id), (a, b)) ->
      let o = id.origin_interval and oi = oid.out_interval in
      let m = Id_pack.message ~origin:id.origin o ~idx:id.idx in
      let p = Id_pack.output oi ~idx:oid.out_idx in
      let q = Id_pack.pair a b in
      let m_fits = fits 7 (id.origin + 1) && fits 9 o.inc && fits 36 o.sii && fits 10 id.idx in
      let p_fits = fits 10 oi.inc && fits 38 oi.sii && fits 14 oid.out_idx in
      let q_fits = fits 16 a && b >= -1 && fits 46 (b + 1) in
      (m <> Id_pack.none) = m_fits
      && (p <> Id_pack.none) = p_fits
      && (q <> Id_pack.none) = q_fits
      && ((not m_fits)
         || m >= 0
            && Id_pack.message_origin m = id.origin
            && Entry.equal (Id_pack.message_interval m) o
            && Id_pack.message_idx m = id.idx)
      && ((not p_fits)
         || p >= 0
            && Entry.equal (Id_pack.output_interval p) oi
            && Id_pack.output_idx p = oid.out_idx)
      && ((not q_fits) || (q >= 0 && Id_pack.pair_fst q = a && Id_pack.pair_snd q = b)))

type ('k, 'v) op =
  | Replace of int * 'v  (** a pool key, bound to the value *)
  | Prune of int  (** keep the bindings whose hash with this salt is not 0 mod 3 *)
  | Round_trip  (** copied into a fresh table, as through a checkpoint's stubs *)

(* A table over these packings and a reference Hashtbl see the same
   operations from a pool of keys (so keys repeat) and must agree after
   each on the length, the membership of every pool key and the
   bindings. *)
let table_law name key value gen_key gen_value =
  let gen =
    QCheck2.Gen.(
      let* pool = array_size (int_range 1 8) gen_key in
      let gen_op =
        frequency
          [
            (6, map2 (fun i v -> Replace (i, v)) (int_bound (Array.length pool - 1)) gen_value);
            (1, map (fun s -> Prune s) int);
            (1, return Round_trip);
          ]
      in
      pair (return pool) (list_size (int_bound 40) gen_op))
  in
  qtest ~count:500 name gen (fun (pool, ops) ->
      let table = ref (Id_pack.create key value) and reference = Hashtbl.create 8 in
      let bindings fold t = List.sort compare (fold (fun k v acc -> (k, v) :: acc) t []) in
      let agree () =
        Id_pack.length !table = Hashtbl.length reference
        && Array.for_all (fun k -> Id_pack.mem !table k = Hashtbl.mem reference k) pool
        && bindings Id_pack.fold !table = bindings Hashtbl.fold reference
      in
      List.for_all
        (fun op ->
          (match op with
          | Replace (i, v) ->
            Id_pack.replace !table pool.(i) v;
            Hashtbl.replace reference pool.(i) v
          | Prune salt ->
            let keep k v = Hashtbl.hash (salt, k, v) mod 3 <> 0 in
            Id_pack.filter keep !table;
            Hashtbl.filter_map_inplace (fun k v -> if keep k v then Some v else None) reference
          | Round_trip ->
            let fresh = Id_pack.create key value in
            Id_pack.fold (fun k v () -> Id_pack.replace fresh k v) !table ();
            table := fresh);
          agree ())
        ops)

let law_held =
  table_law "held: identity -> position, as a Hashtbl" Wire.identity_packing
    Wire.position_packing gen_identity gen_position

let law_identities =
  table_law "released: identities, as a Hashtbl" Wire.identity_packing Wire.unit_packing
    gen_identity (QCheck2.Gen.return ())

let law_outputs =
  table_law "committed: output ids, as a Hashtbl" Wire.output_packing Wire.unit_packing
    gen_output (QCheck2.Gen.return ())

(* The side table in one fixed case: a key too wide to pack, and a
   packable key whose value is too wide, each replaced by a packable
   binding and back. *)
let test_side_table () =
  let id sii = { Wire.origin = 1; origin_interval = Entry.make ~inc:0 ~sii; idx = 0 } in
  let wide = id max_int and narrow = id 7 in
  let t = Id_pack.create Wire.identity_packing Wire.position_packing in
  Id_pack.replace t wide (0, 1);
  Id_pack.replace t narrow (max_int, 1);
  Alcotest.(check bool) "wide key" true (Id_pack.mem t wide);
  Alcotest.(check bool) "wide value" true (Id_pack.mem t narrow);
  Id_pack.replace t narrow (2, 3);
  Alcotest.(check int) "one binding per key" 2 (Id_pack.length t);
  let bindings = Id_pack.fold (fun k v acc -> (k, v) :: acc) t [] in
  Alcotest.(check bool) "values kept" true
    (List.sort compare bindings = List.sort compare [ (wide, (0, 1)); (narrow, (2, 3)) ]);
  Id_pack.filter (fun k _ -> k = narrow) t;
  Alcotest.(check bool) "pruned from the side table" false (Id_pack.mem t wide);
  Alcotest.(check bool) "packed one kept" true (Id_pack.mem t narrow)

let suite =
  [
    law_packing;
    law_held;
    law_identities;
    law_outputs;
    Alcotest.test_case "side table: wide keys and values" `Quick test_side_table;
  ]
