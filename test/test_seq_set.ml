(* Channel-number run sets, checked against a plain Hashtbl of members
   under random insertion order. *)

open Depend
open Util

let gen_numbers = QCheck2.Gen.(list_size (int_bound 80) (int_bound 60))

let reference xs =
  let h = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace h x ()) xs;
  h

(* Maximal runs of absent numbers strictly between the least and the
   greatest member. *)
let gap_count h =
  match Hashtbl.fold (fun x () acc -> x :: acc) h [] with
  | [] -> 0
  | members ->
    let lo = List.fold_left min max_int members in
    let hi = List.fold_left max min_int members in
    let gaps = ref 0 in
    for x = lo + 1 to hi do
      if Hashtbl.mem h (x - 1) && not (Hashtbl.mem h x) then incr gaps
    done;
    !gaps

let law_matches_reference =
  qtest ~count:500 "membership matches a Hashtbl, runs = gaps + 1" gen_numbers
    (fun xs ->
      let s = List.fold_left (fun s x -> Seq_set.add x s) Seq_set.empty xs in
      let h = reference xs in
      let members_agree =
        List.for_all
          (fun x -> Seq_set.mem x s = Hashtbl.mem h x)
          (List.init 63 (fun i -> i - 1))
      in
      let runs = Seq_set.runs s in
      let rec maximal = function
        | (lo, hi) :: ((lo', _) :: _ as rest) -> lo <= hi && hi + 1 < lo' && maximal rest
        | [ (lo, hi) ] -> lo <= hi
        | [] -> true
      in
      let expected_runs = if Hashtbl.length h = 0 then 0 else gap_count h + 1 in
      members_agree && maximal runs
      && Seq_set.run_count s = expected_runs
      && Seq_set.runs (List.fold_left (Fun.flip Seq_set.add_run) Seq_set.empty runs)
         = runs)

let law_add_run =
  qtest ~count:300 "add_run adds every member of its range"
    QCheck2.Gen.(pair gen_numbers (pair (int_bound 60) (int_bound 20)))
    (fun (xs, (lo, len)) ->
      let hi = lo + len - 5 in
      let s = List.fold_left (fun s x -> Seq_set.add x s) Seq_set.empty xs in
      let s' = Seq_set.add_run (lo, hi) s in
      let h = reference xs in
      for x = lo to hi do
        Hashtbl.replace h x ()
      done;
      List.for_all
        (fun x -> Seq_set.mem x s' = Hashtbl.mem h x)
        (List.init 90 (fun i -> i - 1))
      && Seq_set.run_count s' = (if Hashtbl.length h = 0 then 0 else gap_count h + 1))

let test_in_order_stays_one_run () =
  let s = ref Seq_set.empty in
  for x = 0 to 9_999 do
    s := Seq_set.add x !s
  done;
  Alcotest.(check (list (pair int int))) "one run" [ (0, 9_999) ] (Seq_set.runs !s)

let suite =
  [
    law_matches_reference;
    law_add_run;
    Alcotest.test_case "in-order numbers stay one run" `Quick test_in_order_stays_one_run;
  ]
