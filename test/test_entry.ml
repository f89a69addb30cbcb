(* State-interval identifiers: the lexicographic order everything rests on. *)

open Depend
open Util

let test_initial () =
  Alcotest.check entry "initial is (0,1)" (e ~inc:0 ~sii:1) Entry.initial

let test_lexicographic () =
  Alcotest.(check bool) "incarnation dominates" true
    (Entry.lt (e ~inc:0 ~sii:100) (e ~inc:1 ~sii:1));
  Alcotest.(check bool) "index within incarnation" true
    (Entry.lt (e ~inc:2 ~sii:3) (e ~inc:2 ~sii:4));
  Alcotest.(check bool) "equal not lt" false (Entry.lt (e ~inc:1 ~sii:1) (e ~inc:1 ~sii:1))

let test_order_total =
  qtest "compare is a total order (antisymmetric, transitive)"
    QCheck2.Gen.(triple gen_entry gen_entry gen_entry)
    (fun (a, b, c) ->
      Entry.compare a b = -Entry.compare b a
      && (not (Entry.compare a b <= 0 && Entry.compare b c <= 0)
         || Entry.compare a c <= 0))

let test_max_min =
  qtest "max/min agree with compare" QCheck2.Gen.(pair gen_entry gen_entry)
    (fun (a, b) ->
      let mx = Entry.max a b and mn = Entry.min a b in
      Entry.le mn mx
      && (Entry.equal mx a || Entry.equal mx b)
      && (Entry.equal mn a || Entry.equal mn b)
      && Entry.le a mx && Entry.le b mx && Entry.le mn a && Entry.le mn b)

let test_next_interval () =
  Alcotest.check entry "next interval" (e ~inc:3 ~sii:8)
    (Entry.next_interval (e ~inc:3 ~sii:7))

let test_next_incarnation () =
  (* The current.inc++; current.sii++ step of Restart/Rollback. *)
  Alcotest.check entry "next incarnation" (e ~inc:1 ~sii:5)
    (Entry.next_incarnation (e ~inc:0 ~sii:4))

let test_pp () =
  Alcotest.(check string)
    "paper notation" "(0,4)"
    (Depend.Pp.entry_string (e ~inc:0 ~sii:4));
  Alcotest.(check string) "subscripted" "(2,6)_3"
    (Fmt.str "%a" (Depend.Pp.entry_at 3) (e ~inc:2 ~sii:6))

let suite =
  [
    Alcotest.test_case "initial" `Quick test_initial;
    Alcotest.test_case "lexicographic order" `Quick test_lexicographic;
    Alcotest.test_case "next_interval" `Quick test_next_interval;
    Alcotest.test_case "next_incarnation" `Quick test_next_incarnation;
    Alcotest.test_case "printing" `Quick test_pp;
    test_order_total;
    test_max_min;
  ]
