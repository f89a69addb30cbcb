type t = Entry_set.t array

let create ~n =
  if n <= 0 then invalid_arg "Multi_dep.create: n must be positive";
  Array.make n Entry_set.empty

let n = Array.length

let copy = Array.copy

let row t j = t.(j)

let add t j e = t.(j) <- Entry_set.insert t.(j) e

let merge ~into src =
  if Array.length into <> Array.length src then
    invalid_arg "Multi_dep.merge: size mismatch";
  for j = 0 to Array.length into - 1 do
    into.(j) <- Entry_set.merge into.(j) src.(j)
  done

let depends_on t j (e : Entry.t) =
  match Entry_set.find t.(j) ~inc:e.inc with
  | None -> false
  | Some x -> x >= e.sii

let entries t =
  let acc = ref [] in
  for j = Array.length t - 1 downto 0 do
    List.iter (fun e -> acc := (j, e) :: !acc) (List.rev (Entry_set.entries t.(j)))
  done;
  !acc

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Entry_set.equal a b
