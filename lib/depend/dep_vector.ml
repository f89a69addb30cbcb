type t = Entry.t option array

let create ~n =
  if n <= 0 then invalid_arg "Dep_vector.create: n must be positive";
  Array.make n None

let n = Array.length

let copy = Array.copy

let grow t ~n:n' =
  let n = Array.length t in
  if n' < n then invalid_arg "Dep_vector.grow: would shrink";
  if n' = n then t
  else begin
    let t' = Array.make n' None in
    Array.blit t 0 t' 0 n;
    t'
  end

let shrink t ~n:n' =
  let n = Array.length t in
  if n' <= 0 then invalid_arg "Dep_vector.shrink: n must be positive";
  if n' > n then invalid_arg "Dep_vector.shrink: would grow";
  for j = n' to n - 1 do
    match t.(j) with
    | None -> ()
    | Some _ ->
      invalid_arg "Dep_vector.shrink: dropped slot holds a live dependency"
  done;
  Array.sub t 0 n'

let get t j = t.(j)

let set t j e = t.(j) <- e

let clear t j = t.(j) <- None

let merge_max ~into src =
  if Array.length into <> Array.length src then
    invalid_arg "Dep_vector.merge_max: size mismatch";
  for j = 0 to Array.length into - 1 do
    match into.(j), src.(j) with
    | _, None -> ()
    | None, (Some _ as e) -> into.(j) <- e
    | Some a, Some b -> if Entry.lt a b then into.(j) <- Some b
  done

let non_null_count t =
  Array.fold_left (fun acc e -> match e with None -> acc | Some _ -> acc + 1) 0 t

let non_null t =
  let acc = ref [] in
  for j = Array.length t - 1 downto 0 do
    match t.(j) with
    | None -> ()
    | Some e -> acc := (j, e) :: !acc
  done;
  !acc

let of_non_null ~n entries =
  let t = create ~n in
  List.iter
    (fun (j, e) ->
      if j < 0 || j >= n then invalid_arg "Dep_vector.of_non_null: bad index";
      t.(j) <- Some e)
    entries;
  t

let iteri t ~f = Array.iteri f t

let elide_stable t ~stable =
  let elided = ref 0 in
  for j = 0 to Array.length t - 1 do
    match t.(j) with
    | None -> ()
    | Some e ->
      if stable j e then begin
        t.(j) <- None;
        incr elided
      end
  done;
  !elided

let equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  for j = 0 to Array.length a - 1 do
    match a.(j), b.(j) with
    | None, None -> ()
    | Some x, Some y -> if not (Entry.equal x y) then ok := false
    | None, Some _ | Some _, None -> ok := false
  done;
  !ok

let pp ppf t =
  let item ppf (j, e) = Entry.pp_at j ppf e in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") item)
    (non_null t)
