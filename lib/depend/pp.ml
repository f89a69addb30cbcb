let entry ppf (e : Entry.t) = Format.fprintf ppf "(%d,%d)" e.inc e.sii

let entry_at i ppf (e : Entry.t) = Format.fprintf ppf "(%d,%d)_%d" e.inc e.sii i

let entry_string e = Format.asprintf "%a" entry e

let indexed ppf entries =
  let item ppf (j, e) = entry_at j ppf e in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") item)
    entries

let dep_vector ppf t = indexed ppf (Dep_vector.non_null t)

let entry_set ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") entry)
    (Entry_set.entries t)

let multi_dep ppf t = indexed ppf (Multi_dep.entries t)
