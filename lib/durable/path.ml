let concat dir name =
  let l = String.length dir in
  if l = 0 || dir.[l - 1] = '/' then dir ^ name else dir ^ "/" ^ name

(* [Filename.dirname]'s rule on Unix: drop trailing slashes, the last
   name, then the slashes before it. *)
let dirname path =
  let rec trailing n =
    if n < 0 then String.sub path 0 1
    else if path.[n] = '/' then trailing (n - 1)
    else base n
  and base n =
    if n < 0 then "."
    else if path.[n] = '/' then separator n
    else base (n - 1)
  and separator n =
    if n < 0 then String.sub path 0 1
    else if path.[n] = '/' then separator (n - 1)
    else String.sub path 0 (n + 1)
  in
  if path = "" then "." else trailing (String.length path - 1)

let basename path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path
