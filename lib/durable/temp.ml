let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Path.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let counter = ref 0

let fresh_dir ?base ~prefix () =
  let base =
    match base with
    | Some b -> b
    | None -> Option.value (Sys.getenv_opt "TMPDIR") ~default:"/tmp"
  in
  mkdir_p base;
  let rec attempt () =
    incr counter;
    let path =
      Path.concat base
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    match Unix.mkdir path 0o755 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt ()
  in
  attempt ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Path.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
