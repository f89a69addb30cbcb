(* Registered last: every store, trace file and socket a test opened is
   closed by now.  A descriptor still pointing to a file that a test
   removed (a store directory deleted with its store still open) is a
   leak: the file's blocks stay allocated, and any daemon spawned later
   inherited the descriptor until stores opened close-on-exec. *)

let deleted_files () =
  Sys.readdir "/proc/self/fd"
  |> Array.to_list
  |> List.filter_map (fun fd ->
         match Unix.readlink (Filename.concat "/proc/self/fd" fd) with
         | target when String.ends_with ~suffix:" (deleted)" target ->
           Some (Fmt.str "fd %s -> %s" fd target)
         | _ -> None
         | exception Unix.Unix_error _ -> None)
  |> List.sort compare

let test_no_descriptor_on_a_deleted_file () =
  match deleted_files () with
  | [] -> ()
  | leaked ->
    Alcotest.failf "%d descriptor(s) still open on deleted files:\n%s"
      (List.length leaked) (String.concat "\n" leaked)

let suite =
  [
    Alcotest.test_case "no descriptor left open on a deleted file" `Quick
      test_no_descriptor_on_a_deleted_file;
  ]
