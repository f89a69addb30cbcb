(* How koptnode is linked (bin/dune).  The daemon binary must stay a PIE,
   and must carry neither a full relative-relocation table nor an export
   of every OCaml symbol: the loader-only tables those make fill the
   binary's first read-only segment, which is resident in every daemon.
   With both link flags that segment is ~25 KB; with either alone it is
   over 400 KB.  It must also link no threads library, no Cmdliner and no
   Fmt.  The checks read the ELF64 headers directly.  The last test runs
   the hand-parsed command line that replaced Cmdliner. *)

module Deployment = Net.Deployment

let u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff

let u64 s off = Int64.to_int (String.get_int64_le s off)

let et_dyn = 3

let pt_load = 1

let sht_symtab = 2

let sht_dynsym = 11

(* The first segment of [p_type] PT_LOAD, as its file size. *)
let first_load_size elf =
  let phoff = u64 elf 32 and phentsize = u16 elf 54 and phnum = u16 elf 56 in
  let rec find i =
    if i = phnum then Alcotest.fail "no PT_LOAD segment"
    else
      let ph = phoff + (i * phentsize) in
      if u32 elf ph = pt_load then u64 elf (ph + 32) else find (i + 1)
  in
  find 0

(* The names in every section of type [sh_type] ([.symtab] or [.dynsym]),
   read through its linked string table. *)
let symbols elf ~sh_type =
  let shoff = u64 elf 40 and shentsize = u16 elf 58 and shnum = u16 elf 60 in
  let section i = shoff + (i * shentsize) in
  let name_at strtab off =
    let start = u64 elf (section strtab + 24) + off in
    String.sub elf start (String.index_from elf start '\000' - start)
  in
  List.concat_map
    (fun i ->
      let sh = section i in
      if u32 elf (sh + 4) <> sh_type then []
      else
        let off = u64 elf (sh + 24) and size = u64 elf (sh + 32) in
        let entsize = u64 elf (sh + 56) and strtab = u32 elf (sh + 40) in
        List.init (size / entsize) (fun j -> name_at strtab (u32 elf (off + (j * entsize)))))
    (List.init shnum Fun.id)

let read_koptnode () =
  In_channel.with_open_bin (Deployment.find_exe None) In_channel.input_all

let test_koptnode_link () =
  let elf = read_koptnode () in
  Alcotest.(check string) "ELF64 little-endian" "\127ELF\002\001" (String.sub elf 0 6);
  Alcotest.(check int) "e_type is ET_DYN: still a PIE" et_dyn (u16 elf 16);
  let first = first_load_size elf in
  if first >= 65536 then
    Alcotest.failf "first PT_LOAD segment is %d bytes, want under 64 KB" first;
  let syms = symbols elf ~sh_type:sht_dynsym in
  Alcotest.(check bool) "a dynamic symbol table was read" true (syms <> []);
  match List.find_opt (String.starts_with ~prefix:"caml") syms with
  | Some sym -> Alcotest.failf "koptnode exports %s" sym
  | None -> ()

(* The daemon is one thread, and must not even carry the machinery for
   more: threads.cmxa is linked whole into any executable that lists
   threads.posix, even through one library it uses, and its module
   initialiser starts the runtime's tick thread.  The full symbol table
   names every OCaml module linked in. *)
let test_koptnode_no_threads () =
  let syms = symbols (read_koptnode ()) ~sh_type:sht_symtab in
  Alcotest.(check bool) "a symbol table was read" true (syms <> []);
  match
    List.find_opt
      (fun sym ->
        String.starts_with ~prefix:"camlThread" sym || sym = "caml_thread_initialize")
      syms
  with
  | Some sym -> Alcotest.failf "koptnode links the threads library (%s)" sym
  | None -> ()

(* The OCaml module a symbol belongs to: [camlCmdliner_arg.parse_12]
   and [camlCmdliner_arg] are both [Cmdliner_arg]. *)
let module_of sym =
  let name = String.sub sym 4 (String.length sym - 4) in
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* The daemon parses its flags once, with Stdlib.Arg, and prints with
   Stdlib.Format and Printf, which it links anyway: Cmdliner (~230 KB of
   text, data and frametables) and Fmt (~90 KB) would be resident in every
   daemon for code it runs once or never. *)
let test_koptnode_no_cli_libraries () =
  let syms = symbols (read_koptnode ()) ~sh_type:sht_symtab in
  Alcotest.(check bool) "a symbol table was read" true (syms <> []);
  let unwanted m =
    String.starts_with ~prefix:"Cmdliner" m
    || m = "Fmt"
    || String.starts_with ~prefix:"Fmt_" m
  in
  match
    List.find_opt
      (fun sym -> String.starts_with ~prefix:"caml" sym && unwanted (module_of sym))
      syms
  with
  | Some sym -> Alcotest.failf "koptnode links module %s (%s)" (module_of sym) sym
  | None -> ()

(* Run koptnode with [args]; its exit code, stdout and stderr. *)
let run_koptnode args =
  let exe = Deployment.find_exe None in
  let out, inp, err =
    Unix.open_process_args_full exe (Array.of_list (exe :: args)) [||]
  in
  close_out inp;
  let stdout = In_channel.input_all out and stderr = In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED code -> (code, stdout, stderr)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "koptnode died on signal %d" s

let contains ~sub s =
  let n = String.length sub in
  let rec from i = i + n <= String.length s && (String.sub s i n = sub || from (i + 1)) in
  from 0

(* A missing, malformed or unknown option ends the daemon before it opens
   anything, with a non-zero status and a first line naming the option;
   [--help] exits 0.  The full argv [Deployment.spawn] passes boots every
   daemon of the net-deployment tests. *)
let test_koptnode_command_line () =
  let valid =
    [
      ("--pid", "0"); ("--nodes", "2"); ("--optimism", "1"); ("--listen", "1");
      ("--control", "2"); ("--store-dir", "store"); ("--trace-file", "trace");
      ("--metrics-file", "metrics");
    ]
  in
  let argv ?(drop = "") extra =
    List.concat_map (fun (o, v) -> if o = drop then [] else [ o; v ]) valid @ extra
  in
  let rejects what ~option args =
    let code, _, stderr = run_koptnode args in
    if code = 0 then Alcotest.failf "%s: exit 0" what;
    (* The first line, not the usage after it, which lists every option. *)
    let first = List.hd (String.split_on_char '\n' stderr) in
    if not (contains ~sub:option first) then
      Alcotest.failf "%s: first line of stderr does not name %s:\n%s" what option stderr
  in
  rejects "missing --store-dir" ~option:"--store-dir" (argv ~drop:"--store-dir" []);
  rejects "malformed --peers" ~option:"--peers" (argv [ "--peers"; "1:x" ]);
  rejects "unknown --app" ~option:"--app" (argv [ "--app"; "nope" ]);
  rejects "malformed --pid" ~option:"--pid" (argv ~drop:"--pid" [ "--pid"; "x" ]);
  let code, stdout, _ = run_koptnode [ "--help" ] in
  Alcotest.(check int) "--help exits 0" 0 code;
  Alcotest.(check bool)
    "--help lists --store-dir" true
    (contains ~sub:"--store-dir" stdout)

let suite =
  [
    Alcotest.test_case "koptnode: PIE, small first segment, no caml exports" `Quick
      test_koptnode_link;
    Alcotest.test_case "koptnode: links no threads library" `Quick
      test_koptnode_no_threads;
    Alcotest.test_case "koptnode: links no Cmdliner and no Fmt" `Quick
      test_koptnode_no_cli_libraries;
    Alcotest.test_case "koptnode: command line rejects bad options by name" `Quick
      test_koptnode_command_line;
  ]
