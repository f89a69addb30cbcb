(* How koptnode is linked (bin/dune).  The daemon binary must stay a PIE,
   and must carry neither a full relative-relocation table nor an export
   of every OCaml symbol: the loader-only tables those make fill the
   binary's first read-only segment, which is resident in every daemon.
   With both link flags that segment is ~9 KB (~25 KB when the binary was
   dynamically linked); with either alone it is over 400 KB.  It must
   also link no threads library, no Cmdliner and no Fmt.  It is a static
   PIE: no interpreter, no shared library, and no call in its sources to
   the glibc functions that would need the build host's shared libraries
   at run time.  Its frame descriptors must stay at 8,192 or fewer, which
   keeps the runtime's descriptor table at 128 KB, and it must link no
   Stdlib.Format, Arg or Filename, and the code a daemon runs must come
   first, in .text.hot, inside the code fragment the runtime registers.
   The checks read the ELF64 headers directly.  The command-line test runs
   the hand-parsed command line. *)

module Deployment = Net.Deployment

let u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff

let u64 s off = Int64.to_int (String.get_int64_le s off)

let et_dyn = 3

let pt_load = 1

let pt_dynamic = 2

let pt_interp = 3

let pt_gnu_relro = 0x6474e552

let pf_w = 2

let dt_needed = 1

let dt_strtab = 5

let dt_textrel = 22

let dt_flags = 30

let df_textrel = 4

let sht_symtab = 2

let sht_dynsym = 11

type segment = {
  p_type : int;
  p_flags : int;
  offset : int;
  vaddr : int;
  filesz : int;
  memsz : int;
}

(* The program headers, in file order. *)
let segments elf =
  let phoff = u64 elf 32 and phentsize = u16 elf 54 and phnum = u16 elf 56 in
  List.init phnum (fun i ->
      let ph = phoff + (i * phentsize) in
      { p_type = u32 elf ph; p_flags = u32 elf (ph + 4); offset = u64 elf (ph + 8);
        vaddr = u64 elf (ph + 16); filesz = u64 elf (ph + 32); memsz = u64 elf (ph + 40) })

(* The first segment of [p_type] PT_LOAD, as its file size. *)
let first_load_size elf =
  match List.find_opt (fun s -> s.p_type = pt_load) (segments elf) with
  | Some s -> s.filesz
  | None -> Alcotest.fail "no PT_LOAD segment"

(* The file offset of virtual address [vaddr], through the PT_LOAD that
   maps it. *)
let file_offset elf vaddr =
  match
    List.find_opt
      (fun s -> s.p_type = pt_load && s.vaddr <= vaddr && vaddr < s.vaddr + s.filesz)
      (segments elf)
  with
  | Some s -> vaddr - s.vaddr + s.offset
  | None -> Alcotest.failf "address 0x%x is in no PT_LOAD segment" vaddr

let c_string elf off = String.sub elf off (String.index_from elf off '\000' - off)

(* The (tag, value) entries of the dynamic section, if there is one. *)
let dynamic_entries elf =
  match List.find_opt (fun s -> s.p_type = pt_dynamic) (segments elf) with
  | None -> []
  | Some dyn ->
    List.init (dyn.filesz / 16) (fun i ->
        (u64 elf (dyn.offset + (16 * i)), u64 elf (dyn.offset + (16 * i) + 8)))

(* The shared libraries the dynamic section names (DT_NEEDED), read
   through its string table (DT_STRTAB). *)
let needed elf =
  let entries = dynamic_entries elf in
  match List.filter_map (fun (tag, v) -> if tag = dt_needed then Some v else None) entries with
  | [] -> []
  | needs ->
    let strtab = file_offset elf (List.assoc dt_strtab entries) in
    List.map (fun off -> c_string elf (strtab + off)) needs

(* The (name, value, st_info) of every symbol in every section of type
   [sh_type] ([.symtab] or [.dynsym]), names read through its linked
   string table. *)
let symbol_entries elf ~sh_type =
  let shoff = u64 elf 40 and shentsize = u16 elf 58 and shnum = u16 elf 60 in
  let section i = shoff + (i * shentsize) in
  let name_at strtab off = c_string elf (u64 elf (section strtab + 24) + off) in
  List.concat_map
    (fun i ->
      let sh = section i in
      if u32 elf (sh + 4) <> sh_type then []
      else
        let off = u64 elf (sh + 24) and size = u64 elf (sh + 32) in
        let entsize = u64 elf (sh + 56) and strtab = u32 elf (sh + 40) in
        List.init (size / entsize) (fun j ->
            let sym = off + (j * entsize) in
            (name_at strtab (u32 elf sym), u64 elf (sym + 8), Char.code elf.[sym + 4])))
    (List.init shnum Fun.id)

let symbol_values elf ~sh_type =
  List.map (fun (name, v, _) -> (name, v)) (symbol_entries elf ~sh_type)

let symbols elf ~sh_type = List.map fst (symbol_values elf ~sh_type)

let stt_func = 2

(* The functions of the full symbol table, as (name, address). *)
let functions elf =
  List.filter_map
    (fun (name, v, info) -> if info land 0xf = stt_func then Some (name, v) else None)
    (symbol_entries elf ~sh_type:sht_symtab)

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
   more: threads.cmxa is linked whole into any executable that lists the
   POSIX threads library, even through one library it uses, and its
   module initialiser starts the runtime's tick thread.  The full symbol table
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

(* The daemon parses its flags once, with a plain loop, and prints with
   Printf: Cmdliner (~230 KB of text, data and frametables) and Fmt (~90
   KB) would be resident in every daemon for code it runs once or never. *)
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

(* The OCaml 5.1 runtime builds one hash table of every frame descriptor
   at boot (caml/frame_descriptors.h): it walks [caml_frametable], a
   NULL-terminated array of pointers to each module's table, adds up the
   descriptor count that starts each one, and allocates the smallest power
   of two >= twice that many 8-byte entries, all resident.  At 8,192
   descriptors or fewer the table has 16,384 entries (128 KB); one more
   doubles it.  The array's pointers are link-time addresses (the
   relative relocations keep their addends in place), so they are read
   through the program headers as they are.  Stdlib.Format (~350
   descriptors), Stdlib.Arg (~220) and Stdlib.Filename (~165) are what
   the daemon stopped linking to get under the bound: its printers live
   in the Pp modules it does not reference, it parses argv with a loop,
   and the store joins paths with Durable.Path. *)
let max_frame_descriptors = 8192

let test_koptnode_frame_descriptors () =
  let elf = read_koptnode () in
  let syms = symbol_values elf ~sh_type:sht_symtab in
  let word addr = u64 elf (file_offset elf addr) in
  let owner = Hashtbl.create 256 in
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"caml" name
         && String.ends_with ~suffix:"frametable" name
      then Hashtbl.replace owner v name)
    syms;
  let tables =
    match List.assoc_opt "caml_frametable" syms with
    | None -> Alcotest.fail "no caml_frametable symbol"
    | Some array ->
      let rec walk i acc =
        match word (array + (8 * i)) with
        | 0 -> acc
        | table ->
          let name = Option.value (Hashtbl.find_opt owner table) ~default:"?" in
          walk (i + 1) ((module_of name, word table) :: acc)
      in
      walk 0 []
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 tables in
  let entries = ref 4 in
  while !entries < 2 * total do
    entries := 2 * !entries
  done;
  if total > max_frame_descriptors then begin
    let largest =
      List.sort (fun (_, a) (_, b) -> compare b a) tables
      |> List.filteri (fun i _ -> i < 5)
      |> List.map (fun (m, n) -> Printf.sprintf "%s %d" m n)
    in
    Alcotest.failf
      "koptnode has %d frame descriptors, over %d: the runtime's table has %d \
       entries (%d KB).  Largest: %s"
      total max_frame_descriptors !entries (!entries * 8 / 1024)
      (String.concat ", " largest)
  end;
  let unwanted = [ "Stdlib__Format"; "Stdlib__Arg"; "Stdlib__Filename" ] in
  match
    List.find_opt
      (fun (sym, _) ->
        String.starts_with ~prefix:"caml" sym && List.mem (module_of sym) unwanted)
      syms
  with
  | Some (sym, _) -> Alcotest.failf "koptnode links module %s (%s)" (module_of sym) sym
  | None -> ()

(* A static PIE: the kernel maps the binary alone, with no dynamic loader
   and no libc.so or libm.so, whose pages fault-around would map in whole
   for the small part of libc the daemon calls.  It still starts from a
   random base (ET_DYN), so it keeps ASLR. *)
let test_koptnode_static () =
  let elf = read_koptnode () in
  Alcotest.(check int) "e_type is ET_DYN: still a PIE" et_dyn (u16 elf 16);
  (match List.find_opt (fun s -> s.p_type = pt_interp) (segments elf) with
  | Some s -> Alcotest.failf "koptnode requests the interpreter %s" (c_string elf s.offset)
  | None -> ());
  match needed elf with
  | [] -> ()
  | libs -> Alcotest.failf "koptnode needs %s" (String.concat ", " libs)

(* The glibc functions that go through NSS: a static binary that calls one
   loads the build host's NSS modules at run time (the linker warns of
   each one the Unix library's stubs carry).  The daemon must call none. *)
let nss_functions =
  [
    "gethostbyname"; "gethostbyaddr"; "getaddrinfo"; "getnameinfo"; "getpwnam";
    "getpwuid"; "getgrnam"; "getgrgid"; "getservbyname"; "getservbyport";
    "getprotobyname"; "getprotobynumber"; "getlogin"; "initgroups";
  ]

(* What koptnode links of this repository, relative to the build's test
   directory: each library's module prefix, its directory and its files
   ([None]: every [.ml] there). *)
let koptnode_sources =
  [
    ("Dune__exe", "../bin", Some [ "koptnode.ml"; "koptnode_runparam.c" ]);
    ("Net", "../lib/net", Some [ "wire_codec.ml"; "trace_codec.ml"; "transport.ml" ]);
    ("Shardkv", "../lib/shardkv", Some [ "ring.ml"; "shard_app.ml" ]);
    ("Recovery", "../lib/recovery", None);
    ("Durable", "../lib/durable", None);
    ("Depend", "../lib/depend", None);
    ("Obs", "../lib/obs", None);
    ("App_model", "../lib/app_model", None);
  ]

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* [word] occurs in [line] as a whole identifier. *)
let mentions line word =
  let n = String.length word and len = String.length line in
  let rec from i =
    i + n <= len
    && ((String.sub line i n = word
        && (i = 0 || not (is_ident_char line.[i - 1]))
        && (i + n = len || not (is_ident_char line.[i + n])))
       || from (i + 1))
  in
  from 0

(* Scans every line of koptnode's sources for the NSS functions, as whole
   identifiers, and names the first [file:line] that mentions one. *)
let test_koptnode_no_nss () =
  let files =
    List.concat_map
      (fun (lib, dir, only) ->
        let names =
          match only with
          | Some names -> names
          | None ->
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".ml")
            |> List.sort compare
        in
        List.map (fun f -> (lib, Filename.concat dir f)) names)
      koptnode_sources
  in
  (* The list must cover every module of this repository the binary
     links: anything outside the standard and Unix libraries. *)
  let scanned =
    List.filter_map
      (fun (lib, path) ->
        if not (Filename.check_suffix path ".ml") then None
        else
          let m = String.capitalize_ascii (Filename.chop_suffix (Filename.basename path) ".ml") in
          Some (if m = lib then m else lib ^ "__" ^ m))
      files
  in
  let external_module m =
    List.exists
      (fun prefix -> String.starts_with ~prefix m)
      [ "Stdlib"; "Camlinternal"; "Std_exit"; "Unix" ]
  in
  List.iter
    (fun sym ->
      if String.starts_with ~prefix:"caml" sym && String.ends_with ~suffix:".code_begin" sym
      then
        let m = module_of sym in
        if m <> "" && 'A' <= m.[0] && m.[0] <= 'Z'
           && (not (external_module m)) && not (List.mem m scanned)
        then Alcotest.failf "koptnode links %s, whose source this test does not scan" m)
    (symbols (read_koptnode ()) ~sh_type:sht_symtab);
  List.iter
    (fun (_, path) ->
      In_channel.with_open_text path In_channel.input_lines
      |> List.iteri (fun i line ->
             match List.find_opt (mentions line) nss_functions with
             | Some f -> Alcotest.failf "%s:%d: calls %s, an NSS lookup" path (i + 1) f
             | None -> ()))
    files

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

(* Once booted, koptnode drops the pages of every PT_LOAD segment without
   PF_W (koptnode_runparam.c), which only a page never written survives
   unchanged: a written page is a private copy, and dropping it brings the
   file's bytes back.  So no text relocation may write into those
   segments, and none of their pages may also belong to a writable
   segment or to RELRO, which the start code writes before making it
   read-only. *)
let test_koptnode_dropped_segments_unwritten () =
  let elf = read_koptnode () in
  let dyn = dynamic_entries elf in
  if List.mem_assoc dt_textrel dyn then Alcotest.fail "koptnode has DT_TEXTREL";
  (match List.assoc_opt dt_flags dyn with
  | Some flags when flags land df_textrel <> 0 -> Alcotest.fail "koptnode has DF_TEXTREL"
  | Some _ | None -> ());
  let page = 4096 in
  let pages s = (s.vaddr / page, (s.vaddr + s.memsz + page - 1) / page) in
  let segs = segments elf in
  let dropped = List.filter (fun s -> s.p_type = pt_load && s.p_flags land pf_w = 0) segs in
  let written =
    List.filter
      (fun s -> (s.p_type = pt_load && s.p_flags land pf_w <> 0) || s.p_type = pt_gnu_relro)
      segs
  in
  Alcotest.(check bool) "a read-only PT_LOAD was found" true (dropped <> []);
  Alcotest.(check bool) "a writable PT_LOAD was found" true (written <> []);
  List.iter
    (fun r ->
      let r_first, r_end = pages r in
      List.iter
        (fun w ->
          let w_first, w_end = pages w in
          if r_first < w_end && w_first < r_end then
            Alcotest.failf
              "read-only segment 0x%x+0x%x shares a page with the %s segment 0x%x+0x%x"
              r.vaddr r.memsz
              (if w.p_type = pt_gnu_relro then "RELRO" else "writable")
              w.vaddr w.memsz)
        written)
    dropped

(* The sections, as (name, flags, address, size), in header order. *)
let sections elf =
  let shoff = u64 elf 40 and shentsize = u16 elf 58 and shnum = u16 elf 60 in
  let section i = shoff + (i * shentsize) in
  let names = u64 elf (section (u16 elf 62) + 24) in
  List.init shnum (fun i ->
      let sh = section i in
      (c_string elf (names + u32 elf sh), u64 elf (sh + 8), u64 elf (sh + 16), u64 elf (sh + 32)))

let shf_execinstr = 4

(* The script koptnode links with, as the build copies it for the link. *)
let hot_script = "../bin/koptnode_hot.ld"

let hot_loop_start = "koptnode_hot_loop_start"

(* [s] without [prefix], if it starts with it. *)
let strip prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

(* The script's function patterns, as the function each names: an input
   section [*(.text.caml.<symbol>)] is OCaml's function <symbol>,
   [*(.text.unlikely.<name>)] the cold part <name>.cold of a C function,
   [*(.text.startup.<name>)] a C function GCC runs once (main), and
   [*(.text.<name>)] the C function <name>.  The line that takes every
   module's code_begin names no function. *)
let hot_function_patterns () =
  In_channel.with_open_text hot_script In_channel.input_lines
  |> List.filter_map (fun line ->
         match strip "*(.text." (String.trim line) with
         | Some rest when not (String.ends_with ~suffix:".code_begin)" rest) ->
           let section = String.sub rest 0 (String.length rest - 1) in
           Some
             (match
                (strip "caml." section, strip "unlikely." section, strip "startup." section)
              with
             | Some sym, _, _ -> sym
             | None, Some name, _ -> name ^ ".cold"
             | None, None, Some name -> name
             | None, None, None -> section)
         | Some _ | None -> None)

(* [name] up to the stamp ocamlopt appends to a function's name
   ([deliver_1686] -> [deliver_]), if it has one. *)
let unstamped name =
  match String.rindex_opt name '_' with
  | Some i
    when i + 1 < String.length name
         && String.for_all
              (fun c -> '0' <= c && c <= '9')
              (String.sub name (i + 1) (String.length name - i - 1)) ->
    Some (String.sub name 0 (i + 1))
  | Some _ | None -> None

(* The code a daemon runs is linked first, into .text.hot
   (bin/koptnode_hot.ld), so that once boot has dropped the read-only pages
   the loop faults back a few 64 KB windows of text rather than nearly all
   of them.  The script names code one function at a time (whole objects
   only for libc's, libm's and the runtime's amd64.o, which have no section
   per function): the functions only boot runs, then the marker
   koptnode_hot_loop_start, then the loop's, last, so that their last
   window also holds the .plt stubs ld places after the section.  The loop's
   part starts at a 64 KB boundary, a fault-around window's, so that it
   spans as few windows as its size allows.  The section holds ~685 KB,
   ~311 KB of it the loop's.  A profile goes stale as functions are
   renamed and added: their patterns match nothing and their code falls
   back into .text, which costs memory, not a build.  So at least 95% of
   the script's function patterns must match a function of the binary, and
   the functions every step runs (the runtime's allocation and GC entry,
   Node's delivery, the transport's flush and koptnode's step) must lie in
   the loop's part. *)
let test_koptnode_hot_text () =
  let elf = read_koptnode () in
  let exec =
    List.filter (fun (_, flags, addr, _) -> flags land shf_execinstr <> 0 && addr > 0)
      (sections elf)
  in
  let name, _, addr, size =
    match List.sort (fun (_, _, a, _) (_, _, b, _) -> compare a b) exec with
    | first :: _ -> first
    | [] -> Alcotest.fail "no executable section"
  in
  Alcotest.(check string) "first executable section" ".text.hot" name;
  (match List.find_opt (fun s -> s.p_type = pt_load && s.p_flags land 1 <> 0) (segments elf) with
  | Some text -> Alcotest.(check int) ".text.hot starts the text segment" text.vaddr addr
  | None -> Alcotest.fail "no executable PT_LOAD");
  if size < 576 * 1024 || size > 832 * 1024 then
    Alcotest.failf ".text.hot is %d bytes, want 576-832 KB" size;
  let loop_start =
    match List.assoc_opt hot_loop_start (symbol_values elf ~sh_type:sht_symtab) with
    | Some v when addr < v && v < addr + size -> v
    | Some v -> Alcotest.failf "%s at 0x%x is outside .text.hot" hot_loop_start v
    | None -> Alcotest.failf "no symbol %s" hot_loop_start
  in
  if loop_start land 0xffff <> 0 then
    Alcotest.failf "the loop's part starts at 0x%x, not at a 64 KB boundary" loop_start;
  let functions = functions elf in
  let stamped prefix = List.find_opt (fun (n, _) -> unstamped n = Some prefix) functions in
  List.iter
    (fun (what, found) ->
      match found with
      | Some (_, v) when loop_start <= v && v < addr + size -> ()
      | Some (sym, v) ->
        Alcotest.failf "%s (%s at 0x%x) is not in .text.hot's loop part (0x%x-0x%x)" what
          sym v loop_start (addr + size)
      | None -> Alcotest.failf "no function %s" what)
    [
      ("caml_call_gc", List.find_opt (fun (n, _) -> n = "caml_call_gc") functions);
      ("caml_alloc_shr", List.find_opt (fun (n, _) -> n = "caml_alloc_shr") functions);
      ("Node.deliver", stamped "camlRecovery__Node.deliver_");
      ("Transport.flush", stamped "camlNet__Transport.flush_");
      ("koptnode's step", stamped "camlDune__exe__Koptnode.step_");
    ];
  (* A pattern is an exact name or one with its stamp as a wildcard. *)
  let names = Hashtbl.create 32768 in
  List.iter
    (fun (n, _) ->
      Hashtbl.replace names n ();
      Option.iter (fun stem -> Hashtbl.replace names (stem ^ "[0-9]*") ()) (unstamped n))
    functions;
  let patterns = hot_function_patterns () in
  let stale = List.filter (fun p -> not (Hashtbl.mem names p)) patterns in
  let total = List.length patterns and missed = List.length stale in
  if total < 100 then Alcotest.failf "%s names only %d functions" hot_script total;
  if missed * 20 > total then
    Alcotest.failf
      "%d of the %d function patterns of %s match no function of koptnode (over 5%%): \
       the profile is stale, regenerate it with bin/hot_text.py.  First: %s"
      missed total hot_script
      (String.concat ", " (List.filteri (fun i _ -> i < 5) stale))

(* The runtime registers OCaml's code as one fragment, from the lowest
   [code_begin] of any module to the highest [code_end] (startup_nat.c's
   init_static), and [Marshal]'s Closures flag, which the store passes,
   looks a code pointer up in it.  With -function-sections the linker
   script moves single functions to .text.hot, away from their module's
   markers, so it opens the section with every module's code_begin; the
   code_end markers stay in .text, the last after every OCaml function. *)
let test_koptnode_code_fragment () =
  let elf = read_koptnode () in
  let ocaml_marker suffix (name, _) =
    String.starts_with ~prefix:"caml" name && String.ends_with ~suffix name
  in
  let syms = symbol_values elf ~sh_type:sht_symtab in
  let bound suffix pick =
    match List.filter (ocaml_marker suffix) syms with
    | [] -> Alcotest.failf "no %s symbol" suffix
    | (_, v) :: rest -> List.fold_left (fun acc (_, v) -> pick acc v) v rest
  in
  let lo = bound ".code_begin" min and hi = bound ".code_end" max in
  let ocaml_function name =
    String.length name > 4
    && String.starts_with ~prefix:"caml" name
    && 'A' <= name.[4] && name.[4] <= 'Z'
    && String.contains name '.'
  in
  let fns = List.filter (fun (n, _) -> ocaml_function n) (functions elf) in
  Alcotest.(check bool) "OCaml functions were read" true (List.length fns > 1000);
  match List.filter (fun (_, v) -> v < lo || v >= hi) fns with
  | [] -> ()
  | (sym, v) :: _ as outside ->
    Alcotest.failf
      "%d OCaml functions lie outside the code fragment 0x%x-0x%x (from the lowest \
       code_begin to the highest code_end), e.g. %s at 0x%x"
      (List.length outside) lo hi sym v

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
    Alcotest.test_case "koptnode: static PIE, no interpreter, no DT_NEEDED" `Quick
      test_koptnode_static;
    Alcotest.test_case "koptnode: calls no NSS lookup" `Quick test_koptnode_no_nss;
    Alcotest.test_case
      "koptnode: at most 8,192 frame descriptors, no Format, Arg or Filename" `Quick
      test_koptnode_frame_descriptors;
    Alcotest.test_case "koptnode: the segments it drops after boot are never written"
      `Quick test_koptnode_dropped_segments_unwritten;
    Alcotest.test_case "koptnode: the code a daemon runs comes first, in .text.hot" `Quick
      test_koptnode_hot_text;
    Alcotest.test_case "koptnode: every OCaml function lies in the registered code fragment"
      `Quick test_koptnode_code_fragment;
  ]
