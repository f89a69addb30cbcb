(* How koptnode is linked (bin/dune).  The daemon binary must stay a PIE,
   and must carry neither a full relative-relocation table nor an export
   of every OCaml symbol: the loader-only tables those make fill the
   binary's first read-only segment, which is resident in every daemon.
   With both link flags that segment is ~25 KB; with either alone it is
   over 400 KB.  It must also link no threads library.  The checks read
   the ELF64 headers directly. *)

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

let suite =
  [
    Alcotest.test_case "koptnode: PIE, small first segment, no caml exports" `Quick
      test_koptnode_link;
    Alcotest.test_case "koptnode: links no threads library" `Quick
      test_koptnode_no_threads;
  ]
