type file = {
  write : string -> unit;
  fsync : unit -> unit;
  close : unit -> unit;
}

type t = {
  mkdir_p : string -> unit;
  readdir : string -> string list;
  exists : string -> bool;
  size : string -> int;
  read : string -> string;
  read_with : 'a. string -> (int -> (Bytes.t -> int -> int -> int) -> 'a) -> 'a;
  truncate : string -> int -> unit;
  unlink : string -> unit;
  rename : string -> string -> unit;
  open_append : string -> file;
  create : string -> file;
}

let unix_file fd =
  {
    write =
      (fun s ->
        let len = String.length s in
        let rec loop pos =
          if pos < len then loop (pos + Unix.write_substring fd s pos (len - pos))
        in
        loop 0);
    fsync = (fun () -> Unix.fsync fd);
    close = (fun () -> Unix.close fd);
  }

let open_read path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  | fd -> fd

let unix =
  {
    mkdir_p = Temp.mkdir_p;
    readdir = (fun dir -> Array.to_list (Sys.readdir dir));
    exists = Sys.file_exists;
    size = (fun path -> (Unix.stat path).Unix.st_size);
    read =
      (* Straight from the descriptor into one buffer of the file's size.
         An [in_channel] would bring a 64 KB buffer the runtime charges
         against the minor heap, so the handful of reads a restart makes
         would force minor collections before the daemon's first batch. *)
      (fun path ->
        let fd = open_read path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let len = (Unix.fstat fd).Unix.st_size in
            let buf = Bytes.create len in
            let rec fill pos =
              if pos = len then pos
              else
                match Unix.read fd buf pos (len - pos) with
                | 0 -> pos
                | n -> fill (pos + n)
            in
            let got = fill 0 in
            if got = len then Bytes.unsafe_to_string buf
            else Bytes.sub_string buf 0 got));
    read_with =
      (fun path k ->
        let fd = open_read path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> k (Unix.fstat fd).Unix.st_size (Unix.read fd)));
    truncate = Unix.truncate;
    unlink = Unix.unlink;
    rename = Unix.rename;
    open_append =
      (fun path ->
        unix_file (Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644));
    create =
      (fun path ->
        unix_file (Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644));
  }

let numbered prefix n =
  if n < 0 || n >= 1_000_000_000_000 then invalid_arg "Fs.numbered";
  let p = String.length prefix in
  let b = Bytes.make (p + 16) '0' in
  Bytes.blit_string prefix 0 b 0 p;
  let n = ref n and i = ref (p + 11) in
  while !n > 0 do
    Bytes.set b !i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10;
    decr i
  done;
  Bytes.blit_string ".dat" 0 b (p + 12) 4;
  Bytes.unsafe_to_string b

let write_file fs ?(fsync = true) path s =
  let f = fs.create path in
  Fun.protect ~finally:f.close (fun () ->
      f.write s;
      if fsync then f.fsync ())

module Mem = struct
  (* A file is its bytes plus the length the last fsync made durable.
     Handles point at the node, so a rename or unlink under an open handle
     behaves as it does on a kernel's inodes. *)
  type node = { data : Buffer.t; mutable synced : int }

  type tree = {
    files : (string, node) Hashtbl.t;
    dirs : (string, unit) Hashtbl.t;
    mutable before_fsync : unit -> unit;
  }

  type entry = { path : string; bytes : string; synced : int }

  let create () =
    { files = Hashtbl.create 16; dirs = Hashtbl.create 4; before_fsync = ignore }

  let missing path = raise (Sys_error (path ^ ": No such file or directory"))

  let node t path =
    match Hashtbl.find_opt t.files path with Some n -> n | None -> missing path

  let rec mkdir_p t path =
    if not (Hashtbl.mem t.dirs path) then begin
      Hashtbl.replace t.dirs path ();
      let parent = Path.dirname path in
      if parent <> path then mkdir_p t parent
    end

  (* The entries directly under [dir]: a path that starts with [dir] and
     a separator and has no separator after it.  Asked of every file in
     the tree, so it allocates only the names it returns. *)
  let readdir t dir =
    if not (Hashtbl.mem t.dirs dir) then missing dir;
    let n = String.length dir in
    let child path acc =
      match String.rindex path '/' with
      | i when i = n && String.starts_with ~prefix:dir path ->
        String.sub path (n + 1) (String.length path - n - 1) :: acc
      | _ -> acc
      | exception Not_found -> if dir = "." && path <> dir then path :: acc else acc
    in
    Hashtbl.fold (fun path _ acc -> child path acc) t.files []
    |> Hashtbl.fold (fun path () acc -> child path acc) t.dirs

  let handle t n =
    {
      write = Buffer.add_string n.data;
      fsync =
        (fun () ->
          t.before_fsync ();
          n.synced <- Buffer.length n.data);
      close = ignore;
    }

  let truncate t path len =
    let n = node t path in
    let cur = Buffer.length n.data in
    if len <= cur then Buffer.truncate n.data len
    else Buffer.add_string n.data (String.make (len - cur) '\000');
    n.synced <- min n.synced len

  let open_file t ~empty path =
    let n =
      match Hashtbl.find_opt t.files path with
      | Some n ->
        if empty then begin
          Buffer.clear n.data;
          n.synced <- 0
        end;
        n
      | None ->
        let n = { data = Buffer.create 256; synced = 0 } in
        Hashtbl.replace t.files path n;
        n
    in
    handle t n

  let fs t =
    {
      mkdir_p = mkdir_p t;
      readdir = readdir t;
      exists = (fun path -> Hashtbl.mem t.files path || Hashtbl.mem t.dirs path);
      size = (fun path -> Buffer.length (node t path).data);
      read = (fun path -> Buffer.contents (node t path).data);
      read_with =
        (fun path k ->
          let data = (node t path).data in
          let off = ref 0 in
          k (Buffer.length data) (fun buf pos len ->
              let n = Int.min len (Buffer.length data - !off) in
              Buffer.blit data !off buf pos n;
              off := !off + n;
              n));
      truncate = truncate t;
      unlink =
        (fun path ->
          ignore (node t path : node);
          Hashtbl.remove t.files path);
      rename =
        (fun src dst ->
          let n = node t src in
          Hashtbl.remove t.files src;
          Hashtbl.replace t.files dst n);
      open_append = open_file t ~empty:false;
      create = open_file t ~empty:true;
    }

  let files t =
    Hashtbl.fold
      (fun path n acc -> { path; bytes = Buffer.contents n.data; synced = n.synced } :: acc)
      t.files []
    |> List.sort (fun a b -> compare a.path b.path)

  let of_files contents =
    let t = create () in
    List.iter
      (fun (path, bytes) ->
        mkdir_p t (Path.dirname path);
        let data = Buffer.create (String.length bytes) in
        Buffer.add_string data bytes;
        Hashtbl.replace t.files path { data; synced = String.length bytes })
      contents;
    t

  let before_fsync t f = t.before_fsync <- f
end

let mem () = Mem.fs (Mem.create ())
