type t =
  | Torn_final_write
  | Bit_flip
  | Truncated_segment
  | Failed_fsync

let all = [ Torn_final_write; Bit_flip; Truncated_segment; Failed_fsync ]

let to_string = function
  | Torn_final_write -> "torn-final-write"
  | Bit_flip -> "bit-flip"
  | Truncated_segment -> "truncated-segment"
  | Failed_fsync -> "failed-fsync"

let of_string s = List.find_opt (fun f -> to_string f = s) all

let files_matching (fs : Fs.t) dir prefix =
  match fs.readdir dir with
  | entries ->
    entries
    |> List.filter (fun name ->
           String.length name >= String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
           && String.ends_with ~suffix:".dat" name)
    |> List.sort compare
    |> List.map (fun name -> Path.concat dir name)
  | exception Sys_error _ -> []

let flip_byte (fs : Fs.t) path off mask =
  let b = Bytes.of_string (fs.read path) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
  Fs.write_file fs ~fsync:false path (Bytes.to_string b)

(* Structural targeting: damage is aimed at a {e record} (index chosen by
   [rand]), located by scanning the file's Codec frames, never at a raw
   byte offset of the whole file.  Record boundaries move when the record
   format evolves (new fields, bigger payloads), but "the 3rd record" stays
   the 3rd record — so campaigns keep damaging what they meant to damage
   across format changes (the E12 refresh that PR 7's [lg_window] forced
   cannot recur).  Returns [(start, len)] spans, oldest first. *)
let record_spans (fs : Fs.t) path =
  let contents = fs.read path in
  let rec loop pos acc =
    match Codec.decode contents ~pos with
    | Codec.Record { next; _ } -> loop next ((pos, next - pos) :: acc)
    | Codec.Truncated | Codec.Corrupt | Codec.End -> List.rev acc
    | exception Invalid_argument _ -> List.rev acc
  in
  (loop 0 [], String.length contents)

let apply ~(fs : Fs.t) ~dir ~rand fault =
  match fault with
  | Failed_fsync -> "failed fsync (armed on the live store before the kill)"
  | Torn_final_write -> (
    match
      List.filter (fun p -> fs.size p > 0) (files_matching fs dir "seg-") |> List.rev
    with
    | [] -> "torn final write: no log bytes to tear"
    | last :: _ -> (
      match record_spans fs last with
      | [], sz ->
        (* No decodable record: shear trailing bytes as before. *)
        let tear = 1 + rand (min 16 sz) in
        fs.truncate last (sz - tear);
        Printf.sprintf "tore %d trailing bytes off %s" tear
          (Path.basename last)
      | spans, sz ->
        (* Cut into the final record: keep everything before it plus a
           random proper prefix of it (possibly mid-header). *)
        let start, len = List.nth spans (List.length spans - 1) in
        let keep = start + rand len in
        fs.truncate last (min keep sz);
        Printf.sprintf "tore record %d of %s mid-write (kept %d of %d bytes)"
          (List.length spans - 1)
          (Path.basename last) (keep - start) len))
  | Truncated_segment -> (
    match List.filter (fun p -> fs.size p > 0) (files_matching fs dir "seg-") with
    | [] -> "truncated segment: no log bytes to cut"
    | segs -> (
      let victim = List.nth segs (rand (List.length segs)) in
      match record_spans fs victim with
      | [], sz ->
        let keep = rand sz in
        fs.truncate victim keep;
        Printf.sprintf "truncated %s from %d to %d bytes"
          (Path.basename victim) sz keep
      | spans, sz ->
        (* Cut at a record boundary: keep the first [k] records. *)
        let k = rand (List.length spans) in
        let keep =
          if k = 0 then 0
          else
            let start, len = List.nth spans (k - 1) in
            start + len
        in
        fs.truncate victim keep;
        Printf.sprintf "truncated %s to its first %d of %d records (%d of %d bytes)"
          (Path.basename victim) k (List.length spans) keep sz))
  | Bit_flip -> (
    let candidates =
      (files_matching fs dir "seg-" @ files_matching fs dir "ckpt-"
      @
      let s = Path.concat dir "sync.dat" in
      if fs.exists s then [ s ] else [])
      |> List.filter (fun p -> fs.size p > 0)
    in
    match candidates with
    | [] -> "bit flip: no bytes to flip"
    | files -> (
      let victim = List.nth files (rand (List.length files)) in
      match record_spans fs victim with
      | [], sz ->
        let off = rand sz in
        let bit = rand 8 in
        flip_byte fs victim off (1 lsl bit);
        Printf.sprintf "flipped bit %d of byte %d in %s" bit off
          (Path.basename victim)
      | spans, _ ->
        let idx = rand (List.length spans) in
        let start, len = List.nth spans idx in
        let off = start + rand len in
        let bit = rand 8 in
        flip_byte fs victim off (1 lsl bit);
        Printf.sprintf "flipped bit %d of record %d (byte %d of %d) in %s" bit
          idx (off - start) len
          (Path.basename victim)))
