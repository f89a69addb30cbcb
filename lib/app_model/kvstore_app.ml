(** A replicated key-value store.

    Keys are owned by [hash key mod n]; a [Put] arriving anywhere is routed
    to the owner, which applies it and replicates to the next process.  Reads
    are answered with an output.  This exercises multi-hop causal chains —
    the structure under which optimistic logging's rollback propagation is
    interesting. *)

module Str_map = Map.Make (String)

type msg =
  | Put of { key : string; value : int }
  | Replica of { key : string; value : int; version : int }
  | Get of string

type state = {
  pid : int;
  store : (int * int) Str_map.t; (* key -> (value, version) *)
}

let owner ~n key = Hashing.string key mod n

(* Recovery partitions: a second, independent hash of the key (the owner
   hash shards *across* processes; this one shards *within* a process's
   store).  Every message touches exactly one key, so the store decomposes
   perfectly — there is no barrier message and no global counter. *)
let parts = 8

let part_of_key key = Hashing.mix 0x9e37 (Hashing.string key) mod parts

let lookup state key = Str_map.find_opt key state.store

let apply state key value version =
  { state with store = Str_map.add key (value, version) state.store }

(* Byte-level payload format for the TCP deployment: a tag byte, then
   int64-LE integers and u32-length-prefixed strings.  [read] never guesses:
   unknown tags and short buffers are errors, and the trailing-bytes check
   means no encoded message is a proper prefix of another. *)
let wire : msg App_intf.wire_format =
  let put_int b v = Buffer.add_int64_le b (Int64.of_int v) in
  let put_str b s =
    put_int b (String.length s);
    Buffer.add_string b s
  in
  let write msg =
    let b = Buffer.create 32 in
    (match msg with
    | Put { key; value } ->
      Buffer.add_char b '\x01';
      put_str b key;
      put_int b value
    | Replica { key; value; version } ->
      Buffer.add_char b '\x02';
      put_str b key;
      put_int b value;
      put_int b version
    | Get key ->
      Buffer.add_char b '\x03';
      put_str b key);
    Buffer.contents b
  in
  let read s =
    let pos = ref 0 in
    let need n =
      if !pos + n > String.length s then failwith "kvstore wire: short buffer"
    in
    let get_int () =
      need 8;
      let v = Int64.to_int (String.get_int64_le s !pos) in
      pos := !pos + 8;
      v
    in
    let get_str () =
      let len = get_int () in
      if len < 0 then failwith "kvstore wire: negative length";
      need len;
      let v = String.sub s !pos len in
      pos := !pos + len;
      v
    in
    match
      if String.length s = 0 then Error "kvstore wire: empty payload"
      else begin
        let tag = s.[0] in
        pos := 1;
        let msg =
          match tag with
          | '\x01' ->
            let key = get_str () in
            Put { key; value = get_int () }
          | '\x02' ->
            let key = get_str () in
            let value = get_int () in
            Replica { key; value; version = get_int () }
          | '\x03' -> Get (get_str ())
          | c -> failwith (Printf.sprintf "kvstore wire: unknown tag %#x" (Char.code c))
        in
        if !pos <> String.length s then failwith "kvstore wire: trailing bytes";
        Ok msg
      end
    with
    | result -> result
    | exception Failure e -> Error e
  in
  { App_intf.write; read }

let key_of_msg = function
  | Put { key; _ } | Replica { key; _ } | Get key -> key

let part_slice state p =
  Str_map.filter (fun key _ -> part_of_key key = p) state.store

let partitioning : (state, msg) App_intf.partitioning =
  {
    App_intf.parts;
    part_of_msg = (fun ~n:_ msg -> Some (part_of_key (key_of_msg msg)));
    part_digest =
      (fun s p ->
        Str_map.fold
          (fun key (value, version) h ->
            Hashing.mix (Hashing.mix (Hashing.mix h (Hashing.string key)) value) version)
          (part_slice s p) (Hashing.pair s.pid p));
    part_export =
      Some
        (fun s p ->
          (* Sealed (length + CRC witness over the marshalled bytes) so
             import can verify integrity before [Marshal] ever runs on
             disk-sourced input. *)
          Durable.Codec.seal
            (Marshal.to_string (Str_map.bindings (part_slice s p)) []));
    part_import =
      Some
        (fun s p bytes ->
          let payload =
            match Durable.Codec.unseal bytes with
            | Ok payload -> payload
            | Error e -> failwith ("kvstore slice: " ^ e)
          in
          let bindings : (string * (int * int)) list =
            try Marshal.from_string payload 0
            with Invalid_argument _ | End_of_file ->
              failwith "kvstore slice: truncated marshal"
          in
          (* Keys only ever gain versions (no delete), so the exported
             slice supersedes whatever the partial state holds for [p]:
             overwrite binding by binding. *)
          ignore p;
          {
            s with
            store =
              List.fold_left
                (fun store (key, v) -> Str_map.add key v store)
                s.store bindings;
          });
  }

let app : (state, msg) App_intf.t =
  {
    name = "kvstore";
    init = (fun ~pid ~n:_ -> { pid; store = Str_map.empty });
    handle =
      (fun ~pid ~n state ~src:_ msg ->
        match msg with
        | Put { key; value } ->
          let o = owner ~n key in
          if o <> pid then (state, [ App_intf.send o (Put { key; value }) ])
          else begin
            let version =
              match lookup state key with None -> 1 | Some (_, v) -> v + 1
            in
            let state = apply state key value version in
            let replica_holder = (pid + 1) mod n in
            let effects =
              if replica_holder = pid then []
              else [ App_intf.send replica_holder (Replica { key; value; version }) ]
            in
            (state, effects)
          end
        | Replica { key; value; version } ->
          let newer =
            match lookup state key with
            | None -> true
            | Some (_, v) -> version > v
          in
          ((if newer then apply state key value version else state), [])
        | Get key ->
          let answer =
            match lookup state key with
            | None -> Printf.sprintf "get %s -> none" key
            | Some (value, version) ->
              Printf.sprintf "get %s -> %d (v%d)" key value version
          in
          (state, [ App_intf.output answer ]));
    digest =
      (fun s ->
        Str_map.fold
          (fun key (value, version) h ->
            Hashing.mix (Hashing.mix (Hashing.mix h (Hashing.string key)) value) version)
          s.store (Hashing.pair s.pid 0));
    partitioning = Some partitioning;
  }
