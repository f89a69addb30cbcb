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
   the fields as {!Durable.Form} lays them out (an int64-LE integer, a
   string as its int64 length and bytes).  [read] never guesses: unknown
   tags, short buffers and trailing bytes are errors, so no encoded
   message is a proper prefix of another.  A case's projections see only
   messages of its own tag. *)
let wire : msg App_intf.wire_format =
  let module F = Durable.Form in
  let[@warning "-8"] form =
    F.tagged
      (F.cases "kv message tag"
         (function Put _ -> 1 | Replica _ -> 2 | Get _ -> 3)
         [ ( 1,
             F.record (fun key value -> Put { key; value })
               F.[ (string, fun (Put p) -> p.key); (int, fun (Put p) -> p.value) ] );
           ( 2,
             F.record (fun key value version -> Replica { key; value; version })
               F.[ (string, fun (Replica r) -> r.key); (int, fun (Replica r) -> r.value);
                   (int, fun (Replica r) -> r.version) ] );
           (3, F.map (fun key -> Get key) (fun (Get key) -> key) F.string) ])
  in
  { App_intf.write = F.encode form; read = F.decode form }

let key_of_msg = function
  | Put { key; _ } | Replica { key; _ } | Get key -> key

let part_slice state p =
  Str_map.filter (fun key _ -> part_of_key key = p) state.store

(* One partition's bindings, [(key, (value, version))], as a form. *)
let slice = Durable.Form.(list (pair string (pair int int)))

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
    part_export = Some (fun s p -> Durable.Form.encode slice (Str_map.bindings (part_slice s p)));
    part_import =
      Some
        (fun s _ bytes ->
          match Durable.Form.decode slice bytes with
          | Error e -> failwith ("kvstore slice: " ^ e)
          | Ok bindings ->
            (* Keys only ever gain versions (no delete), so the exported
               slice supersedes whatever the partial state holds for [p]:
               overwrite binding by binding. *)
            {
              s with
              store =
                List.fold_left (fun store (key, v) -> Str_map.add key v store) s.store bindings;
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
