(** The sharded key-value application.

    One process = one shard; ownership comes from the consistent-hash
    {!Ring}, which every shard rebuilds deterministically from [(n, seed)]
    alone, so all shards agree on placement without any metadata service.
    Single-key operations are routed by the client straight to the owner
    (a mis-routed message is forwarded, so a stale client ring costs one
    hop, never a wrong answer).

    The cross-shard primitive is [Multi_put]: the client injects it at a
    {e coordinator} shard (by convention the owner of the first key), which
    partitions the pairs by owner, applies its own group, fans the rest out
    as [Mp_apply] messages, and counts [Mp_ack]s.  When the last ack
    arrives the coordinator emits the client acknowledgement as an
    {e output} — and that is the whole commit protocol: the recovery
    layer's output-commit rule holds the ack until every state interval it
    transitively depends on (the apply intervals on {e all} touched shards,
    via the acks) is stable under the K-optimistic rule.  No extra
    two-phase machinery is needed, and the ack can never be observed and
    then revoked: if any participant is killed first, the ack's dependency
    closure contains the lost interval and the output stays uncommitted
    until replay re-establishes it.  PROTOCOL.md §Multi-put spells out the
    argument. *)

module Str_map = Map.Make (String)
module Int_map = Map.Make (Int)

type msg =
  | Put of { key : string; value : int }
  | Get of { g : int; key : string }  (** [g] tags the reply output *)
  | Multi_put of { m : int; pairs : (string * int) list }
      (** client-injected at the coordinator; [m] tags the ack output *)
  | Mp_apply of { m : int; coord : int; pairs : (string * int) list }
  | Mp_ack of { m : int; from_ : int }
  | Grow of { w : int }
      (** membership grew: widen the local ring to [w] shards.  Logged and
          replayed like any other message, so every incarnation of a shard
          folds the same ring history. *)
  | Retire_shard of { shard : int }
      (** [shard] left the cluster: drop its points so no traffic is
          forwarded to a permanently silent process *)

type state = {
  pid : int;
  ring : Ring.t;
  store : (int * int) Str_map.t;  (** key -> (value, version) *)
  pending : int Int_map.t;  (** multi-put id -> acks still missing *)
  puts : int;
  entry_sum : int;
      (** sum of [entry_hash] over [store], kept by [apply_one], so that
          [digest] costs O(|pending|) and not O(|store|) *)
}

let lookup state key = Str_map.find_opt key state.store

(* One store entry's share of the digest, from its key's hash.  The digest
   sums the shares, so it depends on what the store holds and not on the
   order the writes arrived in. *)
let entry_hash key_hash (value, version) =
  App_model.Hashing.(mix (mix key_hash value) version)

let apply_one state (key, value) =
  let key_hash = App_model.Hashing.string key in
  let sum, version =
    match lookup state key with
    | None -> (state.entry_sum, 1)
    | Some ((_, v) as old) -> (state.entry_sum - entry_hash key_hash old, v + 1)
  in
  let entry = (value, version) in
  {
    state with
    store = Str_map.add key entry state.store;
    puts = state.puts + 1;
    entry_sum = sum + entry_hash key_hash entry;
  }

(* Partition [pairs] by owning shard, preserving first-seen owner order and
   within-owner pair order — the grouping must be a pure function of the
   message so replay reproduces the same fan-out. *)
let partition ring pairs =
  let groups = ref [] in
  List.iter
    (fun (key, value) ->
      let o = Ring.owner ring key in
      match List.assoc_opt o !groups with
      | Some acc -> acc := (key, value) :: !acc
      | None -> groups := (o, ref [ (key, value) ]) :: !groups)
    pairs;
  List.rev_map (fun (o, acc) -> (o, List.rev !acc)) !groups

(* Output texts.  [Service] reads the leading tag ("get:12", "mp:7"), so
   the format is fixed; they are concatenated directly because a Format
   call per output costs ~10x the allocation. *)
let mp_ack_text m = String.concat "" [ "mp:"; string_of_int m; " ok" ]

let get_text g key = function
  | None -> String.concat "" [ "get:"; string_of_int g; " "; key; " -> none" ]
  | Some (value, version) ->
    String.concat ""
      [
        "get:"; string_of_int g; " "; key; " -> "; string_of_int value; " (v";
        string_of_int version; ")";
      ]

let handle ~pid ~n:_ state ~src:_ msg =
  match msg with
  | Put { key; value } ->
    let o = Ring.owner state.ring key in
    if o <> pid then (state, [ App_model.App_intf.send o (Put { key; value }) ])
    else (apply_one state (key, value), [])
  | Get { g; key } ->
    let o = Ring.owner state.ring key in
    if o <> pid then (state, [ App_model.App_intf.send o (Get { g; key }) ])
    else (state, [ App_model.App_intf.output (get_text g key (lookup state key)) ])
  | Multi_put { m; pairs } ->
    let groups = partition state.ring pairs in
    let local = match List.assoc_opt pid groups with Some l -> l | None -> [] in
    let remote = List.filter (fun (o, _) -> o <> pid) groups in
    let state = List.fold_left apply_one state local in
    if remote = [] then (state, [ App_model.App_intf.output (mp_ack_text m) ])
    else begin
      let state =
        { state with pending = Int_map.add m (List.length remote) state.pending }
      in
      ( state,
        List.map
          (fun (o, pairs) ->
            App_model.App_intf.send o (Mp_apply { m; coord = pid; pairs }))
          remote )
    end
  | Mp_apply { m; coord; pairs } ->
    let state = List.fold_left apply_one state pairs in
    (state, [ App_model.App_intf.send coord (Mp_ack { m; from_ = pid }) ])
  | Mp_ack { m; from_ = _ } -> (
    match Int_map.find_opt m state.pending with
    | None -> (state, [])  (* stale ack for an already-acked multi-put *)
    | Some 1 ->
      ( { state with pending = Int_map.remove m state.pending },
        [ App_model.App_intf.output (mp_ack_text m) ] )
    | Some left ->
      ({ state with pending = Int_map.add m (left - 1) state.pending }, []))
  | Grow { w } ->
    if w <= Ring.shards state.ring then (state, [])
    else ({ state with ring = Ring.grow state.ring ~shards:w }, [])
  | Retire_shard { shard } -> (
    (* [remove] is idempotent on an already-absent shard; a decode-valid
       but out-of-range shard id must not crash the daemon. *)
    match Ring.remove state.ring shard with
    | ring -> ({ state with ring }, [])
    | exception Invalid_argument _ -> (state, []))

let digest s =
  (* The ring is a deterministic fold of the logged [Grow]/[Retire_shard]
     messages over the [(n, seed)] starting point — identical on every
     incarnation replaying the same log — so it stays out of the digest.
     The store enters through [entry_sum]; only the (short) pending table
     is folded here, once per delivery. *)
  Int_map.fold
    (fun m left h -> App_model.Hashing.(mix (mix h m) left))
    s.pending
    App_model.Hashing.(mix (pair s.pid s.puts) s.entry_sum)

(* Byte-level payload format, mirroring the kvstore app's conventions: a
   tag byte, then the fields as {!Durable.Form} lays them out (an
   int64-LE integer, a string as its int64 length and bytes, a pair list
   as its count and pairs); unknown tags, short buffers and trailing bytes
   are decode errors.  A case's projections see only messages of its own
   tag. *)
let wire : msg App_model.App_intf.wire_format =
  let module F = Durable.Form in
  let pairs = F.(list (pair string int)) in
  let[@warning "-8"] form =
    F.tagged
      (F.cases "shard message tag"
         (function
           | Put _ -> 1 | Get _ -> 2 | Multi_put _ -> 3 | Mp_apply _ -> 4 | Mp_ack _ -> 5
           | Grow _ -> 6 | Retire_shard _ -> 7)
         [ ( 1,
             F.record (fun key value -> Put { key; value })
               F.[ (string, fun (Put p) -> p.key); (int, fun (Put p) -> p.value) ] );
           ( 2,
             F.record (fun g key -> Get { g; key })
               F.[ (int, fun (Get r) -> r.g); (string, fun (Get r) -> r.key) ] );
           ( 3,
             F.record (fun m pairs -> Multi_put { m; pairs })
               F.[ (int, fun (Multi_put r) -> r.m);
                   (pairs, fun (Multi_put r) -> r.pairs) ] );
           ( 4,
             F.record (fun m coord pairs -> Mp_apply { m; coord; pairs })
               F.[ (int, fun (Mp_apply r) -> r.m); (int, fun (Mp_apply r) -> r.coord);
                   (pairs, fun (Mp_apply r) -> r.pairs) ] );
           ( 5,
             F.record (fun m from_ -> Mp_ack { m; from_ })
               F.[ (int, fun (Mp_ack r) -> r.m); (int, fun (Mp_ack r) -> r.from_) ] );
           (6, F.map (fun w -> Grow { w }) (fun (Grow r) -> r.w) F.int);
           ( 7,
             F.map (fun shard -> Retire_shard { shard }) (fun (Retire_shard r) -> r.shard)
               F.int ) ])
  in
  { App_model.App_intf.write = F.encode form; read = F.decode form }

(* Recovery partitions within one shard's store.  Single-key messages
   belong to their key's partition; the cross-shard multi-put messages
   touch the global [pending]/[puts] bookkeeping (and arbitrary key sets),
   so they are barriers — replayed only at their exact log position.  The
   global [puts] counter also rules out per-partition snapshots: skipping
   a record would silently lose its increments, so [part_export] is [None]
   and shardkv gets partitioned replay but not incremental checkpoints. *)
let parts = 8

let part_of_key key =
  App_model.Hashing.(mix 0x9e37 (string key)) mod parts

let partitioning : (state, msg) App_model.App_intf.partitioning =
  {
    App_model.App_intf.parts;
    part_of_msg =
      (fun ~n:_ -> function
        | Put { key; _ } | Get { key; _ } -> Some (part_of_key key)
        | Multi_put _ | Mp_apply _ | Mp_ack _ -> None
        (* Ring changes redirect every partition's routing: barriers. *)
        | Grow _ | Retire_shard _ -> None);
    part_digest =
      (fun s p ->
        Str_map.fold
          (fun key (value, version) h ->
            if part_of_key key = p then
              App_model.Hashing.(mix (mix (mix h (string key)) value) version)
            else h)
          s.store
          (App_model.Hashing.pair s.pid p));
    part_export = None;
    part_import = None;
  }

let app : (state, msg) App_model.App_intf.t =
  {
    name = "shardkv";
    init =
      (fun ~pid ~n ->
        {
          pid;
          ring = Ring.make ~shards:n ();
          store = Str_map.empty;
          pending = Int_map.empty;
          puts = 0;
          entry_sum = 0;
        });
    handle;
    digest;
    partitioning = Some partitioning;
  }
