(* The sharded KV service: consistent-hash ring laws, the shard
   application's wire format, the multi-put ack's K-rule gating (scripted
   in the simulator), and a live mini-cluster multi-put surviving a
   SIGKILL of a participating shard. *)

open Util
module Ring = Shardkv.Ring
module Shard_app = Shardkv.Shard_app
module Cluster = Harness.Cluster
module Deployment = Net.Deployment

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

(* Cross-run / cross-process stability: clients and daemons never exchange
   ring state, they rebuild it — so the mapping itself is part of the wire
   contract and is pinned by value, not just by self-consistency. *)
let test_ring_golden () =
  let r = Ring.make ~shards:8 () in
  Alcotest.(check int) "key_hash pinned" 2124457483120015867
    (Ring.key_hash r "key-0");
  List.iter
    (fun (key, owner) -> Alcotest.(check int) key owner (Ring.owner r key))
    [ ("key-0", 7); ("key-1", 0); ("key-42", 6); ("alpha", 7); ("omega", 2) ];
  let r' = Ring.make ~shards:8 () in
  Alcotest.(check bool) "construction is deterministic" true
    (Ring.points r = Ring.points r')

(* Distribution balance, on a deterministic key sample so the bound is a
   regression test rather than a flaky estimate: with 64 vnodes each of 8
   shards owns between 1/1.6 and 1.6x fair share of 20000 keys. *)
let test_ring_balance () =
  let shards = 8 in
  let keys = 20000 in
  let r = Ring.make ~shards () in
  let counts = Array.make shards 0 in
  for i = 0 to keys - 1 do
    let o = Ring.owner r (Fmt.str "key-%d" i) in
    counts.(o) <- counts.(o) + 1
  done;
  let fair = float_of_int keys /. float_of_int shards in
  Array.iteri
    (fun shard c ->
      let ratio = float_of_int c /. fair in
      if ratio > 1.6 || ratio < 1. /. 1.6 then
        Alcotest.failf "shard %d owns %d keys (%.2fx fair share)" shard c ratio)
    counts

(* Growing 16 -> 17 shards must remap about 1/17 of keys — the point of
   consistent hashing.  Exact fraction measured on the same sample. *)
let test_ring_minimal_movement_fraction () =
  let keys = 20000 in
  let a = Ring.make ~shards:16 () in
  let b = Ring.make ~shards:17 () in
  let moved = ref 0 in
  for i = 0 to keys - 1 do
    let k = Fmt.str "key-%d" i in
    if Ring.owner a k <> Ring.owner b k then incr moved
  done;
  let bound = 2. *. float_of_int keys /. 17. in
  if float_of_int !moved > bound then
    Alcotest.failf "%d of %d keys moved (bound %.0f)" !moved keys bound;
  Alcotest.(check bool) "some keys moved" true (!moved > 0)

let gen_ring_key =
  QCheck2.Gen.(
    oneof
      [
        map (Fmt.str "key-%d") (int_bound 100000);
        string_size ~gen:printable (int_range 1 24);
      ])

(* The exact minimal-movement law (not a statistical bound): point
   positions don't depend on ring size, so growing the ring can only move
   a key to the new shard. *)
let test_ring_grow_law =
  qtest "grow n->n+1 remaps only onto the new shard"
    QCheck2.Gen.(pair (int_range 1 32) gen_ring_key)
    (fun (n, key) ->
      let r = Ring.make ~shards:n () in
      let before = Ring.owner r key in
      let after = Ring.owner (Ring.make ~shards:(n + 1) ()) key in
      (* Incremental widening is the same ring as rebuilding from scratch,
         so a daemon that grows via a [Grow] message and one that boots at
         the new width agree point-for-point. *)
      Ring.points (Ring.grow r ~shards:(n + 1))
      = Ring.points (Ring.make ~shards:(n + 1) ())
      && (after = before || after = n))

let test_ring_remove_law =
  qtest "remove i remaps only keys i owned"
    QCheck2.Gen.(triple (int_range 2 32) (int_bound 1000) gen_ring_key)
    (fun (n, i, key) ->
      let i = i mod n in
      let r = Ring.make ~shards:n () in
      let owner = Ring.owner r key in
      let owner' = Ring.owner (Ring.remove r i) key in
      if owner = i then owner' <> i else owner' = owner)

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)

let gen_pairs =
  QCheck2.Gen.(
    list_size (int_range 1 6)
      (pair (string_size ~gen:printable (int_bound 20)) (int_range (-1000) 1000)))

let gen_shard_msg =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun key value -> Shard_app.Put { key; value })
          (string_size ~gen:printable (int_bound 20))
          int;
        map2
          (fun g key -> Shard_app.Get { g; key })
          (int_bound 10000)
          (string_size ~gen:printable (int_bound 20));
        map2 (fun m pairs -> Shard_app.Multi_put { m; pairs }) (int_bound 10000)
          gen_pairs;
        map3
          (fun m coord pairs -> Shard_app.Mp_apply { m; coord; pairs })
          (int_bound 10000) (int_bound 64) gen_pairs;
        map2
          (fun m from_ -> Shard_app.Mp_ack { m; from_ })
          (int_bound 10000) (int_bound 64);
        map (fun w -> Shard_app.Grow { w }) (int_bound 128);
        map (fun shard -> Shard_app.Retire_shard { shard }) (int_bound 128);
      ])

let test_wire_roundtrip =
  qtest "shardkv payload: read inverts write" gen_shard_msg (fun msg ->
      match Shard_app.wire.read (Shard_app.wire.write msg) with
      | Ok msg' -> msg = msg'
      | Error e -> QCheck2.Test.fail_report e)

(* The output texts are built without Format, and [Service] parses their
   tags: they must stay byte for byte what the Format strings gave. *)
let test_output_texts =
  qtest "output texts: byte-identical to their Format strings"
    QCheck2.Gen.(
      quad int (string_size ~gen:printable (int_bound 12)) int (option (pair int int)))
    (fun (g, key, m, found) ->
      Shard_app.mp_ack_text m = Fmt.str "mp:%d ok" m
      && Shard_app.get_text g key found
         =
         match found with
         | None -> Fmt.str "get:%d %s -> none" g key
         | Some (value, version) -> Fmt.str "get:%d %s -> %d (v%d)" g key value version)

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)

(* The digest [Shard_app] keeps incrementally, computed from scratch: each
   store entry's hash summed over the whole store, then the pid, the put
   count and the pending table folded in. *)
let reference_digest (s : Shard_app.state) =
  let open App_model.Hashing in
  let sum =
    Shard_app.Str_map.fold
      (fun key (value, version) acc -> acc + mix (mix (string key) value) version)
      s.store 0
  in
  Shard_app.Int_map.fold
    (fun m left h -> mix (mix h m) left)
    s.pending
    (mix (pair s.pid s.puts) sum)

(* Shard 0 of 2, so multi-puts fan out and leave acks pending, and single
   Puts for shard 1's keys are forwarded untouched; eight keys, so writes
   overwrite. *)
let digest_pid = 0

let digest_n = 2

let gen_digest_history =
  QCheck2.Gen.(
    let key = map (Printf.sprintf "k%d") (int_bound 7) in
    let pair = pair key (int_range (-50) 50) in
    let pairs = list_size (int_range 1 4) pair in
    list_size (int_range 0 40)
      (oneof
         [
           map (fun (key, value) -> Shard_app.Put { key; value }) pair;
           map2 (fun m pairs -> Shard_app.Multi_put { m; pairs }) (int_bound 5) pairs;
           map3
             (fun m coord pairs -> Shard_app.Mp_apply { m; coord; pairs })
             (int_bound 5) (int_bound 1) pairs;
           map2 (fun m from_ -> Shard_app.Mp_ack { m; from_ }) (int_bound 5) (int_bound 1);
         ]))

let apply_history state msgs =
  List.fold_left
    (fun s msg ->
      fst (Shard_app.app.handle ~pid:digest_pid ~n:digest_n s ~src:(-1) msg))
    state msgs

let fresh_state () = Shard_app.app.init ~pid:digest_pid ~n:digest_n

(* Another history to the same store and counters: each key written as
   often as its version says, round-robin over the keys in reverse order,
   junk first and the final value last, as one-pair [Mp_apply]s (applied
   wherever the key lives); the pending table copied over. *)
let rewrite_history (s : Shard_app.state) =
  let entries = List.rev (Shard_app.Str_map.bindings s.store) in
  let rounds = List.fold_left (fun acc (_, (_, v)) -> Stdlib.max acc v) 0 entries in
  let msgs =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (key, (value, version)) ->
            if r > version then None
            else
              let value = if r = version then value else 1000 + r in
              Some (Shard_app.Mp_apply { m = 0; coord = 1; pairs = [ (key, value) ] }))
          entries)
      (List.init rounds (fun r -> r + 1))
  in
  { (apply_history (fresh_state ()) msgs) with pending = s.pending }

let test_digest_law =
  qtest ~count:500 "digest: incremental sum equals a fold over store and pending"
    gen_digest_history (fun msgs ->
      let digest = Shard_app.app.digest in
      (* After every step, not just at the end. *)
      let s, _ =
        List.fold_left
          (fun (s, step) msg ->
            let s = apply_history s [ msg ] in
            if digest s <> reference_digest s then
              QCheck2.Test.fail_reportf "digest %d, reference %d after message %d"
                (digest s) (reference_digest s) step;
            (s, step + 1))
          (fresh_state (), 0) msgs
      in
      let s' = rewrite_history s in
      if (not (Shard_app.Str_map.equal ( = ) s'.store s.store)) || s'.puts <> s.puts then
        QCheck2.Test.fail_report "rewritten history reached another store";
      if digest s' <> digest s then
        QCheck2.Test.fail_report "same store and counters, different digest";
      let restored : Shard_app.state =
        Marshal.from_string (Marshal.to_string s [ Marshal.Closures ]) 0
      in
      if digest restored <> digest s then
        QCheck2.Test.fail_report "a Marshal round trip changed the digest";
      let more = [ Shard_app.Mp_apply { m = 0; coord = 1; pairs = [ ("k0", 7); ("k0", 8) ] } ] in
      digest (apply_history restored more) = reference_digest (apply_history s more))

(* ------------------------------------------------------------------ *)
(* Multi-put commit gating (scripted, K = 0)                           *)

(* The paper's output-commit rule IS the multi-put commit protocol: at
   K = 0 the client ack may not commit before every apply interval it
   transitively depends on is stable.  Script the full episode — gated
   fan-out, a participant crash that loses its (unflushed) apply, replay
   via retransmission, and an ack that is delivered but stays uncommitted
   until the coordinator's own interval is flushed. *)
let test_multi_put_gating_k0 () =
  let n = 3 in
  let config = Recovery.Config.k_optimistic ~n ~k:0 () in
  let cl =
    Cluster.create ~config ~app:Shard_app.app ~horizon:400. ~auto_timers:false ()
  in
  let ring = Ring.make ~shards:n () in
  (* Two keys with distinct owners; the coordinator owns the first. *)
  let coord = Ring.owner ring "key-0" in
  let kp =
    let rec find i =
      if Ring.owner ring (Fmt.str "key-%d" i) <> coord then Fmt.str "key-%d" i
      else find (i + 1)
    in
    find 1
  in
  let participant = Ring.owner ring kp in
  Cluster.inject_at cl ~time:1. ~dst:coord
    (Shard_app.Multi_put { m = 0; pairs = [ ("key-0", 10); (kp, 20) ] });
  Cluster.run_until cl 5.;
  (* K = 0 gates the Mp_apply fan-out until the coordinator flushes. *)
  Alcotest.(check bool) "fan-out gated before flush" true
    (Recovery.Node.send_buffer_size (Cluster.node cl coord) > 0);
  Alcotest.(check int) "no ack yet" 0 (Util.total (Cluster.stats cl) "outputs_committed");
  Cluster.flush_at cl ~time:6. ~pid:coord;
  Cluster.run_until cl 10.;
  Alcotest.(check int) "participant applied" 1
    (Recovery.Node.app_state (Cluster.node cl participant)).Shard_app.puts;
  Alcotest.(check int) "still no ack" 0 (Util.total (Cluster.stats cl) "outputs_committed");
  (* Crash the participant before it ever flushed: its apply interval and
     its gated Mp_ack are lost; recovery must redo both. *)
  Cluster.crash_at cl ~time:11. ~pid:participant;
  Cluster.run_until cl 80.;
  Alcotest.(check int) "ack still withheld after crash + replay" 0
    (Util.total (Cluster.stats cl) "outputs_committed");
  Cluster.flush_at cl ~time:85. ~pid:participant;
  Cluster.run_until cl 95.;
  (* The Mp_ack has now reached the coordinator and the ack output exists —
     but the coordinator's own receiving interval is not stable, so the
     commit must still wait: no ack precedes commit stability. *)
  Alcotest.(check int) "ack delivered but uncommitted" 0
    (Util.total (Cluster.stats cl) "outputs_committed");
  Alcotest.(check bool) "ack buffered at coordinator" true
    (Recovery.Node.output_buffer_size (Cluster.node cl coord) > 0);
  Cluster.flush_at cl ~time:100. ~pid:coord;
  Cluster.run_until cl 110.;
  Alcotest.(check int) "ack committed exactly once" 1
    (Util.total (Cluster.stats cl) "outputs_committed");
  let committed_texts =
    List.filter_map
      (fun { Recovery.Trace.ev; _ } ->
        match ev with
        | Recovery.Trace.Output_committed { text; _ } -> Some text
        | _ -> None)
      (Recovery.Trace.events (Cluster.trace cl))
  in
  Alcotest.(check (list string)) "the ack is the multi-put's" [ "mp:0 ok" ]
    committed_texts;
  let report = Harness.Oracle.check ~k:0 ~n (Cluster.trace cl) in
  Alcotest.(check (list string)) "oracle certifies" []
    report.Harness.Oracle.violations;
  Alcotest.(check int) "risk 0 at K=0" 0 report.Harness.Oracle.max_risk

(* ------------------------------------------------------------------ *)
(* Live: multi-put across shards survives killing a participant        *)

let test_live_multi_put_under_kill () =
  let root = Durable.Temp.fresh_dir ~prefix:"test-shardkv-live" () in
  let t = Deployment.launch ~n:3 ~k:0 ~app:"shardkv" ~seed:21 ~root () in
  Fun.protect
    ~finally:(fun () -> try Deployment.destroy t with _ -> ())
  @@ fun () ->
  let svc = Shardkv.Service.connect t in
  let ring = Shardkv.Service.ring svc in
  let coord = Ring.owner ring "key-0" in
  let kp =
    let rec find i =
      if Ring.owner ring (Fmt.str "key-%d" i) <> coord then Fmt.str "key-%d" i
      else find (i + 1)
    in
    find 1
  in
  Shardkv.Service.multi_put svc [ ("key-0", 1); (kp, 2) ];
  (* SIGKILL the participating shard immediately: whether the kill lands
     before or after its apply became stable, the K = 0 oracle run proves
     the ack was never released ahead of commit stability, and the ack
     must still arrive exactly once after recovery. *)
  Deployment.kill t ~dst:(Ring.owner ring kp);
  ignore (Deployment.settle t : bool);
  let outcome = Deployment.finish t in
  Alcotest.(check (list string))
    "oracle certifies" []
    outcome.Deployment.oracle.Harness.Oracle.violations;
  Alcotest.(check int) "risk 0 at K=0" 0
    outcome.Deployment.oracle.Harness.Oracle.max_risk;
  let lat = Shardkv.Service.latency svc in
  Shardkv.Service.Latency.ingest lat outcome.Deployment.trace;
  let stats = Shardkv.Service.Latency.stats lat in
  Alcotest.(check int) "ack committed" 1 stats.Shardkv.Service.acked;
  Alcotest.(check int) "nothing outstanding" 0
    stats.Shardkv.Service.outstanding;
  let acks =
    List.filter
      (fun { Recovery.Trace.ev; _ } ->
        match ev with
        | Recovery.Trace.Output_committed { text; _ } -> text = "mp:0 ok"
        | _ -> false)
      (Recovery.Trace.events outcome.Deployment.trace)
  in
  Alcotest.(check int) "exactly one ack in the merged trace" 1
    (List.length acks)

(* ------------------------------------------------------------------ *)
(* Live: ring grow/remove wired to real membership churn               *)

(* Grow the live cluster by one shard, route fresh traffic onto the
   joiner, then gracefully retire an incumbent and keep serving: the
   law-checked ring transitions ([grow] appends the new shard's points,
   [remove] drops the retiree's) are driven here by actual join/retire,
   with the [Grow]/[Retire_shard] config messages logged like any other
   message so replayed incarnations reproduce the routing. *)
let test_live_grow_retire () =
  let root = Durable.Temp.fresh_dir ~prefix:"test-shardkv-churn" () in
  let t = Deployment.launch ~n:3 ~k:1 ~app:"shardkv" ~seed:31 ~root () in
  Fun.protect
    ~finally:(fun () -> try Deployment.destroy t with _ -> ())
  @@ fun () ->
  let svc = Shardkv.Service.connect t in
  for i = 0 to 9 do
    Shardkv.Service.put svc ~key:(Fmt.str "pre-%d" i) ~value:i
  done;
  Alcotest.(check bool) "settles at width 3" true (Deployment.settle t);
  let joiner = Shardkv.Service.grow svc in
  Alcotest.(check int) "joiner is shard 3" 3 joiner;
  let ring = Shardkv.Service.ring svc in
  Alcotest.(check int) "client ring widened" 4 (Ring.shards ring);
  (* Fresh keys after the grow; the namespace is wide enough that some
     land on the joiner (minimal movement puts ~1/4 of keys there). *)
  let post_keys = List.init 24 (Fmt.str "post-%d") in
  Alcotest.(check bool) "some fresh keys belong to the joiner" true
    (List.exists (fun k -> Ring.owner ring k = joiner) post_keys);
  List.iteri
    (fun i k -> Shardkv.Service.put svc ~key:k ~value:(100 + i))
    post_keys;
  List.iter (fun k -> Shardkv.Service.get svc ~key:k) post_keys;
  Alcotest.(check bool) "settles at width 4" true (Deployment.settle t);
  Shardkv.Service.retire_shard svc ~shard:1;
  let ring = Shardkv.Service.ring svc in
  let pre_retire = Ring.make ~shards:4 () in
  let moved = List.filter (fun k -> Ring.owner pre_retire k = 1) post_keys in
  Alcotest.(check bool) "retiree owned some keys" true (moved <> []);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "%s no longer routes to the retiree" k)
        true
        (Ring.owner ring k <> 1))
    post_keys;
  (* Rewrite and re-read the moved keys: their new owners must answer. *)
  List.iteri (fun i k -> Shardkv.Service.put svc ~key:k ~value:(500 + i)) moved;
  List.iter (fun k -> Shardkv.Service.get svc ~key:k) moved;
  Alcotest.(check bool) "settles after retirement" true (Deployment.settle t);
  let outcome = Deployment.finish t in
  Alcotest.(check (list string))
    "oracle certifies at the final width" []
    outcome.Deployment.oracle.Harness.Oracle.violations;
  Alcotest.(check bool) "risk within K=1" true
    (outcome.Deployment.oracle.Harness.Oracle.max_risk <= 1);
  let lat = Shardkv.Service.latency svc in
  Shardkv.Service.Latency.ingest lat outcome.Deployment.trace;
  let stats = Shardkv.Service.Latency.stats lat in
  Alcotest.(check int) "every get acked" 0 stats.Shardkv.Service.outstanding;
  let joiner_served =
    List.exists
      (fun { Recovery.Trace.ev; _ } ->
        match ev with
        | Recovery.Trace.Output_committed { pid; _ } -> pid = joiner
        | _ -> false)
      (Recovery.Trace.events outcome.Deployment.trace)
  in
  Alcotest.(check bool) "the joiner committed client outputs" true
    joiner_served

(* The histogram-backed Latency tracker against an exact reference
   computation over the same synthetic trace: counts and max must match
   exactly; the histogram percentiles must bracket the exact order
   statistics within one power-of-two bucket.  Also pins idempotence —
   re-ingesting the same trace (a replayed duplicate commit) changes
   nothing. *)
let test_latency_tracker_equivalence () =
  let epoch = 1000. and time_scale = 0.001 in
  let lat = Shardkv.Service.Latency.create ~epoch ~time_scale () in
  let n = 40 in
  let issue_at i = epoch +. (0.003 *. float_of_int i) in
  for i = 0 to n - 1 do
    Shardkv.Service.Latency.issue lat ~tag:(Fmt.str "get:%d" i)
      ~at:(issue_at i)
  done;
  (* Commit all but the last three, with latencies spreading over several
     histogram buckets; trace time is abstract units. *)
  let acked = n - 3 in
  let exact_lat i = 0.004 +. (0.0011 *. float_of_int (i * i mod 17)) in
  let trace = Recovery.Trace.create () in
  let id = { Recovery.Wire.out_interval = Depend.Entry.make ~inc:0 ~sii:1; out_idx = 0 } in
  for i = 0 to acked - 1 do
    let commit_wall = issue_at i +. exact_lat i in
    Recovery.Trace.add trace
      ~time:((commit_wall -. epoch) /. time_scale)
      (Recovery.Trace.Output_committed
         { pid = 0; id; text = Fmt.str "get:%d -> hit" i; latency = 0. })
  done;
  (* An output answering nothing we issued must not count. *)
  Recovery.Trace.add trace ~time:1.
    (Recovery.Trace.Output_committed
       { pid = 0; id; text = "mp:999 ok"; latency = 0. });
  Shardkv.Service.Latency.ingest lat trace;
  Shardkv.Service.Latency.ingest lat trace;
  let stats = Shardkv.Service.Latency.stats lat in
  let exact = Array.init acked exact_lat in
  Array.sort compare exact;
  let exact_pct p =
    exact.(Stdlib.min (acked - 1)
             (Stdlib.max 0 (int_of_float (Float.ceil (p *. float_of_int acked)) - 1)))
  in
  Alcotest.(check int) "acked exact" acked stats.Shardkv.Service.acked;
  Alcotest.(check int) "outstanding exact" 3 stats.Shardkv.Service.outstanding;
  Alcotest.(check (float 1e-9)) "max exact" exact.(acked - 1)
    stats.Shardkv.Service.max;
  let bracket name hist_q exact_q =
    Alcotest.(check bool)
      (name ^ " within one bucket above the order statistic")
      true
      (hist_q >= exact_q && hist_q <= 2. *. exact_q)
  in
  bracket "p50" stats.Shardkv.Service.p50 (exact_pct 0.5);
  bracket "p99" stats.Shardkv.Service.p99 (exact_pct 0.99);
  (* The deprecated wrapper is the same computation over the service's
     tracker; on a fresh tracker fed the same trace it must agree. *)
  let lat2 = Shardkv.Service.Latency.create ~epoch ~time_scale () in
  for i = 0 to n - 1 do
    Shardkv.Service.Latency.issue lat2 ~tag:(Fmt.str "get:%d" i)
      ~at:(issue_at i)
  done;
  Shardkv.Service.Latency.ingest lat2 trace;
  let stats2 = Shardkv.Service.Latency.stats lat2 in
  Alcotest.(check bool) "independent trackers agree" true (stats = stats2)

let suite =
  [
    Alcotest.test_case "ring: golden values and determinism" `Quick
      test_ring_golden;
    Alcotest.test_case "ring: balance within bound" `Quick test_ring_balance;
    Alcotest.test_case "ring: grow remaps ~1/N of keys" `Quick
      test_ring_minimal_movement_fraction;
    test_ring_grow_law;
    test_ring_remove_law;
    test_wire_roundtrip;
    test_digest_law;
    test_output_texts;
    Alcotest.test_case "latency tracker: histogram vs exact reference"
      `Quick test_latency_tracker_equivalence;
    Alcotest.test_case "multi-put ack gated by the K rule (K=0, scripted)"
      `Quick test_multi_put_gating_k0;
    Alcotest.test_case "live: multi-put survives participant SIGKILL" `Slow
      test_live_multi_put_under_kill;
    Alcotest.test_case "live: ring grow/remove wired to join/retire" `Slow
      test_live_grow_retire;
  ]
