(* Membership churn and degraded modes, simulator side:

   - scripted cluster scenarios: join under load, retire + rejoin,
     rolling restart, disk-full brownout, and a long partition with the
     minority still logging — every run oracle-certified at the final
     membership width with risk at most K;
   - Driver-level Join/Retire handshake: vector widening, frontier
     adoption, un-retiring on rejoin;
   - QCheck law: identity-preserving vector resize ([Dep_vector.grow] /
     [shrink]) preserves every orphan verdict;
   - Part_ckpt decode hardening: random byte damage to the synchronous
     area never crashes a restart and never silently corrupts the
     recovered state, and a surgically damaged [pc_payload] (valid outer
     frames, broken inner seal) is dropped and counted. *)

module Cluster = Harness.Cluster
module Node = Recovery.Node
module Config = Recovery.Config
module Wire = Recovery.Wire
module Counter = App_model.Counter_app
module Entry = Depend.Entry
module Entry_set = Depend.Entry_set
module Dep_vector = Depend.Dep_vector
module D = Util.Driver

let certify ?(k = 2) c =
  let report = Harness.Oracle.check ~k ~n:(Cluster.n c) (Cluster.trace c) in
  Alcotest.(check (list string))
    "oracle certifies" [] report.Harness.Oracle.violations;
  Alcotest.(check bool)
    (Fmt.str "risk %d <= K=%d" report.Harness.Oracle.max_risk k)
    true
    (report.Harness.Oracle.max_risk <= k);
  report

let config ?(n = 3) ?(k = 2) () = Config.k_optimistic ~n ~k ()

let total c pid = (Node.app_state (Cluster.node c pid) : Counter.state).total

(* ------------------------------------------------------------------ *)
(* Scripted cluster scenarios                                          *)

let test_join_under_load () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:600. () in
  for i = 1 to 6 do
    Cluster.inject_at c ~time:(float_of_int i) ~dst:(i mod 3) (Counter.Add 1)
  done;
  Cluster.join_at c ~time:50. ~pid:3;
  (* Traffic at and through the joiner after its announcement lands. *)
  Cluster.inject_at c ~time:80. ~dst:3 (Counter.Add 5);
  Cluster.inject_at c ~time:90. ~dst:0 (Counter.Forward { dst = 3; amount = 2 });
  Cluster.run c;
  Alcotest.(check int) "membership grew" 4 (Cluster.n c);
  Alcotest.(check int) "joiner delivered its traffic" 7 (total c 3);
  (* The incumbents widened their protocol membership on the Join. *)
  Alcotest.(check int)
    "incumbent widened" 4
    (Node.membership_n (Cluster.node c 0));
  ignore (certify c : Harness.Oracle.report)

let test_retire_then_rejoin () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:900. () in
  for i = 1 to 6 do
    Cluster.inject_at c ~time:(float_of_int i) ~dst:(i mod 3) (Counter.Add 1)
  done;
  Cluster.retire_at c ~time:60. ~pid:2;
  (* Survivor traffic while P2 is gone; the wire eats anything sent its
     way, and survivors treat its frontier as stable (Theorem 2), so
     nothing blocks on the retiree. *)
  Cluster.inject_at c ~time:100. ~dst:0 (Counter.Add 3);
  Cluster.inject_at c ~time:110. ~dst:1 (Counter.Add 4);
  Cluster.run_until c 200.;
  Alcotest.(check (list int)) "P2 retired" [ 2 ] (Cluster.retired c);
  Alcotest.(check bool)
    "survivors saw the frontier" true
    (Node.is_retired (Cluster.node c 0) 2);
  (* Rejoin under the same identity: cleared from the retired set, fresh
     incarnation over the same store, deliverable again. *)
  Cluster.join_at c ~time:250. ~pid:2;
  Cluster.inject_at c ~time:300. ~dst:2 (Counter.Add 9);
  Cluster.run c;
  Alcotest.(check (list int)) "no longer retired" [] (Cluster.retired c);
  Alcotest.(check bool)
    "un-retired at the survivors" false
    (Node.is_retired (Cluster.node c 0) 2);
  (* 2 from its pre-retire history (recovered from its own log) + 9. *)
  Alcotest.(check int) "rejoined node delivers" 11 (total c 2);
  ignore (certify c : Harness.Oracle.report)

let test_rolling_restart () =
  let c = Cluster.create ~config:(config ~n:4 ()) ~app:Counter.app ~horizon:1500. () in
  for i = 1 to 12 do
    Cluster.inject_at c ~time:(float_of_int i) ~dst:(i mod 4) (Counter.Add 1)
  done;
  Cluster.rolling_restart_at c ~time:100. ~pids:[ 0; 1; 2; 3 ] ();
  (* Load keeps flowing while the wave rolls through. *)
  for i = 0 to 3 do
    Cluster.inject_at c ~time:(120. +. (40. *. float_of_int i)) ~dst:i (Counter.Add 1)
  done;
  Cluster.run c;
  Alcotest.(check int) "all four restarted" 4 (Cluster.stats c).restarts;
  Alcotest.(check int)
    "nothing lost across the wave" 16
    (total c 0 + total c 1 + total c 2 + total c 3);
  ignore (certify c : Harness.Oracle.report)

let test_disk_full_brownout () =
  (* No periodic checkpoints: a checkpoint's forced flush (exempt from
     the brownout by design — stability claims must stay true) would
     drain the backlog early and cut the refusal count short. *)
  let timing = { Config.default_timing with checkpoint_interval = None } in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing ~n:3 ~k:2 ())
      ~app:Counter.app ~horizon:900. ()
  in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Add 1);
  Cluster.arm_disk_full_at c ~time:20. ~pid:0 ~rounds:3;
  (* Traffic into the browned-out node: refused flushes keep its records
     volatile and the K-rule gates its sends until the window passes. *)
  for i = 0 to 5 do
    Cluster.inject_at c ~time:(25. +. (2. *. float_of_int i)) ~dst:0 (Counter.Add 1)
  done;
  Cluster.run c;
  Alcotest.(check bool)
    "degradation reported" true
    (Node.storage_degraded_flushes (Cluster.node c 0) >= 3);
  Alcotest.(check int) "no delivery dropped" 7 (total c 0);
  ignore (certify c : Harness.Oracle.report)

let test_long_partition_minority_logging () =
  (* P0 alone on one side of a dropping cut for 300 time units — an order
     of magnitude beyond any timer period — while clients keep it busy:
     the minority logs locally throughout, and after healing the
     retransmission timer reconciles both sides with no orphan escaping
     the oracle. *)
  let timing =
    { Config.default_timing with retransmit_interval = Some 40. }
  in
  let plan =
    {
      Harness.Netmodel.benign with
      partitions =
        [
          {
            Harness.Netmodel.group = [ 0 ];
            from_ = 50.;
            until = 350.;
            mode = Harness.Netmodel.Drop_packets;
          };
        ];
    }
  in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing ~n:3 ~k:2 ())
      ~app:Counter.app ~horizon:1200. ~fault_plan:plan ()
  in
  for i = 1 to 4 do
    Cluster.inject_at c ~time:(float_of_int i) ~dst:(i mod 3) (Counter.Add 1)
  done;
  (* Minority keeps logging mid-partition; the majority does too. *)
  for i = 0 to 4 do
    let t = 80. +. (40. *. float_of_int i) in
    Cluster.inject_at c ~time:t ~dst:0 (Counter.Add 1);
    Cluster.inject_at c ~time:(t +. 5.) ~dst:1 (Counter.Forward { dst = 2; amount = 1 })
  done;
  Cluster.run c;
  let faults = (Cluster.stats c).net_faults in
  Alcotest.(check bool)
    "the cut actually dropped traffic" true
    (faults.Harness.Netmodel.partition_dropped > 0);
  Alcotest.(check int) "minority delivered everything it was sent" 6 (total c 0);
  Alcotest.(check int) "majority side reconciled" 6 (total c 2);
  ignore (certify c : Harness.Oracle.report)

(* ------------------------------------------------------------------ *)
(* Driver-level Join/Retire handshake                                  *)

let test_handshake_widens_and_adopts () =
  let d = D.make (Util.counter_config ~n:2 ~k:2 ()) Counter.app in
  Alcotest.(check int) "launch width" 2 (Node.membership_n d.D.node);
  (* A Join from a process that counts itself as the 4th member widens
     the local view and adopts its current interval as stable. *)
  let e3 = Util.e ~inc:0 ~sii:1 in
  D.packet d (Wire.Join { from_ = 3; n = 4; current = e3 });
  Alcotest.(check int) "widened to the joiner's view" 4
    (Node.membership_n d.D.node);
  (* The handshake replies with a Notice handing over local stability. *)
  let notices =
    List.filter
      (function
        | Recovery.Node.Unicast { dst = 3; packet = Wire.Notice _; _ } -> true
        | _ -> false)
      (D.actions d)
  in
  Alcotest.(check int) "stability handed to the joiner" 1 (List.length notices);
  (* Retire records the frontier; a later Join under the same pid clears
     it (rejoin-after-retire). *)
  let upto = Util.e ~inc:1 ~sii:7 in
  D.packet d (Wire.Retire { from_ = 1; upto });
  Alcotest.(check bool) "retiree marked" true (Node.is_retired d.D.node 1);
  Alcotest.(check (option Util.entry))
    "frontier recorded" (Some upto)
    (Node.retired_frontier d.D.node 1);
  D.packet d (Wire.Join { from_ = 1; n = 2; current = upto });
  Alcotest.(check bool) "rejoin clears retirement" false
    (Node.is_retired d.D.node 1)

(* ------------------------------------------------------------------ *)
(* QCheck law: resize preserves orphan verdicts                        *)

(* The orphan verdict of Check_orphan is per-slot: a vector [v] is
   orphaned by announcement tables [iet] iff some non-NULL entry [(j, e)]
   has [Entry_set.orphans iet.(j) e].  [grow] adds only NULL slots and
   [shrink] removes only NULL slots, so the verdict must be identical
   against any table extension. *)
let gen_resize_case =
  QCheck2.Gen.(
    let entry = Util.gen_entry in
    triple
      (* width and per-slot optional entries *)
      (int_range 1 6 >>= fun n ->
       list_repeat n (opt entry) >|= fun slots -> (n, slots))
      (* announcement tables: per-slot entry lists (endings) *)
      (list_size (int_range 0 8) (pair (int_bound 9) entry))
      (int_range 0 4) (* extra width *))

let orphaned v iet_n iet =
  List.exists
    (fun (j, e) -> j < iet_n && Entry_set.orphans iet.(j) e)
    (Dep_vector.non_null v)

let law_resize_preserves_verdicts =
  Util.qtest ~count:300 "grow/shrink preserve orphan verdicts"
    gen_resize_case
    (fun ((n, slots), anns, extra) ->
      let v = Dep_vector.create ~n in
      List.iteri (fun j s -> Dep_vector.set v j s) slots;
      let wide = n + extra in
      let iet = Array.make wide Entry_set.empty in
      List.iter
        (fun (j, e) ->
          let j = j mod wide in
          iet.(j) <- Entry_set.insert iet.(j) e)
        anns;
      let verdict_before = orphaned v n iet in
      (* Growth: same verdict against the same tables, now consulted at
         full width. *)
      let g = Dep_vector.grow v ~n:wide in
      let verdict_grown = orphaned g wide iet in
      (* Shrink back down to the smallest width covering the non-NULL
         entries: only NULL slots are dropped, verdict unchanged. *)
      let live_width =
        List.fold_left
          (fun acc (j, _) -> Stdlib.max acc (j + 1))
          1 (Dep_vector.non_null v)
      in
      let s = Dep_vector.shrink g ~n:live_width in
      let verdict_shrunk = orphaned s live_width iet in
      Dep_vector.non_null g = Dep_vector.non_null v
      && Dep_vector.non_null s = Dep_vector.non_null v
      && verdict_grown = verdict_before
      && verdict_shrunk = verdict_before)

(* ------------------------------------------------------------------ *)
(* Part_ckpt decode hardening                                          *)

module App = App_model.Kvstore_app
module Codec = Durable.Codec

let kv_config () =
  Config.k_optimistic ~timing:Util.quiet_timing ~n:1 ~k:0 ()

let key_of i = Fmt.str "fz-%d" i

(* Build a node over [dir] with a replayable log and one Part_ckpt per
   dirty partition, then crash it.  Returns the expected per-partition
   digests (from an undamaged in-memory twin fed the same ops). *)
let build_store dir ops =
  let d = D.make ~store_dir:dir (kv_config ()) App.app in
  let twin = D.make (kv_config ()) App.app in
  List.iteri
    (fun i (ki, v) ->
      D.inject d ~seq:(i + 1) (App.Put { key = key_of ki; value = v });
      D.inject twin ~seq:(i + 1) (App.Put { key = key_of ki; value = v }))
    ops;
  D.flush d;
  D.flush twin;
  let rec snap n =
    if n > 0 then begin
      let did, _, _ = Node.partition_checkpoint d.D.node ~now:500. in
      if did then snap (n - 1)
    end
  in
  snap App.parts;
  D.crash d;
  D.crash twin;
  ignore (Node.restart twin.D.node ~now:1000. : _ list * _);
  (d, Array.init App.parts (Node.partition_digest twin.D.node))

let check_recovered_digests ~msg node expected =
  Array.iteri
    (fun p want ->
      Alcotest.(check (option int))
        (Fmt.str "%s: partition %d digest" msg p)
        want (Node.partition_digest node p))
    expected

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Random single-byte damage anywhere in the synchronous area (where the
   Part_ckpt records live): a restart over the damaged store must never
   raise, and must recover exactly the reference state — a damaged
   snapshot is dropped and its partition falls back to replaying the
   intact log, never silently accepted. *)
let gen_fuzz_case =
  QCheck2.Gen.(
    triple
      (list_size (int_range 4 24) (pair (int_bound 15) (int_bound 99)))
      (int_bound 100_000) (int_range 1 3))

let law_sync_damage_never_crashes =
  Util.qtest ~count:40 "Part_ckpt byte damage: no crash, no silent acceptance"
    gen_fuzz_case
    (fun (ops, at, flips) ->
      let dir = Durable.Temp.fresh_dir ~prefix:"churn-fuzz" () in
      Fun.protect
        ~finally:(fun () -> Durable.Temp.rm_rf dir)
        (fun () ->
          let d, expected = build_store dir ops in
          let sync = Filename.concat dir "sync.dat" in
          let contents = read_file sync in
          let len = String.length contents in
          if len > 0 then begin
            let b = Bytes.of_string contents in
            for i = 0 to flips - 1 do
              let off = (at + (31 * i)) mod len in
              Bytes.set b off
                (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (i mod 8))))
            done;
            write_file sync (Bytes.to_string b)
          end;
          (* The store handle is dead (crash closed it); recover over the
             damaged directory with a fresh node, exactly as a successor
             incarnation would. *)
          let d' = D.make ~store_dir:dir (kv_config ()) App.app in
          ignore (Node.restart d'.D.node ~now:1000. : _ list * _);
          check_recovered_digests ~msg:"fuzz" d'.D.node expected;
          ignore d;
          true))

(* Surgical inner damage: rewrite the sync area so every outer frame is
   valid (fresh CRCs) but one Part_ckpt's [pc_payload] seal is broken.
   The store-level open accepts the record; the node's unseal witness must
   reject the payload, drop the slot, count it, and fall back to replay —
   the exact no-silent-acceptance path of the decode hardening. *)
let test_inner_seal_damage_dropped () =
  let ops = List.init 12 (fun i -> (i, 10 + i)) in
  let dir = Durable.Temp.fresh_dir ~prefix:"churn-inner" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf dir)
    (fun () ->
      let d, expected = build_store dir ops in
      let sync = Filename.concat dir "sync.dat" in
      let scanned = Codec.scan (read_file sync) in
      Alcotest.(check bool) "sync area scans clean" true
        (scanned.Codec.tail = Codec.Clean);
      let damaged = ref 0 in
      let buf = Buffer.create 4096 in
      List.iter
        (fun (kind, payload) ->
          let payload =
            (* Only announcement-kind records ('A') hold marshalled
               [Wire.sync_record] values; the length/incarnation/base
               witnesses are marshalled ints, and reading one at a
               block-only variant type is memory-unsafe.  Re-marshal the
               first Part_ckpt with a corrupted inner payload, leaving
               both outer layers valid. *)
            if !damaged > 0 || kind <> Char.code 'A' then payload
            else
              match Codec.unseal payload with
              | Error _ -> payload
              | Ok bytes -> (
                match (Marshal.from_string bytes 0 : Wire.sync_record) with
                | Wire.Part_ckpt { pc_part; pc_pos; pc_payload } ->
                  incr damaged;
                  let b = Bytes.of_string pc_payload in
                  let off = Bytes.length b - 1 in
                  Bytes.set b off
                    (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
                  Codec.seal
                    (Marshal.to_string
                       (Wire.Part_ckpt
                          {
                            pc_part;
                            pc_pos;
                            pc_payload = Bytes.to_string b;
                          })
                       [ Marshal.Closures ])
                | _ -> payload
                | exception _ -> payload)
          in
          Codec.encode_into buf ~kind payload)
        scanned.Codec.records;
      Alcotest.(check int) "one Part_ckpt payload damaged" 1 !damaged;
      write_file sync (Buffer.contents buf);
      let d' = D.make ~store_dir:dir (kv_config ()) App.app in
      (* The partitioned restart is the path that consults Part_ckpt
         snapshots (the serial [restart] replays the whole log and never
         reads them), so it is the one that must witness the seal. *)
      ignore (Node.restart_begin d'.D.node ~now:1000. : _ list * _);
      let fuel = ref 10_000 in
      while Node.recovery_active d'.D.node do
        decr fuel;
        if !fuel = 0 then Alcotest.fail "replay made no progress";
        ignore
          (Node.replay_step d'.D.node ~now:1001. ~budget:8 ()
            : int * _ list * _)
      done;
      Alcotest.(check bool)
        "drop reported, not silent" true
        (Util.metric d'.D.node "part_ckpt_dropped" >= 1);
      check_recovered_digests ~msg:"inner" d'.D.node expected;
      ignore d)

let suite =
  [
    Alcotest.test_case "join under load widens and certifies" `Quick
      test_join_under_load;
    Alcotest.test_case "retire then rejoin under the same identity" `Quick
      test_retire_then_rejoin;
    Alcotest.test_case "rolling restart loses nothing" `Quick
      test_rolling_restart;
    Alcotest.test_case "disk-full brownout degrades gracefully" `Quick
      test_disk_full_brownout;
    Alcotest.test_case "long partition with minority logging" `Quick
      test_long_partition_minority_logging;
    Alcotest.test_case "Join/Retire handshake widens, adopts, un-retires"
      `Quick test_handshake_widens_and_adopts;
    law_resize_preserves_verdicts;
    law_sync_damage_never_crashes;
    Alcotest.test_case "damaged Part_ckpt seal is dropped and counted" `Quick
      test_inner_seal_damage_dropped;
  ]
