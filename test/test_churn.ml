(* Membership churn and degraded modes, simulator side:

   - scripted cluster scenarios: join under load, retire + rejoin,
     rolling restart, disk-full brownout, and a long partition with the
     minority still logging — every run oracle-certified at the final
     membership width with risk at most K;
   - Driver-level Join/Retire handshake: vector widening, frontier
     adoption, un-retiring on rejoin;
   - QCheck law: identity-preserving vector resize ([Dep_vector.grow] /
     [shrink]) preserves every orphan verdict;
   - partition checkpoint hardening: random byte damage to a partition
     checkpoint file never crashes a restart and never silently corrupts
     the recovered state (open drops the file and counts it), and a slice
     the application refuses to import is dropped and counted. *)

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
  (* Each crash comes two restart delays after the previous one, once the
     previous victim has fully recovered: a rolling upgrade. *)
  let gap = 2. *. (Cluster.config c).Config.timing.restart_delay in
  List.iter
    (fun pid -> Cluster.crash_at c ~time:(100. +. (gap *. float_of_int pid)) ~pid)
    [ 0; 1; 2; 3 ];
  (* Load keeps flowing while the wave rolls through. *)
  for i = 0 to 3 do
    Cluster.inject_at c ~time:(120. +. (40. *. float_of_int i)) ~dst:i (Counter.Add 1)
  done;
  Cluster.run c;
  Alcotest.(check int) "all four restarted" 4 (Util.total (Cluster.stats c) "restarts");
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
    (Util.metric (Cluster.node c 0) "storage_degraded_flushes" >= 3);
  Alcotest.(check int) "no delivery dropped" 7 (total c 0);
  ignore (certify c : Harness.Oracle.report)

(* A joiner's config counts itself, so its respawn must be built from
   that config, not the launch one (which has no slot for it). *)
let test_joiner_respawns () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:600. () in
  Cluster.join_at c ~time:50. ~pid:3;
  Cluster.inject_at c ~time:80. ~dst:3 (Counter.Add 5);
  Cluster.kill_at c ~time:120. ~pid:3 ();
  Cluster.inject_at c ~time:200. ~dst:3 (Counter.Add 7);
  Cluster.inject_at c ~time:210. ~dst:0 (Counter.Forward { dst = 3; amount = 2 });
  Cluster.run c;
  Alcotest.(check int) "joiner respawned" 1 (Util.total (Cluster.stats c) "restarts");
  Alcotest.(check int) "joiner delivers after its respawn" 14 (total c 3);
  ignore (certify c : Harness.Oracle.report)

(* A death loses what only the dead process knew, as a daemon's does:
   retirements it heard (nothing logs them) and a brownout armed on its
   store (the successor opens the files afresh). *)
let test_death_forgets_retirements () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:600. () in
  Cluster.retire_at c ~time:20. ~pid:2;
  Cluster.run_until c 50.;
  Alcotest.(check bool) "retirement heard" true (Node.is_retired (Cluster.node c 0) 2);
  Cluster.crash_at c ~time:60. ~pid:0;
  Cluster.inject_at c ~time:200. ~dst:0 (Counter.Add 1);
  Cluster.run c;
  Alcotest.(check bool) "up again" true (Node.is_up (Cluster.node c 0));
  Alcotest.(check bool) "retirement forgotten" false (Node.is_retired (Cluster.node c 0) 2);
  Alcotest.(check int) "delivers after the restart" 1 (total c 0);
  ignore (certify c : Harness.Oracle.report)

let test_death_ends_brownout () =
  (* No checkpoints: their forced flushes are exempt from the brownout. *)
  let timing = { Config.default_timing with checkpoint_interval = None } in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing ~n:3 ~k:2 ())
      ~app:Counter.app ~horizon:900. ()
  in
  Cluster.arm_disk_full_at c ~time:10. ~pid:0 ~rounds:1_000;
  Cluster.crash_at c ~time:20. ~pid:0;
  for i = 1 to 20 do
    Cluster.inject_at c ~time:(100. +. float_of_int i) ~dst:0 (Counter.Add 1)
  done;
  Cluster.run c;
  Alcotest.(check int) "every put stable" 20 (Node.stable_log_length (Cluster.node c 0));
  Alcotest.(check int) "every put delivered" 20 (total c 0);
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
  Alcotest.(check bool)
    "the cut actually dropped traffic" true
    (Util.total (Cluster.stats c) "net_partition_dropped" > 0);
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
(* Partition checkpoint hardening                                      *)

module App = App_model.Kvstore_app

let kv_config () =
  Config.k_optimistic ~timing:Util.quiet_timing ~n:1 ~k:0 ()

let key_of i = Fmt.str "fz-%d" i

(* Build a node over [dir] with a replayable log and one partition
   checkpoint file per dirty partition, then crash it.  Returns the
   expected per-partition digests (from an undamaged in-memory twin fed
   the same ops, which runs the application unpartitioned, so its restart
   replays serially inside the log walk). *)
let build_store dir ops =
  let d = D.make ~store_dir:dir (kv_config ()) App.app in
  let twin = D.make (kv_config ()) { App.app with partitioning = None } in
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
  D.halt d;
  D.halt twin;
  D.restart ~now:1000. twin;
  Array.init App.parts (fun p ->
      Some (App.partitioning.part_digest (Node.app_state twin.D.node) p))

let part_files dir =
  List.sort compare
    (List.filter
       (fun name -> String.starts_with ~prefix:"part-" name)
       (Array.to_list (Sys.readdir dir)))

(* A successor over [dir] restarts the partitioned way, the one that reads
   partition checkpoints, and replays to the end. *)
let recover dir =
  let d = D.make ~store_dir:dir (kv_config ()) App.app in
  ignore (Node.restart_begin d.D.node ~now:1000. : _ list * _);
  let fuel = ref 10_000 in
  while Node.recovery_active d.D.node do
    decr fuel;
    if !fuel = 0 then Alcotest.fail "replay made no progress";
    ignore (Node.replay_step d.D.node ~now:1001. ~budget:8 () : int * _ list * _)
  done;
  d

let check_recovered_digests ~msg node expected =
  Array.iteri
    (fun p want ->
      Alcotest.(check (option int))
        (Fmt.str "%s: partition %d digest" msg p)
        want (Node.partition_digest node p))
    expected

(* Random damage to one partition checkpoint file: a restart over the
   damaged store must never raise, open must drop the file and count it,
   and the restart must recover exactly the reference state — the
   partition falls back to replaying the intact log. *)
let gen_fuzz_case =
  QCheck2.Gen.(
    triple
      (list_size (int_range 4 24) (pair (int_bound 15) (int_bound 99)))
      (int_bound 100_000) (int_range 1 3))

let law_part_file_damage_never_crashes =
  Util.qtest ~count:40 "partition file byte damage: no crash, no silent acceptance"
    gen_fuzz_case
    (fun (ops, at, flips) ->
      let dir = Durable.Temp.fresh_dir ~prefix:"churn-fuzz" () in
      Fun.protect
        ~finally:(fun () -> Durable.Temp.rm_rf dir)
        (fun () ->
          let expected = build_store dir ops in
          let files = part_files dir in
          Alcotest.(check bool) "a partition file was written" true (files <> []);
          let path = Filename.concat dir (List.nth files (at mod List.length files)) in
          let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
          let len = Bytes.length b in
          for i = 0 to flips - 1 do
            let off = (at + (31 * i)) mod len in
            Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (i mod 8))))
          done;
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
          let d = recover dir in
          Alcotest.(check bool) "open counted the damaged file" true
            (Util.metric d.D.node "storage_checkpoints_dropped" >= 1);
          Alcotest.(check bool) "the damaged file is gone" false (Sys.file_exists path);
          check_recovered_digests ~msg:"fuzz" d.D.node expected;
          true))

(* A slice the application cannot import: one partition's file is
   replaced, through the store, by a whole and well-formed file whose
   slice is not a kvstore slice.  Open accepts the file; the import
   refuses the slice, and the restart drops it, counts it, and replays
   that partition from the log. *)
let test_refused_slice_dropped () =
  let ops = List.init 12 (fun i -> (i, 10 + i)) in
  let dir = Durable.Temp.fresh_dir ~prefix:"churn-refused" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf dir)
    (fun () ->
      let expected = build_store dir ops in
      let part =
        match part_files dir with
        | name :: _ -> int_of_string (List.nth (String.split_on_char '-' name) 1)
        | [] -> Alcotest.fail "no partition file written"
      in
      let store :
          (unit, unit, unit, string * unit list * unit list * unit list) Durable.Durable_store.t
          =
        Durable.Durable_store.open_ ~fs:Durable.Fs.unix ~dir ()
      in
      Durable.Durable_store.save_part_checkpoint store ~part ("not a kvstore slice", [], [], []);
      Durable.Durable_store.kill store;
      let d = recover dir in
      Alcotest.(check int) "open dropped nothing" 0
        (Util.metric d.D.node "storage_checkpoints_dropped");
      Alcotest.(check int) "the refused slice is counted" 1
        (Util.metric d.D.node "part_ckpt_dropped");
      check_recovered_digests ~msg:"refused" d.D.node expected)

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
    Alcotest.test_case "a joiner is respawned with its own config" `Quick
      test_joiner_respawns;
    Alcotest.test_case "death forgets the retirements it heard" `Quick
      test_death_forgets_retirements;
    Alcotest.test_case "death ends a disk-full brownout" `Quick test_death_ends_brownout;
    Alcotest.test_case "long partition with minority logging" `Quick
      test_long_partition_minority_logging;
    Alcotest.test_case "Join/Retire handshake widens, adopts, un-retires"
      `Quick test_handshake_widens_and_adopts;
    law_resize_preserves_verdicts;
    law_part_file_damage_never_crashes;
    Alcotest.test_case "a refused partition slice is dropped and counted" `Quick
      test_refused_slice_dropped;
  ]
