(* The threaded actor runtime: the same protocol on real OS threads.

   Thread scheduling makes these runs nondeterministic, so assertions are
   about end states and the offline oracle, not about traces. *)

module Rt = Runtime.Actor_runtime
module Node = Recovery.Node
module Config = Recovery.Config
module Counter = App_model.Counter_app
module Bank = App_model.Bank_app

(* Fast wall-clock timing: 1 abstract unit = 1 ms. *)
let timing =
  {
    Config.default_timing with
    flush_interval = Some 10.;
    checkpoint_interval = Some 50.;
    notice_interval = Some 8.;
    restart_delay = 20.;
  }

let test_basic_flow () =
  let config = Config.k_optimistic ~timing ~n:4 ~k:2 () in
  let rt = Rt.create ~config ~app:Counter.app () in
  for i = 1 to 10 do
    Rt.inject rt ~dst:(i mod 4) (Counter.Add i)
  done;
  Rt.inject rt ~dst:0 (Counter.Forward { dst = 3; amount = 100 });
  let done_ =
    Rt.await rt (fun () ->
        Rt.with_node rt 3 (fun nd ->
            let st : Counter.state = Node.app_state nd in
            st.total >= 100)
        && Rt.idle rt)
  in
  Rt.shutdown rt;
  Alcotest.(check bool) "forwarded amount arrived" true done_;
  let total =
    List.fold_left
      (fun acc pid ->
        acc + (Rt.with_node rt pid (fun nd -> (Node.app_state nd : Counter.state).total)))
      0 [ 0; 1; 2; 3 ]
  in
  (* 1..10 summed, +100 once at P0 (forward adds locally) +100 at P3 *)
  Alcotest.(check int) "all work applied exactly once" (55 + 200) total

let test_crash_recovery_threads () =
  let config = Config.k_optimistic ~timing ~n:4 ~k:2 () in
  let rt = Rt.create ~config ~app:Counter.app () in
  for i = 1 to 5 do
    Rt.inject rt ~dst:1 (Counter.Add i)
  done;
  (* Let some work land, then crash P1 mid-stream. *)
  ignore (Rt.await rt ~timeout:5. (fun () ->
      Rt.with_node rt 1 (fun nd -> (Node.app_state nd : Counter.state).handled >= 2)));
  Rt.crash rt ~pid:1;
  for i = 6 to 10 do
    Rt.inject rt ~dst:1 (Counter.Add i)
  done;
  let recovered =
    Rt.await rt ~timeout:15. (fun () ->
        Rt.with_node rt 1 (fun nd ->
            Node.is_up nd && (Node.app_state nd : Counter.state).total = 55))
  in
  Rt.shutdown rt;
  Alcotest.(check bool) "all ten additions survive the crash" true recovered;
  Alcotest.(check int) "restart happened" 1
    (Rt.with_node rt 1 (fun nd -> Util.metric nd "restarts"))

let test_kill_respawn_from_disk () =
  (* The acceptance case for the durable subsystem on real threads: a node
     dies as a *process* (handle and store descriptors discarded), a fresh
     handle is created over the same directory, and it recovers solely from
     what open-time recovery reads back from disk.  The merged trace of
     both incarnations must still pass the causality oracle. *)
  let root = Durable.Temp.fresh_dir ~prefix:"test-rt-kill" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf root)
    (fun () ->
      let n = 4 in
      let config = Config.k_optimistic ~timing ~n ~k:2 () in
      let rt = Rt.create ~config ~app:Counter.app ~store_root:root () in
      for i = 1 to 5 do
        Rt.inject rt ~dst:1 (Counter.Add i)
      done;
      ignore
        (Rt.await rt ~timeout:5. (fun () ->
             Rt.with_node rt 1 (fun nd ->
                 (Node.app_state nd : Counter.state).handled >= 5)));
      Rt.kill rt ~pid:1;
      for i = 6 to 10 do
        Rt.inject rt ~dst:1 (Counter.Add i)
      done;
      let recovered =
        Rt.await rt ~timeout:15. (fun () ->
            Rt.with_node rt 1 (fun nd ->
                Node.is_up nd && (Node.app_state nd : Counter.state).total = 55))
      in
      let disk_recovery_ok =
        Rt.with_node rt 1 (fun nd ->
            match Node.storage_report nd with
            | Some r ->
              (not r.Storage.Stable_store.fresh)
              && not (Storage.Stable_store.report_damaged r)
            | None -> false)
      in
      ignore (Rt.await rt ~timeout:10. (fun () -> Rt.idle rt));
      Thread.delay 0.1;
      Rt.shutdown rt;
      Alcotest.(check bool) "all ten additions survive the process death" true
        recovered;
      Alcotest.(check bool) "respawned handle recovered from pre-existing files"
        true disk_recovery_ok;
      let report = Harness.Oracle.check ~k:2 ~n (Rt.trace rt) in
      if not (Harness.Oracle.ok report) then
        Alcotest.failf "oracle on merged kill/respawn trace: %a"
          Harness.Oracle.pp_report report)

let test_money_conserved_on_threads () =
  let n = 4 in
  let config = Config.k_optimistic ~timing ~n ~k:2 () in
  let rt = Rt.create ~config ~app:Bank.app () in
  let deposited = ref 0 in
  for i = 1 to 12 do
    deposited := !deposited + (10 * i);
    Rt.inject rt ~dst:(i mod n) (Bank.Deposit { account = i; amount = 10 * i })
  done;
  for i = 1 to 30 do
    Rt.inject rt ~dst:(i mod n)
      (Bank.Transfer
         {
           from_account = i mod 12;
           to_shard = (i * 7) mod n;
           to_account = (i * 3) mod 12;
           amount = 5;
         })
  done;
  Rt.crash rt ~pid:2;
  let conserved () =
    List.fold_left
      (fun acc pid -> acc + Rt.with_node rt pid (fun nd -> Bank.total (Node.app_state nd)))
      0
      (List.init n Fun.id)
    = !deposited
  in
  let settled = Rt.await rt ~timeout:20. (fun () -> Rt.idle rt && conserved ()) in
  Rt.shutdown rt;
  Alcotest.(check bool) "money conserved on real threads" true settled

let test_oracle_on_threaded_trace () =
  let n = 4 in
  let config = Config.k_optimistic ~timing ~n ~k:2 () in
  let rt = Rt.create ~config ~app:Counter.app () in
  for i = 1 to 8 do
    Rt.inject rt ~dst:(i mod n) (Counter.Forward { dst = (i + 1) mod n; amount = i })
  done;
  Rt.crash rt ~pid:0;
  ignore (Rt.await rt ~timeout:15. (fun () -> Rt.idle rt));
  Thread.delay 0.1;
  Rt.shutdown rt;
  (* The big lock serializes handler execution, so the shared trace is a
     valid linearization and the oracle applies as-is. *)
  let report = Harness.Oracle.check ~k:2 ~n (Rt.trace rt) in
  if not (Harness.Oracle.ok report) then
    Alcotest.failf "oracle on threaded run: %a" Harness.Oracle.pp_report report

let test_lifo_scheduler_still_correct () =
  (* A perverse mailbox service order (always newest message first) must
     not break the protocol: delivery conditions and the send gate are
     order-independent, and the oracle certifies the trace. *)
  let n = 3 in
  let config = Config.k_optimistic ~timing ~n ~k:1 () in
  let lifo = Sim.Scheduler.of_fun (fun ~n_enabled -> n_enabled - 1) in
  let rt = Rt.create ~config ~app:Counter.app ~scheduler:lifo () in
  for i = 1 to 10 do
    Rt.inject rt ~dst:(i mod n) (Counter.Forward { dst = (i + 1) mod n; amount = i })
  done;
  ignore (Rt.await rt ~timeout:15. (fun () -> Rt.idle rt));
  Thread.delay 0.1;
  Rt.shutdown rt;
  let report = Harness.Oracle.check ~k:1 ~n (Rt.trace rt) in
  if not (Harness.Oracle.ok report) then
    Alcotest.failf "oracle under LIFO scheduling: %a" Harness.Oracle.pp_report report

let test_shutdown_idempotent () =
  let config = Config.k_optimistic ~timing ~n:2 ~k:1 () in
  let rt = Rt.create ~config ~app:Counter.app () in
  Rt.shutdown rt;
  Rt.shutdown rt

(* kill requires the durable store: losing the node handle of an in-memory
   store would lose the whole process history, so it must be refused. *)
let test_kill_requires_store_root () =
  let config = Config.k_optimistic ~timing ~n:2 ~k:1 () in
  let rt = Rt.create ~config ~app:Counter.app () in
  Alcotest.check_raises "kill without ~store_root"
    (Invalid_argument "Actor_runtime.kill: runtime was created without ~store_root")
    (fun () -> Rt.kill rt ~pid:0);
  Rt.shutdown rt

let suite =
  [
    Alcotest.test_case "basic flow" `Slow test_basic_flow;
    Alcotest.test_case "crash recovery on threads" `Slow test_crash_recovery_threads;
    Alcotest.test_case "kill + respawn from disk" `Slow test_kill_respawn_from_disk;
    Alcotest.test_case "money conserved on threads" `Slow test_money_conserved_on_threads;
    Alcotest.test_case "oracle on a threaded trace" `Slow test_oracle_on_threaded_trace;
    Alcotest.test_case "LIFO mailbox scheduling stays correct" `Slow
      test_lifo_scheduler_still_correct;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "kill requires a store root" `Quick
      test_kill_requires_store_root;
  ]
