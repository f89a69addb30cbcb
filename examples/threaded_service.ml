(* The same protocol outside the simulator: a bank service on real OS
   threads, with a real crash-and-recover cycle, finishing with a money
   audit and the causality oracle's verdict on the merged trace.

     dune exec examples/threaded_service.exe
*)

module Rt = Runtime.Actor_runtime
module Node = Recovery.Node
module Config = Recovery.Config
module Bank = App_model.Bank_app

let count nd name = Obs.Counter.value (Obs.Registry.counter (Node.obs nd) name)

let () =
  let n = 4 in
  let timing =
    {
      Config.default_timing with
      flush_interval = Some 10.;
      checkpoint_interval = Some 60.;
      notice_interval = Some 8.;
      restart_delay = 25.;
    }
  in
  let config = Config.k_optimistic ~timing ~n ~k:2 () in
  let rt = Rt.create ~config ~app:Bank.app () in

  let deposited = ref 0 in
  for i = 1 to 16 do
    let amount = 25 * i in
    deposited := !deposited + amount;
    Rt.inject rt ~dst:(i mod n) (Bank.Deposit { account = i; amount })
  done;
  for i = 1 to 40 do
    Rt.inject rt ~dst:(i mod n)
      (Bank.Transfer
         {
           from_account = 1 + (i mod 16);
           to_shard = (i * 5) mod n;
           to_account = 1 + ((i * 3) mod 16);
           amount = 7;
         })
  done;
  Fmt.pr "injected %d units across %d shards; crashing shard 2 mid-stream...@."
    !deposited n;
  Rt.crash rt ~pid:2;

  let total () =
    List.fold_left
      (fun acc pid -> acc + Rt.with_node rt pid (fun nd -> Bank.total (Node.app_state nd)))
      0 (List.init n Fun.id)
  in
  let settled = Rt.await rt ~timeout:20. (fun () -> Rt.idle rt && total () = !deposited) in
  Rt.shutdown rt;

  List.iter
    (fun pid ->
      Rt.with_node rt pid (fun nd ->
          Fmt.pr "shard %d: balance %6d | restarts %d | replayed %d@." pid
            (Bank.total (Node.app_state nd))
            (count nd "restarts_total") (count nd "replayed_total")))
    (List.init n Fun.id);
  Fmt.pr "deposited %d, final global balance %d -> %s@." !deposited (total ())
    (if settled then "money conserved through the crash" else "NOT SETTLED");

  let report = Harness.Oracle.check ~k:2 ~n (Rt.trace rt) in
  Fmt.pr "%a@." Harness.Oracle.pp_report report;
  if (not settled) || not (Harness.Oracle.ok report) then exit 1
