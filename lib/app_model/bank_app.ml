(** A bank with accounts sharded across processes.

    Transfers move money between processes in two legs: the debit happens at
    the source shard, then a credit message travels to the destination
    shard.  The invariant the recovery layer must preserve is {e conservation}:
    money withdrawn equals money deposited plus money demonstrably
    in flight.  A recovery bug that loses, duplicates or re-plays a credit
    breaks the global balance — which makes this app the sharpest
    end-to-end check in the suite: after any sequence of crashes and
    rollbacks, once the system quiesces, the sum of all balances must equal
    the initial total.

    Determinism note: amounts and routing are carried entirely by the
    messages, so replay reproduces every transfer exactly. *)

module Int_map = Map.Make (Int)

type msg =
  | Deposit of { account : int; amount : int }
      (** outside money entering the system (tracked by the harness) *)
  | Transfer of { from_account : int; to_shard : int; to_account : int; amount : int }
      (** debit locally, send the credit leg to [to_shard] *)
  | Credit of { account : int; amount : int }  (** second leg of a transfer *)
  | Audit  (** output this shard's total *)

type state = { pid : int; accounts : int Int_map.t; ops : int }

let balance state account =
  Option.value ~default:0 (Int_map.find_opt account state.accounts)

let total state = Int_map.fold (fun _ v acc -> acc + v) state.accounts 0

let adjust state account delta =
  {
    state with
    accounts = Int_map.add account (balance state account + delta) state.accounts;
    ops = state.ops + 1;
  }

let app : (state, msg) App_intf.t =
  {
    name = "bank";
    init = (fun ~pid ~n:_ -> { pid; accounts = Int_map.empty; ops = 0 });
    handle =
      (fun ~pid ~n:_ state ~src:_ msg ->
        match msg with
        | Deposit { account; amount } -> (adjust state account amount, [])
        | Transfer { from_account; to_shard; to_account; amount } ->
          (* Debit even into overdraft: the workload controls amounts, and
             allowing negatives keeps the conservation check linear. *)
          let state = adjust state from_account (-amount) in
          if to_shard = pid then (adjust state to_account amount, [])
          else (state, [ App_intf.send to_shard (Credit { account = to_account; amount }) ])
        | Credit { account; amount } -> (adjust state account amount, [])
        | Audit ->
          (state, [ App_intf.output (Fmt.str "shard %d total=%d" pid (total state)) ]));
    digest =
      (fun s ->
        Int_map.fold
          (fun account v h -> Hashing.mix (Hashing.mix h account) v)
          s.accounts
          (Hashing.pair s.pid s.ops));
    partitioning = None;
  }
