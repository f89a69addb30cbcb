(** Minimal PWD application: a per-process accumulator.

    Used heavily by unit tests: its state digest is the state itself, so
    replay divergence is immediately visible. *)

type msg =
  | Add of int  (** add to the local accumulator *)
  | Forward of { dst : int; amount : int }
      (** add locally, then pass [amount] along to [dst] *)
  | Report  (** output the current accumulator value *)

type state = { pid : int; total : int; handled : int }

let app : (state, msg) App_intf.t =
  {
    name = "counter";
    init = (fun ~pid ~n:_ -> { pid; total = 0; handled = 0 });
    handle =
      (fun ~pid:_ ~n:_ state ~src:_ msg ->
        let state = { state with handled = state.handled + 1 } in
        match msg with
        | Add v -> ({ state with total = state.total + v }, [])
        | Forward { dst; amount } ->
          ( { state with total = state.total + amount },
            [ App_intf.send dst (Add amount) ] )
        | Report ->
          (state, [ App_intf.output (Fmt.str "p%d total=%d" state.pid state.total) ]));
    digest = (fun s -> Hashing.mix (Hashing.pair s.pid s.total) s.handled);
    partitioning = None;
  }
