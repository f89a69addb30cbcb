(** A staged computation pipeline.

    Jobs enter at stage 0 and traverse processes left to right; each stage
    applies a deterministic transform; the last stage emits the result as an
    output.  This is the "long-running scientific application" shape from
    the paper's motivation: a failure in the middle of the pipe can orphan
    all downstream work, which is exactly what recovery-efficiency
    experiments measure. *)

type msg = Job of { id : int; stage : int; payload : int }

type state = { pid : int; processed : int; acc : int }

let transform ~pid payload = Hashing.mix (Hashing.int payload) (pid + 1)

let app : (state, msg) App_intf.t =
  {
    name = "pipeline";
    init = (fun ~pid ~n:_ -> { pid; processed = 0; acc = 0 });
    handle =
      (fun ~pid ~n state ~src:_ (Job { id; stage; payload }) ->
        let payload = transform ~pid payload in
        let state =
          { state with processed = state.processed + 1; acc = Hashing.mix state.acc payload }
        in
        if stage >= n - 1 then
          (state, [ App_intf.output (Fmt.str "job %d done: %d" id payload) ])
        else
          (state, [ App_intf.send (pid + 1) (Job { id; stage = stage + 1; payload }) ]));
    digest = (fun s -> Hashing.mix (Hashing.pair s.pid s.processed) s.acc);
    partitioning = None;
  }
