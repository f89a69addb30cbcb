(** Uniform-chatter workload application.

    Tokens hop between processes; the next destination and the occasional
    fan-out or die-out are derived by hashing the local state with the token
    salt, so the communication pattern looks random but is a deterministic
    function of delivered messages — as the PWD model requires.  The hop
    budget bounds total load.  This is the default workload for the
    overhead/recovery experiments because it creates dense, irregular
    cross-process dependency chains. *)

type msg = Token of { hops_left : int; salt : int }

type state = { pid : int; seen : int; mix : int }

(* Out of 16 hash buckets: 2 die out, 2 fork into two tokens, 12 continue as
   one token — expected branching factor 1, so load stays level. *)
let branching h = match h mod 16 with 0 | 1 -> 0 | 2 | 3 -> 2 | _ -> 1

let next_dst ~n ~pid h i =
  if n = 1 then pid
  else begin
    let d = Hashing.in_range (Hashing.mix h i) ~bound:(n - 1) in
    if d >= pid then d + 1 else d
  end

let app : (state, msg) App_intf.t =
  {
    name = "chatter";
    init = (fun ~pid ~n:_ -> { pid; seen = 0; mix = 0 });
    handle =
      (fun ~pid ~n state ~src:_ (Token { hops_left; salt }) ->
        let h = Hashing.mix (Hashing.mix state.mix salt) (state.seen + 1) in
        let state = { state with seen = state.seen + 1; mix = h } in
        if hops_left <= 0 then
          (state, [ App_intf.output (Fmt.str "p%d token retired salt=%d" pid salt) ])
        else begin
          let sends =
            List.init (branching h) (fun i ->
                App_intf.send (next_dst ~n ~pid h i)
                  (Token { hops_left = hops_left - 1; salt = Hashing.mix salt i }))
          in
          (state, sends)
        end);
    digest = (fun s -> Hashing.mix (Hashing.pair s.pid s.seen) s.mix);
    partitioning = None;
  }
