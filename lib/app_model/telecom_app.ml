(** A telecom-switch call-routing application.

    The paper motivates K-optimistic logging with "continuously-running
    service-providing applications" such as telecommunications systems: the
    service must answer quickly (low failure-free overhead) yet recover fast
    (small rollback scope).  Here each process is a switch; a call setup
    request routes through a deterministic chain of switches and the egress
    switch emits the "connected" output — an outside-world action that must
    never be revoked, i.e. the output-commit problem. *)

type msg =
  | Setup of { call_id : int; route : int list }
      (** Remaining switches the call must traverse. *)
  | Teardown of { call_id : int }

module Int_set = Set.Make (Int)

type state = { pid : int; active : Int_set.t; connected : int; torn_down : int }

(* A deterministic route of [hops] distinct switches starting after
   [ingress]. *)
let route ~n ~ingress ~call_id ~hops =
  let rec build current remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let step = 1 + Hashing.in_range (Hashing.pair call_id remaining) ~bound:(Stdlib.max 1 (n - 1)) in
      let next = (current + step) mod n in
      let next = if next = current then (next + 1) mod n else next in
      build next (remaining - 1) (next :: acc)
    end
  in
  build ingress hops []

let app : (state, msg) App_intf.t =
  {
    name = "telecom";
    init = (fun ~pid ~n:_ -> { pid; active = Int_set.empty; connected = 0; torn_down = 0 });
    handle =
      (fun ~pid ~n:_ state ~src:_ msg ->
        match msg with
        | Setup { call_id; route } -> begin
          let state = { state with active = Int_set.add call_id state.active } in
          match route with
          | [] ->
            ( { state with connected = state.connected + 1 },
              [ App_intf.output (Fmt.str "call %d connected at switch %d" call_id pid) ] )
          | next :: rest -> (state, [ App_intf.send next (Setup { call_id; route = rest }) ])
        end
        | Teardown { call_id } ->
          let state =
            {
              state with
              active = Int_set.remove call_id state.active;
              torn_down = state.torn_down + 1;
            }
          in
          (state, []));
    digest =
      (fun s ->
        Int_set.fold
          (fun call h -> Hashing.mix h call)
          s.active
          (Hashing.mix (Hashing.pair s.pid s.connected) s.torn_down));
    partitioning = None;
  }
