(** A table-driven application for scripted scenarios.

    Messages are string labels; a {e plan} maps (process, label) to the
    effects the process performs when it delivers that label.  Labels with no
    plan entry are inert (useful as filler deliveries that only advance the
    state-interval index).  The Figure 1 reproduction is built on this app:
    the plan encodes exactly the message chains of the paper's example. *)

type msg = string

type state = { pid : int; delivered : string list (* newest first *) }

type plan = (int * string, msg App_intf.effect list) Hashtbl.t

let make_plan bindings =
  let plan : plan = Hashtbl.create 16 in
  List.iter
    (fun (pid, label, effects) ->
      if Hashtbl.mem plan (pid, label) then
        invalid_arg
          (Fmt.str "Script_app.make_plan: duplicate entry for (%d, %s)" pid label);
      Hashtbl.add plan (pid, label) effects)
    bindings;
  plan

(* Labels are strings; they cross the network verbatim. *)
let wire : msg App_intf.wire_format = App_intf.string_wire_format

let app plan : (state, msg) App_intf.t =
  {
    name = "script";
    init = (fun ~pid ~n:_ -> { pid; delivered = [] });
    handle =
      (fun ~pid ~n:_ state ~src:_ label ->
        let state = { state with delivered = label :: state.delivered } in
        let effects =
          match Hashtbl.find_opt plan (pid, label) with
          | None -> []
          | Some effects -> effects
        in
        (state, effects));
    digest =
      (fun s ->
        List.fold_left
          (fun h label -> Hashing.mix h (Hashing.string label))
          (Hashing.int s.pid) s.delivered);
    partitioning = None;
  }
