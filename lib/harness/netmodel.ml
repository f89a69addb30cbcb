type override = src:int -> dst:int -> packet_kind:string -> float option

(* --- Adversarial fault plan ----------------------------------------- *)

type partition_mode = Drop_packets | Queue_packets

type partition = {
  group : int list; (* one side; the other side is the complement *)
  from_ : float;
  until : float;
  mode : partition_mode;
}

type fault_plan = {
  loss : float;
  duplicate : float;
  reorder : float;
  reorder_spread : float;
  partitions : partition list;
}

let benign =
  { loss = 0.; duplicate = 0.; reorder = 0.; reorder_spread = 0.; partitions = [] }

let plan_is_benign p =
  p.loss <= 0. && p.duplicate <= 0. && p.reorder <= 0. && p.partitions = []

(* The fault series exist from creation (at 0); the per-kind packet
   counters appear with the first packet of their kind. *)
type meters = {
  piggyback_entries : Obs.Counter.t;
  lost : Obs.Counter.t;
  duplicated : Obs.Counter.t;
  reordered : Obs.Counter.t;
  partition_dropped : Obs.Counter.t;
  partition_queued : Obs.Counter.t;
}

let meters =
  Obs.Group.make (fun cells ->
      let c = Obs.Group.counter cells in
      {
        piggyback_entries = c "net_piggyback_entries_total";
        lost = c "net_lost_total";
        duplicated = c "net_duplicated_total";
        reordered = c "net_reordered_total";
        partition_dropped = c "net_partition_dropped_total";
        partition_queued = c "net_partition_queued_total";
      })

type t = {
  timing : Recovery.Config.timing;
  rng : Sim.Rng.t;
  fault_rng : Sim.Rng.t;
  plan : fault_plan;
  override : override option;
  mutable channel_last : float array array;
      (* last scheduled arrival per (src,dst); grows when membership does *)
  obs : Obs.Registry.t;
  m : meters;
  packets : (string, Obs.Counter.t) Hashtbl.t; (* kind -> net_packets_total{kind} *)
}

let create ~n ~timing ~rng ?fault_rng ?(plan = benign) ?override ~obs () =
  {
    timing;
    rng;
    (* The fault stream is separate from the timing stream so a benign plan
       leaves every jitter draw — and therefore every experiment table —
       bit-for-bit unchanged. *)
    fault_rng = (match fault_rng with Some r -> r | None -> Sim.Rng.create 0);
    plan;
    override;
    channel_last = Array.make_matrix (n + 1) (n + 1) 0.;
    obs;
    m = Obs.Registry.group obs meters;
    packets = Hashtbl.create 8;
  }

(* Widen the per-channel FIFO matrix when a joiner brings a pid the
   cluster was not created with.  New channels start at 0 (no previous
   arrival), exactly like the channels of the original membership. *)
let ensure_pid t pid =
  let size = Array.length t.channel_last in
  if pid + 1 >= size then begin
    let size' = pid + 2 in
    let fresh =
      Array.init size' (fun i ->
          let row = Array.make size' 0. in
          if i < size then Array.blit t.channel_last.(i) 0 row 0 size;
          row)
    in
    t.channel_last <- fresh
  end

let count_packet t kind =
  match Hashtbl.find_opt t.packets kind with
  | Some c -> Obs.Counter.incr c
  | None ->
    let c = Obs.Registry.counter t.obs ~labels:[ ("kind", kind) ] "net_packets_total" in
    Hashtbl.add t.packets kind c;
    Obs.Counter.incr c

let transit t ~now ~src ~dst ~kind ~entries =
  count_packet t kind;
  Obs.Counter.add t.m.piggyback_entries entries;
  let tm = t.timing in
  let delay =
    match t.override with
    | Some f -> (
      match f ~src ~dst ~packet_kind:kind with
      | Some d -> d
      | None ->
        tm.net_latency
        +. Sim.Rng.float t.rng (Stdlib.max 1e-9 tm.net_jitter)
        +. (float_of_int entries *. tm.per_entry_overhead))
    | None ->
      tm.net_latency
      +. Sim.Rng.float t.rng (Stdlib.max 1e-9 tm.net_jitter)
      +. (float_of_int entries *. tm.per_entry_overhead)
  in
  let arrival = now +. Stdlib.max 0. delay in
  if tm.fifo && src >= 0 && dst >= 0 then begin
    ensure_pid t (Stdlib.max src dst);
    let last = t.channel_last.(src).(dst) in
    let arrival = Stdlib.max arrival (last +. 1e-9) in
    t.channel_last.(src).(dst) <- arrival;
    arrival
  end
  else arrival

let partition_separates p ~src ~dst =
  let in_group pid = List.mem pid p.group in
  in_group src <> in_group dst

let active_partition t ~now ~src ~dst =
  if src < 0 || dst < 0 then None
  else
    List.find_opt
      (fun p -> now >= p.from_ && now < p.until && partition_separates p ~src ~dst)
      t.plan.partitions

(* Absolute arrival times for one packet handed to the network at [now]:
   [] if the wire eats it, two entries if it is duplicated.  The timing
   draw happens first and unconditionally (identical to [transit]), then
   each fault consumes the fault stream. *)
let arrivals t ~now ~src ~dst ~kind ~entries =
  let base = transit t ~now ~src ~dst ~kind ~entries in
  if plan_is_benign t.plan then [ base ]
  else
    let p = t.plan in
    match active_partition t ~now ~src ~dst with
    | Some part when part.mode = Drop_packets ->
      Obs.Counter.incr t.m.partition_dropped;
      []
    | (Some _ | None) as part ->
      if p.loss > 0. && Sim.Rng.bernoulli t.fault_rng ~p:p.loss then begin
        Obs.Counter.incr t.m.lost;
        []
      end
      else begin
        let arrival =
          match part with
          | Some q ->
            (* Queued at the partition boundary: delivered shortly after
               the partition heals, in a fault-stream-jittered order. *)
            Obs.Counter.incr t.m.partition_queued;
            Stdlib.max base (q.until +. Sim.Rng.float t.fault_rng 1.0)
          | None -> base
        in
        let arrival =
          if p.reorder > 0. && Sim.Rng.bernoulli t.fault_rng ~p:p.reorder then begin
            Obs.Counter.incr t.m.reordered;
            arrival +. Sim.Rng.float t.fault_rng (Stdlib.max 1e-9 p.reorder_spread)
          end
          else arrival
        in
        if p.duplicate > 0. && Sim.Rng.bernoulli t.fault_rng ~p:p.duplicate then begin
          Obs.Counter.incr t.m.duplicated;
          let echo =
            arrival +. Sim.Rng.float t.fault_rng (Stdlib.max 1e-9 t.timing.net_jitter)
          in
          [ arrival; echo ]
        end
        else [ arrival ]
      end
