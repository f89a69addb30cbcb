(* Group-commit coordinator: concurrent callers that each need "everything
   I wrote so far is durable" coalesce onto one fsync.

   A durability round is prepare (under the coordinator's lock: move the
   pending work into its final, buffered on-disk position) followed by
   sync (outside the lock: the single fsync).  The lock is released during
   sync so new writers can keep appending while the disk works; their data
   lands in the next round.  Rounds are numbered: a caller with pending
   work needs the first round that starts after its call ([started + 1]),
   a caller whose work was already drained by an in-flight prepare only
   needs that round to finish, and a caller with nothing pending and no
   round in flight needs nothing at all. *)

type t = {
  mu : Mutex.t;
  done_ : Condition.t; (* a round completed, or the leader seat freed *)
  mutable started : int; (* rounds that have begun (prepare entered) *)
  mutable completed : int; (* rounds whose sync has returned *)
  mutable flushing : bool; (* a leader is between prepare and completion *)
  rounds : Obs.Counter.t; (* completed rounds, i.e. actual fsyncs *)
  coalesced : Obs.Counter.t; (* callers released by a round they did not lead *)
  fsync_seconds : Obs.Histogram.t; (* wall time of each sync () *)
}

(* A group, so a store opened per simulated process per explored schedule
   only allocates the cells; the registry indexes them when read. *)
let meters =
  Obs.Group.make (fun cells ->
      ( Obs.Group.counter cells "flush_rounds_total",
        Obs.Group.counter cells "flush_coalesced_total",
        Obs.Group.histogram cells "fsync_seconds" ))

let create ?obs () =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let rounds, coalesced, fsync_seconds = Obs.Registry.group obs meters in
  {
    mu = Mutex.create ();
    done_ = Condition.create ();
    started = 0;
    completed = 0;
    flushing = false;
    rounds;
    coalesced;
    fsync_seconds;
  }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Hold the lock with no round in flight: for operations that must not
   race a sync (truncation, compaction, kill, fault arming). *)
let exclusive t f =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      while t.flushing do
        Condition.wait t.done_ t.mu
      done;
      f ())

let force t ~pending ~prepare ~sync ?(commit = fun _ -> ()) ~default () =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      (* Reach [target]: loop leading or waiting until enough rounds have
         completed.  Only one leader runs at a time, and it completes the
         round it started, so rounds finish in order. *)
      let rec attain target acc ~led =
        if t.completed >= target then (acc, led)
        else if not t.flushing then begin
          t.flushing <- true;
          t.started <- t.started + 1;
          let round = t.started in
          let v = prepare () in
          Mutex.unlock t.mu;
          let finish_round ~ok =
            Mutex.lock t.mu;
            t.completed <- round;
            t.flushing <- false;
            Obs.Counter.incr t.rounds;
            Condition.broadcast t.done_;
            (* The post-durability hook runs under the lock, so waiters
               (who also need it) observe its effects, and a later round
               cannot overtake what it records. *)
            if ok then commit v
          in
          (* Only one leader is ever between prepare and completion, so
             the fsync histogram has a single writer. *)
          let sync_began = Unix.gettimeofday () in
          let observe_sync () =
            Obs.Histogram.observe t.fsync_seconds (Unix.gettimeofday () -. sync_began)
          in
          (match sync () with
          | () ->
            observe_sync ();
            finish_round ~ok:true
          | exception e ->
            (* Never leave the seat taken: waiters would hang forever. *)
            observe_sync ();
            finish_round ~ok:false;
            raise e);
          attain target v ~led:true
        end
        else begin
          Condition.wait t.done_ t.mu;
          attain target acc ~led
        end
      in
      if pending () then begin
        let v, led = attain (t.started + 1) default ~led:false in
        if not led then Obs.Counter.incr t.coalesced;
        v
      end
      else if t.flushing then begin
        (* Our work was drained by the in-flight prepare (prepare runs
           under this lock, so if flushing is set it already ran); wait for
           that round's fsync but start none of our own. *)
        Obs.Counter.incr t.coalesced;
        fst (attain t.started default ~led:false)
      end
      else default)
