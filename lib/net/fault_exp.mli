(** E14: the multi-process deployment under faults.

    Oracle-certified runs of real daemons across K, each with a mid-run
    SIGKILL and all traffic through the fault {!Proxy}.  Every run also
    {!Deployment.scrape}s each live daemon mid-load and fails on a
    snapshot that does not decode, a cluster that shows zero
    [deliveries_total], or a merged [storage_reopens_total] other than
    the number of daemons killed so far (each successor reopens its store
    once) — the CI net smoke's stats-plane gate. *)

val experiment : ?smoke:bool -> unit -> Harness.Report.t * (string * float) list
(** Run E14; [smoke] shrinks it to one small oracle-certified run (one
    kill) for CI.  The bench-key list is empty: E14 feeds no
    BENCH_net.json key.
    @raise Failure on any oracle violation. *)
