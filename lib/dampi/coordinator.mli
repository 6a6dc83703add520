(** The distributed mode's frontier coordinator.

    Owns the global frontier of fork items and serves it to worker
    processes over the {!Wire} protocol: batches of items are {e leased} to
    a worker, the worker replays each and ships back a result delta
    (counters, findings, child frontier), and the coordinator ingests the
    delta, folds the children back into the frontier, and leases again.
    A results frame is ingested whole or not at all, and only when it names
    exactly the leased items, so a replay is counted exactly once however
    often its item was leased — and since replays are deterministic, the
    canonical report is identical to a single-process run.

    {b Step and shell.} The rules live in {!Coord_step}, a pure
    [step : state -> event -> state * action list]: admission (version,
    role, HMAC challenge), sessions that survive reconnects, fencing
    epochs, the rejoin grace, refunds, the claim budget, heartbeats and
    the all-workers-lost verdict. This module is the shell around it: the
    select loop, the sockets, each connection's frame assembler and chaos
    out-queue ({!Mpi.Fault.Net}), the clock, the nonces, the metrics and
    the logs. It turns what it observes into events — a decoded frame, a
    closed connection, a tick listing the connections whose out-queue is
    within [outq_budget] — and carries out the actions: send a frame,
    close a connection, ingest a settled frame. It keeps only open
    connections. A lease belongs to a worker's session, not its socket: a
    redial inside [rejoin_grace] with the lease intact resumes it; any
    other rejoin refunds the lease and advances the session's fencing
    epoch, so a zombie's stale frames are read whole and discarded.

    {b Observers.} A connection whose hello carries [role=observer]
    ([dampi top]) is admitted (through the same auth challenge when one
    is configured) as read-only: it gets no job and no leases, does not
    count as a worker for the all-workers-lost verdict or the heartbeat
    check, and receives periodic [Progress] frames with the aggregate
    (frontier depth, replays/sec, per-worker heartbeat age, ...).

    {b Telemetry.} Workers ship {!Obs.Metrics} deltas piggybacked on
    heartbeats and ahead of results frames; the shell folds them into one
    accumulated snapshot per session ({!telemetry}), which the explorer
    merges into the final report so distributed metric totals match an
    in-process run.

    Every callback runs on the thread that called {!drive}, which is what
    makes periodic checkpointing from [tick] race-free. *)

(** How worker connections come to exist. *)
type attach =
  | Fds of Unix.file_descr list
      (** pre-connected sockets (tests and bench use socketpairs) *)
  | Listen of { addr : Wire.addr; ready : Wire.addr -> unit }
      (** {!Wire.listen} when {!drive} starts, then call [ready] (the CLI
          spawns [dampi worker --connect] children there); workers may
          also join later, any time before the frontier drains —
          including workers rejoining a coordinator restarted from a
          checkpoint *)
  | Dial of Wire.addr list
      (** {!Wire.dial} workers already listening ([dampi worker --listen])
          when {!drive} starts; an address that cannot be dialled is
          logged and skipped *)

type setup = {
  attach : attach;
  job : Wire.job;  (** sent to every worker before its first lease *)
  lease_size : int;  (** max items per lease (≥ 1) *)
  heartbeat_timeout : float;
      (** seconds of silence before a connected worker is declared dead *)
  join_timeout : float;
      (** seconds a [Listen] coordinator waits for the {e first} worker
          before giving up — split from [heartbeat_timeout] so a
          slow-to-spawn worker pool under a tight heartbeat no longer
          aborts the run spuriously *)
  rejoin_grace : float;
      (** seconds a disconnected session keeps its lease (and holds off
          the all-workers-lost verdict) while its worker redials *)
  auth : string option;
      (** shared secret: when set, every connection must answer the HMAC
          challenge ({!Wire.auth_mac}) before admission *)
  net_fault : Mpi.Fault.Net.spec option;
      (** deterministic transport chaos: every outgoing frame on every
          connection passes through a per-connection {!Mpi.Fault.Net}
          instance (salted by a connection counter, so redials re-draw).
          Injections are counted in [net_fault.<kind>] metrics. [None] or
          a wire-inert spec leaves the send path exactly as before. *)
  outq_budget : int;
      (** backpressure threshold in bytes: a session whose outbound queue
          holds more than this is not leased further work until it drains
          ([coordinator.backpressure] counts the skips) *)
}

val default_lease_size : int
val default_heartbeat_timeout : float
val default_join_timeout : float
val default_rejoin_grace : float
val default_outq_budget : int

val default_setup : attach -> Wire.job -> setup
(** [setup] for [job] over [attach] with every other field at its
    [default_*] value: no auth, no net faults. *)

type t

val create :
  ?metrics:Obs.Metrics.shard ->
  ?profile:bool ->
  ?first_epoch:int ->
  ?progress:(unit -> (string * string) list) ->
  budget:int ->
  setup ->
  t
(** A coordinator for [setup]; {!drive} opens the connections
    [setup.attach] describes. [budget] caps the total number of items
    ever leased; items beyond it stay in the frontier (mirroring
    {!Scheduler}'s claim budget). [first_epoch] (default 1) is the first
    fencing epoch this coordinator will grant — a restart passes the
    checkpointed epoch + 1 so every pre-crash grant is stale on arrival.
    [metrics] gains [coordinator.leases], [coordinator.releases],
    [coordinator.reconnects], [coordinator.fenced],
    [coordinator.dup_results], [coordinator.backpressure],
    [coordinator.worker_rtt_s], and — under chaos — [net_fault.<kind>]
    injection counters, all written only from the driving thread.
    [profile] additionally records frame read/write time in the
    [profile.wire_io_s] histogram. [progress] supplies
    caller-level key/value pairs (runs, replays/sec, cache rates)
    appended to the coordinator's own figures in the progress frames
    streamed to attached observers. *)

val push : t -> Checkpoint.item list -> unit
(** Seed the frontier (before or during {!drive}). *)

val snapshot : t -> Checkpoint.item list
(** Frontier plus every item on an outstanding lease — the same consistent
    cut {!Scheduler.snapshot} gives, safe to call from {!drive}'s
    callbacks. *)

val current_epoch : t -> int
(** Highest fencing epoch granted so far (the [first_epoch - 1] floor
    before any admission) — what a checkpoint must record so a restarted
    coordinator fences every session this one admitted. *)

val telemetry : t -> (string * Obs.Metrics.snapshot) list
(** Accumulated worker metric deltas, one labeled snapshot per session id,
    sorted. Workers ship deltas piggybacked on heartbeats and ahead of
    every results frame, so after a clean (failure-free) drain these
    totals account for every remote replay exactly once and the merged
    report equals a [jobs = 1] run. Under crashes telemetry stays
    best-effort: a delta in flight when a connection dies may be lost,
    and a fenced zombie's deltas may double-count — findings and run
    counts are never affected (they ride the exactly-once results
    path). *)

val drive :
  t ->
  on_run:(item:Checkpoint.item -> Wire.run_result -> unit) ->
  should_stop:(unit -> bool) ->
  tick:(unit -> unit) ->
  (unit, string) result
(** Run the event loop until the frontier drains (and no lease is
    outstanding), the budget is exhausted, or [should_stop] answers [true].
    On a drained/budget-capped exit workers are sent [shutdown] (the run
    is over; they may exit); on [should_stop] or [Error] they are sent
    [detach] (the run is {e not} over — long-lived workers go back to
    redialling or listening). [on_run] fires once per leased item as its
    result frame is ingested, with the original item; [tick] fires about
    once per select timeout (for periodic checkpoints). [Error] is
    returned when a [Listen] address cannot be bound (the {!Wire.listen}
    message), or when every worker is gone — and none is inside its
    rejoin grace — while work remains (or none ever appeared within
    [join_timeout]); the frontier still holds that work, so a checkpoint
    taken afterwards can resume it, and {!Explorer} can optionally drain
    it in-process instead. May be called only once. *)
