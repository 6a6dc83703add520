(** The execution layer under the exploration walk.

    {!Explorer} owns the walk (counting, findings, checkpoints); this
    module owns {e how an item runs}: the per-run context handed to a
    {!runner}, the robustness envelope (watchdog, retries, fault
    injection), and {!run}, which looks the item up in the prefix cache,
    replays it under that envelope and expands its children. It is shared
    by both execution backends — the in-process domain pool and the remote
    worker processes of the distributed mode — so an item behaves
    identically wherever it executes.

    The explorer drives whichever backend through the tiny {!t} interface:
    drain the frontier, snapshot the outstanding cut, report per-worker
    stats. *)

type checkpoint_cfg = {
  path : string;
  every : int;
      (** completed replays between periodic writes; 0 = only on
          interrupt/finish *)
  label : string;
      (** workload identity stored in (and validated against) the file *)
}

type robustness = {
  replay_timeout : float option;
  max_replay_steps : int option;
  max_retries : int;
  retry_backoff : float;
  fault : Mpi.Fault.spec option;
  net_fault : Mpi.Fault.Net.spec option;
      (** transport + persistence chaos ([--net-fault-seed]/
          [--net-fault-spec]): wire-level injection on distributed
          connections, plus [write_fail] for checkpoint writes *)
  checkpoint : checkpoint_cfg option;
  interrupt_after : int option;
}

val default_robustness : robustness

(** Per-run observability context threaded into the runner: which worker is
    executing, the metric shard that worker owns, the poison closure the
    interposition layer polls for in-replay cancellation, and the fault
    salt identifying this (replay, attempt) for deterministic injection. *)
type run_ctx = {
  worker : int;
  metrics : Obs.Metrics.shard option;
  poison : (unit -> bool) option;
  salt : int;
}

val null_ctx : run_ctx

type runner =
  ctx:run_ctx -> Decisions.plan -> fork_index:int -> Report.run_record

(** One frontier item's result, wherever it ran. *)
type result = {
  run : Wire.run_result;
      (** what a remote worker ships: the item's {!Checkpoint.schedule_key},
          its attempt counters (watchdog timeouts, retries, transient faults
          absorbed by a retry) and, unless it gave up or was poisoned, the
          counted payload — virtual time, bounded epochs, suppressed
          children, errors and the child frontier *)
  poisoned : bool;
      (** the external poison (stop-first or an interrupt) cut it: nothing
          counted; never set on a remote worker, whose poison only sends
          heartbeats *)
  replayed : bool;  (** the runner executed it (not a cache hit) *)
  wildcards : int;
      (** wildcard receives the run analysed; the self run's is the
          report's [wildcards_analyzed] *)
}

val run :
  rb:robustness ->
  runner:runner ->
  ?cache:Prefix_cache.t ->
  prune:bool ->
  worker:int ->
  metrics:Obs.Metrics.shard option ->
  need_poison:bool ->
  external_poison:(unit -> bool) ->
  abort_retries:(unit -> bool) ->
  ?wrap:(attempt:int -> (unit -> Report.run_record) -> Report.run_record) ->
  np:int ->
  key:string ->
  sleep:Epoch.summary list ->
  Decisions.decision list ->
  result
(** [run ... ~sleep schedule] runs one item: the guided replay of
    [schedule] (the self run for [[]]), whose inherited sleep set is
    [sleep]. [key] is [Checkpoint.schedule_key schedule]: a frontier item
    passes its {!Checkpoint.item_key}, which copies its prefix key, and
    the self run passes [Checkpoint.schedule_key []]. Every key the run
    needs (the cache lookup, the fault salt, the result, the children's
    prefix keys) grows from it. This is the only place an item is run and expanded; the
    in-process pool, the self run and remote workers all call it.

    A hit in [cache] skips the replay. Otherwise the replay runs under the
    robustness envelope: a watchdog poison (wall deadline polled every 64
    steps, exact step budget, [external_poison] checked first; only built
    when [need_poison]), a per-attempt fault salt derived from the schedule
    key, and retries on watchdog timeouts and transient injected faults up
    to [rb.max_retries] with capped exponential backoff — unless
    [abort_retries] says the exploration is being interrupted. Each attempt
    executes [runner] through [wrap] (the pool's spans and wall timing;
    identity by default). A completed replay's artifact
    ({!Prefix_cache.entry_of_record}) is added to [cache]. Either way the
    artifact is expanded by {!Prune.expand} under [sleep] (when [prune]).
    The caller owns every counter: the result carries them. *)

(** How a backend's drive ended. *)
type drive_outcome =
  | Drained
      (** quiescence, budget, or cooperative cancellation — the normal
          ends of a drive *)
  | Lost of { reason : string; leftover : Checkpoint.item list }
      (** the backend itself failed with work outstanding (the socket
          coordinator losing every worker); [leftover] is the consistent
          cut of that work, ready for another backend — or a checkpoint —
          to pick up *)

(** A running execution backend, as the explorer sees it. *)
type t = {
  drive : unit -> drive_outcome;
      (** drain the frontier to quiescence, budget, or cancellation *)
  snapshot : unit -> Checkpoint.item list;
      (** consistent cut of the outstanding work (queued + in flight),
          callable while [drive] runs *)
  stats : unit -> Report.worker_stat list;
      (** per-worker counters, meaningful after [drive] returns *)
  fence_epoch : unit -> int;
      (** highest fencing epoch granted so far (0 for the in-process
          pool) — persisted in checkpoints so a restarted coordinator
          fences its predecessor's sessions *)
}
