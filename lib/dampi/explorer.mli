(** The schedule generator and replay driver (Fig. 1, §II-B of the paper).

    After an initial self run, the explorer walks the space of wildcard
    match decisions depth-first — forcing alternatives at the last epoch
    first — re-executing the target program under each Epoch-Decisions plan
    until the space (as bounded by the heuristics) is exhausted. *)

(** Where and how often to checkpoint the exploration frontier. *)
type checkpoint_cfg = Executor.checkpoint_cfg = {
  path : string;
  every : int;
      (** completed replays between periodic writes; 0 writes only on
          interrupt and on completion *)
  label : string;
      (** workload identity stored in the file and validated on resume *)
}

(** Fault-tolerance knobs: replay watchdog, retry policy, fault injection,
    and checkpointing. All off by default. *)
type robustness = Executor.robustness = {
  replay_timeout : float option;
      (** wall-clock budget per replay attempt; a wedged replay is poisoned
          through the same path as [--stop-first] cancellation *)
  max_replay_steps : int option;
      (** deterministic simulated-step budget per replay attempt *)
  max_retries : int;
      (** retries per replay after a timeout or an injected transient fault,
          each under a fresh fault salt, with capped exponential backoff *)
  retry_backoff : float;  (** base backoff in seconds; 0 retries immediately *)
  fault : Mpi.Fault.spec option;
      (** deterministic fault injection for every replay's runtime *)
  net_fault : Mpi.Fault.Net.spec option;
      (** deterministic transport + persistence chaos: wire-level fault
          injection on distributed connections, plus injected ENOSPC on
          checkpoint writes ([write_fail]) *)
  checkpoint : checkpoint_cfg option;
      (** serialize the frontier periodically and on SIGINT/SIGTERM *)
  interrupt_after : int option;
      (** request an interrupt once this many replays completed — a
          deterministic stand-in for a signal, used by tests *)
}

val default_robustness : robustness

type config = {
  state_config : State.config;  (** clocks, piggyback mode, bounding *)
  cost : Mpi.Runtime.cost_model;
  max_runs : int;  (** interleaving budget; [max_int] = exhaustive *)
  check_leaks : bool;
  stop_on_first_error : bool;
      (** stop after the first deadlock/crash finding (cooperative in
          parallel mode: in-flight replays complete, queued work is dropped) *)
  jobs : int;
      (** worker domains running guided replays concurrently; 1 (default)
          keeps the sequential depth-first walk. Every replay is a full
          independent re-execution, so on an exhaustive exploration the
          finding-signature set, interleaving count, and bounded-epoch count
          are identical at any worker count. *)
  trace : bool;
      (** collect a span timeline ([explore] root, one [self-run]/[replay]
          span per execution) into {!Report.t}[.events] *)
  prune : bool;
      (** sleep-set pruning: at every frontier expansion ({!Executor.run})
          a child whose completed epochs include a sleeping epoch — one
          whose alternatives a sibling subtree with a provably commuting
          ({!Prune.footprint_disjoint}) fork already covers — is not
          expanded. The canonical report (findings, signatures, coverage
          counters modulo runs skipped) is unchanged; [runs_pruned] records
          how much of the tree was cut. Off by default. *)
  prefix_cache : int option;
      (** memoize each schedule's replay artifact ({!Prefix_cache}) under
          this byte budget (append-only: a full cache refuses new
          entries), saved with the final cut as the checkpoint's [.cache]
          sidecar, so a later re-verification of the same configuration
          serves its schedules from the sidecar instead of executing them.
          Replay determinism makes the memoized artifact indistinguishable
          from re-executing. [None] (default) disables caching. *)
  profile : bool;
      (** the lightweight replay profiler: wall-clock phase-timing
          histograms — [profile.match_loop_s] (runtime match loop),
          [profile.clock_merge_s] (verifier clock merges),
          [profile.sched_wait_s] (pool queue waits), [profile.wire_io_s]
          (coordinator frame I/O) — exported in the same metrics output
          ([--metrics-out], OpenMetrics). Each timed phase costs a clock
          read, so off by default. *)
  progress : ((string * string) list -> unit) option;
      (** live-progress sink, called (throttled, ~2 Hz, under the
          explorer's counting lock — keep it quick) with key/value pairs:
          [runs], [replays_per_s], [frontier], [pruned], [findings],
          [cache.*] when caching, and per-worker [w<i>.runs]. Drives the
          [--progress] ticker; in distributed mode the run-level pairs are
          also appended to the [Progress] frames the coordinator streams
          to observers ([dampi top]). *)
  robustness : robustness;
}

val default_config : config

(** Per-run observability context the explorer threads into its runner: the
    executing worker's id, the metric shard that worker owns (single
    writer), the poison closure the interposition layer polls for in-replay
    cancellation, and the fault salt identifying this (replay, attempt) for
    deterministic injection. *)
type run_ctx = Executor.run_ctx = {
  worker : int;
  metrics : Obs.Metrics.shard option;
  poison : (unit -> bool) option;
  salt : int;
}

val null_ctx : run_ctx
(** Worker 0, no metrics, no poison, salt 0 — for driving a runner
    standalone. *)

type runner = Executor.runner
(** Executes one interleaving under a given plan
    ([ctx:run_ctx -> Decisions.plan -> fork_index:int -> Report.run_record]).
    [fork_index] is the global decision index this run re-forces (-1 for
    the initial self run); bounded mixing measures its window from it. *)

val fault_of_ctx : run_ctx -> Mpi.Fault.spec option -> Mpi.Fault.t
(** The fault instance for one (replay, attempt): the configured spec
    instantiated with the context's salt ({!Mpi.Fault.none} when no spec). *)

type layer =
  Mpi.Runtime.t ->
  (module Mpi.Mpi_intf.MPI_CORE) ->
  (module Mpi.Mpi_intf.MPI_CORE)
(** An extra interposition layer between the program and the DAMPI layer,
    built once per run over that run's runtime — the ISP baseline's
    scheduler costs, [Isp.Engine.layer]). *)

val dampi_runner :
  ?layer:layer -> config -> np:int -> Mpi.Mpi_intf.program -> runner
(** One DAMPI-interposed execution per call: a runtime, verifier state and
    interposition instance per [ctx.worker], reset in place between that
    worker's replays (a reset run equals a run on fresh ones), and the
    program instantiated afresh against the instrumented stack — over
    [layer] when given, while the tool's own init/finalize calls stay on
    the DAMPI layer. This is the only runner: every engine's replays,
    errors and metrics come from here. *)

val native_makespan :
  ?cost:Mpi.Runtime.cost_model -> np:int -> Mpi.Mpi_intf.program -> float
(** Virtual makespan of an uninstrumented run — the overhead baseline. *)

val explore :
  ?config:config ->
  ?resume:Checkpoint.t ->
  ?distribute:Coordinator.setup ->
  ?fallback_local:bool ->
  np:int ->
  runner ->
  Report.t
(** Walk over epoch decisions, generic in the runner (the ISP baseline
    passes {!dampi_runner} with its scheduler layer). With
    [config.jobs = 1] this is the depth-first walk of the paper; with more
    jobs the frontier is served to a pool of domains (see {!Scheduler}),
    each executing complete guided replays.

    Every item — the self run, a pool item, a remote worker's — is run and
    expanded by {!Executor.run}, and its result is folded into one
    {!Checkpoint.totals} record in one place, so counting means the same on
    every backend.

    [distribute] replaces the in-process pool with a {!Coordinator} that
    leases the frontier to worker processes over sockets; the self run
    still executes locally, counters and findings ingest from wire results,
    and — the paper's acceptance bar — an exhaustive distributed
    exploration produces a canonical report identical to [jobs = 1], across
    any sequence of worker loss, reconnection, and coordinator restart
    (exactly-once ingestion is enforced by fencing epochs; see
    {!Coordinator}). Losing every worker flags the run interrupted (the
    frontier is preserved for the checkpoint) and surfaces as a harness
    failure — unless [fallback_local] is set, in which case the leftover
    cut is drained by the in-process pool instead (graceful degradation:
    same canonical report, a loud stderr line, and a
    [coordinator.fallbacks] metric tick).

    When a checkpoint is configured with [every > 0], a distributed run
    also persists the consistent cut about once per second of coordinator
    ticking, so a SIGKILLed coordinator loses at most that much progress;
    [dampi verify --checkpoint F --workers ...] then resumes it, fencing
    every session the dead coordinator had admitted.

    [resume] restores a checkpointed cut instead of starting from the self
    run: counters and findings are seeded from the checkpoint, and its
    frontier becomes the initial work queue. The frontier holds only
    uncounted items (a cut that catches an item counted but not yet
    expanded writes its children instead), so every resumed item runs
    fresh, on the pool and on a coordinator alike. A resumed exhaustive
    exploration reaches the same canonical report as an uninterrupted
    one. *)

val verify :
  ?config:config ->
  ?resume:Checkpoint.t ->
  ?distribute:Coordinator.setup ->
  ?fallback_local:bool ->
  np:int ->
  Mpi.Mpi_intf.program ->
  Report.t
(** [verify ~np program] — the main entry point: DAMPI verification of
    [program] on [np] simulated ranks. *)

val replay :
  ?config:config ->
  ?metrics:Obs.Metrics.shard ->
  np:int ->
  Mpi.Mpi_intf.program ->
  Decisions.plan ->
  Report.run_record
(** One guided run under a given Epoch-Decisions plan — deterministic
    reproduction of a previously reported finding. [metrics] instruments the
    replay's runtime and verifier state. *)

(**/**)

val errors_of_run :
  check_leaks:bool ->
  outcome:Sim.Coroutine.outcome ->
  leaks:Mpi.Runtime.leak_report ->
  shadow_ctxs:int list ->
  st:State.t ->
  Report.error list
(** The findings of one finished run; exposed for instrumented copies of
    {!dampi_runner}. *)
