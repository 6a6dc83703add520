(** The execution layer under the exploration walk.

    {!Explorer} owns the walk (frontier expansion, counting, findings,
    checkpoints); this module owns {e how a replay runs}: the per-run
    context handed to a {!runner}, the robustness envelope (watchdog,
    retries, fault injection), and the retry loop that applies it. It is
    shared by both execution backends — the in-process domain pool and the
    remote worker processes of the distributed mode — so a replay behaves
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

(** Observable moments of the attempt loop, for the caller's counters.
    Semantics match the explorer's report fields: one [Timed_out] per
    attempt the watchdog cut, one [Retried] per re-attempt (after a timeout
    or a transient fault), one [Transient_fault] per injected-fault crash
    that was absorbed by a retry, one [Cancelled] per externally poisoned
    attempt, and one [Attempt_wall] per attempt with its host duration. *)
type event =
  | Attempt_wall of float
  | Timed_out
  | Retried
  | Transient_fault
  | Cancelled

(** How the replay (possibly after retries) resolved. *)
type outcome =
  | Completed of Report.run_record
      (** ran to completion (crashes-as-findings included) *)
  | Poisoned  (** cut by the external poison (stop-first / interrupt) *)
  | Gave_up  (** every allowed attempt hit the watchdog *)

val run_attempts :
  rb:robustness ->
  runner:runner ->
  worker:int ->
  metrics:Obs.Metrics.shard option ->
  need_poison:bool ->
  external_poison:(unit -> bool) ->
  abort_retries:(unit -> bool) ->
  wrap:(attempt:int -> (unit -> Report.run_record) -> Report.run_record) ->
  on_event:(event -> unit) ->
  key:string ->
  Decisions.plan ->
  fork_index:int ->
  outcome
(** One guided replay under the robustness envelope: build the watchdog
    poison (wall deadline polled every 64 steps, exact step budget,
    [external_poison] checked first), derive the per-attempt fault salt
    from [key], execute [runner] through [wrap] (tracing spans), and retry
    on watchdog timeouts and transient injected faults up to
    [rb.max_retries] with capped exponential backoff — unless
    [abort_retries] says the exploration is being interrupted. [on_event]
    fires for every countable moment; the caller owns all counters. *)

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
