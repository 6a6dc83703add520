(** Verification findings and exploration reports. *)

type error =
  | Deadlock of { blocked : (int * string) list }
      (** global quiescence; per-pid blocked operation descriptions *)
  | Crash of { pid : int; message : string }
      (** a rank raised (assertion failure, MPI usage error, ...) *)
  | Comm_leak of { pid : int; labels : string list }
      (** communicators never freed before finalize (Table II "C-leak") *)
  | Request_leak of { pid : int; count : int }
      (** requests never completed by wait/test (Table II "R-leak") *)
  | Monitor_alert of { pid : int; epoch_id : int; op : string }
      (** §V pattern: a wildcard receive's clock escaped via [op] before its
          wait/test — coverage not guaranteed there *)
  | Replay_divergence of { count : int }
      (** guided events with no matching decision: the target program is not
          replay-deterministic *)

val pp_error : Format.formatter -> error -> unit
val error_signature : error -> string

(** One execution of the target program under a tool. *)
type run_record = {
  run_plan : Decisions.plan;
  outcome : Sim.Coroutine.outcome;
  makespan : float;  (** virtual seconds *)
  new_epochs : Epoch.t list;  (** self-run epochs, in completion order *)
  run_errors : error list;
  wildcards : int;
  cancelled : bool;
      (** poisoned mid-replay ([--stop-first]): no findings, no frontier *)
}

(** A deduplicated finding, with the schedule that reproduces it. *)
type finding = {
  error : error;
  run_index : int;
      (** which interleaving (0 = the initial self run). Informational: it
          reflects execution order, which worker scheduling permutes; the
          canonical identity of a finding is its signature and schedule. *)
  schedule : Decisions.decision list;
}

(** Order-independent findings accumulator shared by every merge path.
    Dedup is by the error's structural value bucketed under its signature —
    two different errors whose signatures collide are both kept (a
    signature-keyed table would drop one) — and the canonically smallest
    reproduction schedule wins per error. *)
module Merge : sig
  type t

  val create : unit -> t
  val add : t -> finding -> unit

  val to_list : t -> finding list
  (** In canonical order: shallower reproduction schedules first, then
      lexicographic, then by {!error_signature}. Independent of execution
      order, so reports canonicalize identically at any worker count. *)
end

(** A failure of the exploration harness itself (a raising replay runner,
    not a finding about the target program). *)
type harness_failure = {
  hf_worker : int;  (** worker that hit it; -1 = the pool as a whole *)
  hf_message : string;
  hf_backtrace : string;  (** captured at the catch site *)
}

(** Per-worker exploration counters (parallel mode). *)
type worker_stat = {
  worker_id : int;
  runs_executed : int;  (** replays this worker ran (worker 0 owns the self run) *)
  queue_waits : int;  (** times the worker blocked on an empty work queue *)
  wall_seconds : float;  (** host time spent inside the runner *)
  virtual_seconds : float;  (** summed virtual makespans of its replays *)
}

(** Result of a whole verification. *)
type t = {
  np : int;
  interleavings : int;
  findings : finding list;
  wildcards_analyzed : int;  (** R* of Table II *)
  first_run_makespan : float;
  total_virtual_time : float;
  monitor_alerts : int;
  bounded_epochs : int;
      (** epochs a heuristic suppressed (loop abstraction / bounded mixing) *)
  runs_pruned : int;
      (** schedules never enqueued because the sleep-set / independence
          analysis proved them equivalent to an explored one *)
  host_seconds : float;
  jobs : int;  (** worker domains the exploration ran on *)
  workers : worker_stat list;  (** per-worker counters, worker-id order *)
  runs_cancelled : int;  (** replays poisoned mid-flight by [--stop-first] *)
  runs_timed_out : int;
      (** replay attempts killed by the watchdog (wall or step budget) *)
  runs_retried : int;  (** retry attempts launched after transient failures *)
  runs_crashed : int;
      (** replay attempts aborted by an injected transient fault *)
  harness_failures : harness_failure list;
      (** replays whose runner raised; sibling workers kept draining *)
  interrupted : bool;
      (** stopped early by SIGINT/SIGTERM; the outstanding frontier was
          checkpointed and the counters cover the completed portion only *)
  metrics : Obs.Metrics.snapshot;  (** merged over all worker shards *)
  worker_metrics : (string * Obs.Metrics.snapshot) list;
      (** labeled per-shard views: ["w0".."wN"] worker domains, ["sched"],
          ["aux"], plus one label per remote session in distributed mode *)
  events : Obs.Trace.event list;  (** span stream; empty unless traced *)
}

val metrics_json : t -> string
(** The [--metrics-out] document: merged series plus per-worker shards. *)

val metrics_openmetrics : t -> string
(** The same data in OpenMetrics text format
    ({!Obs.Metrics.to_openmetrics}). *)

val trace_json : t -> string
(** The [--trace-out] document: Chrome [trace_event] JSON. *)

val has_errors : t -> bool
(** True if any finding is a deadlock, crash, or leak (alerts and
    divergences are advisories). *)

val pp_finding : Format.formatter -> finding -> unit
val pp : Format.formatter -> t -> unit
