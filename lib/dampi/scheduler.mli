(** Domain-parallel work queue for guided replays (§IV of the paper).

    DAMPI's exploration is embarrassingly parallel once the initial self run
    has produced the frontier: every guided interleaving is an independent
    re-execution from [MPI_Init], so the only shared state a worker needs is
    the queue of pending fork decisions and the (externally owned) findings
    table. This module provides exactly that queue: one LIFO stack guarded
    by one mutex, served to a pool of OCaml 5 [Domain]s, with a cooperative
    run budget and cooperative cancellation.

    The order is LIFO, the only one: a finished item's children go on top
    of the stack, so the next claim takes the deepest pending item —
    depth-first order. Claiming an item and publishing its children each
    take the lock once; the explorer already serializes every item through
    its own counting lock, so one queue lock costs no extra parallelism.

    Executing one item may discover follow-on items (the child frontier of
    the replay); the scheduler terminates when the queue is empty {e and} no
    worker is still executing — an empty queue alone is not quiescence.

    With [jobs = 1] no domain is spawned and items execute inline on the
    calling domain, in exactly the order a recursive depth-first walk would
    visit them; the sequential explorer is literally the parallel one with
    one worker.

    {!create}'s [?order] (whose one value is {!Lifo}) and [?admit] are
    passed by no caller in the verifier; they stay because the benchmark's
    traced re-drive ([perfbench/bin/traced.ml]) passes both, and go with
    the next change to the benchmark. *)

type order =
  | Lifo  (** depth-first: the head of the last pushed batch pops first *)

type worker_stats = {
  worker_id : int;
  mutable items_run : int;  (** work items this worker executed *)
  mutable queue_waits : int;
      (** times this worker blocked on an empty (but live) queue *)
  mutable wait_seconds : float;
      (** host seconds this worker spent blocked on the queue *)
}

type 'a t

val create :
  ?order:order ->
  jobs:int ->
  ?budget:int ->
  ?metrics:Obs.Metrics.shard ->
  ?profile:bool ->
  ?admit:('a -> bool) ->
  unit ->
  'a t
(** [create ~jobs ()] makes a scheduler served by [jobs] workers (clamped to
    at least 1). [budget] caps the total number of items ever claimed for
    execution (default: unlimited); items beyond the budget stay queued and
    are reported by {!pending}. [metrics] attaches an observability shard
    ([sched.queue_wait_s], [sched.frontier_size]); every write to it
    happens under the scheduler's mutex, so pass a shard no worker owns.
    [profile] mirrors the queue-wait observations into
    [profile.sched_wait_s], the uniform namespace [--profile] exports.
    [admit] filters every enqueue path ({!push}, {!push_batch},
    and children published by {!run}): an item it rejects is never
    inserted. It runs on whichever thread publishes, so it must be
    thread-safe. *)

val push : 'a t -> 'a -> unit
(** Add one item. It becomes the next item to pop. *)

val push_batch : 'a t -> 'a list -> unit
(** Add a batch atomically, on top of the stack in order: the {e first}
    element of the batch is the next item to pop. *)

val cancel : 'a t -> unit
(** Cooperative cancellation: no further items are claimed; queued work is
    left in place (see {!pending}); items already executing run to
    completion. Idempotent. *)

val cancelled : 'a t -> bool

val pending : 'a t -> int
(** Items still queued (dropped work, after a cancellation). Children
    returned by items that complete after a cancellation are still pushed
    (though never claimed), so after {!run} returns from a cancelled
    exploration the queue is the exact outstanding frontier — what
    checkpointing serializes. *)

val snapshot : 'a t -> 'a list
(** A consistent cut of the outstanding work: every queued item plus every
    item currently executing on a worker, read under the scheduler's
    lock. In-flight items are included because their children are not
    published yet; a resume that re-runs them regenerates exactly their
    subtrees. *)

val executed : 'a t -> int
(** Items claimed and handed to a worker. *)

val run : 'a t -> (worker:int -> 'a -> 'a list) -> unit
(** [run t f] drains the queue. Each worker loops: claim an item (consuming
    one unit of budget), execute [f ~worker item] {e outside} the lock, then
    push the returned follow-on items. Returns when the queue is drained,
    the budget is exhausted, or {!cancel} was called. With [jobs = 1] this
    runs inline; otherwise worker 0 runs on the calling domain and workers
    [1 .. jobs-1] on fresh domains, all joined before returning. If the
    queue is empty on entry (a deterministic program's frontier) it returns
    immediately without spawning any domain. May be called only once. *)

val stats : 'a t -> worker_stats list
(** Per-worker counters, in worker-id order. *)
