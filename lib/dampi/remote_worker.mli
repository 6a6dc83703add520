(** A worker process of the distributed mode.

    Serves coordinator sessions: sends [hello], passes the optional HMAC
    challenge, receives the job description, resolves it into a runner
    (the CLI supplies the registry lookup; tests supply their own), then
    loops running leased fork items through {!Executor.run} — the same
    function the in-process pool calls — and shipping their wire results
    back. Heartbeats are emitted from inside long replays via the
    poison hook, so a wedged-but-alive worker is distinguishable from a
    dead one.

    {b Crash tolerance.} A {!serve_addr} worker carries one session
    across connection losses: the stable session id, the last granted
    fencing epoch, and at most one {e pending} results frame whose send
    was never known to complete. On reconnect the worker re-hellos with
    all three; the coordinator either resumes the outstanding lease (the
    pending frame is then delivered and counted, exactly once) or fences
    the session (the frame is delivered and discarded). [`Connect]
    workers redial a lost coordinator with capped exponential backoff and
    deterministic jitter; [`Listen] workers simply keep accepting, so a
    coordinator restarted from a checkpoint finds them where it left
    them. *)

(** What a resolved job gives the worker: how to run one replay. *)
type resolved = {
  np : int;
  runner : Executor.runner;
  rb : Executor.robustness;
      (** watchdog/retry envelope applied to every leased replay; the
          checkpoint/interrupt fields are coordinator business and ignored
          here *)
  prune : bool;
      (** sleep-set pruning at expansion ({!Prune.expand}); must match the
          coordinator's setting (shipped in the job params by the CLI) so
          both sides suppress identically *)
}

type telemetry
(** The worker's local metric registry paired with its shipped-so-far
    snapshot. Metric deltas ({!Obs.Metrics.to_delta}) are shipped to the
    coordinator piggybacked on heartbeats and ahead of every results
    frame; the pair must outlive the connection (a redialling worker
    reuses it) so deltas stay monotone across sessions. *)

val telemetry : Obs.Metrics.t -> telemetry
(** Wrap a caller-owned registry (shard 0 is the worker's write shard).
    The caller keeps the registry handle — [dampi worker --metrics-out]
    snapshots it at exit for offline debugging. *)

type reconnect = {
  max_redials : int;  (** consecutive failed dials before giving up *)
  backoff : float;  (** base delay, doubled per attempt, capped at 5 s *)
  seed : int;
      (** jitter seed ({!Sim.Splitmix.derive}d with the session id): each
          delay is scaled by a deterministic factor in [0.5, 1.5) so
          reconnect storms decorrelate yet tests reproduce exactly *)
}

val default_reconnect : reconnect
(** [{ max_redials = 5; backoff = 0.1; seed = 0 }] *)

val serve :
  ?auth:string ->
  ?telemetry:telemetry ->
  resolve:(Wire.job -> (resolved, string) result) ->
  Unix.file_descr ->
  [ `Shutdown | `Disconnected | `Rejected of string ]
(** Speak the worker side of the protocol on a connected socket. Never
    raises on connection loss. [`Shutdown]: the coordinator declared the
    run complete (also returned after an unresolvable job — redialling
    cannot fix that). [`Disconnected]: the link died or the coordinator
    detached; the run may still be live ({!serve_addr} reconnects with
    its session's lease/pending state). [`Rejected]: the
    coordinator refused us (version or auth) — retrying is pointless.
    [auth] is the shared secret for the HMAC challenge; without one, a
    challenge is answered with the empty secret (and will be rejected). *)

val serve_addr :
  ?auth:string ->
  ?telemetry:telemetry ->
  ?reconnect:reconnect ->
  ?stop:(unit -> bool) ->
  resolve:(Wire.job -> (resolved, string) result) ->
  [ `Connect of Wire.addr | `Listen of Wire.addr ] ->
  (unit, string) result
(** [`Connect] dials a listening coordinator ([dampi worker --connect]).
    A lost connection is redialled per [reconnect] (session state intact),
    so a coordinator crash + restart-from-checkpoint costs the worker a
    few backoff sleeps, not its life. A first dial that finds the
    coordinator already gone (socket unlinked or refusing) is still [Ok]:
    the run finished before this worker joined. Exhausting [max_redials]
    is also [Ok] (logged): the coordinator never came back. A host that
    does not resolve, or any other dial failure, is [Error].

    [`Listen] binds and serves {e successive} sessions on one persistent
    session identity ([dampi worker --listen]) — after a disconnect or a
    coordinator [detach] it goes straight back to accepting, which is
    what lets a restarted coordinator re-dial its surviving workers. The
    loop ends with [Ok] on a [shutdown] (run complete), on SIGTERM (the
    worker installs a handler unless [stop] is given — embedded callers
    poll their own flag via [stop]), or when [stop] answers true; it ends
    with [Error] if this worker is rejected or the address cannot be
    resolved or bound ({!Wire.listen}'s message).

    Both modes answer HMAC challenges with [auth]. *)
