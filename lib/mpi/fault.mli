(** Deterministic, seed-driven fault injection for the simulated runtime.

    The runtime consults a per-run fault instance at its call sites to
    inject, within the simulation:

    - {e message delivery delays}: extra virtual latency on a sent envelope.
      Delivery stays eager in scheduler order, so delays reorder {e timing}
      (and therefore which candidates a later wildcard sees as "arrived")
      without ever violating per-channel non-overtaking;
    - {e transient send failures}: a send raises
      {!Transient_send_failure} — the verifier is expected to classify this
      as retryable and re-run the replay;
    - {e rank crashes}: a rank raises {!Rank_killed} at a chosen call site;
    - {e wedges}: a rank spins forever (cooperatively yielding) at a chosen
      call site, to exercise watchdog timeouts upstream.

    Everything is a deterministic function of [(spec, salt)]: same pair,
    same fault schedule, on any worker and at any parallelism. At most one
    abortive fault (send failure, crash, or wedge) is injected per run, at a
    pre-drawn call-site index, so retrying under fresh salts converges. *)

exception Transient_send_failure of string
(** Raised by an injected send failure; retryable by the explorer. *)

exception Rank_killed of int
(** Raised by an injected rank crash; retryable by the explorer. *)

exception Wedged of int
(** Raised in place of a wedge when the runtime has no interrupt hook
    installed (a native run with nothing polling for cancellation would
    otherwise spin forever). *)

val is_transient : exn -> bool
(** Is this exception an injected environment fault (as opposed to a genuine
    program failure)? Injected faults are transient: a retry under a fresh
    salt re-draws them. *)

(** What to inject and how often. Probabilities are per run for the abortive
    kinds (sendfail/crash/wedge — at most one injection per run each) and
    per message for [delay_prob]. *)
type spec = {
  seed : int;
  delay_prob : float;  (** P(extra virtual latency on a message) *)
  max_delay : float;  (** delay magnitude bound, virtual seconds *)
  sendfail_prob : float;  (** P(the run suffers one transient send failure) *)
  crash_prob : float;  (** P(the run suffers one injected rank crash) *)
  wedge_prob : float;  (** P(the run wedges at one call site) *)
  target_rank : int option;  (** restrict injection to one rank; [None] = all *)
}

val inert : spec
(** All probabilities zero (injects nothing). *)

val default_spec : seed:int -> spec
(** The mild default mix behind [--fault-seed] alone: occasional message
    delays plus rare transient send failures — faults a retrying explorer
    fully absorbs. *)

val is_inert : spec -> bool

val of_string : ?seed:int -> string -> (spec, string) result
(** Parse a comma-separated [key=value] spec:
    [seed|delay|max-delay|sendfail|crash|wedge|rank]. An explicit [?seed]
    (the CLI's [--fault-seed]) overrides [seed=] in the text; an empty
    string with a seed yields {!default_spec}. *)

val to_string : spec -> string

(** {1 Per-run instances} *)

type t

val none : t
(** Never injects. *)

val make : spec -> salt:int -> t
(** Instantiate the per-run fault schedule. [salt] must identify the replay
    (schedule + attempt, see {!salt_of_schedule}) so the schedule is
    worker-independent. *)

val active : t -> bool

type send_action =
  | Send_ok of float  (** proceed; add this much virtual delivery delay *)
  | Send_fail  (** raise {!Transient_send_failure} *)

type call_action = Call_ok | Call_kill | Call_wedge

val on_send : t -> src:int -> send_action
(** Consulted once per posted send, in program order. *)

val on_call : t -> pid:int -> call_action
(** Consulted once per blocking call site (waits, probes, collectives), in
    program order. *)

val salt_of_schedule : attempt:int -> 'a -> int
(** Deterministic salt for {!make} from a replay's forced schedule (any
    immutable structural value) and retry attempt number. *)

(** Transport-layer fault injection for the coordinator/worker wire protocol.

    Where the parent module perturbs the {e simulated} MPI runtime, [Net]
    perturbs the {e real} sockets between a coordinator and its workers:
    frames are dropped, delayed, duplicated, reordered, corrupted or
    truncated at the send boundary, one-way partition windows swallow
    everything for a stretch, and bandwidth shaping slows a link down.
    Same determinism contract: a [t] is a pure function of [(spec, salt)],
    with each one-shot kind pre-drawn at a bounded frame index so every
    connection instance injects at most one fault per kind — a redial is a
    fresh instance, so lossy links converge under retry. *)
module Net : sig
  (** Per-connection probabilities. [drop]/[dup]/[reorder] strike payload
      frames (leases, results); [corrupt]/[truncate] any non-control frame;
      [partition] opens a one-way window of [partition_frames] swallowed
      frames; [delay] is a per-frame coin; [bandwidth] (bytes/s, 0 =
      unshaped) adds size-proportional latency; [write_fail] is consumed by
      the persistence layer (injected ENOSPC), not the wire. *)
  type spec = {
    seed : int;
    drop : float;
    delay : float;
    max_delay : float;
    dup : float;
    reorder : float;
    corrupt : float;
    truncate : float;
    partition : float;
    partition_frames : int;
    bandwidth : int;
    write_fail : float;
  }

  val inert : spec

  val wire_inert : spec -> bool
  (** No wire-level kind enabled ([write_fail] may still be set). *)

  val of_string : ?seed:int -> string -> (spec, string) result
  (** Parse a comma-separated [key=value] spec with keys
      [seed|drop|delay|max-delay|dup|reorder|corrupt|truncate|partition|
       partition-frames|bandwidth|write-fail]. [?seed] (the CLI's
      [--net-fault-seed]) overrides [seed=] in the text; an empty string
      with a seed yields the stall-free default mix: delays, duplicates and
      reorders, which the protocol absorbs inline without waiting out
      heartbeat timeouts. *)

  (** {1 Per-connection instances} *)

  (** How a frame is classified at the send boundary. [Control] frames
      (handshake, job setup, shutdown) are only ever delayed or partitioned;
      [Chatter] (heartbeats, telemetry, progress) may additionally be
      corrupted or truncated; [Payload] (leases, results) is eligible for
      every kind. *)
  type klass = Control | Chatter | Payload

  type t

  val none : t
  val make : ?on_inject:(string -> unit) -> spec -> salt:int -> t
  (** [salt] must identify the connection instance (e.g. a connection
      counter), so a redial re-draws. [on_inject] is called with the kind
      name each time a fault actually fires (for metrics). *)

  val active : t -> bool

  type shaped = {
    writes : (float * string) list;
        (** the bytes to put on the wire, in order, each with its delay in
            seconds after the frame was sent (non-decreasing) *)
    sever : bool;  (** cut the connection once [writes] are out *)
  }

  val shape : t -> klass:klass -> string -> shaped
  (** The one place a frame is shaped: both ends of the wire pass every
      outgoing frame through it, in send order, and it consults the
      injector once per frame. An undisturbed frame is [[(0., frame)]]
      (also the answer of an inactive [t]); with pacing or bandwidth
      shaping it is delayed; a duplicate is written twice; a dropped frame
      (or one inside a partition window) writes nothing. A corrupted frame
      has its leading verb byte replaced by ['\x01'], so the receiver's
      parser rejects it. A truncated frame writes its first half and sets
      [sever]. A reordered frame is held in [t] and goes out right behind
      the next delivered frame, or through {!release}. *)

  val release : t -> string option
  (** Take the held (reordered) frame, if any. A caller about to block or
      close releases it, so reordering is bounded and never a stall. *)

  val fs_fault : spec -> salt:int -> unit -> bool
  (** Deterministic injected-ENOSPC coin stream for persistence writes,
      driven by [write_fail]. *)
end
