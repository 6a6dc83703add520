(** Per-run verifier state shared by all ranks' interposition layers:
    logical clocks (behind a first-class clock module), recorded epochs, the
    guided-replay plan, and the bounding-heuristic knobs.

    Clocks are stored encoded ([int array]) and mutated in place through
    the clock module's encoded hot-path block — no decode/encode round trip
    and no allocation per operation; piggyback payload buffers come from a
    per-state free list (see DESIGN.md, "Hot path & allocation discipline").
    This keeps every other DAMPI module monomorphic. *)

type mode = Self_run | Guided_run

type piggyback_mode =
  | Separate  (** shadow-communicator messages — the paper's choice (§II-D) *)
  | Inline  (** pack the clock into the user payload (datatype packing) *)

type config = {
  clock : (module Clocks.Clock_intf.S);
  mixing_bound : int option;  (** bounded mixing [k] (§III-B2) *)
  piggyback : piggyback_mode;
  dual_clock : bool;
      (** §V future work: lagging transmission clock, synchronized at
          Wait/Test; covers the Fig. 10 pattern *)
  epoch_cost : float;  (** tool CPU (virtual s) per non-deterministic event *)
  late_check_cost : float;  (** tool CPU per received message *)
}

val make_config :
  ?clock:(module Clocks.Clock_intf.S) ->
  ?mixing_bound:int ->
  ?piggyback:piggyback_mode ->
  ?dual_clock:bool ->
  ?epoch_cost:float ->
  ?late_check_cost:float ->
  unit ->
  config

val default_config : config

exception Replay_cancelled
(** Raised from inside a simulated rank when the scheduler has poisoned the
    run ([--stop-first] found an error elsewhere). The explorer treats the
    resulting crash outcome as a cancelled run, not a finding. *)

type smetrics
(** Cached [dampi.*] metric handles (piggyback bytes/messages, clock merges,
    epoch lifecycle), resolved once at {!create}. *)

type monitor_warning = { warn_pid : int; warn_epoch_id : int; warn_op : string }

type t = {
  np : int;
  config : config;
  plan : Decisions.plan;
  clocks : int array array;
  xmit_clocks : int array array;
  mode : mode array;
  epochs : Epoch.t list array;
  mutable completed : Epoch.t list;
  mutable completed_count : int;
  fork_index : int;
  pcontrol_depth : int array;
  open_wildcards : (int, Epoch.t) Hashtbl.t;
  mutable warnings : monitor_warning list;
  mutable divergences : int;
  obs : smetrics option;
  poison : (unit -> bool) option;
  clock_width : int;
  pb_pool : int array array;
  mutable pb_pool_top : int;
  mutable pb_reuses : int;
  mutable pending_pb_msgs : int;
  mutable pending_pb_bytes : int;
}

val create :
  ?config:config ->
  ?metrics:Obs.Metrics.shard ->
  ?profile:bool ->
  ?poison:(unit -> bool) ->
  np:int ->
  plan:Decisions.plan ->
  fork_index:int ->
  unit ->
  t
(** [profile] (with [metrics]) wall-clocks every clock merge into the
    [profile.clock_merge_s] histogram — the [--profile] phase timing. *)

val check_poison : t -> unit
(** Raises {!Replay_cancelled} when the poison closure reports true. Called
    by the interposition layer at every interposed MPI call. *)

val count_piggyback : t -> bytes:int -> unit
(** One piggyback message of [bytes] clock payload left this process.
    Batched locally; {!flush_metrics} pushes the totals to the shard. *)

val flush_metrics : t -> unit
(** Push the locally batched piggyback counts to the metrics shard. The
    replay runner calls this once after the runtime returns (on every
    outcome), so end-of-run totals equal per-message counting. *)

(** {1 Clock operations} *)

val scalar : t -> int -> int

val clock_payload : t -> int -> Mpi.Payload.t
(** A piggyback payload snapshotting the current (or, under dual-clock
    mode, the lagging) clock. The backing buffer comes from the free list;
    the consumer must hand it back via {!release_clock_buf} once merged. *)

val clock_of_payload : t -> Mpi.Payload.t -> int array

val release_clock_buf : t -> int array -> unit
(** Return a consumed piggyback buffer to the free list. Call at most once
    per buffer, and never while the buffer is still reachable from an
    in-flight message. Wrong-width arrays are ignored. *)

val merge_in : t -> int -> int array -> unit

val sync_xmit : t -> int -> unit
(** Dual-clock synchronization point ("when a Wait/Test is encountered"). *)

(** {1 Epoch lifecycle} *)

val record_epoch :
  t -> me:int -> kind:Epoch.kind -> ctx:int -> tag:int -> Epoch.t

val tick : t -> int -> unit
(** Tick without recording — guided (forced) events keep the clock evolution
    of the parent run. *)

val complete_epoch : t -> Epoch.t -> matched_src:int -> unit

val find_potential_matches :
  t -> me:int -> src_rank:int -> ctx:int -> tag:int -> send_enc:int array -> unit
(** [FindPotentialMatches] of Algorithm 1. *)

(** {1 Guided replay} *)

val refresh_mode : t -> int -> unit
val guided_src : t -> int -> kind:Epoch.kind -> int option

(** {1 §V limitation monitor} *)

val watch_wildcard : t -> req_uid:int -> Epoch.t -> unit
val unwatch_wildcard : t -> req_uid:int -> unit
val monitor_clock_escape : t -> me:int -> op:string -> unit

(** {1 Loop iteration abstraction (§III-B1)} *)

val pcontrol : t -> int -> int -> unit
val in_abstracted_loop : t -> int -> bool

(** {1 End-of-run summary} *)

val completed_epochs : t -> Epoch.t list
val wildcard_events : t -> int
val warnings : t -> monitor_warning list
