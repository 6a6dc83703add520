(** The simulated MPI runtime.

    Ranks execute as deterministic coroutines; every operation below acts on
    the {e currently running} simulated process. Message transfer is eager
    in scheduler order while virtual timestamps carry the cost model, so the
    runtime is deterministic (DAMPI's replay foundation), biased (wildcards
    resolve like a production MPI library would), and observable (deadlock,
    statistics, leaks).

    Most programs should not call this module directly: write a functor over
    {!Mpi_intf.MPI_CORE} and run it through {!Bind} or a verifier. This
    interface is for engines and tests. *)

type cost_model = {
  local_op : float;  (** CPU cost of posting any MPI operation *)
  latency : float;  (** point-to-point wire latency *)
  per_byte : float;  (** per-byte transfer cost *)
  coll_base : float;  (** base cost of a collective *)
  coll_per_log : float;  (** additional collective cost per log2(size) *)
}

val default_cost : cost_model

type oracle = Envelope.t list -> Envelope.t
(** Match oracle: picks among the per-source candidate envelopes of a
    wildcard receive or probe; consulted only with two or more candidates.
    The default picks the earliest arrival — the "native MPI bias". *)

type t

(** [create ~np ()] builds a runtime; [trace] enables the execution-event
    log (default off — a trace-off runtime allocates no event records at
    all). [metrics] attaches an observability shard: the runtime then counts
    match attempts and deadlock re-checks and observes wildcard-candidate
    widths and destination queue depths ([mpi.*] series); with [profile]
    it additionally wall-clocks every match-loop entry into the
    [profile.match_loop_s] histogram. [fault] installs a
    per-run fault-injection instance ({!Fault.make}); the runtime consults it
    on every posted send (delivery delay / transient failure) and at every
    blocking call site (injected crash / wedge). *)
val create :
  ?cost:cost_model ->
  ?oracle:oracle ->
  ?trace:bool ->
  ?metrics:Obs.Metrics.shard ->
  ?profile:bool ->
  ?fault:Fault.t ->
  np:int ->
  unit ->
  t
val np : t -> int
val comm_world : t -> Comm.t
val stats : t -> Stats.t

val current : t -> int
(** World pid of the currently running simulated process. *)

val clock : t -> int -> float
val advance_clock : t -> int -> float -> unit
val makespan : t -> float

val set_interrupt_hook : t -> (unit -> unit) -> unit
(** Install a closure polled from inside injected wedge loops (and free to
    raise to break them). The verifier installs its poison check here, so a
    wedged replay is interruptible through the same path as [--stop-first]
    cancellation. Without a hook, a wedge degrades to {!Fault.Wedged}. *)

(** {1 Point-to-point} *)

val isend : t -> ?tag:int -> dest:int -> Comm.t -> Payload.t -> Request.t
val issend : t -> ?tag:int -> dest:int -> Comm.t -> Payload.t -> Request.t
val send : t -> ?tag:int -> dest:int -> Comm.t -> Payload.t -> unit
val ssend : t -> ?tag:int -> dest:int -> Comm.t -> Payload.t -> unit
val irecv : t -> ?src:int -> ?tag:int -> Comm.t -> Request.t
val recv : t -> ?src:int -> ?tag:int -> Comm.t -> Payload.t * Types.status

val sendrecv :
  t ->
  ?stag:int ->
  ?rtag:int ->
  dest:int ->
  src:int ->
  Comm.t ->
  Payload.t ->
  Payload.t * Types.status

(** {1 Completion} *)

val wait : t -> Request.t -> Types.status
val test : t -> Request.t -> Types.status option
val waitall : t -> Request.t list -> Types.status list
val waitany : t -> Request.t list -> int * Types.status
val testall : t -> Request.t list -> Types.status list option
val recv_data : Request.t -> Payload.t

(** {1 Probe} *)

val probe : t -> ?src:int -> ?tag:int -> Comm.t -> Types.status
val iprobe : t -> ?src:int -> ?tag:int -> Comm.t -> Types.status option

(** {1 Collectives} *)

val barrier : t -> Comm.t -> unit
val bcast : t -> root:int -> Comm.t -> Payload.t -> Payload.t

val reduce :
  t -> root:int -> op:Types.reduce_op -> Comm.t -> Payload.t -> Payload.t option

val allreduce : t -> op:Types.reduce_op -> Comm.t -> Payload.t -> Payload.t
val gather : t -> root:int -> Comm.t -> Payload.t -> Payload.t array option
val allgather : t -> Comm.t -> Payload.t -> Payload.t array
val scatter : t -> root:int -> Comm.t -> Payload.t array option -> Payload.t
val alltoall : t -> Comm.t -> Payload.t array -> Payload.t array
val scan : t -> op:Types.reduce_op -> Comm.t -> Payload.t -> Payload.t

val exscan : t -> op:Types.reduce_op -> Comm.t -> Payload.t -> Payload.t
(** Exclusive prefix reduction; rank 0 receives [Unit]. *)

val reduce_scatter_block :
  t -> op:Types.reduce_op -> Comm.t -> Payload.t array -> Payload.t
(** Every rank contributes an np-element array; rank r receives the
    element-wise reduction of slot r. *)

(** {1 Communicator management} *)

val comm_group : t -> Comm.t -> Group.t

val comm_create : t -> Comm.t -> Group.t -> Comm.t option
(** Collective over the parent; group members receive the new communicator,
    others [None]. Ranks must pass equal groups. *)

val comm_dup : t -> ?internal:bool -> Comm.t -> Comm.t
val comm_split : t -> color:int -> key:int -> Comm.t -> Comm.t
val comm_free : t -> Comm.t -> unit

(** {1 Misc} *)

val pcontrol : t -> int -> unit
(** [MPI_Pcontrol]: a no-op in the runtime. DAMPI's loop abstraction reads
    the calls in its interposition layer. *)

val wtime : t -> float

(** {1 Driving a program} *)

val spawn_ranks : t -> (int -> unit) -> unit
(** [spawn_ranks t body] spawns one simulated process per rank, each running
    [body rank]. Call once, before {!run}. *)

val run : t -> Sim.Coroutine.outcome

(** {1 Finalize-time reports} *)

type leaked_comm = { leaked_ctx : int; leaked_label : string }

type leak_report = {
  comm_leaks : (int * leaked_comm list) list;
      (** (world pid, communicators it helped create but never freed);
          tool-internal and world communicators excluded *)
  req_leaks : int array;  (** per-pid count of never-released requests *)
  internal_ctxs : int list;  (** contexts of tool-internal communicators *)
}

val leak_report : t -> leak_report

val wildcard_count : t -> int
(** Total wildcard receives posted across all ranks. *)

(** {1 Execution trace} *)

type event =
  | Ev_send of {
      t : float;
      src : int;
      dst : int;
      tag : int;
      ctx : int;
      bytes : int;
      sync : bool;
    }
  | Ev_recv_post of { t : float; pid : int; src : int; tag : int; ctx : int }
  | Ev_match of { t : float; src : int; dst : int; tag : int; ctx : int }
  | Ev_collective of { t : float; name : string; ctx : int; size : int }

val trace : t -> event list
(** Events in scheduler order; empty unless created with [~trace:true]. *)

val pp_event : Format.formatter -> event -> unit
