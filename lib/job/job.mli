(** One verification job: the configuration that [dampi verify], a
    distributed worker and the [dampi serve] daemon all run.

    This module owns the job's only encoding. The typed record is built by
    the command line's job flags, shipped as key/value parameters to
    workers ({!to_wire}) and to the daemon ({!to_params}), validated in
    one place ({!check}), labelled for checkpoints in one place ({!label})
    and executed by one runner ({!run}). *)

type engine = Dampi | Isp
type clock = Lamport | Vector

type t = {
  workload : string;  (** registry key, lowercase *)
  np : int;
  engine : engine;
  clock : clock;
  k : int option;  (** bounded-mixing window; [None] is unbounded *)
  dual : bool;  (** dual (lagging-transmission) Lamport clock *)
  prune : bool;
      (** sleep-set pruning requested (the default); the isp engine never
          prunes and refuses a request to turn it off *)
  prefix_cache : int option;  (** replay-memoization byte budget *)
  max_runs : int;
  jobs : int;  (** worker domains *)
  stop_first : bool;
  quiet : bool;  (** render the one-line summary instead of the report *)
  profile : bool;
  checkpoint_every : int;
      (** completed replays between checkpoint writes; 0 writes only on
          interrupt and on completion *)
  replay_timeout : float option;
  max_replay_steps : int option;
  max_retries : int;
  retry_backoff : float;
  fault_seed : int option;
  fault_spec : string option;
  net_fault_seed : int option;
  net_fault_spec : string option;
}

val defaults : t
(** Every field at its default. [workload] is empty and [np] is 0 until
    {!default} fills them from the registry. *)

val default : string -> (t, string) result
(** {!defaults} for a registry workload (any case), at its default [np]. *)

val engine_of_string : string -> (engine, string) result
val clock_of_string : string -> (clock, string) result

val check : t -> (t, string) result
(** Every bound, as a one-line message naming the offending flag. *)

val to_params : t -> (string * string) list
(** [workload] plus every field off its default. *)

val of_params : (string * string) list -> (t, string) result
(** Absent keys take their defaults; unknown keys, unparsable values and
    out-of-bound jobs are [Error]. Never raises. *)

val to_wire : t -> Dampi.Wire.job
val of_wire : Dampi.Wire.job -> (t, string) result

val label : t -> string
(** The configuration a checkpoint belongs to, e.g.
    [dampi matmult np=5 clock=lamport k=0 dual=false prune=true]. *)

val to_config : ?checkpoint:string -> t -> Dampi.Explorer.config
(** The explorer configuration, checkpointing to [checkpoint] under
    {!label} when given. *)

val resume : t -> string -> (Dampi.Checkpoint.t option, string) result
(** The checkpoint at a path, if one exists: [Error] when it cannot be
    read or belongs to another configuration. *)

val run :
  ?progress:((string * string) list -> unit) ->
  ?trace:bool ->
  ?checkpoint:string ->
  ?resume:Dampi.Checkpoint.t ->
  ?distribute:Dampi.Coordinator.setup ->
  ?fallback_local:bool ->
  t ->
  Dampi.Report.t * string
(** Verifies the job and renders the result as [dampi verify] prints it. *)

val resolve : Dampi.Wire.job -> (Dampi.Remote_worker.resolved, string) result
(** A distributed worker's replay runner for a coordinator's job. *)

val admit : (string * string) list -> (string, string) result
(** The serve daemon's admission check: the job's label. *)

val serve_job :
  ckpt:string ->
  label:string ->
  params:(string * string) list ->
  progress:((string * string) list -> unit) ->
  Dampi.Serve.outcome
(** The serve daemon's runner: resumes from [ckpt] when it holds this
    job's checkpoint, and checkpoints to it. *)
