(** One verification job: the configuration that [dampi verify], a
    distributed worker and the [dampi serve] daemon all run.

    This module owns the job's only encoding: one row per key in a table
    that holds the key's codec, default, command-line flag, help text and
    bound. The command line builds key/value parameters from {!flags}, and
    every job — from [verify], [submit], the daemon's journal or a
    coordinator's lease — is decoded by {!of_params}. The job is validated
    in one place ({!check}), labelled for checkpoints in one place
    ({!label}) and executed by one runner ({!run}). *)

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

val default : string -> (t, string) result
(** Every field at its default for a registry workload (any case), at its
    default [np]. *)

val program : t -> Mpi.Mpi_intf.program
(** The job's workload program, from the registry. *)

(** How a key is spelled on the command line. *)
type shape =
  | Value of string  (** a flag taking a value, documented as this docv *)
  | Presence of string  (** a bare flag whose presence sets this value *)
  | Vopt of string * string
      (** a flag with a docv whose value is the second when given bare *)

type flag = {
  key : string;  (** the parameter the flag sets *)
  names : string list;  (** Cmdliner spellings, e.g. [["k"; "mixing-bound"]] *)
  doc : string;  (** help text, in Cmdliner's markup *)
  shape : shape;
  absent : string;  (** the default the help shows; [""] shows none *)
  bound : string option;  (** the message refusing an out-of-bound value *)
}

val flags : flag list
(** One flag per key, in the table's order. *)

val np_flag : flag
(** The [np] key's flag, for the commands that take only a rank count. *)

val check : t -> (t, string) result
(** Every row's bound, then the rules that span keys, as a one-line
    message naming the offending flag. *)

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
