(** Communicators: a context id plus an ordered list of member world pids.

    The context id isolates matching; freeing is tracked per member rank so
    the finalize-time leak check can report per-process communicator leaks
    (Table II's "C-leak" column). *)

type t

val make : ctx:int -> ranks:int array -> internal:bool -> label:string -> t
val size : t -> int
val ctx : t -> int
val label : t -> string

val is_internal : t -> bool
(** Tool-created (e.g. DAMPI's piggyback shadows): exempt from user-facing
    leak reports. *)

val rank_of_world : t -> int -> int
(** Communicator rank of a member world pid; raises {!Types.Mpi_error} for
    non-members. *)

val world_of_rank : t -> int -> int
val is_member : t -> int -> bool

val mark_freed : t -> int -> unit
(** Raises {!Types.Mpi_error} on double free. *)

val freed_by : t -> int -> bool
