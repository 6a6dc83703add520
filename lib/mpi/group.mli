(** Process groups ([MPI_Group]): ordered sets of world pids, the local
    (non-collective) half of communicator construction. All operations are
    pure; pair with {!Runtime.comm_create} (collective) to build
    communicators. *)

type t

val of_comm : Comm.t -> t
val members : t -> int array
val rank_opt : t -> int -> int option
val is_member : t -> int -> bool

val incl : t -> int list -> t
(** Subgroup at the given positions, in that order (raises
    {!Types.Mpi_error} out of range). *)

val excl : t -> int list -> t
val union : t -> t -> t
(** Order of the first operand, then new members of the second. *)

val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
