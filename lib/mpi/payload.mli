(** Message payloads.

    Real MPI transfers typed buffers; the simulator transfers structured
    values. {!size_bytes} gives the wire size used by the virtual-time cost
    model and by [status.count]. *)

type t =
  | Unit
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | Arr of t array
  | Ints of int array
      (** unboxed integer vector, wire-equivalent to [Arr] of [Int]s (same
          {!size_bytes}, so [status.count] is unchanged); one allocation for
          the whole array — the clock-piggyback representation on the replay
          hot path *)

val size_bytes : t -> int

(** {1 Constructors} *)

val int : int -> t
val float : float -> t
val str : string -> t
val pair : t -> t -> t

(** {1 Destructors}

    Each raises {!Types.Mpi_error} on a shape mismatch — in a simulated rank
    this surfaces as a crash finding, the moral equivalent of a type-mismatch
    MPI receive. *)

val to_int : t -> int
val to_float : t -> float
val to_str : t -> string
val to_pair : t -> t * t
val to_arr : t -> t array

val combine : Types.reduce_op -> t -> t -> t
(** Element-wise reduction; arrays reduce pointwise, scalars directly. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
