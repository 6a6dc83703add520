(** MPI operation census, per process and per class — the instrumentation
    behind the paper's Table I (Send-Recv / Collective / Wait). *)

type op_class = Send_recv | Collective | Wait

type t

val create : int -> t

val reset : t -> unit
(** Zero every count, as {!create} left them. *)

val record : t -> int -> op_class -> unit
(** Count one operation of a class for a world pid. *)

val total : t -> int
val total_send_recv : t -> int
val total_collective : t -> int
val total_wait : t -> int

val all_per_proc : t -> float
val send_recv_per_proc : t -> float
val collective_per_proc : t -> float
val wait_per_proc : t -> float

val pp : Format.formatter -> t -> unit
