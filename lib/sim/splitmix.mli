(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows through a [Splitmix.t]
    so that runs are exactly reproducible from a seed — a hard requirement for
    DAMPI's guided replay, which re-executes the target program and must
    observe the same sequence of events up to the forced match decisions. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds yield
    equal streams. *)

val derive : int -> salt:int -> t
(** [derive seed ~salt] builds a generator from a (seed, salt) pair: equal
    pairs yield equal streams, and distinct salts under one seed yield
    independent streams. This is how per-replay fault schedules are keyed off
    a global fault seed plus a per-replay identity, so they do not depend on
    which worker runs the replay. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. Use one
    generator per simulated process so that adding draws in one process does
    not perturb the stream seen by another. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] draws a uniform element. [arr] must be non-empty. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
