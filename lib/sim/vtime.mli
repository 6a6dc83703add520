(** Virtual-time cost model.

    The paper's performance figures (Figs. 5, 6; Table II) were measured in
    wall-clock seconds on an 800-node cluster. This repository substitutes a
    virtual-time simulation: each simulated process carries its own clock,
    message receipt synchronizes clocks the way a real network transfer
    would ([recv_time = max(local, send_time + latency)]), and centralized
    resources (the ISP scheduler) are modelled as FIFO queueing servers.

    The *makespan* — the maximum per-process clock at program end — plays the
    role of measured wall-clock time. The model captures exactly the
    architectural property the paper measures: a per-call synchronous
    round-trip to a central scheduler saturates and queues as offered load
    grows, while decentralized piggybacking adds only bounded local cost. *)

type t
(** Per-process clock vector. *)

val create : int -> t
(** [create n] gives [n] processes, all clocks at 0. *)

val now : t -> int -> float
(** [now t pid] reads process [pid]'s clock. *)

val advance : t -> int -> float -> unit
(** [advance t pid dt] charges [dt] (>= 0) seconds of local work to [pid]. *)

val observe : t -> int -> float -> unit
(** [observe t pid stamp] moves [pid]'s clock forward to at least [stamp] —
    the receive-side half of a message transfer or synchronization. *)

val synchronize : t -> int list -> float -> unit
(** [synchronize t pids cost] models a synchronizing collective: every
    process in [pids] advances to [max clocks + cost]. *)

val makespan : t -> float
(** Maximum clock over all processes. *)

(** FIFO queueing server for centralized resources. *)
module Server : sig
  type server

  val create : service:float -> server
  (** [service] is the per-request service time in virtual seconds. *)

  val serve : server -> arrival:float -> float
  (** [serve srv ~arrival] enqueues a request arriving at [arrival] and
      returns its completion time: requests are served one at a time in
      arrival order, so completion is
      [max busy_until arrival + service]. *)

  val served : server -> int
  (** Total requests served. *)

  val reset : server -> unit
end
