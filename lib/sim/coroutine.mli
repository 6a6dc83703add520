(** Cooperative processes over OCaml 5 effect handlers.

    Simulated MPI ranks run as coroutines inside one OCaml domain. The
    scheduler is strictly deterministic: processes are resumed in FIFO order
    from a ready queue, wake-ups enqueue in call order, and no wall-clock or
    OS-level nondeterminism is consulted. Determinism is what makes DAMPI's
    stateless replay sound — re-running the same program with the same forced
    decisions reproduces the same execution prefix.

    A process blocks by calling {!block}; it is the
    responsibility of whoever owns the blocking condition (e.g. the MPI
    runtime completing a request) to call {!wake}. *)

type sched
(** A scheduler instance owning a set of processes. *)

type pid = int
(** Process identifier, dense from 0 in spawn order. *)

type blocked_info = {
  pid : pid;
  reason : string;  (** human-readable description of the blocking operation *)
}

type outcome =
  | All_finished
      (** Every process ran to completion. *)
  | Deadlock of blocked_info list
      (** The ready queue drained while at least one process remained
          blocked: global quiescence, i.e. a deadlock in the simulated
          system. *)
  | Crashed of pid * exn * Printexc.raw_backtrace
      (** A process raised; the run is aborted at that point. *)

val create : unit -> sched

val spawn : sched -> (unit -> unit) -> pid
(** [spawn sched body] registers a new process. Processes start in the ready
    queue in spawn order. Must be called before {!run}. *)

val run : sched -> outcome
(** Execute until completion, deadlock, or crash. Can only be called once per
    scheduler. *)

val current : sched -> pid
(** Identity of the running process: a field the scheduler sets when it
    steps a process, so reading it costs no effect round trip. Raises
    [Invalid_argument] outside a process body. *)

val yield : unit -> unit
(** Reschedule the calling process at the back of the ready queue. *)

val block : (unit -> string) -> unit
(** Park the calling process until someone calls {!wake} on it. The thunk
    describes the blocked operation; it is called only when a {!Deadlock}
    verdict needs the text, so it must render the same string at any point
    while the process stays parked. *)

val wake : sched -> pid -> unit
(** Move a blocked process to the ready queue. Waking a process that is not
    blocked is a no-op (the wake-up is not remembered; blocking conditions
    must be re-checked by the blocker under this discipline). *)

val wake_all : sched -> pid list -> unit
(** Wake several processes, in list order. *)
