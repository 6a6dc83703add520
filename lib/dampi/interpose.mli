(** The DAMPI interposition layer (Algorithm 1 + the §II-D piggyback
    protocol).

    [Wrap (M) (Cfg)] produces an {!Mpi.Mpi_intf.MPI_CORE} that behaves like
    [M] while maintaining logical clocks, exchanging them through piggyback
    messages (shadow communicators by default, inline payload packing
    optionally), recording epochs and potential matches, enforcing
    guided-replay decisions, and running the §V limitation monitor. Target
    programs instantiate against the wrapped module unmodified — the OCaml
    analogue of relinking against PnMPI. *)

module type WRAPPED = sig
  include Mpi.Mpi_intf.MPI_CORE

  val init_tool : unit -> unit
  (** Collective tool prologue: every rank must call it before any other MPI
      operation (creates the world shadow communicator). *)

  val finalize_tool : unit -> unit
  (** Tool epilogue: synchronizes, then drains in-flight messages and their
      piggybacks so that alternates the application never received (e.g.
      Fig. 3's losing send) still enter the late-message analysis. *)

  val shadow_ctxs : unit -> int list
  (** Contexts of tool-created communicators, for leak-report filtering. *)

  val reset : unit -> unit
  (** Forget every communicator and request of the previous run, so the
      instance serves the next run of its state after {!State.reset}. *)
end

module Wrap (_ : Mpi.Mpi_intf.MPI_CORE) (_ : sig
  val st : State.t
end) : WRAPPED
