(** The ISP verification engine: DAMPI's depth-first match exploration with
    every run paying the centralized scheduler's costs. Coverage is
    identical to DAMPI's on these programs; only the per-run virtual cost
    differs — the comparison of the paper's Figs. 5 and 6.

    ISP is a layer, not a runner of its own: {!verify} runs
    {!Dampi.Explorer.dampi_runner} with {!layer} between the program and
    the DAMPI interposition, layered as
    [Program -> Isp.Interpose -> Dampi.Interpose -> Bind -> Runtime], so
    both engines share one replay path, one configuration
    ({!Dampi.Explorer.config}) and one metrics flush. *)

val layer : Dampi.Explorer.layer
(** ISP's scheduler interposition ({!Interpose.Wrap}) under {!Model.default},
    with a fresh per-run scheduler server sized for the runtime's rank
    count. *)

val verify :
  ?config:Dampi.Explorer.config ->
  ?resume:Dampi.Checkpoint.t ->
  np:int ->
  Mpi.Mpi_intf.program ->
  Dampi.Report.t
(** [resume] restores a checkpointed cut, as in {!Dampi.Explorer.explore}. *)

val single_run_makespan :
  ?config:Dampi.Explorer.config -> np:int -> Mpi.Mpi_intf.program -> float
(** Virtual makespan of one run under ISP's scheduler costs, for overhead
    curves. *)
