(** The ISP verification engine: the same depth-first match exploration as
    DAMPI (coverage is identical on these programs), with every run paying
    the centralized scheduler's costs.

    Layering per run, top to bottom:
    [Program -> Isp.Interpose -> Dampi.Interpose -> Bind -> Runtime].
    The DAMPI layer below provides match discovery and guided replay (in
    the real ISP the central scheduler discovers matches from its global
    picture; here the discovery bookkeeping is shared and its piggyback
    traffic bypasses the scheduler charges, so it does not distort ISP's
    cost accounting). *)

let layer rt core =
  let np = Mpi.Runtime.np rt in
  let server =
    Sim.Vtime.Server.create ~service:(Model.service Model.default ~np)
  in
  Interpose.layer ~model:Model.default ~server rt core

let runner config ~np program =
  Dampi.Explorer.dampi_runner ~layer config ~np program

let verify ?(config = Dampi.Explorer.default_config) ?resume ~np program =
  Dampi.Explorer.explore ~config ?resume ~np (runner config ~np program)

let single_run_makespan ?(config = Dampi.Explorer.default_config) ~np program =
  let record =
    runner config ~np program ~ctx:Dampi.Explorer.null_ctx
      (Dampi.Decisions.empty ~np) ~fork_index:(-1)
  in
  record.Dampi.Report.makespan
