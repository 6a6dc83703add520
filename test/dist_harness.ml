(* The in-process distributed harness shared by the test executables.
   Workers are domains speaking the real wire protocol over socketpairs,
   so the whole Wire/Coordinator/Remote_worker stack is exercised without
   shelling out. Each suite passes its own small workload list: the CLI
   registry's job defaults (pruning on, retries) would change what the
   suites test. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Coordinator = Dampi.Coordinator
module Remote_worker = Dampi.Remote_worker
module Wire = Dampi.Wire

(* A workload where pruning actually fires.

   Two wildcard receivers with disjoint sender pools: every epoch owned by
   rank 0 has footprint within {0,2,3,4}, every epoch owned by rank 1
   within {1,5,6,7}, so cross-side forks commute and sleep sets cut the
   product space. (The stock patterns never prune: all their wildcard
   epochs share an owner or a rank, which is exactly why this program is
   here.) *)
module Twin_servers (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | (0 | 1) as r ->
        for _ = 1 to 3 do
          let x, _ = M.recv ~src:M.any_source world in
          if Mpi.Payload.to_int x < 0 then failwith "twin: negative payload"
        done;
        ignore r
    | r -> M.send ~dest:(if r <= 4 then 0 else 1) world (Mpi.Payload.int r)
end

let twin_servers : Mpi.Mpi_intf.program = (module Twin_servers)

(* A suite's workload: (name, np, state config, program builder). *)
type case = string * int * State.config * (unit -> Mpi.Mpi_intf.program)

(* The worker's resolve function — what the CLI builds from its registry,
   here built from [cases]. The job's np must agree with the case's. *)
let resolver ?(prune = false) ?(rb = Explorer.default_robustness)
    (cases : case list) (job : Wire.job) =
  match List.find_opt (fun (n, _, _, _) -> n = job.Wire.workload) cases with
  | None -> Error (Printf.sprintf "unknown workload %S" job.Wire.workload)
  | Some (_, np, state_config, build) ->
      if job.Wire.np <> np then
        Error (Printf.sprintf "np mismatch: job says %d, have %d" job.Wire.np np)
      else
        Ok
          {
            Remote_worker.np;
            runner =
              Explorer.dampi_runner
                { Explorer.default_config with state_config }
                ~np (build ());
            rb;
            prune;
          }

(* [resolve] with every replay delayed by [delay] seconds. *)
let slowed delay resolve job =
  Result.map
    (fun (r : Remote_worker.resolved) ->
      {
        r with
        runner =
          (fun ~ctx plan ~fork_index ->
            Unix.sleepf delay;
            r.runner ~ctx plan ~fork_index);
      })
    (resolve job)

(* Spawn [n] in-process workers, each a domain serving one end of a
   socketpair; returns the coordinator-side fds and the join handles. *)
let spawn_workers ?auth ~resolve n =
  List.init n (fun _ ->
      let c, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (c, Domain.spawn (fun () -> ignore (Remote_worker.serve ?auth ~resolve w))))

(* Tests keep the rejoin grace short: with [Fds] attach there is no listen
   socket for a lost worker to redial, so waiting out the default grace
   only slows the refund path down. *)
let setup_of ?(lease_size = 2) ?(rejoin_grace = 0.05) ?auth ~name ~np attach =
  {
    (Coordinator.default_setup attach { Wire.workload = name; np; params = [] })
    with
    lease_size;
    rejoin_grace;
    auth;
  }

(* Verify [build ()] under [config] (resuming [resume] when given) against
   [workers] fresh socketpair workers, then join them. *)
let verify_distributed ?(workers = 2) ?(config = Explorer.default_config)
    ?resume ?auth ~resolve ~name ~np build =
  let ws = spawn_workers ?auth ~resolve workers in
  let setup = setup_of ?auth ~name ~np (Coordinator.Fds (List.map fst ws)) in
  let r = Explorer.verify ~config ?resume ~distribute:setup ~np (build ()) in
  List.iter (fun (_, d) -> Domain.join d) ws;
  r

let signatures (report : Report.t) =
  List.map
    (fun (f : Report.finding) -> Report.error_signature f.Report.error)
    report.Report.findings
  |> List.sort_uniq compare

(* A distributed report must equal the sequential one: counts (pruned
   runs included), finding signatures, and each finding's reproduction
   schedule and virtual time. *)
let check_same name (seq : Report.t) (dist : Report.t) =
  Alcotest.(check (list string))
    (name ^ ": no harness failures")
    []
    (List.map
       (fun (h : Report.harness_failure) -> h.Report.hf_message)
       dist.Report.harness_failures);
  Alcotest.(check (list string))
    (name ^ ": same finding signatures")
    (signatures seq) (signatures dist);
  Alcotest.(check int)
    (name ^ ": same interleaving count")
    seq.Report.interleavings dist.Report.interleavings;
  Alcotest.(check int)
    (name ^ ": same bounded epochs")
    seq.Report.bounded_epochs dist.Report.bounded_epochs;
  Alcotest.(check int)
    (name ^ ": same wildcards analyzed")
    seq.Report.wildcards_analyzed dist.Report.wildcards_analyzed;
  Alcotest.(check int)
    (name ^ ": same pruned-run count")
    seq.Report.runs_pruned dist.Report.runs_pruned;
  let canonical (r : Report.t) =
    List.map
      (fun (f : Report.finding) ->
        Format.asprintf "%a" Report.pp_finding { f with Report.run_index = 0 })
      r.Report.findings
  in
  Alcotest.(check (list string))
    (name ^ ": same canonical findings")
    (canonical seq) (canonical dist);
  Alcotest.(check (float 1e-9))
    (name ^ ": same total virtual time")
    seq.Report.total_virtual_time dist.Report.total_virtual_time
