(* The determinism contract of stateless replay (paper §IV): every guided
   interleaving is an independent re-execution from MPI_Init, so exploring
   the decision space with 4 domains must find exactly what the sequential
   depth-first walk finds. For every workload of the CLI registry (at small
   parameters) we check that jobs=1 and jobs=4 exhaustive explorations agree
   on the finding-signature set, the interleaving count, and the
   bounded-epoch count. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State

(* The CLI registry, sized down so exhaustive exploration stays small. *)
let registry : (string * int * State.config * (unit -> Mpi.Mpi_intf.program)) list
    =
  let default = State.default_config in
  let vector = State.make_config ~clock:(module Clocks.Vector) () in
  let dual = State.make_config ~dual_clock:true () in
  let k0 = State.make_config ~mixing_bound:0 () in
  [
    ("fig3", 3, default, fun () -> Workloads.Patterns.fig3);
    ("fig4", 4, default, fun () -> Workloads.Patterns.fig4);
    ("fig4/vector", 4, vector, fun () -> Workloads.Patterns.fig4);
    ("fig10", 3, default, fun () -> Workloads.Patterns.fig10);
    ("fig10/dual", 3, dual, fun () -> Workloads.Patterns.fig10);
    ("deadlock", 2, default, fun () -> Workloads.Patterns.head_to_head);
    ( "matmult",
      5,
      default,
      fun () ->
        Workloads.Matmult.program
          ~params:
            { Workloads.Matmult.default_params with n = 8; rows_per_task = 2 }
          () );
    ("samplesort", 6, default, fun () -> Workloads.Samplesort.program ());
    (* ADLB's unbounded space explodes; k=0 keeps it exhaustive and small. *)
    ("adlb/k0", 6, k0, fun () -> Workloads.Adlb.program ());
    ( "parmetis",
      4,
      default,
      fun () ->
        Workloads.Parmetis.program
          ~params:{ Workloads.Parmetis.default_params with scale = 0.01 }
          () );
  ]
  @ List.map
      (fun s ->
        ( s.Workloads.Skeleton.name,
          8,
          default,
          fun () -> Workloads.Skeleton.program s ))
      (Workloads.Nas.all @ Workloads.Specmpi.all)

let verify ~jobs ~np ~state_config program =
  Explorer.verify
    ~config:{ Explorer.default_config with state_config; jobs }
    ~np program

let check_equivalence (name, np, state_config, build) () =
  let seq = verify ~jobs:1 ~np ~state_config (build ()) in
  let par = verify ~jobs:4 ~np ~state_config (build ()) in
  Alcotest.(check (list string))
    (name ^ ": same finding signatures")
    (Dist_harness.signatures seq) (Dist_harness.signatures par);
  Alcotest.(check int)
    (name ^ ": same interleaving count")
    seq.Report.interleavings par.Report.interleavings;
  Alcotest.(check int)
    (name ^ ": same bounded epochs")
    seq.Report.bounded_epochs par.Report.bounded_epochs;
  Alcotest.(check int)
    (name ^ ": same wildcards analyzed")
    seq.Report.wildcards_analyzed par.Report.wildcards_analyzed;
  (* The canonical report also agrees on each finding's reproduction
     schedule, not just its signature. *)
  Alcotest.(check (list string))
    (name ^ ": same canonical schedules")
    (List.map
       (fun (f : Report.finding) -> Format.asprintf "%a" Report.pp_finding f)
       (List.map (fun f -> { f with Report.run_index = 0 }) seq.Report.findings))
    (List.map
       (fun (f : Report.finding) -> Format.asprintf "%a" Report.pp_finding f)
       (List.map (fun f -> { f with Report.run_index = 0 }) par.Report.findings));
  (* Worker accounting is conserved: per-worker runs sum to the total. *)
  let total_runs (r : Report.t) =
    List.fold_left
      (fun acc (w : Report.worker_stat) -> acc + w.Report.runs_executed)
      0 r.Report.workers
  in
  Alcotest.(check int)
    (name ^ ": jobs=1 worker runs sum")
    seq.Report.interleavings (total_runs seq);
  Alcotest.(check int)
    (name ^ ": jobs=4 worker runs sum")
    par.Report.interleavings (total_runs par)

(* stop_on_first_error stays sound in parallel mode: whatever interleaving
   finds the error first, the reported error set is a subset of the full
   exploration's and contains at least one deadlock/crash. *)
let test_stop_first_parallel () =
  let config jobs =
    {
      Explorer.default_config with
      stop_on_first_error = true;
      jobs;
    }
  in
  List.iter
    (fun jobs ->
      let report =
        Explorer.verify ~config:(config jobs) ~np:3 Workloads.Patterns.fig3
      in
      Alcotest.(check bool)
        (Printf.sprintf "error found (jobs=%d)" jobs)
        true
        (List.exists
           (fun (f : Report.finding) ->
             match f.Report.error with
             | Report.Deadlock _ | Report.Crash _ -> true
             | _ -> false)
           report.Report.findings))
    [ 1; 4 ]

(* max_runs is a hard ceiling at any worker count. *)
let test_budget_parallel () =
  List.iter
    (fun jobs ->
      let report =
        Explorer.verify
          ~config:{ Explorer.default_config with max_runs = 10; jobs }
          ~np:6 (Workloads.Adlb.program ())
      in
      Alcotest.(check int)
        (Printf.sprintf "budget respected (jobs=%d)" jobs)
        10 report.Report.interleavings)
    [ 1; 4 ]

let () =
  Alcotest.run "explorer-parallel"
    [
      ( "jobs=1 vs jobs=4",
        List.map
          (fun ((name, _, _, _) as case) ->
            Alcotest.test_case name `Quick (check_equivalence case))
          registry );
      ( "cooperative cancellation",
        [
          Alcotest.test_case "stop-first" `Quick test_stop_first_parallel;
          Alcotest.test_case "max-runs" `Quick test_budget_parallel;
        ] );
    ]
