(* Tests for the evaluation workloads: they must run to completion natively,
   behave correctly, and expose exactly the properties the experiments rely
   on (op mix, wildcard counts, leaks, non-determinism). *)

module Runtime = Mpi.Runtime
module Stats = Mpi.Stats
module Coroutine = Sim.Coroutine
module Explorer = Dampi.Explorer
module Report = Dampi.Report

let check_finished name (outcome : Coroutine.outcome) =
  match outcome with
  | Coroutine.All_finished -> ()
  | Coroutine.Deadlock blocked ->
      Alcotest.failf "%s deadlocked: %s" name
        (String.concat ", "
           (List.map
              (fun (b : Coroutine.blocked_info) ->
                Printf.sprintf "%d:%s" b.pid b.reason)
              blocked))
  | Coroutine.Crashed (pid, exn, _) ->
      Alcotest.failf "%s: rank %d crashed: %s" name pid (Printexc.to_string exn)

let run_native ?cost ~np program =
  let rt, outcome = Mpi.Bind.exec ?cost ~np program in
  (rt, outcome)

(* ---- matmult ---- *)

let test_matmult_native () =
  (* The master validates C against the expected product: completion with
     no crash is the correctness check. *)
  List.iter
    (fun np ->
      let _, outcome = run_native ~np (Workloads.Matmult.program ()) in
      check_finished (Printf.sprintf "matmult np=%d" np) outcome)
    [ 2; 3; 5; 8 ]

let test_matmult_verified_clean () =
  let report =
    Explorer.verify
      ~config:{ Explorer.default_config with max_runs = 200 }
      ~np:3 (Workloads.Matmult.program ())
  in
  Alcotest.(check int) "no findings" 0 (List.length report.Report.findings);
  Alcotest.(check bool)
    (Printf.sprintf "explores interleavings (got %d)" report.Report.interleavings)
    true
    (report.Report.interleavings > 1);
  Alcotest.(check bool) "wildcards analyzed" true
    (report.Report.wildcards_analyzed > 0)

(* ---- mini-ADLB ---- *)

let test_adlb_native_single_server () =
  List.iter
    (fun np ->
      let _, outcome = run_native ~np (Workloads.Adlb.program ()) in
      check_finished (Printf.sprintf "adlb np=%d" np) outcome)
    [ 2; 4; 8 ]

let test_adlb_native_multi_server () =
  let params = { Workloads.Adlb.default_params with servers = 3 } in
  List.iter
    (fun np ->
      let _, outcome = run_native ~np (Workloads.Adlb.program ~params ()) in
      check_finished (Printf.sprintf "adlb-multi np=%d" np) outcome)
    [ 6; 9; 12 ]

let test_adlb_wildcard_heavy () =
  (* Every server receive and every client reply is a wildcard: the
     wildcard count must exceed the total item count. *)
  let rt, outcome = run_native ~np:6 (Workloads.Adlb.program ()) in
  check_finished "adlb" outcome;
  Alcotest.(check bool) "wildcards dominate" true
    (Runtime.wildcard_count rt > 5 * Workloads.Adlb.default_params.puts_per_client)

let test_adlb_verified () =
  let report =
    Explorer.verify
      ~config:
        {
          Explorer.default_config with
          state_config = Dampi.State.make_config ~mixing_bound:0 ();
          max_runs = 500;
        }
      ~np:4 (Workloads.Adlb.program ())
  in
  Alcotest.(check int) "no errors in mini-ADLB" 0
    (List.length
       (List.filter
          (fun (f : Report.finding) ->
            match f.Report.error with
            | Report.Deadlock _ | Report.Crash _ | Report.Comm_leak _
            | Report.Request_leak _ ->
                true
            | _ -> false)
          report.Report.findings));
  Alcotest.(check bool)
    (Printf.sprintf "explores (got %d)" report.Report.interleavings)
    true
    (report.Report.interleavings > 1)

(* ---- ParMETIS skeleton ---- *)

let small_parmetis =
  { Workloads.Parmetis.default_params with scale = 0.01 }

let test_parmetis_native_deterministic () =
  let rt, outcome =
    run_native ~np:8 (Workloads.Parmetis.program ~params:small_parmetis ())
  in
  check_finished "parmetis" outcome;
  Alcotest.(check int) "fully deterministic (no wildcards)" 0
    (Runtime.wildcard_count rt)

let test_parmetis_op_mix () =
  (* At scale 1.0 and np = 8, per-process counts must approximate Table I:
     15.1K send-recv, 2.5K collective, 5.9K wait (within 15%). *)
  let rt, outcome = run_native ~np:8 (Workloads.Parmetis.program ()) in
  check_finished "parmetis-full" outcome;
  let stats = Runtime.stats rt in
  let within pct target actual =
    let f = float_of_int actual in
    f >= target *. (1.0 -. pct) && f <= target *. (1.0 +. pct)
  in
  let sr = Stats.total_send_recv stats / 8 in
  let co = Stats.total_collective stats / 8 in
  let wa = Stats.total_wait stats / 8 in
  Alcotest.(check bool)
    (Printf.sprintf "send-recv/proc ~ 15125 (got %d)" sr)
    true (within 0.15 15125.0 sr);
  Alcotest.(check bool)
    (Printf.sprintf "collective/proc ~ 2500 (got %d)" co)
    true (within 0.15 2500.0 co);
  Alcotest.(check bool)
    (Printf.sprintf "wait/proc ~ 5875 (got %d)" wa)
    true (within 0.15 5875.0 wa)

let test_parmetis_comm_leak () =
  (* Table II: ParMETIS leaks a communicator; the verifier must report it
     on every rank, and nothing else. *)
  let report =
    Explorer.verify
      ~config:{ Explorer.default_config with max_runs = 2 }
      ~np:4
      (Workloads.Parmetis.program ~params:small_parmetis ())
  in
  let comm_leaks =
    List.filter
      (fun (f : Report.finding) ->
        match f.Report.error with Report.Comm_leak _ -> true | _ -> false)
      report.Report.findings
  in
  Alcotest.(check int) "one leak finding per rank" 4 (List.length comm_leaks);
  Alcotest.(check int) "exactly one interleaving (deterministic)" 1
    report.Report.interleavings

let test_parmetis_interpolation () =
  (* Calibration points reproduce Table I exactly; midpoints are monotone. *)
  let a8, c8, w8 = Workloads.Parmetis.targets ~np:8 ~scale:1.0 in
  Alcotest.(check (float 1.0)) "A(8)" 15125.0 a8;
  Alcotest.(check (float 1.0)) "C(8)" 2500.0 c8;
  Alcotest.(check (float 1.0)) "W(8)" 5875.0 w8;
  let a16, c16, _ = Workloads.Parmetis.targets ~np:16 ~scale:1.0 in
  Alcotest.(check (float 1.0)) "A(16)" 23812.0 a16;
  let a12, c12, _ = Workloads.Parmetis.targets ~np:12 ~scale:1.0 in
  Alcotest.(check bool) "A monotone" true (a8 < a12 && a12 < a16);
  Alcotest.(check bool) "C decreasing trend" true (c8 > c12 && c12 > c16)

(* ---- NAS / SpecMPI skeletons ---- *)

let shrink shape =
  (* Smaller rounds for unit tests; behaviour (leaks, wildcards) intact. *)
  { shape with Workloads.Skeleton.rounds = min shape.Workloads.Skeleton.rounds 6 }

let test_nas_all_native () =
  List.iter
    (fun shape ->
      let _, outcome =
        run_native ~np:8 (Workloads.Skeleton.program (shrink shape))
      in
      check_finished shape.Workloads.Skeleton.name outcome)
    Workloads.Nas.all

let test_specmpi_all_native () =
  List.iter
    (fun shape ->
      let _, outcome =
        run_native ~np:8 (Workloads.Skeleton.program (shrink shape))
      in
      check_finished shape.Workloads.Skeleton.name outcome)
    Workloads.Specmpi.all

let test_skeleton_wildcard_accounting () =
  let shape =
    { Workloads.Skeleton.base with rounds = 8; degree = 2; wildcard_every = 2 }
  in
  let rt, outcome = run_native ~np:6 (Workloads.Skeleton.program shape) in
  check_finished "skeleton" outcome;
  Alcotest.(check int) "wildcards posted = predicted"
    (Workloads.Skeleton.wildcard_total shape ~np:6)
    (Runtime.wildcard_count rt)

let test_skeleton_solo_wildcards () =
  let shape = { Workloads.Skeleton.base with rounds = 2; solo_wildcards = 5 } in
  let rt, outcome = run_native ~np:4 (Workloads.Skeleton.program shape) in
  check_finished "skeleton-solo" outcome;
  Alcotest.(check int) "solo wildcards counted" 20 (Runtime.wildcard_count rt)

let test_skeleton_leak_flags () =
  let leaky =
    {
      Workloads.Skeleton.base with
      rounds = 2;
      leak_comm = true;
      leak_request = true;
    }
  in
  let report =
    Explorer.verify
      ~config:{ Explorer.default_config with max_runs = 1 }
      ~np:4
      (Workloads.Skeleton.program leaky)
  in
  let kinds =
    List.map
      (fun (f : Report.finding) ->
        match f.Report.error with
        | Report.Comm_leak _ -> "comm"
        | Report.Request_leak _ -> "req"
        | _ -> "other")
      report.Report.findings
  in
  Alcotest.(check bool) "comm leak reported" true (List.mem "comm" kinds);
  Alcotest.(check bool) "request leak reported" true (List.mem "req" kinds)

let test_nas_leak_columns_match_table2 () =
  (* Exactly BT and FT (among NAS) set leak_comm; none set leak_request. *)
  List.iter
    (fun shape ->
      let expected =
        List.mem shape.Workloads.Skeleton.name [ "BT"; "FT" ]
      in
      Alcotest.(check bool)
        (shape.Workloads.Skeleton.name ^ " C-leak column")
        expected shape.Workloads.Skeleton.leak_comm;
      Alcotest.(check bool)
        (shape.Workloads.Skeleton.name ^ " R-leak column")
        false shape.Workloads.Skeleton.leak_request)
    Workloads.Nas.all

(* ---- sample sort ---- *)

let test_samplesort_native () =
  List.iter
    (fun np ->
      let _, outcome = run_native ~np (Workloads.Samplesort.program ()) in
      check_finished (Printf.sprintf "samplesort np=%d" np) outcome)
    [ 1; 2; 4; 7; 8 ]

let test_samplesort_verified () =
  let report =
    Explorer.verify
      ~config:{ Explorer.default_config with max_runs = 10 }
      ~np:4 (Workloads.Samplesort.program ())
  in
  Alcotest.(check int) "deterministic: one interleaving" 1
    report.Report.interleavings;
  Alcotest.(check int) "no findings" 0 (List.length report.Report.findings)

let test_samplesort_seeds () =
  (* Different key distributions still sort. *)
  List.iter
    (fun seed ->
      let params = { Workloads.Samplesort.default_params with seed } in
      let _, outcome =
        run_native ~np:5 (Workloads.Samplesort.program ~params ())
      in
      check_finished (Printf.sprintf "samplesort seed=%d" seed) outcome)
    [ 0; 1; 7; 123; 99991 ]

(* ---- paper patterns (packaged versions) ---- *)

let test_patterns_fig3 () =
  let report =
    Explorer.verify ~config:Explorer.default_config ~np:3 Workloads.Patterns.fig3
  in
  Alcotest.(check bool) "bug found" true
    (List.exists
       (fun (f : Report.finding) ->
         match f.Report.error with Report.Crash _ -> true | _ -> false)
       report.Report.findings)

let test_patterns_head_to_head () =
  let report =
    Explorer.verify ~config:Explorer.default_config ~np:2
      Workloads.Patterns.head_to_head
  in
  Alcotest.(check bool) "deadlock found" true
    (List.exists
       (fun (f : Report.finding) ->
         match f.Report.error with Report.Deadlock _ -> true | _ -> false)
       report.Report.findings)

(* ---- ISP engine over workloads ---- *)

let test_isp_costs_exceed_dampi () =
  (* Same coverage, higher virtual cost: the architectural claim. *)
  let program = Workloads.Parmetis.program ~params:small_parmetis () in
  let dampi_report =
    Explorer.verify
      ~config:{ Explorer.default_config with max_runs = 1 }
      ~np:8 program
  in
  let isp_report =
    Isp.Engine.verify
      ~config:{ Explorer.default_config with max_runs = 1 }
      ~np:8 program
  in
  Alcotest.(check bool)
    (Printf.sprintf "ISP slower (%f vs %f)"
       isp_report.Report.first_run_makespan dampi_report.Report.first_run_makespan)
    true
    (isp_report.Report.first_run_makespan
    > dampi_report.Report.first_run_makespan)

let test_isp_scaling_shape () =
  (* ISP's overhead ratio to native grows with np (the Fig. 5 hockey
     stick); DAMPI's stays near-flat. *)
  let params = { Workloads.Parmetis.default_params with scale = 0.02 } in
  let ratio np =
    let program = Workloads.Parmetis.program ~params () in
    let native = Explorer.native_makespan ~np program in
    let isp = Isp.Engine.single_run_makespan ~np program in
    isp /. native
  in
  let r4 = ratio 4 and r16 = ratio 16 in
  Alcotest.(check bool)
    (Printf.sprintf "ISP ratio grows: %f (np=4) < %f (np=16)" r4 r16)
    true (r4 < r16)

let () =
  Alcotest.run "workloads"
    [
      ( "matmult",
        [
          Alcotest.test_case "native runs and validates" `Quick
            test_matmult_native;
          Alcotest.test_case "verifies clean, explores" `Quick
            test_matmult_verified_clean;
        ] );
      ( "adlb",
        [
          Alcotest.test_case "single server terminates" `Quick
            test_adlb_native_single_server;
          Alcotest.test_case "multi server + stealing terminates" `Quick
            test_adlb_native_multi_server;
          Alcotest.test_case "wildcard heavy" `Quick test_adlb_wildcard_heavy;
          Alcotest.test_case "verifies clean under k=0" `Quick
            test_adlb_verified;
        ] );
      ( "parmetis",
        [
          Alcotest.test_case "deterministic" `Quick
            test_parmetis_native_deterministic;
          Alcotest.test_case "op mix matches Table I at np=8" `Slow
            test_parmetis_op_mix;
          Alcotest.test_case "communicator leak reported" `Quick
            test_parmetis_comm_leak;
          Alcotest.test_case "Table I interpolation" `Quick
            test_parmetis_interpolation;
        ] );
      ( "skeletons",
        [
          Alcotest.test_case "all NAS shapes run" `Quick test_nas_all_native;
          Alcotest.test_case "all SpecMPI shapes run" `Quick
            test_specmpi_all_native;
          Alcotest.test_case "wildcard accounting" `Quick
            test_skeleton_wildcard_accounting;
          Alcotest.test_case "solo wildcards" `Quick
            test_skeleton_solo_wildcards;
          Alcotest.test_case "leak flags surface" `Quick
            test_skeleton_leak_flags;
          Alcotest.test_case "NAS leak columns match Table II" `Quick
            test_nas_leak_columns_match_table2;
        ] );
      ( "samplesort",
        [
          Alcotest.test_case "sorts at several np" `Quick
            test_samplesort_native;
          Alcotest.test_case "verifies clean" `Quick test_samplesort_verified;
          Alcotest.test_case "random seeds" `Quick test_samplesort_seeds;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "fig3 bug" `Quick test_patterns_fig3;
          Alcotest.test_case "head-to-head deadlock" `Quick
            test_patterns_head_to_head;
        ] );
      ( "isp",
        [
          Alcotest.test_case "ISP costs exceed DAMPI" `Quick
            test_isp_costs_exceed_dampi;
          Alcotest.test_case "ISP overhead grows with np" `Quick
            test_isp_scaling_shape;
        ] );
    ]
