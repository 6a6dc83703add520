(* Tests for the ISP baseline: the centralized-scheduler cost model and the
   equality of coverage with DAMPI (the paper's Figs. 5/6 premise). *)

module Report = Dampi.Report
module Explorer = Dampi.Explorer

let contains_crash (report : Report.t) =
  List.exists
    (fun (f : Report.finding) ->
      match f.Report.error with Report.Crash _ -> true | _ -> false)
    report.Report.findings

(* ---- cost model ---- *)

let test_service_grows_with_np () =
  let m = Isp.Model.default in
  Alcotest.(check bool) "service(128) > service(8)" true
    (Isp.Model.service m ~np:128 > Isp.Model.service m ~np:8)

let test_round_trip_queues () =
  let m = Isp.Model.default in
  let server = Sim.Vtime.Server.create ~service:(Isp.Model.service m ~np:4) in
  (* Two calls at the same instant: the second queues behind the first. *)
  let t1 = Isp.Model.round_trip m server ~now:0.0 ~nd:false in
  let t2 = Isp.Model.round_trip m server ~now:0.0 ~nd:false in
  Alcotest.(check bool) "fifo queueing" true (t2 > t1);
  Alcotest.(check int) "both served" 2 (Sim.Vtime.Server.served server)

let test_nd_hold () =
  let m = Isp.Model.default in
  let server = Sim.Vtime.Server.create ~service:(Isp.Model.service m ~np:4) in
  let det = Isp.Model.round_trip m server ~now:0.0 ~nd:false in
  Sim.Vtime.Server.reset server;
  let nd = Isp.Model.round_trip m server ~now:0.0 ~nd:true in
  Alcotest.(check (float 1e-12)) "nd ops held longer" m.Isp.Model.nd_hold
    (nd -. det)

(* ---- coverage equality ---- *)

let test_isp_finds_fig3 () =
  let report =
    Isp.Engine.verify ~config:Explorer.default_config ~np:3
      Workloads.Patterns.fig3
  in
  Alcotest.(check bool) "ISP finds the fig3 bug" true (contains_crash report);
  Alcotest.(check int) "same interleaving count as DAMPI"
    (Explorer.verify ~config:Explorer.default_config ~np:3
       Workloads.Patterns.fig3)
      .Report.interleavings report.Report.interleavings

let test_isp_same_tree_on_matmult () =
  let program =
    Workloads.Matmult.program
      ~params:{ Workloads.Matmult.default_params with n = 6; rows_per_task = 2 }
      ()
  in
  let dampi = Explorer.verify ~config:Explorer.default_config ~np:4 program in
  let isp = Isp.Engine.verify ~config:Explorer.default_config ~np:4 program in
  Alcotest.(check int) "identical exploration trees"
    dampi.Report.interleavings isp.Report.interleavings;
  Alcotest.(check bool) "ISP pays more virtual time" true
    (isp.Report.total_virtual_time > dampi.Report.total_virtual_time)

(* One replay path: ISP runs are DAMPI runs with a scheduler layer on top,
   so the tool's own piggyback traffic is counted the same way. *)
let test_isp_counts_piggyback () =
  let program =
    Workloads.Matmult.program
      ~params:{ Workloads.Matmult.default_params with n = 6; rows_per_task = 2 }
      ()
  in
  let dampi = Explorer.verify ~np:4 program in
  let isp = Isp.Engine.verify ~np:4 program in
  let value (r : Report.t) name =
    Obs.Metrics.counter_value r.Report.metrics name
  in
  Alcotest.(check bool) "DAMPI piggybacks" true
    (value dampi "dampi.piggyback_msgs" > 0);
  List.iter
    (fun name ->
      Alcotest.(check int) name (value dampi name) (value isp name))
    [
      "dampi.piggyback_msgs"; "dampi.piggyback_bytes"; "dampi.clock_buf_reuses";
    ]

(* Rank 0 takes one message from each sender in wildcard order and crashes
   when rank 3's arrives first: the self run is clean, and alternatives
   remain after the first crashing interleaving. *)
module Late_crash (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let size = M.size world in
    match M.rank world with
    | 0 ->
        let first, _ = M.recv ~src:M.any_source world in
        for _ = 2 to size - 1 do
          ignore (M.recv ~src:M.any_source world)
        done;
        if Mpi.Payload.to_int first = 3 then failwith "late_crash: rank 3 first"
    | r -> M.send ~dest:0 world (Mpi.Payload.int r)
end

let test_isp_stop_first () =
  let verify stop_on_first_error =
    Isp.Engine.verify
      ~config:{ Explorer.default_config with stop_on_first_error }
      ~np:4 (module Late_crash)
  in
  let full = verify false and stopped = verify true in
  Alcotest.(check bool) "full run finds the crash" true (contains_crash full);
  Alcotest.(check bool) "stop-first finds the crash" true
    (contains_crash stopped);
  Alcotest.(check bool)
    (Printf.sprintf "stop-first explores fewer (%d < %d)"
       stopped.Report.interleavings full.Report.interleavings)
    true
    (stopped.Report.interleavings < full.Report.interleavings)

(* ---- scaling shape (the Fig. 5 premise) ---- *)

let test_overhead_ratio_grows () =
  let params = { Workloads.Parmetis.default_params with scale = 0.02 } in
  let ratio np =
    let program = Workloads.Parmetis.program ~params () in
    Isp.Engine.single_run_makespan ~np program
    /. Explorer.native_makespan ~np program
  in
  let r4 = ratio 4 and r8 = ratio 8 and r16 = ratio 16 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.1f < %.1f < %.1f" r4 r8 r16)
    true
    (r4 < r8 && r8 < r16)

let test_dampi_overhead_stays_flat () =
  (* DAMPI's ratio must not grow the way ISP's does: over the 4->16 range
     ISP's ratio multiplies several-fold, DAMPI's stays within 20%. *)
  let params = { Workloads.Parmetis.default_params with scale = 0.02 } in
  let dampi_ratio np =
    let program = Workloads.Parmetis.program ~params () in
    let report =
      Explorer.verify
        ~config:{ Explorer.default_config with max_runs = 1 }
        ~np program
    in
    report.Report.first_run_makespan /. Explorer.native_makespan ~np program
  in
  let r4 = dampi_ratio 4 and r16 = dampi_ratio 16 in
  Alcotest.(check bool)
    (Printf.sprintf "near-flat: %.2f vs %.2f" r4 r16)
    true
    (r16 /. r4 < 1.2)

let () =
  Alcotest.run "isp"
    [
      ( "model",
        [
          Alcotest.test_case "service grows with np" `Quick
            test_service_grows_with_np;
          Alcotest.test_case "round trips queue" `Quick test_round_trip_queues;
          Alcotest.test_case "nd hold" `Quick test_nd_hold;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "finds fig3" `Quick test_isp_finds_fig3;
          Alcotest.test_case "same tree on matmult" `Quick
            test_isp_same_tree_on_matmult;
          Alcotest.test_case "same piggyback metrics as DAMPI" `Quick
            test_isp_counts_piggyback;
          Alcotest.test_case "stop-first stops early" `Quick
            test_isp_stop_first;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "ISP ratio grows with np" `Quick
            test_overhead_ratio_grows;
          Alcotest.test_case "DAMPI ratio stays flat" `Quick
            test_dampi_overhead_stays_flat;
        ] );
    ]
