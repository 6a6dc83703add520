(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figs. 5, 6, 8, 9; Tables I, II) plus the design ablations,
   and a Bechamel microbenchmark suite for the substrate itself.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig5    -- one experiment
     dune exec bench/main.exe -- table2 --np 256   -- smaller scale

   Virtual seconds play the role of the paper's wall-clock seconds (see
   DESIGN.md, "Substitutions"); host seconds are the cost of running the
   simulation itself. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Stats = Mpi.Stats
module Runtime = Mpi.Runtime

let pf = Printf.printf

let heading title =
  pf "\n================================================================\n";
  pf "%s\n" title;
  pf "================================================================\n%!"

let finding_kinds (report : Report.t) =
  List.fold_left
    (fun (c, r) (f : Report.finding) ->
      match f.Report.error with
      | Report.Comm_leak _ -> (true, r)
      | Report.Request_leak _ -> (c, true)
      | _ -> (c, r))
    (false, false) report.Report.findings

let yesno = function true -> "Yes" | false -> "No"

(* ---- Fig. 5: ParMETIS, DAMPI vs ISP, 4..32 processes ---- *)

let fig5 () =
  heading
    "Fig. 5 -- ParMETIS-3.1: verification time (virtual s), ISP vs DAMPI";
  pf "%6s %12s %12s %12s %10s %10s\n" "np" "native" "DAMPI" "ISP" "DAMPI-x"
    "ISP-x";
  List.iter
    (fun np ->
      let program = Workloads.Parmetis.program () in
      let native = Explorer.native_makespan ~np program in
      let dampi =
        (Explorer.verify
           ~config:{ Explorer.default_config with max_runs = 1 }
           ~np program)
          .Report.first_run_makespan
      in
      let isp = Isp.Engine.single_run_makespan ~np program in
      pf "%6d %12.3f %12.3f %12.3f %9.2fx %9.2fx\n%!" np native dampi isp
        (dampi /. native) (isp /. native))
    [ 4; 8; 12; 16; 20; 24; 28; 32 ]

(* ---- Table I: ParMETIS MPI operation statistics ---- *)

let table1 () =
  heading "Table I -- Statistics of MPI operations in ParMETIS-3.1";
  let npl = [ 8; 16; 32; 64; 128 ] in
  let results =
    List.map
      (fun np ->
        let rt, outcome = Mpi.Bind.exec ~np (Workloads.Parmetis.program ()) in
        (match outcome with
        | Sim.Coroutine.All_finished -> ()
        | _ -> failwith "table1: parmetis did not finish");
        (np, Runtime.stats rt))
      npl
  in
  let k v = Printf.sprintf "%dK" (v / 1000) in
  let row label f =
    pf "%-22s" label;
    List.iter (fun (_, s) -> pf " %10s" (f s)) results;
    pf "\n"
  in
  pf "%-22s" "MPI Operation Type";
  List.iter (fun np -> pf " %10s" (Printf.sprintf "procs=%d" np)) npl;
  pf "\n";
  row "All" (fun s -> k (Stats.total s));
  row "All per proc." (fun s -> k (int_of_float (Stats.all_per_proc s)));
  row "Send-Recv" (fun s -> k (Stats.total_send_recv s));
  row "Send-Recv per proc" (fun s ->
      k (int_of_float (Stats.send_recv_per_proc s)));
  row "Collective" (fun s -> k (Stats.total_collective s));
  row "Collective per proc" (fun s ->
      Printf.sprintf "%.1fK" (Stats.collective_per_proc s /. 1000.0));
  row "Wait" (fun s -> k (Stats.total_wait s));
  row "Wait per proc" (fun s ->
      Printf.sprintf "%.1fK" (Stats.wait_per_proc s /. 1000.0));
  pf "%!"

(* ---- Table II: DAMPI overhead on medium-large benchmarks ---- *)

let table2 ?(np = 1024) () =
  heading
    (Printf.sprintf
       "Table II -- DAMPI overhead: medium-large benchmarks at %d procs" np);
  pf "%-16s %10s %9s %7s %7s\n" "Program" "Slowdown" "Total R*" "C-Leak"
    "R-Leak";
  let bench name program =
    let native = Explorer.native_makespan ~np program in
    let report =
      Explorer.verify
        ~config:{ Explorer.default_config with max_runs = 1 }
        ~np program
    in
    let c_leak, r_leak = finding_kinds report in
    pf "%-16s %9.2fx %9d %7s %7s\n%!" name
      (report.Report.first_run_makespan /. native)
      report.Report.wildcards_analyzed (yesno c_leak) (yesno r_leak)
  in
  (* ParMETIS's full Table I volume at 1024 ranks is ~10^8 simulated calls;
     the op counts are scaled down 50x here. The slowdown ratio is
     scale-invariant because the skeleton ties compute to the op count. *)
  bench "ParMETIS-3.1"
    (Workloads.Parmetis.program
       ~params:{ Workloads.Parmetis.default_params with scale = 0.02 }
       ());
  List.iter
    (fun shape ->
      bench shape.Workloads.Skeleton.name (Workloads.Skeleton.program shape))
    Workloads.Specmpi.all;
  List.iter
    (fun shape ->
      bench shape.Workloads.Skeleton.name (Workloads.Skeleton.program shape))
    Workloads.Nas.all

(* ---- Fig. 6: matmult, time to explore N interleavings ---- *)

let fig6 () =
  heading
    "Fig. 6 -- Matrix multiplication: time (virtual s) to explore N \
     interleavings";
  let np = 8 in
  let params =
    { Workloads.Matmult.default_params with n = 16; rows_per_task = 1 }
  in
  let program = Workloads.Matmult.program ~params () in
  pf "%15s %14s %14s\n" "interleavings" "DAMPI" "ISP";
  List.iter
    (fun budget ->
      let dampi =
        Explorer.verify
          ~config:{ Explorer.default_config with max_runs = budget }
          ~np program
      in
      let isp =
        Isp.Engine.verify
          ~config:{ Isp.Engine.default_config with max_runs = budget }
          ~np program
      in
      pf "%15d %14.2f %14.2f\n%!" budget dampi.Report.total_virtual_time
        isp.Report.total_virtual_time)
    [ 250; 500; 750; 1000 ]

(* ---- Fig. 8: matmult under bounded mixing ---- *)

let explore_count ~np ~k ~max_runs program =
  let config =
    {
      Explorer.default_config with
      state_config = State.make_config ?mixing_bound:k ();
      max_runs;
    }
  in
  (Explorer.verify ~config ~np program).Report.interleavings

let fig8 () =
  heading
    "Fig. 8 -- Matrix multiplication with bounded mixing: interleavings \
     explored";
  let cap = 20_000 in
  pf "(counts capped at %d)\n" cap;
  pf "%6s %10s %10s %10s %12s\n" "np" "k=0" "k=1" "k=2" "unbounded";
  List.iter
    (fun np ->
      let params =
        { Workloads.Matmult.default_params with n = 6; rows_per_task = 1 }
      in
      let program = Workloads.Matmult.program ~params () in
      let count k = explore_count ~np ~k ~max_runs:cap program in
      pf "%6d %10d %10d %10d %12d\n%!" np
        (count (Some 0))
        (count (Some 1))
        (count (Some 2))
        (count None))
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* ---- Fig. 9: ADLB under bounded mixing ---- *)

let fig9 () =
  heading "Fig. 9 -- ADLB with bounded mixing: interleavings explored";
  let cap = 10_000 in
  pf "(counts capped at %d; ADLB's space explodes beyond any budget, which\n\
     \ is the paper's point about it)\n" cap;
  pf "%6s %10s %10s %10s\n" "np" "k=0" "k=1" "k=2";
  List.iter
    (fun np ->
      let params =
        {
          Workloads.Adlb.default_params with
          servers = max 1 (np / 4);
          puts_per_client = 1;
        }
      in
      let program = Workloads.Adlb.program ~params () in
      let count k = explore_count ~np ~k:(Some k) ~max_runs:cap program in
      pf "%6d %10d %10d %10d\n%!" np (count 0) (count 1) (count 2))
    [ 4; 8; 16; 24; 32 ]

(* ---- Ablation: Lamport vs vector clocks ---- *)

let ablation_clocks () =
  heading
    "Ablation -- clock algebra: Lamport (paper default) vs vector clocks";
  let lamport = (module Clocks.Lamport : Clocks.Clock_intf.S) in
  let vector = (module Clocks.Vector : Clocks.Clock_intf.S) in
  let run clock ~np program =
    let t0 = Unix.gettimeofday () in
    let report =
      Explorer.verify
        ~config:
          {
            Explorer.default_config with
            state_config = State.make_config ~clock ();
            max_runs = 2000;
          }
        ~np program
    in
    let host = Unix.gettimeofday () -. t0 in
    (report, host)
  in
  pf "%-28s %10s %10s %9s %12s %9s\n" "workload/clock" "interleav."
    "findings" "pb-ints" "virtual-s" "host-s";
  let show label ((report : Report.t), host) ~pb_ints =
    pf "%-28s %10d %10d %9d %12.4f %9.3f\n%!" label report.Report.interleavings
      (List.length report.Report.findings)
      pb_ints report.Report.total_virtual_time host
  in
  List.iter
    (fun (wname, np, program) ->
      show (wname ^ "/lamport") (run lamport ~np program) ~pb_ints:1;
      show (wname ^ "/vector") (run vector ~np program) ~pb_ints:np)
    [
      ("fig4", 4, Workloads.Patterns.fig4);
      ( "matmult(6x6)",
        6,
        Workloads.Matmult.program
          ~params:
            { Workloads.Matmult.default_params with n = 6; rows_per_task = 2 }
          () );
      ("adlb", 8, Workloads.Adlb.program ());
    ]

(* ---- Ablation: piggyback mechanism (separate message vs inline packing,
   SS II-D) ---- *)

let ablation_piggyback () =
  heading
    "Ablation -- piggyback mechanism: separate messages (paper's choice) vs \
     inline payload packing";
  let run ~mode ~clock ~np program =
    let config =
      {
        Explorer.default_config with
        state_config = State.make_config ~clock ~piggyback:mode ();
        max_runs = 1;
      }
    in
    (Explorer.verify ~config ~np program).Report.first_run_makespan
  in
  let lamport = (module Clocks.Lamport : Clocks.Clock_intf.S) in
  let vector = (module Clocks.Vector : Clocks.Clock_intf.S) in
  pf "%-24s %6s %12s %14s %14s\n" "workload/clock" "np" "native"
    "pb=separate" "pb=inline";
  List.iter
    (fun (name, np, program) ->
      let native = Explorer.native_makespan ~np program in
      List.iter
        (fun (cname, clock) ->
          let sep = run ~mode:State.Separate ~clock ~np program in
          let inl = run ~mode:State.Inline ~clock ~np program in
          pf "%-24s %6d %12.5f %13.2fx %13.2fx\n%!"
            (name ^ "/" ^ cname)
            np native (sep /. native) (inl /. native))
        [ ("lamport", lamport); ("vector", vector) ])
    [
      ( "parmetis(2%)",
        64,
        Workloads.Parmetis.program
          ~params:{ Workloads.Parmetis.default_params with scale = 0.02 }
          () );
      ("milc", 128, Workloads.Skeleton.program Workloads.Specmpi.milc);
    ]

(* ---- Ablation: random testing (Jitterbug/Marmot style) vs DAMPI ---- *)

module Three_senders_bench (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 ->
        let seen = ref [] in
        for _ = 1 to 3 do
          let v, _ = M.recv ~src:M.any_source world in
          seen := Mpi.Payload.to_int v :: !seen
        done;
        if !seen = [ 3; 2; 1 ] then failwith "ordering bug"
    | r -> M.send ~dest:0 world (Mpi.Payload.int r)
end

let ablation_random () =
  heading
    "Ablation -- coverage: random schedule testing (SS I baseline) vs DAMPI";
  pf "%-16s %6s | %22s | %s\n" "workload" "np" "random (20/100 seeds)"
    "DAMPI (guaranteed)";
  let cases =
    [
      ("fig3", 3, Workloads.Patterns.fig3);
      ("fig10", 3, Workloads.Patterns.fig10);
      ("three-senders", 4, (module Three_senders_bench : Mpi.Mpi_intf.PROGRAM));
    ]
  in
  List.iter
    (fun (name, np, program) ->
      let r20 = Dampi.Sampler.test ~seeds:(List.init 20 Fun.id) ~np program in
      let r100 = Dampi.Sampler.test ~seeds:(List.init 100 Fun.id) ~np program in
      let dfs =
        Explorer.verify
          ~config:{ Explorer.default_config with max_runs = 5_000 }
          ~np program
      in
      let dfs_errors =
        List.exists
          (fun (f : Report.finding) ->
            match f.Report.error with
            | Report.Deadlock _ | Report.Crash _ -> true
            | _ -> false)
          dfs.Report.findings
      in
      pf "%-16s %6d | err in %3d/20, %3d/100  | %s in %d interleavings\n%!"
        name np r20.Dampi.Sampler.errors_found r100.Dampi.Sampler.errors_found
        (if dfs_errors then "error found"
         else if dfs.Report.monitor_alerts > 0 then "monitor alert"
         else "clean")
        dfs.Report.interleavings)
    cases

(* ---- Ablation: bounded mixing k sweep on one workload ---- *)

let ablation_mixing () =
  heading "Ablation -- bounded mixing k sweep (matmult np=6)";
  let params =
    { Workloads.Matmult.default_params with n = 8; rows_per_task = 2 }
  in
  let program = Workloads.Matmult.program ~params () in
  pf "%10s %14s\n" "k" "interleavings";
  List.iter
    (fun k ->
      let label =
        match k with None -> "unbounded" | Some k -> string_of_int k
      in
      pf "%10s %14d\n%!" label
        (explore_count ~np:6 ~k ~max_runs:50_000 program))
    [ Some 0; Some 1; Some 2; Some 3; Some 4; None ]

(* ---- Parallel exploration scaling (SS IV: decentralized replays are
   independent, so the cluster-level concurrency of the paper maps onto a
   pool of OCaml domains here). Emits BENCH_parallel_explore.json. ---- *)

let parallel_explore () =
  heading
    "Parallel exploration -- wall-clock scaling of domain-parallel guided \
     replays (matmult exhaustive, adlb k=1)";
  pf "(host has %d recommended domain(s); speedup above that count is \
      bounded by the hardware)\n"
    (Domain.recommended_domain_count ());
  let scenarios =
    [
      ( "matmult",
        6,
        None,
        max_int,
        fun () ->
          Workloads.Matmult.program
            ~params:
              { Workloads.Matmult.default_params with n = 8; rows_per_task = 1 }
            () );
      ( "adlb",
        8,
        Some 1,
        2_000,
        fun () -> Workloads.Adlb.program () );
    ]
  in
  let jobs_list = [ 1; 2; 4; 8 ] in
  let all_results =
    List.map
      (fun (name, np, k, max_runs, build) ->
        pf "\n%-10s np=%d %s\n" name np
          (match k with
          | None -> "(unbounded, exhaustive)"
          | Some k -> Printf.sprintf "(mixing bound k=%d, max-runs %d)" k max_runs);
        pf "%6s %14s %10s %12s %9s %12s\n" "jobs" "interleavings" "findings"
          "wall-s" "speedup" "queue-waits";
        let state_config = State.make_config ?mixing_bound:k () in
        let rows =
          List.map
            (fun jobs ->
              let report =
                Explorer.verify
                  ~config:
                    {
                      Explorer.default_config with
                      state_config;
                      max_runs;
                      jobs;
                    }
                  ~np (build ())
              in
              (jobs, report))
            jobs_list
        in
        let base_wall =
          match rows with (_, r) :: _ -> r.Report.host_seconds | [] -> 0.0
        in
        List.iter
          (fun (jobs, (r : Report.t)) ->
            let waits =
              List.fold_left
                (fun acc (w : Report.worker_stat) -> acc + w.Report.queue_waits)
                0 r.Report.workers
            in
            pf "%6d %14d %10d %12.3f %8.2fx %12d\n%!" jobs
              r.Report.interleavings
              (List.length r.Report.findings)
              r.Report.host_seconds
              (base_wall /. Float.max 1e-9 r.Report.host_seconds)
              waits)
          rows;
        (name, np, max_runs, base_wall, rows))
      scenarios
  in
  let path = "BENCH_parallel_explore.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"parallel_explore\",\n  \"scenarios\": [\n";
  let ns = List.length all_results in
  List.iteri
    (fun si (name, np, max_runs, base_wall, rows) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"np\": %d, \"max_runs\": %d, \"results\": [\n"
        name np max_runs;
      let nr = List.length rows in
      List.iteri
        (fun ri (jobs, (r : Report.t)) ->
          Printf.fprintf oc
            "      {\"jobs\": %d, \"interleavings\": %d, \"findings\": %d, \
             \"wall_seconds\": %.6f, \"speedup\": %.4f, \
             \"match_attempts\": %d, \"piggyback_bytes\": %d, \
             \"queue_waits\": %d}%s\n"
            jobs r.Report.interleavings
            (List.length r.Report.findings)
            r.Report.host_seconds
            (base_wall /. Float.max 1e-9 r.Report.host_seconds)
            (Obs.Metrics.counter_value r.Report.metrics "mpi.match_attempts")
            (Obs.Metrics.counter_value r.Report.metrics
               "dampi.piggyback_bytes")
            (match
               Obs.Metrics.find r.Report.metrics "sched.queue_wait_s"
             with
            | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.count
            | _ -> 0)
            (if ri = nr - 1 then "" else ","))
        rows;
      Printf.fprintf oc "    ]}%s\n" (if si = ns - 1 then "" else ","))
    all_results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  pf "\nresults written to %s\n" path

(* ---- Distributed exploration (SS IV): the coordinator/worker socket
   transport vs the in-process pool on the same workloads. Workers are
   in-process domains speaking the real wire protocol over socketpairs, so
   the measured overhead is the transport itself (framing, leasing,
   heartbeats, result ingestion) and not process start-up. Emits
   BENCH_distributed_explore.json. ---- *)

let distributed_explore () =
  heading
    "Distributed exploration -- coordinator + socket workers vs in-process \
     pool (matmult exhaustive, adlb k=1)";
  let scenarios =
    [
      ( "matmult",
        6,
        None,
        max_int,
        fun () ->
          Workloads.Matmult.program
            ~params:
              { Workloads.Matmult.default_params with n = 8; rows_per_task = 1 }
            () );
      ("adlb", 8, Some 1, 2_000, fun () -> Workloads.Adlb.program ());
    ]
  in
  let resolve (job : Dampi.Wire.job) =
    match
      List.find_opt (fun (n, _, _, _, _) -> n = job.Dampi.Wire.workload)
        scenarios
    with
    | None -> Error (Printf.sprintf "unknown workload %S" job.Dampi.Wire.workload)
    | Some (_, np, k, _, build) ->
        Ok
          {
            Dampi.Remote_worker.np;
            runner =
              Explorer.dampi_runner
                {
                  Explorer.default_config with
                  state_config = State.make_config ?mixing_bound:k ();
                }
                ~np (build ());
            rb = Explorer.default_robustness;
            prune = false;
          }
  in
  (* jobs=1 pool is the baseline; the distributed rows attach 2 and 4
     socket workers to the same exploration. *)
  let modes = [ `Pool 1; `Pool 4; `Dist 2; `Dist 4 ] in
  let all_results =
    List.map
      (fun (name, np, k, max_runs, build) ->
        pf "\n%-10s np=%d %s\n" name np
          (match k with
          | None -> "(unbounded, exhaustive)"
          | Some k ->
              Printf.sprintf "(mixing bound k=%d, max-runs %d)" k max_runs);
        pf "%-10s %14s %10s %12s %9s %8s %10s %8s %10s %9s\n" "mode"
          "interleavings" "findings" "wall-s" "speedup" "leases" "re-leases"
          "steals" "reconnects" "fallbacks";
        let state_config = State.make_config ?mixing_bound:k () in
        let config =
          { Explorer.default_config with state_config; max_runs }
        in
        let rows =
          List.map
            (fun mode ->
              match mode with
              | `Pool jobs ->
                  let r =
                    Explorer.verify ~config:{ config with jobs } ~np (build ())
                  in
                  (Printf.sprintf "pool-%d" jobs, jobs, r)
              | `Dist n ->
                  let workers =
                    List.init n (fun _ ->
                        let c, w =
                          Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
                        in
                        ( c,
                          Domain.spawn (fun () ->
                              ignore (Dampi.Remote_worker.serve ~resolve w)) ))
                  in
                  let setup =
                    {
                      Dampi.Coordinator.attach =
                        Dampi.Coordinator.Fds (List.map fst workers);
                      job = { Dampi.Wire.workload = name; np; params = [] };
                      lease_size = Dampi.Coordinator.default_lease_size;
                      heartbeat_timeout =
                        Dampi.Coordinator.default_heartbeat_timeout;
                      join_timeout = Dampi.Coordinator.default_join_timeout;
                      rejoin_grace = Dampi.Coordinator.default_rejoin_grace;
                      auth = None;
                      net_fault = None;
                      outq_budget = Dampi.Coordinator.default_outq_budget;
                    }
                  in
                  let r =
                    Explorer.verify ~config ~distribute:setup ~np (build ())
                  in
                  List.iter (fun (_, d) -> Domain.join d) workers;
                  (Printf.sprintf "dist-%d" n, n, r))
            modes
        in
        let base_wall =
          match rows with (_, _, r) :: _ -> r.Report.host_seconds | [] -> 0.0
        in
        let counters (r : Report.t) =
          ( Obs.Metrics.counter_value r.Report.metrics "coordinator.leases",
            Obs.Metrics.counter_value r.Report.metrics "coordinator.releases",
            Obs.Metrics.counter_value r.Report.metrics "sched.steals",
            Obs.Metrics.counter_value r.Report.metrics
              "coordinator.reconnects",
            Obs.Metrics.counter_value r.Report.metrics "coordinator.fallbacks"
          )
        in
        List.iter
          (fun (label, _, (r : Report.t)) ->
            let leases, releases, steals, reconnects, fallbacks = counters r in
            pf "%-10s %14d %10d %12.3f %8.2fx %8d %10d %8d %10d %9d\n%!" label
              r.Report.interleavings
              (List.length r.Report.findings)
              r.Report.host_seconds
              (base_wall /. Float.max 1e-9 r.Report.host_seconds)
              leases releases steals reconnects fallbacks)
          rows;
        (name, np, max_runs, base_wall, rows))
      scenarios
  in
  let path = "BENCH_distributed_explore.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"distributed_explore\",\n  \"scenarios\": [\n";
  let ns = List.length all_results in
  List.iteri
    (fun si (name, np, max_runs, base_wall, rows) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"np\": %d, \"max_runs\": %d, \"results\": [\n"
        name np max_runs;
      let nr = List.length rows in
      List.iteri
        (fun ri (label, workers, (r : Report.t)) ->
          let leases =
            Obs.Metrics.counter_value r.Report.metrics "coordinator.leases"
          in
          let releases =
            Obs.Metrics.counter_value r.Report.metrics "coordinator.releases"
          in
          let steals =
            Obs.Metrics.counter_value r.Report.metrics "sched.steals"
          in
          let reconnects =
            Obs.Metrics.counter_value r.Report.metrics
              "coordinator.reconnects"
          in
          let fallbacks =
            Obs.Metrics.counter_value r.Report.metrics
              "coordinator.fallbacks"
          in
          Printf.fprintf oc
            "      {\"mode\": %S, \"workers\": %d, \"interleavings\": %d, \
             \"findings\": %d, \"wall_seconds\": %.6f, \"speedup\": %.4f, \
             \"leases\": %d, \"releases\": %d, \"steals\": %d, \
             \"reconnects\": %d, \"fallbacks\": %d}%s\n"
            label workers r.Report.interleavings
            (List.length r.Report.findings)
            r.Report.host_seconds
            (base_wall /. Float.max 1e-9 r.Report.host_seconds)
            leases releases steals reconnects fallbacks
            (if ri = nr - 1 then "" else ","))
        rows;
      Printf.fprintf oc "    ]}%s\n" (if si = ns - 1 then "" else ","))
    all_results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  pf "\nresults written to %s\n" path

(* ---- Fault soak: exploration under injected faults (SS robustness).
   Transient send failures and rank kills abort individual replay attempts;
   the watchdog + retry machinery must absorb them, and whenever every
   replay eventually succeeds within its retry budget the canonical report
   (interleavings, findings) must equal the fault-free one. Emits
   BENCH_fault_soak.json. ---- *)

let fault_soak () =
  heading
    "Fault soak -- exploration under deterministic fault injection (adlb \
     np=8, k=0)";
  let np = 8 in
  let state_config = State.make_config ~mixing_bound:0 () in
  let build () = Workloads.Adlb.program () in
  let run ?fault ?(jobs = 1) () =
    let config =
      {
        Explorer.default_config with
        state_config;
        jobs;
        robustness =
          {
            Explorer.default_robustness with
            fault;
            max_retries = 4;
            max_replay_steps = Some 200_000;
          };
      }
    in
    Explorer.verify ~config ~np (build ())
  in
  let baseline = run () in
  pf "%-26s %6s %14s %10s %9s %9s %9s\n" "scenario" "jobs" "interleavings"
    "findings" "timeouts" "retries" "faulted";
  let show label (r : Report.t) jobs =
    pf "%-26s %6d %14d %10d %9d %9d %9d%s\n%!" label jobs
      r.Report.interleavings
      (List.length r.Report.findings)
      r.Report.runs_timed_out r.Report.runs_retried r.Report.runs_crashed
      (if
         r.Report.interleavings = baseline.Report.interleavings
         && List.length r.Report.findings
            = List.length baseline.Report.findings
       then "  (= fault-free)"
       else "")
  in
  show "fault-free" baseline 1;
  let scenarios =
    [
      ("sendfail(seed=1)", { (Mpi.Fault.default_spec ~seed:1) with delay_prob = 0.0 }, 1);
      ("delay+sendfail(seed=2)", Mpi.Fault.default_spec ~seed:2, 1);
      ("delay+sendfail(seed=2)", Mpi.Fault.default_spec ~seed:2, 4);
      ( "kills(seed=3)",
        { Mpi.Fault.inert with seed = 3; crash_prob = 0.02 },
        4 );
      ( "wedges(seed=4)",
        { Mpi.Fault.inert with seed = 4; wedge_prob = 0.02 },
        4 );
    ]
  in
  let results =
    List.map
      (fun (label, spec, jobs) ->
        let r = run ~fault:spec ~jobs () in
        show label r jobs;
        (label, spec, jobs, r))
      scenarios
  in
  let path = "BENCH_fault_soak.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"fault_soak\",\n  \"np\": %d,\n" np;
  Printf.fprintf oc "  \"baseline_interleavings\": %d,\n  \"results\": [\n"
    baseline.Report.interleavings;
  let n = List.length results in
  List.iteri
    (fun i (label, spec, jobs, (r : Report.t)) ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"spec\": %S, \"jobs\": %d, \
         \"interleavings\": %d, \"findings\": %d, \"timed_out\": %d, \
         \"retried\": %d, \"faulted\": %d, \"matches_baseline\": %b}%s\n"
        label (Mpi.Fault.to_string spec) jobs r.Report.interleavings
        (List.length r.Report.findings)
        r.Report.runs_timed_out r.Report.runs_retried r.Report.runs_crashed
        (r.Report.interleavings = baseline.Report.interleavings)
        (if i = n - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  pf "\nresults written to %s\n" path

(* ---- Sleep-set pruning + prefix cache: effective replays/sec against the
   unpruned walk. Replays/sec — not parallel speedup — is the honest
   single-core metric here: pruning and caching shrink the work, they don't
   add workers (EXPERIMENTS.md). Three measurements per workload:

   - unpruned vs pruned exhaustive walks: the pruned walk covers the same
     schedule space (the differential harness in test_pruning.ml proves the
     canonical reports equal), so its effective rate is baseline-runs over
     pruned wall;
   - a pruned+cached walk that persists the cache sidecar next to a
     checkpoint on completion;
   - a warm re-verification of the same workload: the sidecar turns every
     replay — self run included — into a lookup, which is where the >= 2x
     requirement is met with room to spare.

   matmult is the soundness no-op (every wildcard epoch is owned by the
   master, so no two epochs commute and nothing may be pruned); two-server
   ADLB has independent per-server event loops, so sleep sets actually
   fire. Emits BENCH_prune_explore.json; [prune-gate] compares the
   deterministic fields against bench/baselines/prune.json. ---- *)

type prune_row = {
  pr_workload : string;
  pr_np : int;
  pr_base_runs : int;
  pr_base_wall : float;
  pr_pruned_runs : int;
  pr_runs_pruned : int;
  pr_pruned_findings : int;
  pr_pruned_wall : float;
  pr_equal_findings : bool;
  pr_cached_wall : float;
  pr_warm_wall : float;
  pr_warm_hits : int;
  pr_base_prps : float option;  (* profiler-derived replays/s, unpruned *)
  pr_pruned_prps : float option;
  pr_warm_prps : float option;  (* None when the walk replayed nothing *)
  pr_depth : (string * int) list;  (* resume-depth histogram, bound -> count *)
}

let prune_rows : prune_row list ref = ref []

let prune_explore () =
  heading
    "Prune + prefix cache -- effective replays/sec vs the unpruned walk \
     (matmult no-op check, 2-server adlb)";
  let scenarios =
    [
      ( "matmult",
        6,
        fun () ->
          Workloads.Matmult.program
            ~params:
              { Workloads.Matmult.default_params with n = 6; rows_per_task = 1 }
            () );
      ( "adlb2",
        6,
        fun () ->
          Workloads.Adlb.program
            ~params:
              {
                Workloads.Adlb.default_params with
                servers = 2;
                puts_per_client = 1;
              }
            () );
    ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let errors_of (r : Report.t) =
    List.sort compare
      (List.map (fun (f : Report.finding) -> f.Report.error) r.Report.findings)
  in
  pf "%-10s %-14s %14s %8s %9s %10s %11s %9s %8s\n" "workload" "mode"
    "interleavings" "pruned" "findings" "wall-s" "replays/s" "prof-rps"
    "speedup";
  (* Profiler-derived throughput: replays over the summed per-replay wall
     from the explorer.replay_wall_s histogram — excludes scheduler and
     reporting overhead, so it is the per-replay cost the pruning saves.
     A walk that replayed nothing (e.g. a warm cache-hit re-run) has an
     empty histogram: that is [None], not a misleading 0.00. *)
  let hist_rps (r : Report.t) =
    match Obs.Metrics.find r.Report.metrics "explorer.replay_wall_s" with
    | Some (Obs.Metrics.Histogram h)
      when h.Obs.Metrics.sum > 0.0 && h.Obs.Metrics.count > 0 ->
        Some (float_of_int h.Obs.Metrics.count /. h.Obs.Metrics.sum)
    | _ -> None
  in
  let prps_str = function Some v -> Printf.sprintf "%9.1f" v | None -> Printf.sprintf "%9s" "-" in
  let rows =
    List.map
      (fun (name, np, build) ->
        let cfg =
          {
            Explorer.default_config with
            state_config = State.make_config ();
            profile = true;
          }
        in
        let base, base_wall =
          time (fun () -> Explorer.verify ~config:cfg ~np (build ()))
        in
        let base_rps =
          float_of_int base.Report.interleavings /. Float.max 1e-9 base_wall
        in
        let show mode (r : Report.t) wall extra =
          (* Every mode covers the same schedule space as the baseline, so
             effective replays/sec is baseline runs over that mode's wall. *)
          let rps =
            float_of_int base.Report.interleavings /. Float.max 1e-9 wall
          in
          pf "%-10s %-14s %14d %8d %9d %10.3f %11.1f %s %7.2fx%s\n%!" name
            mode r.Report.interleavings r.Report.runs_pruned
            (List.length r.Report.findings)
            wall rps
            (prps_str (hist_rps r))
            (rps /. Float.max 1e-9 base_rps)
            extra
        in
        show "unpruned" base base_wall "";
        let pruned, pruned_wall =
          time (fun () ->
              Explorer.verify ~config:{ cfg with prune = true } ~np (build ()))
        in
        let equal_findings = errors_of base = errors_of pruned in
        show "pruned" pruned pruned_wall
          (if equal_findings then "  (= findings)" else "  (FINDINGS DIFFER)");
        (* Cached walk: persist the sidecar, then re-verify warm. *)
        let ck_path = Filename.temp_file "dampi-prune" ".ck" in
        let ck =
          {
            Explorer.path = ck_path;
            every = 0;
            label = Printf.sprintf "bench prune %s np=%d" name np;
          }
        in
        let cfg_cached =
          {
            cfg with
            prune = true;
            prefix_cache = Some (16 * 1024 * 1024);
            robustness =
              { Explorer.default_robustness with checkpoint = Some ck };
          }
        in
        let cached, cached_wall =
          time (fun () -> Explorer.verify ~config:cfg_cached ~np (build ()))
        in
        show "pruned+cache" cached cached_wall "";
        let warm, warm_wall =
          time (fun () -> Explorer.verify ~config:cfg_cached ~np (build ()))
        in
        let warm_hits =
          Obs.Metrics.counter_value warm.Report.metrics "cache.hits"
        in
        show "warm re-run" warm warm_wall
          (Printf.sprintf "  (%d cache hits)" warm_hits);
        let depth =
          match Obs.Metrics.find warm.Report.metrics "cache.resume_depth" with
          | Some (Obs.Metrics.Histogram h) ->
              List.init
                (Array.length h.Obs.Metrics.counts)
                (fun i ->
                  ( (if i < Array.length h.Obs.Metrics.bounds then
                       Printf.sprintf "%g" h.Obs.Metrics.bounds.(i)
                     else "+inf"),
                    h.Obs.Metrics.counts.(i) ))
              |> List.filter (fun (_, c) -> c > 0)
          | _ -> []
        in
        if depth <> [] then begin
          pf "%-10s resumed-depth histogram (<=bound: count):" name;
          List.iter (fun (b, c) -> pf " %s:%d" b c) depth;
          pf "\n%!"
        end;
        if
          warm.Report.interleavings <> pruned.Report.interleavings
          || errors_of warm <> errors_of pruned
        then pf "%-10s WARNING: warm re-run disagrees with pruned walk\n%!" name;
        (try Sys.remove ck_path with Sys_error _ -> ());
        (try Sys.remove (ck_path ^ ".cache") with Sys_error _ -> ());
        {
          pr_workload = name;
          pr_np = np;
          pr_base_runs = base.Report.interleavings;
          pr_base_wall = base_wall;
          pr_pruned_runs = pruned.Report.interleavings;
          pr_runs_pruned = pruned.Report.runs_pruned;
          pr_pruned_findings = List.length pruned.Report.findings;
          pr_pruned_wall = pruned_wall;
          pr_equal_findings = equal_findings;
          pr_cached_wall = cached_wall;
          pr_warm_wall = warm_wall;
          pr_warm_hits = warm_hits;
          pr_base_prps = hist_rps base;
          pr_pruned_prps = hist_rps pruned;
          pr_warm_prps = hist_rps warm;
          pr_depth = depth;
        })
      scenarios
  in
  prune_rows := rows;
  let path = "BENCH_prune_explore.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"prune_explore\",\n  \"results\": [\n";
  let n = List.length rows in
  (* Profiled replays/sec is [null] when the mode replayed nothing (a warm
     cache-hit walk has an empty replay histogram). *)
  let prps_json = function
    | Some v -> Printf.sprintf "%.2f" v
    | None -> "null"
  in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"np\": %d, \"base_interleavings\": %d, \
         \"pruned_interleavings\": %d, \"runs_pruned\": %d, \"findings\": %d, \
         \"equal_findings\": %b, \"base_wall\": %.6f, \"pruned_wall\": %.6f, \
         \"pruned_speedup\": %.4f, \"cached_wall\": %.6f, \"warm_wall\": %.6f, \
         \"warm_speedup\": %.4f, \"cache_hits\": %d, \
         \"base_profiled_rps\": %s, \"pruned_profiled_rps\": %s, \
         \"warm_profiled_rps\": %s}%s\n"
        r.pr_workload r.pr_np r.pr_base_runs r.pr_pruned_runs r.pr_runs_pruned
        r.pr_pruned_findings r.pr_equal_findings r.pr_base_wall r.pr_pruned_wall
        (r.pr_base_wall /. Float.max 1e-9 r.pr_pruned_wall)
        r.pr_cached_wall r.pr_warm_wall
        (r.pr_base_wall /. Float.max 1e-9 r.pr_warm_wall)
        r.pr_warm_hits
        (prps_json r.pr_base_prps)
        (prps_json r.pr_pruned_prps)
        (prps_json r.pr_warm_prps)
        (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  pf "\nresults written to %s\n" path

(* The regression gate: deterministic fields must match the committed
   baseline exactly; wall-derived ratios only have to clear the baseline's
   minimum with generous slack (same-process ratios are machine-portable,
   absolute walls are not). Re-baselining is a deliberate manual act:
   run [bench -- prune], inspect BENCH_prune_explore.json, and edit
   bench/baselines/prune.json to the new deterministic values. *)

let prune_gate () =
  heading "Prune gate -- against bench/baselines/prune.json";
  if !prune_rows = [] then prune_explore ();
  let baseline_path = "bench/baselines/prune.json" in
  if not (Sys.file_exists baseline_path) then begin
    pf "FAIL: %s not found (run from the repository root)\n" baseline_path;
    exit 1
  end;
  let text =
    let ic = open_in baseline_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  (* The baseline is flat JSON: "<workload>.<field>": value. *)
  let lookup key =
    let anchor = Printf.sprintf "\"%s\":" key in
    match
      let rec find i =
        if i + String.length anchor > String.length text then None
        else if String.sub text i (String.length anchor) = anchor then
          Some (i + String.length anchor)
        else find (i + 1)
      in
      find 0
    with
    | None -> None
    | Some start ->
        let stop = ref start in
        while
          !stop < String.length text
          && not (List.mem text.[!stop] [ ','; '\n'; '}' ])
        do
          incr stop
        done;
        Some (String.trim (String.sub text start (!stop - start)))
  in
  let int_of key = Option.bind (lookup key) int_of_string_opt in
  let float_of key = Option.bind (lookup key) float_of_string_opt in
  let failures = ref 0 in
  let check_int label actual = function
    | None ->
        pf "FAIL %-34s missing from baseline\n" label;
        incr failures
    | Some expected when expected <> actual ->
        pf "FAIL %-34s %d (baseline %d)\n" label actual expected;
        incr failures
    | Some expected -> pf "ok   %-34s %d\n" label expected
  in
  List.iter
    (fun r ->
      let k f = r.pr_workload ^ "." ^ f in
      check_int (k "base_interleavings") r.pr_base_runs (int_of (k "base_interleavings"));
      check_int (k "pruned_interleavings") r.pr_pruned_runs (int_of (k "pruned_interleavings"));
      check_int (k "runs_pruned") r.pr_runs_pruned (int_of (k "runs_pruned"));
      check_int (k "findings") r.pr_pruned_findings (int_of (k "findings"));
      check_int (k "cache_hits") r.pr_warm_hits (int_of (k "cache_hits"));
      if not r.pr_equal_findings then begin
        pf "FAIL %-34s pruned findings differ from unpruned\n" (k "equal_findings");
        incr failures
      end
      else pf "ok   %-34s true\n" (k "equal_findings"))
    !prune_rows;
  (* The acceptance ratio: at least one workload must cover schedules at
     >= min_speedup x the unpruned rate — via pruning, the warm
     re-verification from the cache sidecar, or both. *)
  let min_speedup = Option.value (float_of "min_speedup") ~default:2.0 in
  let best =
    List.fold_left
      (fun acc r ->
        let pruned = r.pr_base_wall /. Float.max 1e-9 r.pr_pruned_wall in
        let warm = r.pr_base_wall /. Float.max 1e-9 r.pr_warm_wall in
        Float.max acc (Float.max pruned warm))
      0.0 !prune_rows
  in
  if best >= min_speedup then
    pf "ok   %-34s %.2fx (needs >= %.2fx)\n" "best replays/sec speedup" best
      min_speedup
  else begin
    pf "FAIL %-34s %.2fx (needs >= %.2fx)\n" "best replays/sec speedup" best
      min_speedup;
    incr failures
  end;
  if !failures > 0 then begin
    pf "\nprune gate: %d failure(s)\n" !failures;
    exit 1
  end;
  pf "\nprune gate: all checks passed\n"

(* ---- Trace overhead: a trace:false runtime must allocate no event
   records. Both the event list and the per-event records are only built
   behind the [trace_on] guard, so two untraced runs of a deterministic
   workload allocate exactly the same number of minor words, and a traced
   run strictly more. ---- *)

let trace_overhead () =
  heading
    "Trace overhead -- message-flow event records only exist under \
     ~trace:true";
  let exec ~trace =
    let rt = Runtime.create ~trace ~np:3 () in
    let module B = Mpi.Bind.Make (struct
      let rt = rt
    end) in
    let module P = (val Workloads.Patterns.fig3) in
    let module Prog = P (B) in
    Runtime.spawn_ranks rt (fun _ -> Prog.main ());
    ignore (Runtime.run rt);
    rt
  in
  let words ~trace =
    ignore (exec ~trace);
    (* warm-up: fault in code paths so both measured runs see the same state *)
    let before = Gc.minor_words () in
    let rt = exec ~trace in
    let after = Gc.minor_words () in
    (after -. before, List.length (Runtime.trace rt))
  in
  let off1, ev_off = words ~trace:false in
  let off2, _ = words ~trace:false in
  let on1, ev_on = words ~trace:true in
  pf "%-14s %14.0f minor words %8d events\n" "trace:false" off1 ev_off;
  pf "%-14s %14.0f minor words %8s\n" "trace:false" off2 "(repeat)";
  pf "%-14s %14.0f minor words %8d events\n%!" "trace:true" on1 ev_on;
  assert (ev_off = 0);
  assert (ev_on > 0);
  assert (off1 = off2);
  assert (on1 > off1);
  pf "OK: untraced runs allocate identically and record zero events; \
      tracing allocates strictly more\n"

(* ---- Hot path: the single-thread replay loop itself ----

   Cold exhaustive walks at jobs=1, trace off, pruning off, no cache — the
   configuration where every interleaving is a genuine re-execution, so
   replays/sec and Gc.minor_words per replay measure the runtime + clock
   hot path and nothing else. Both figures feed bench/baselines/hotpath.json
   via [hotpath_gate]. *)

type hotpath_row = {
  hp_workload : string;
  hp_np : int;
  hp_interleavings : int;
  hp_findings : int;
  hp_wall : float;
  hp_rps : float;
  hp_words_per_replay : float;  (* minor words, deterministic per replay *)
}

let hotpath_rows : hotpath_row list ref = ref []

let hotpath_scenarios =
  [
    ( "adlb2",
      6,
      fun () ->
        Workloads.Adlb.program
          ~params:
            {
              Workloads.Adlb.default_params with
              servers = 2;
              puts_per_client = 1;
            }
          () );
    ( "matmult",
      6,
      fun () ->
        Workloads.Matmult.program
          ~params:
            { Workloads.Matmult.default_params with n = 6; rows_per_task = 1 }
          () );
  ]

let hotpath ?only () =
  heading
    "Hot path -- replays/sec and minor words/replay (jobs=1, trace off, \
     pruning off)";
  pf "%-10s %4s %14s %9s %10s %11s %16s\n" "workload" "np" "interleavings"
    "findings" "wall-s" "replays/s" "minor-w/replay";
  let scenarios =
    match only with
    | None -> hotpath_scenarios
    | Some w -> List.filter (fun (name, _, _) -> name = w) hotpath_scenarios
  in
  let rows =
    List.map
      (fun (name, np, build) ->
        let cfg =
          {
            Explorer.default_config with
            state_config = State.make_config ();
          }
        in
        (* Warm-up walk: faults in every code path and lazy allocation so
           the measured walk's allocation count is steady-state. *)
        ignore (Explorer.verify ~config:cfg ~np (build ()));
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r = Explorer.verify ~config:cfg ~np (build ()) in
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        let runs = r.Report.interleavings in
        let rps = float_of_int runs /. Float.max 1e-9 wall in
        let wpr = words /. float_of_int (max 1 runs) in
        pf "%-10s %4d %14d %9d %10.3f %11.1f %16.0f\n%!" name np runs
          (List.length r.Report.findings)
          wall rps wpr;
        {
          hp_workload = name;
          hp_np = np;
          hp_interleavings = runs;
          hp_findings = List.length r.Report.findings;
          hp_wall = wall;
          hp_rps = rps;
          hp_words_per_replay = wpr;
        })
      scenarios
  in
  hotpath_rows := rows;
  let path = "BENCH_hotpath.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"hotpath\",\n  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"np\": %d, \"interleavings\": %d, \
         \"findings\": %d, \"wall_s\": %.6f, \"replays_per_sec\": %.2f, \
         \"minor_words_per_replay\": %.1f}%s\n"
        r.hp_workload r.hp_np r.hp_interleavings r.hp_findings r.hp_wall
        r.hp_rps r.hp_words_per_replay
        (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  pf "\nresults written to %s\n" path

(* The hot-path regression gate, mirroring [prune_gate]'s policy:
   deterministic fields (interleavings, findings) must match the committed
   baseline exactly; replays/sec only has to clear [min_rps.<workload>],
   which carries generous slack because absolute throughput is
   machine-dependent; minor words per replay is deterministic for a given
   compiler, so it must stay at or below [max_words_per_replay.<workload>].
   Re-baselining is a deliberate manual act: run [bench -- hotpath], inspect
   BENCH_hotpath.json, and edit bench/baselines/hotpath.json (or run the
   re-baseline workflow_dispatch job and commit its artifact). *)

let hotpath_gate () =
  heading "Hot-path gate -- against bench/baselines/hotpath.json";
  (* Look for the baseline before spending bench time: a missing file is a
     setup error and should fail immediately. *)
  let baseline_path = "bench/baselines/hotpath.json" in
  if not (Sys.file_exists baseline_path) then begin
    pf "FAIL: %s not found (run from the repository root)\n" baseline_path;
    exit 1
  end;
  if !hotpath_rows = [] then hotpath ();
  let text =
    let ic = open_in baseline_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  (* The baseline is flat JSON: "<workload>.<field>": value. *)
  let lookup key =
    let anchor = Printf.sprintf "\"%s\":" key in
    match
      let rec find i =
        if i + String.length anchor > String.length text then None
        else if String.sub text i (String.length anchor) = anchor then
          Some (i + String.length anchor)
        else find (i + 1)
      in
      find 0
    with
    | None -> None
    | Some start ->
        let stop = ref start in
        while
          !stop < String.length text
          && not (List.mem text.[!stop] [ ','; '\n'; '}' ])
        do
          incr stop
        done;
        Some (String.trim (String.sub text start (!stop - start)))
  in
  let int_of key = Option.bind (lookup key) int_of_string_opt in
  let float_of key = Option.bind (lookup key) float_of_string_opt in
  let failures = ref 0 in
  let check_int label actual = function
    | None ->
        pf "FAIL %-36s missing from baseline\n" label;
        incr failures
    | Some expected when expected <> actual ->
        pf "FAIL %-36s %d (baseline %d)\n" label actual expected;
        incr failures
    | Some expected -> pf "ok   %-36s %d\n" label expected
  in
  List.iter
    (fun r ->
      let k f = r.hp_workload ^ "." ^ f in
      check_int (k "interleavings") r.hp_interleavings
        (int_of (k "interleavings"));
      check_int (k "findings") r.hp_findings (int_of (k "findings"));
      (match float_of ("min_rps." ^ r.hp_workload) with
      | None ->
          pf "FAIL %-36s missing from baseline\n" ("min_rps." ^ r.hp_workload);
          incr failures
      | Some floor when r.hp_rps < floor ->
          pf "FAIL %-36s %.1f (floor %.1f)\n"
            (r.hp_workload ^ ".replays_per_sec")
            r.hp_rps floor;
          incr failures
      | Some floor ->
          pf "ok   %-36s %.1f (floor %.1f)\n"
            (r.hp_workload ^ ".replays_per_sec")
            r.hp_rps floor);
      match float_of ("max_words_per_replay." ^ r.hp_workload) with
      | None ->
          pf "FAIL %-36s missing from baseline\n"
            ("max_words_per_replay." ^ r.hp_workload);
          incr failures
      | Some ceiling when r.hp_words_per_replay > ceiling ->
          pf "FAIL %-36s %.0f (ceiling %.0f)\n"
            (r.hp_workload ^ ".minor_words_per_replay")
            r.hp_words_per_replay ceiling;
          incr failures
      | Some ceiling ->
          pf "ok   %-36s %.0f (ceiling %.0f)\n"
            (r.hp_workload ^ ".minor_words_per_replay")
            r.hp_words_per_replay ceiling)
    !hotpath_rows;
  if !failures > 0 then begin
    pf "\nhotpath gate: %d failure(s)\n" !failures;
    exit 1
  end;
  pf "\nhotpath gate: all checks passed\n"

(* ---- Bechamel microbenchmarks of the substrate ---- *)

let micro () =
  heading "Microbenchmarks (Bechamel) -- substrate throughput";
  let open Bechamel in
  let open Toolkit in
  let tests =
    [
      Test.make ~name:"mpi ping-pong (np=2, 100 msgs)"
        (Staged.stage (fun () ->
             let module P (M : Mpi.Mpi_intf.MPI_CORE) = struct
               let main () =
                 let world = M.comm_world in
                 if M.rank world = 0 then
                   for _ = 1 to 100 do
                     M.send ~dest:1 world (Mpi.Payload.Int 1);
                     ignore (M.recv ~src:1 world)
                   done
                 else
                   for _ = 1 to 100 do
                     ignore (M.recv ~src:0 world);
                     M.send ~dest:0 world (Mpi.Payload.Int 2)
                   done
             end in
             ignore (Mpi.Bind.exec ~np:2 (module P : Mpi.Mpi_intf.PROGRAM))));
      Test.make ~name:"wildcard fan-in (np=8, 70 msgs)"
        (Staged.stage (fun () ->
             let module P (M : Mpi.Mpi_intf.MPI_CORE) = struct
               let main () =
                 let world = M.comm_world in
                 if M.rank world = 0 then
                   for _ = 1 to 70 do
                     ignore (M.recv ~src:M.any_source world)
                   done
                 else
                   for _ = 1 to 10 do
                     M.send ~dest:0 world (Mpi.Payload.Int 3)
                   done
             end in
             ignore (Mpi.Bind.exec ~np:8 (module P : Mpi.Mpi_intf.PROGRAM))));
      Test.make ~name:"full verification of fig3 (np=3)"
        (Staged.stage (fun () ->
             ignore
               (Explorer.verify ~config:Explorer.default_config ~np:3
                  Workloads.Patterns.fig3)));
      (* A warm prefix-cache hit as the explorer serves one: the item's
         schedule key, then the keyed lookup, in a cache of adlb2's size
         (32,118 entries of 16 decisions; ranks and epoch ids below 100,
         as in adlb2's keys). *)
      (let schedule i =
         List.init 16 (fun k ->
             {
               Dampi.Decisions.owner = k mod 6;
               epoch_id = k + 1;
               src = i / int_of_float (6.0 ** float_of_int (k mod 6)) mod 6;
               kind = Dampi.Epoch.Wildcard_recv;
             })
       in
       let pc = Dampi.Prefix_cache.create ~budget_bytes:max_int () in
       let entry =
         { Dampi.Prefix_cache.vtime = 0.0; wildcards = 0; errors = []; epochs = [] }
       in
       for i = 0 to 32_117 do
         Dampi.Prefix_cache.add pc (schedule i) entry
       done;
       let probe = schedule 12_345 in
       Test.make ~name:"warm hit: schedule key + keyed lookup"
         (Staged.stage (fun () ->
              let key = Dampi.Checkpoint.schedule_key probe in
              ignore (Dampi.Prefix_cache.find pc ~key probe))));
      Test.make ~name:"lamport tick+merge x1000"
        (Staged.stage (fun () ->
             let c = ref (Clocks.Lamport.make ~np:64) in
             for _ = 1 to 1000 do
               c := Clocks.Lamport.merge (Clocks.Lamport.tick ~me:0 !c) 42
             done));
      Test.make ~name:"vector tick+merge x1000 (np=64)"
        (Staged.stage (fun () ->
             let other = Clocks.Vector.make ~np:64 in
             let c = ref (Clocks.Vector.make ~np:64) in
             for _ = 1 to 1000 do
               c := Clocks.Vector.merge (Clocks.Vector.tick ~me:0 !c) other
             done));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let grouped = Test.make_grouped ~name:"substrate" tests in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let analyzed =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) analyzed []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> pf "%-52s %14.1f ns/run\n%!" name est
      | Some _ | None -> pf "%-52s (no estimate)\n%!" name)
    rows

(* ---- driver ---- *)

let usage () =
  pf
    "usage: main.exe [all|fig5|fig6|fig8|fig9|table1|table2|ablation-clocks|\n\
    \                 ablation-piggyback|ablation-mixing|parallel|\
     distributed|fault-soak|prune|prune-gate|hotpath|hotpath-matmult|\
     hotpath-gate|trace-overhead|micro] [--np N]\n\n\
     A change that touches the hot path appends one row to the perf ledger\n\
     bench/history.tsv: commit (a change's own row: its parent and a +),\n\
     nproc, CPU model, and the effective replays/s of each [prune] scenario\n\
     (adlb2 and matmult, each unpruned, pruned and warm), measured back to\n\
     back with the row before it. Rows compare only at the same nproc and\n\
     CPU model.\n"

let () =
  let args = Array.to_list Sys.argv in
  let np_override =
    let rec find = function
      | "--np" :: v :: _ -> Some (int_of_string v)
      | _ :: tl -> find tl
      | [] -> None
    in
    find args
  in
  let cmds =
    List.filter
      (fun a ->
        (not (String.length a >= 2 && String.sub a 0 2 = "--"))
        && (match int_of_string_opt a with Some _ -> false | None -> true))
      (List.tl args)
  in
  let run = function
    | "fig5" -> fig5 ()
    | "fig6" -> fig6 ()
    | "fig8" -> fig8 ()
    | "fig9" -> fig9 ()
    | "table1" -> table1 ()
    | "table2" -> table2 ?np:np_override ()
    | "ablation-clocks" -> ablation_clocks ()
    | "ablation-piggyback" -> ablation_piggyback ()
    | "ablation-random" -> ablation_random ()
    | "ablation-mixing" -> ablation_mixing ()
    | "parallel" -> parallel_explore ()
    | "distributed" -> distributed_explore ()
    | "fault-soak" -> fault_soak ()
    | "prune" -> prune_explore ()
    | "prune-gate" -> prune_gate ()
    | "hotpath" -> hotpath ()
    (* Matmult only: quick enough (well under a second) for smoke tests. *)
    | "hotpath-matmult" -> hotpath ~only:"matmult" ()
    | "hotpath-gate" -> hotpath_gate ()
    | "trace-overhead" -> trace_overhead ()
    | "micro" -> micro ()
    | "all" ->
        fig5 ();
        table1 ();
        table2 ?np:np_override ();
        fig6 ();
        fig8 ();
        fig9 ();
        ablation_clocks ();
        ablation_piggyback ();
        ablation_random ();
        ablation_mixing ();
        parallel_explore ();
        distributed_explore ();
        fault_soak ();
        prune_explore ();
        hotpath ();
        trace_overhead ()
    | other ->
        pf "unknown command %S\n" other;
        usage ();
        exit 1
  in
  match cmds with [] -> run "all" | cmds -> List.iter run cmds
