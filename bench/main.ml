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

(* The n x n matrix multiplication, [rows_per_task] rows per task. *)
let matmult ?(rows_per_task = 1) n () =
  Workloads.Matmult.program
    ~params:{ Workloads.Matmult.default_params with n; rows_per_task } ()

(* [f ()] and its host wall in seconds. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

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
  let program = matmult 16 () in
  pf "%15s %14s %14s\n" "interleavings" "DAMPI" "ISP";
  List.iter
    (fun budget ->
      let config = { Explorer.default_config with max_runs = budget } in
      let dampi = Explorer.verify ~config ~np program in
      let isp = Isp.Engine.verify ~config ~np program in
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
      let program = matmult 6 () in
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

let lamport = (module Clocks.Lamport : Clocks.Clock_intf.S)
let vector = (module Clocks.Vector : Clocks.Clock_intf.S)

let ablation_clocks () =
  heading
    "Ablation -- clock algebra: Lamport (paper default) vs vector clocks";
  let run clock ~np program =
    time (fun () ->
        Explorer.verify
          ~config:
            {
              Explorer.default_config with
              state_config = State.make_config ~clock ();
              max_runs = 2000;
            }
          ~np program)
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
      ("matmult(6x6)", 6, matmult ~rows_per_task:2 6 ());
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
  let program = matmult ~rows_per_task:2 8 () in
  pf "%10s %14s\n" "k" "interleavings";
  List.iter
    (fun k ->
      let label =
        match k with None -> "unbounded" | Some k -> string_of_int k
      in
      pf "%10s %14d\n%!" label
        (explore_count ~np:6 ~k ~max_runs:50_000 program))
    [ Some 0; Some 1; Some 2; Some 3; Some 4; None ]

(* ---- The one BENCH_<bench>.json writer: the "bench" name, then
   [fields] one per line. Values arrive rendered: [arr] puts one object
   per line, each object's fields on that line. ---- *)

let jstr s = "\"" ^ Obs.Metrics.json_escape s ^ "\""
let jint = string_of_int
let jfix digits v = Printf.sprintf "%.*f" digits v
let field (k, v) = jstr k ^ ": " ^ v
let obj fields = "{" ^ String.concat ", " (List.map field fields) ^ "}"

let lines indent items =
  String.concat ",\n" (List.map (( ^ ) indent) items) ^ "\n"

let arr indent objs =
  "[\n" ^ lines (indent ^ "  ") (List.map obj objs) ^ indent ^ "]"

let write_bench bench fields =
  let path = "BENCH_" ^ bench ^ ".json" in
  let body = List.map field (("bench", jstr bench) :: fields) in
  let oc = open_out path in
  output_string oc ("{\n" ^ lines "  " body ^ "}\n");
  close_out oc;
  pf "\nresults written to %s\n" path

(* ---- The throughput scenarios, shared by [parallel], [distributed],
   [prune] and [hotpath]: each program is defined once here. [name] is
   the JSON "workload" field. ---- *)

type scenario = {
  name : string;
  np : int;
  k : int option;  (* mixing bound; None = unbounded *)
  max_runs : int;
  build : unit -> Mpi.Mpi_intf.program;
}

let exhaustive name np build = { name; np; k = None; max_runs = max_int; build }
let matmult_n6 = exhaustive "matmult" 6 (matmult 6)
let matmult_n8 = exhaustive "matmult" 6 (matmult 8)

let adlb2 =
  exhaustive "adlb2" 6 (fun () ->
      Workloads.Adlb.program
        ~params:
          {
            Workloads.Adlb.default_params with
            servers = 2;
            puts_per_client = 1;
          }
        ())

let adlb_k1 =
  {
    name = "adlb";
    np = 8;
    k = Some 1;
    max_runs = 2_000;
    build = (fun () -> Workloads.Adlb.program ());
  }

let scenario_config sc =
  {
    Explorer.default_config with
    state_config = State.make_config ?mixing_bound:sc.k ();
    max_runs = sc.max_runs;
  }

let scenario_json sc rows =
  [
    ("workload", jstr sc.name);
    ("np", jint sc.np);
    ("max_runs", jint sc.max_runs);
    ("results", arr "    " rows);
  ]

let scenario_heading sc =
  pf "\n%-10s np=%d %s\n" sc.name sc.np
    (match sc.k with
    | None -> "(unbounded, exhaustive)"
    | Some k -> Printf.sprintf "(mixing bound k=%d, max-runs %d)" k sc.max_runs)

let speedup base wall = base /. Float.max 1e-9 wall

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
  let groups =
    List.map
      (fun sc ->
        scenario_heading sc;
        pf "%6s %14s %10s %12s %9s %12s\n" "jobs" "interleavings" "findings"
          "wall-s" "speedup" "queue-waits";
        let rows =
          List.map
            (fun jobs ->
              ( jobs,
                Explorer.verify
                  ~config:{ (scenario_config sc) with jobs }
                  ~np:sc.np (sc.build ()) ))
            [ 1; 2; 4; 8 ]
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
              (speedup base_wall r.Report.host_seconds)
              waits)
          rows;
        scenario_json sc
          (List.map
             (fun (jobs, (r : Report.t)) ->
               let counter = Obs.Metrics.counter_value r.Report.metrics in
               [
                 ("jobs", jint jobs);
                 ("interleavings", jint r.Report.interleavings);
                 ("findings", jint (List.length r.Report.findings));
                 ("wall_seconds", jfix 6 r.Report.host_seconds);
                 ("speedup", jfix 4 (speedup base_wall r.Report.host_seconds));
                 ("match_attempts", jint (counter "mpi.match_attempts"));
                 ("piggyback_bytes", jint (counter "dampi.piggyback_bytes"));
                 ( "queue_waits",
                   jint
                     (match
                        Obs.Metrics.find r.Report.metrics "sched.queue_wait_s"
                      with
                     | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.count
                     | _ -> 0) );
               ])
             rows))
      [ matmult_n8; adlb_k1 ]
  in
  write_bench "parallel_explore" [ ("scenarios", arr "  " groups) ]

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
  let scenarios = [ matmult_n8; adlb_k1 ] in
  let resolve { Dampi.Wire.workload; _ } =
    match List.find_opt (fun sc -> sc.name = workload) scenarios with
    | None -> Error (Printf.sprintf "unknown workload %S" workload)
    | Some sc ->
        Ok
          {
            Dampi.Remote_worker.np = sc.np;
            runner =
              Explorer.dampi_runner (scenario_config sc) ~np:sc.np
                (sc.build ());
            rb = Explorer.default_robustness;
            prune = false;
          }
  in
  (* jobs=1 pool is the baseline; the distributed rows attach 2 and 4
     socket workers to the same exploration. *)
  let modes = [ `Pool 1; `Pool 4; `Dist 2; `Dist 4 ] in
  let counters =
    [
      ("leases", "coordinator.leases");
      ("releases", "coordinator.releases");
      ("steals", "sched.steals");
      ("reconnects", "coordinator.reconnects");
      ("fallbacks", "coordinator.fallbacks");
    ]
  in
  let groups =
    List.map
      (fun sc ->
        scenario_heading sc;
        pf "%-10s %14s %10s %12s %9s %8s %10s %8s %10s %9s\n" "mode"
          "interleavings" "findings" "wall-s" "speedup" "leases" "re-leases"
          "steals" "reconnects" "fallbacks";
        let config = scenario_config sc in
        let rows =
          List.map
            (fun mode ->
              match mode with
              | `Pool jobs ->
                  let r =
                    Explorer.verify ~config:{ config with jobs } ~np:sc.np
                      (sc.build ())
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
                    Dampi.Coordinator.default_setup
                      (Dampi.Coordinator.Fds (List.map fst workers))
                      { Dampi.Wire.workload = sc.name; np = sc.np; params = [] }
                  in
                  let r =
                    Explorer.verify ~config ~distribute:setup ~np:sc.np
                      (sc.build ())
                  in
                  List.iter (fun (_, d) -> Domain.join d) workers;
                  (Printf.sprintf "dist-%d" n, n, r))
            modes
        in
        let base_wall =
          match rows with (_, _, r) :: _ -> r.Report.host_seconds | [] -> 0.0
        in
        let counts (r : Report.t) =
          List.map
            (fun (_, m) -> Obs.Metrics.counter_value r.Report.metrics m)
            counters
        in
        List.iter
          (fun (label, _, (r : Report.t)) ->
            pf "%-10s %14d %10d %12.3f %8.2fx" label r.Report.interleavings
              (List.length r.Report.findings)
              r.Report.host_seconds
              (speedup base_wall r.Report.host_seconds);
            List.iter2
              (fun w c -> pf " %*d" w c)
              [ 8; 10; 8; 10; 9 ] (counts r);
            pf "\n%!")
          rows;
        scenario_json sc
          (List.map
             (fun (label, workers, (r : Report.t)) ->
               [
                 ("mode", jstr label);
                 ("workers", jint workers);
                 ("interleavings", jint r.Report.interleavings);
                 ("findings", jint (List.length r.Report.findings));
                 ("wall_seconds", jfix 6 r.Report.host_seconds);
                 ("speedup", jfix 4 (speedup base_wall r.Report.host_seconds));
               ]
               @ List.map2 (fun (k, _) c -> (k, jint c)) counters (counts r))
             rows))
      scenarios
  in
  write_bench "distributed_explore" [ ("scenarios", arr "  " groups) ]

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
  write_bench "fault_soak"
    [
      ("np", jint np);
      ("baseline_interleavings", jint baseline.Report.interleavings);
      ( "results",
        arr "  "
          (List.map
             (fun (label, spec, jobs, (r : Report.t)) ->
               [
                 ("scenario", jstr label);
                 ("spec", jstr (Mpi.Fault.to_string spec));
                 ("jobs", jint jobs);
                 ("interleavings", jint r.Report.interleavings);
                 ("findings", jint (List.length r.Report.findings));
                 ("timed_out", jint r.Report.runs_timed_out);
                 ("retried", jint r.Report.runs_retried);
                 ("faulted", jint r.Report.runs_crashed);
                 ( "matches_baseline",
                   string_of_bool
                     (r.Report.interleavings = baseline.Report.interleavings) );
               ])
             results) );
    ]

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

(* One workload's walks: each mode's report and wall. *)
type prune_row = {
  sc : scenario;
  base : Report.t * float;
  pruned : Report.t * float;
  cached_wall : float;
  warm : Report.t * float;
  equal_findings : bool;
}

let prune_rows : prune_row list ref = ref []

let cache_hits (r : Report.t) =
  Obs.Metrics.counter_value r.Report.metrics "cache.hits"

let prune_explore () =
  heading
    "Prune + prefix cache -- effective replays/sec vs the unpruned walk \
     (matmult no-op check, 2-server adlb)";
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
      (fun ({ name; np; build; _ } as sc) ->
        let cfg = { (scenario_config sc) with profile = true } in
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
        show "warm re-run" warm warm_wall
          (Printf.sprintf "  (%d cache hits)" (cache_hits warm));
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
          sc;
          base = (base, base_wall);
          pruned = (pruned, pruned_wall);
          cached_wall;
          warm = (warm, warm_wall);
          equal_findings;
        })
      [ matmult_n6; adlb2 ]
  in
  prune_rows := rows;
  (* Profiled replays/sec is [null] when the mode replayed nothing (a warm
     cache-hit walk has an empty replay histogram). *)
  let prps = function Some v -> jfix 2 v | None -> "null" in
  write_bench "prune_explore"
    [
      ( "results",
        arr "  "
          (List.map
             (fun r ->
               let base, base_wall = r.base in
               let pruned, pruned_wall = r.pruned in
               let warm, warm_wall = r.warm in
               [
                 ("workload", jstr r.sc.name);
                 ("np", jint r.sc.np);
                 ("base_interleavings", jint base.Report.interleavings);
                 ("pruned_interleavings", jint pruned.Report.interleavings);
                 ("runs_pruned", jint pruned.Report.runs_pruned);
                 ("findings", jint (List.length pruned.Report.findings));
                 ("equal_findings", string_of_bool r.equal_findings);
                 ("base_wall", jfix 6 base_wall);
                 ("pruned_wall", jfix 6 pruned_wall);
                 ("pruned_speedup", jfix 4 (speedup base_wall pruned_wall));
                 ("cached_wall", jfix 6 r.cached_wall);
                 ("warm_wall", jfix 6 warm_wall);
                 ("warm_speedup", jfix 4 (speedup base_wall warm_wall));
                 ("cache_hits", jint (cache_hits warm));
                 ("base_profiled_rps", prps (hist_rps base));
                 ("pruned_profiled_rps", prps (hist_rps pruned));
                 ("warm_profiled_rps", prps (hist_rps warm));
               ])
             rows) );
    ]

(* ---- The gates' flat-JSON baselines ("<key>": value, one per line) and
   the check lines both gates print against them. A missing baseline is a
   setup error: [open_gate] fails before any bench time is spent. ---- *)

type gate = {
  lookup : string -> string option;
  width : int;  (* label column *)
  mutable failures : int;
}

let open_gate ~title ~width path =
  heading (Printf.sprintf "%s -- against %s" title path);
  if not (Sys.file_exists path) then begin
    pf "FAIL: %s not found (run from the repository root)\n" path;
    exit 1
  end;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let lookup key =
    let anchor = Printf.sprintf "\"%s\":" key in
    let n = String.length anchor in
    let rec find i =
      if i + n > String.length text then None
      else if String.sub text i n = anchor then Some (i + n)
      else find (i + 1)
    in
    Option.map
      (fun start ->
        let stop = ref start in
        while
          !stop < String.length text
          && not (List.mem text.[!stop] [ ','; '\n'; '}' ])
        do
          incr stop
        done;
        String.trim (String.sub text start (!stop - start)))
      (find 0)
  in
  { lookup; width; failures = 0 }

let baseline_float g key = Option.bind (g.lookup key) float_of_string_opt

let verdict g ok label msg =
  if not ok then g.failures <- g.failures + 1;
  pf "%s %-*s %s\n" (if ok then "ok  " else "FAIL") g.width label msg

let missing g key = verdict g false key "missing from baseline"

(* Deterministic fields: exact match. *)
let check_exact g key actual =
  match Option.bind (g.lookup key) int_of_string_opt with
  | None -> missing g key
  | Some expected when expected <> actual ->
      verdict g false key (Printf.sprintf "%d (baseline %d)" actual expected)
  | Some expected -> verdict g true key (string_of_int expected)

(* Machine-dependent fields: a floor ([min_*]) or a ceiling ([max_*]). *)
let check_bound g ~key ~label ~digits ~ceiling actual =
  match baseline_float g key with
  | None -> missing g key
  | Some bound ->
      verdict g
        (if ceiling then actual <= bound else actual >= bound)
        label
        (Printf.sprintf "%.*f (%s %.*f)" digits actual
           (if ceiling then "ceiling" else "floor")
           digits bound)

let close_gate g name =
  if g.failures > 0 then begin
    pf "\n%s gate: %d failure(s)\n" name g.failures;
    exit 1
  end;
  pf "\n%s gate: all checks passed\n" name

(* The regression gate: deterministic fields must match the committed
   baseline exactly; wall-derived ratios only have to clear the baseline's
   minimum with generous slack (same-process ratios are machine-portable,
   absolute walls are not). Re-baselining is a deliberate manual act:
   run [bench -- prune], inspect BENCH_prune_explore.json, and edit
   bench/baselines/prune.json to the new deterministic values. *)

let prune_gate () =
  let g =
    open_gate ~title:"Prune gate" ~width:34 "bench/baselines/prune.json"
  in
  if !prune_rows = [] then prune_explore ();
  List.iter
    (fun r ->
      let (base, _), (pruned, _), (warm, _) = (r.base, r.pruned, r.warm) in
      let k f = r.sc.name ^ "." ^ f in
      check_exact g (k "base_interleavings") base.Report.interleavings;
      check_exact g (k "pruned_interleavings") pruned.Report.interleavings;
      check_exact g (k "runs_pruned") pruned.Report.runs_pruned;
      check_exact g (k "findings") (List.length pruned.Report.findings);
      check_exact g (k "cache_hits") (cache_hits warm);
      verdict g r.equal_findings (k "equal_findings")
        (if r.equal_findings then "true"
         else "pruned findings differ from unpruned"))
    !prune_rows;
  (* The acceptance ratio: at least one workload must cover schedules at
     >= min_speedup x the unpruned rate — via pruning, the warm
     re-verification from the cache sidecar, or both. *)
  let min_speedup =
    Option.value (baseline_float g "min_speedup") ~default:2.0
  in
  let best =
    List.fold_left
      (fun acc { base = _, base; pruned = _, pruned; warm = _, warm; _ } ->
        List.fold_left Float.max acc [ speedup base pruned; speedup base warm ])
      0.0 !prune_rows
  in
  verdict g (best >= min_speedup) "best replays/sec speedup"
    (Printf.sprintf "%.2fx (needs >= %.2fx)" best min_speedup);
  close_gate g "prune"

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
  hsc : scenario;
  report : Report.t;
  wall : float;
  rps : float;
  words_per_replay : float;  (* minor words, deterministic per replay *)
}

let hotpath_rows : hotpath_row list ref = ref []

let hotpath ?only () =
  heading
    "Hot path -- replays/sec and minor words/replay (jobs=1, trace off, \
     pruning off)";
  pf "%-10s %4s %14s %9s %10s %11s %16s\n" "workload" "np" "interleavings"
    "findings" "wall-s" "replays/s" "minor-w/replay";
  let scenarios =
    List.filter
      (fun sc -> Option.fold ~none:true ~some:(String.equal sc.name) only)
      [ adlb2; matmult_n6 ]
  in
  let rows =
    List.map
      (fun ({ name; np; build; _ } as sc) ->
        let cfg = scenario_config sc in
        (* Warm-up walk: faults in every code path and lazy allocation so
           the measured walk's allocation count is steady-state. *)
        ignore (Explorer.verify ~config:cfg ~np (build ()));
        let w0 = Gc.minor_words () in
        let r, wall =
          time (fun () -> Explorer.verify ~config:cfg ~np (build ()))
        in
        let words = Gc.minor_words () -. w0 in
        let runs = r.Report.interleavings in
        let rps = float_of_int runs /. Float.max 1e-9 wall in
        let wpr = words /. float_of_int (max 1 runs) in
        pf "%-10s %4d %14d %9d %10.3f %11.1f %16.0f\n%!" name np runs
          (List.length r.Report.findings)
          wall rps wpr;
        { hsc = sc; report = r; wall; rps; words_per_replay = wpr })
      scenarios
  in
  hotpath_rows := rows;
  write_bench "hotpath"
    [
      ( "results",
        arr "  "
          (List.map
             (fun { hsc; report = r; wall; rps; words_per_replay } ->
               [
                 ("workload", jstr hsc.name);
                 ("np", jint hsc.np);
                 ("interleavings", jint r.Report.interleavings);
                 ("findings", jint (List.length r.Report.findings));
                 ("wall_s", jfix 6 wall);
                 ("replays_per_sec", jfix 2 rps);
                 ("minor_words_per_replay", jfix 1 words_per_replay);
               ])
             rows) );
    ]

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
  let g =
    open_gate ~title:"Hot-path gate" ~width:36 "bench/baselines/hotpath.json"
  in
  if !hotpath_rows = [] then hotpath ();
  List.iter
    (fun { hsc = { name = w; _ }; report = r; rps; words_per_replay; _ } ->
      check_exact g (w ^ ".interleavings") r.Report.interleavings;
      check_exact g (w ^ ".findings") (List.length r.Report.findings);
      check_bound g ~key:("min_rps." ^ w) ~label:(w ^ ".replays_per_sec")
        ~digits:1 ~ceiling:false rps;
      check_bound g
        ~key:("max_words_per_replay." ^ w)
        ~label:(w ^ ".minor_words_per_replay")
        ~digits:0 ~ceiling:true words_per_replay)
    !hotpath_rows;
  close_gate g "hotpath"

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

let np_override =
  let rec find = function
    | "--np" :: v :: _ -> Some (int_of_string v)
    | _ :: tl -> find tl
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* Every command: its name, whether [all] runs it, and what it runs. The
   dispatch and the usage text both come from this table; [all] runs its
   members in table order. *)
let commands =
  [
    ("fig5", true, fig5);
    ("table1", true, table1);
    ("table2", true, fun () -> table2 ?np:np_override ());
    ("fig6", true, fig6);
    ("fig8", true, fig8);
    ("fig9", true, fig9);
    ("ablation-clocks", true, ablation_clocks);
    ("ablation-piggyback", true, ablation_piggyback);
    ("ablation-random", true, ablation_random);
    ("ablation-mixing", true, ablation_mixing);
    ("parallel", true, parallel_explore);
    ("distributed", true, distributed_explore);
    ("fault-soak", true, fault_soak);
    ("prune", true, prune_explore);
    ("prune-gate", false, prune_gate);
    ("hotpath", true, fun () -> hotpath ());
    (* Matmult only: quick enough (well under a second) for smoke tests. *)
    ("hotpath-matmult", false, fun () -> hotpath ~only:"matmult" ());
    ("hotpath-gate", false, hotpath_gate);
    ("trace-overhead", true, trace_overhead);
    ("micro", false, micro);
  ]

(* The command list, wrapped at 80 columns under its opening bracket. *)
let usage () =
  let prefix = "usage: main.exe [" in
  let names = "all" :: List.map (fun (name, _, _) -> name) commands in
  let last = List.length names - 1 in
  let col = ref (String.length prefix) in
  pf "%s" prefix;
  List.iteri
    (fun i name ->
      let token = name ^ if i = last then "]" else "|" in
      if !col + String.length token > 80 then begin
        pf "\n%s" (String.make (String.length prefix) ' ');
        col := String.length prefix
      end;
      pf "%s" token;
      col := !col + String.length token)
    names;
  pf
    " [--np N]\n\n\
     A change that touches the hot path appends one row to the perf ledger\n\
     bench/history.tsv: commit (a change's own row: its parent and a +),\n\
     nproc, CPU model, and the effective replays/s of each [prune] scenario\n\
     (adlb2 and matmult, each unpruned, pruned and warm), measured back to\n\
     back with the row before it. Rows compare only at the same nproc and\n\
     CPU model.\n"

let () =
  let cmds =
    List.filter
      (fun a ->
        (not (String.length a >= 2 && String.sub a 0 2 = "--"))
        && (match int_of_string_opt a with Some _ -> false | None -> true))
      (List.tl (Array.to_list Sys.argv))
  in
  let run = function
    | "all" -> List.iter (fun (_, in_all, f) -> if in_all then f ()) commands
    | name -> (
        match List.find_opt (fun (n, _, _) -> n = name) commands with
        | Some (_, _, f) -> f ()
        | None ->
            pf "unknown command %S\n" name;
            usage ();
            exit 1)
  in
  match cmds with [] -> run "all" | cmds -> List.iter run cmds
