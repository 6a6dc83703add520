(* Differential tests for the zero-allocation hot path.

   The encoded clock algebra ([tick_into]/[merge_into]/[is_late_enc]),
   pooled piggyback buffers, and pooled envelopes are pure cost
   optimizations: they must never change verification results. Two bars:

   1. Canonical-report equivalence. For every registry workload and both
      clock flavors, a run whose clock module is the decode/apply/encode
      [Clock_reference] adapter (the old pure tick/merge semantics, one
      allocation per op) produces a canonical report byte-identical to the
      native in-place runtimes at jobs=1 and jobs=4 — and, for the
      wildcard-heavy workloads, to a distribute=2 run over the real wire
      protocol.

   2. An allocation budget. The per-replay minor-heap cost of the default
      path (trace off, pruning off, jobs=1) is pinned under a fixed budget
      so an accidental reintroduction of per-op allocation fails loudly
      rather than silently eroding replay throughput. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State

(* ---- the registry ---- *)

type entry = {
  e_name : string;
  e_np : int;
  e_config : (module Clocks.Clock_intf.S) -> State.config;
  e_build : unit -> Mpi.Mpi_intf.program;
  e_distribute : bool;  (* also run the (slower) distribute=2 leg *)
}

let registry =
  [
    {
      e_name = "fig3";
      e_np = 3;
      e_config = (fun clock -> State.make_config ~clock ());
      e_build = (fun () -> Workloads.Patterns.fig3);
      e_distribute = true;
    };
    {
      e_name = "fig4";
      e_np = 4;
      e_config = (fun clock -> State.make_config ~clock ());
      e_build = (fun () -> Workloads.Patterns.fig4);
      e_distribute = true;
    };
    {
      e_name = "deadlock";
      e_np = 2;
      e_config = (fun clock -> State.make_config ~clock ());
      e_build = (fun () -> Workloads.Patterns.head_to_head);
      e_distribute = false;
    };
    {
      e_name = "matmult";
      e_np = 6;
      e_config = (fun clock -> State.make_config ~clock ());
      e_build =
        (fun () ->
          Workloads.Matmult.program
            ~params:
              { Workloads.Matmult.default_params with n = 6; rows_per_task = 1 }
            ());
      e_distribute = false;
    };
    {
      e_name = "adlb/k0";
      e_np = 6;
      e_config = (fun clock -> State.make_config ~clock ~mixing_bound:0 ());
      e_build = (fun () -> Workloads.Adlb.program ());
      e_distribute = false;
    };
  ]

let lamport = (module Clocks.Lamport : Clocks.Clock_intf.S)
let vector = (module Clocks.Vector : Clocks.Clock_intf.S)

module Ref_lamport = Clock_reference.Make (Clocks.Lamport)
module Ref_vector = Clock_reference.Make (Clocks.Vector)

(* (flavor name, native module, pure-reference module) *)
let flavors =
  [
    ("lamport", lamport, (module Ref_lamport : Clocks.Clock_intf.S));
    ("vector", vector, (module Ref_vector : Clocks.Clock_intf.S));
  ]

(* ---- runners ---- *)

let verify_local ~np ~state_config ~jobs build =
  Explorer.verify
    ~config:{ Explorer.default_config with state_config; jobs }
    ~np (build ())

(* distribute=2 over the in-process socketpair workers of Dist_harness. *)
let verify_distributed ~name ~np ~state_config build =
  Dist_harness.verify_distributed
    ~config:{ Explorer.default_config with state_config; jobs = 1 }
    ~resolve:(Dist_harness.resolver [ (name, np, state_config, build) ])
    ~name ~np build

(* The full canonical content of a report. Unlike the pruning matrix, the
   clock representation must not change the walk at all, so everything
   deterministic is compared — counts, coverage, and the structural
   findings (error AND reproduction schedule). [total_virtual_time] is a
   float sum accumulated in replay-completion order, so it is only
   byte-stable within a single scheduling discipline: the jobs=1 legs
   compare it, the parallel/distributed legs (which sum in worker-arrival
   order) do not. *)
let canonical ?(with_vt = true) (r : Report.t) =
  ( ( r.Report.np,
      r.Report.interleavings,
      r.Report.wildcards_analyzed,
      r.Report.bounded_epochs,
      r.Report.runs_pruned,
      r.Report.monitor_alerts ),
    (if with_vt then r.Report.total_virtual_time else 0.0),
    List.sort compare
      (List.map
         (fun (f : Report.finding) -> (f.Report.error, f.Report.schedule))
         r.Report.findings) )

let check_entry (e : entry) () =
  List.iter
    (fun (flavor, native, reference) ->
      let label what = Printf.sprintf "%s/%s: %s" e.e_name flavor what in
      let baseline =
        verify_local ~np:e.e_np ~state_config:(e.e_config reference) ~jobs:1
          e.e_build
      in
      let native1 =
        verify_local ~np:e.e_np ~state_config:(e.e_config native) ~jobs:1
          e.e_build
      in
      Alcotest.(check bool)
        (label "pure reference == native jobs=1")
        true
        (canonical baseline = canonical native1);
      let native4 =
        verify_local ~np:e.e_np ~state_config:(e.e_config native) ~jobs:4
          e.e_build
      in
      Alcotest.(check bool)
        (label "pure reference == native jobs=4")
        true
        (canonical ~with_vt:false baseline = canonical ~with_vt:false native4);
      if e.e_distribute then begin
        let dist =
          verify_distributed ~name:e.e_name ~np:e.e_np
            ~state_config:(e.e_config native) e.e_build
        in
        Alcotest.(check bool)
          (label "pure reference == native distribute=2")
          true
          (canonical ~with_vt:false baseline = canonical ~with_vt:false dist)
      end)
    flavors

(* ---- allocation budget ----

   Per-replay minor words on the default path (trace off, pruning off,
   jobs=1). The hot path measures ~9.9k words/replay on matmult (n=6,
   rows_per_task=1, np=6); the pre-refactor code sat at ~77k. The budget
   sits ~40% above the current cost (the matmult ceiling of
   bench/baselines/hotpath.json), so it catches a return of copy-per-op
   clocks, per-message piggyback boxing, eager per-block string formatting
   or per-call hashed bookkeeping — not minor drift. *)
let alloc_budget_words_per_replay = 13_800.0

let test_allocation_budget () =
  let build () =
    Workloads.Matmult.program
      ~params:{ Workloads.Matmult.default_params with n = 6; rows_per_task = 1 }
      ()
  in
  let run () = verify_local ~np:6 ~state_config:State.default_config ~jobs:1 build in
  ignore (run ());  (* warm-up: one-time lazies, hash-table growth *)
  let before = Gc.minor_words () in
  let r = run () in
  let after = Gc.minor_words () in
  Alcotest.(check bool) "exploration is non-trivial" true (r.Report.interleavings > 100);
  let per_replay = (after -. before) /. float_of_int r.Report.interleavings in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words/replay within budget %.0f" per_replay
       alloc_budget_words_per_replay)
    true
    (per_replay <= alloc_budget_words_per_replay)

let () =
  Alcotest.run "hotpath"
    [
      ( "clock-representation equivalence",
        List.map
          (fun e -> Alcotest.test_case e.e_name `Quick (check_entry e))
          registry );
      ( "allocation",
        [ Alcotest.test_case "minor words per replay" `Quick test_allocation_budget ] );
    ]
