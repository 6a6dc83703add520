(* Deterministic fault injection (Mpi.Fault) and the explorer's
   watchdog/retry machinery around it.

   The injection contract: every fault decision flows through a Splitmix
   stream derived from (seed, salt), where the salt is a pure function of
   the forced schedule and the attempt number. So the same seed produces
   the same fault schedule — and the same verification report — at any
   worker count, and a faulted exploration whose transient failures are
   all absorbed by retries converges to the fault-free canonical report. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Fault = Mpi.Fault

(* ---- the derived PRNG stream ---- *)

let test_derive () =
  let draws g = List.init 8 (fun _ -> Sim.Splitmix.int g 1_000_000) in
  Alcotest.(check (list int))
    "same (seed, salt): same stream"
    (draws (Sim.Splitmix.derive 42 ~salt:7))
    (draws (Sim.Splitmix.derive 42 ~salt:7));
  Alcotest.(check bool)
    "different salts: different streams" false
    (draws (Sim.Splitmix.derive 42 ~salt:7)
    = draws (Sim.Splitmix.derive 42 ~salt:8));
  Alcotest.(check bool)
    "different seeds: different streams" false
    (draws (Sim.Splitmix.derive 42 ~salt:7)
    = draws (Sim.Splitmix.derive 43 ~salt:7))

(* ---- spec parsing ---- *)

let test_spec_parsing () =
  (match Fault.of_string "seed=9,delay=0.25,max-delay=0.001,sendfail=0.1" with
  | Ok spec ->
      Alcotest.(check int) "seed" 9 spec.Fault.seed;
      Alcotest.(check (float 0.0)) "delay" 0.25 spec.Fault.delay_prob;
      Alcotest.(check (float 0.0)) "max-delay" 0.001 spec.Fault.max_delay;
      Alcotest.(check (float 0.0)) "sendfail" 0.1 spec.Fault.sendfail_prob;
      (* An explicit spec starts from zero rates, not the defaults. *)
      Alcotest.(check (float 0.0)) "crash off" 0.0 spec.Fault.crash_prob
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.of_string ~seed:5 "crash=0.5,rank=2" with
  | Ok spec ->
      Alcotest.(check int) "seed from ?seed" 5 spec.Fault.seed;
      Alcotest.(check (option int)) "rank" (Some 2) spec.Fault.target_rank
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.of_string ~seed:5 "" with
  | Ok spec ->
      Alcotest.(check bool)
        "seed alone enables the default mix" false (Fault.is_inert spec)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  let expect_error text =
    match Fault.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to be rejected" text
  in
  expect_error "";
  expect_error "delay=2.0,seed=1";
  expect_error "frobnicate=1,seed=1";
  expect_error "seed=banana";
  (* to_string/of_string round-trips the spec. *)
  match Fault.of_string "seed=3,delay=0.1,sendfail=0.05,wedge=0.01" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok spec -> (
      match Fault.of_string (Fault.to_string spec) with
      | Ok spec' ->
          Alcotest.(check string)
            "round trip" (Fault.to_string spec) (Fault.to_string spec')
      | Error e -> Alcotest.failf "re-parse failed: %s" e)

(* ---- instance-level determinism ---- *)

let test_instance_determinism () =
  let spec =
    {
      (Fault.default_spec ~seed:11) with
      Fault.crash_prob = 0.3;
      wedge_prob = 0.2;
    }
  in
  let trace salt =
    let t = Fault.make spec ~salt in
    let sends =
      List.init 300 (fun i ->
          match Fault.on_send t ~src:(i mod 4) with
          | Fault.Send_ok d -> Printf.sprintf "ok %h" d
          | Fault.Send_fail -> "fail")
    in
    let calls =
      List.init 300 (fun i ->
          match Fault.on_call t ~pid:(i mod 4) with
          | Fault.Call_ok -> "ok"
          | Fault.Call_kill -> "kill"
          | Fault.Call_wedge -> "wedge")
    in
    sends @ calls
  in
  Alcotest.(check (list string)) "same salt: same schedule" (trace 5) (trace 5);
  Alcotest.(check bool)
    "different salt: different schedule" false
    (trace 5 = trace 6);
  let abortive l =
    List.length (List.filter (fun a -> a = "fail" || a = "kill" || a = "wedge") l)
  in
  Alcotest.(check bool)
    "at most one send failure and one call fault per run" true
    (abortive (trace 5) <= 2)

(* ---- exploration under faults ---- *)

let k0 = State.make_config ~mixing_bound:0 ()

let verify_adlb ?fault ?(jobs = 1) ?(max_retries = 4) ?max_replay_steps () =
  Explorer.verify
    ~config:
      {
        Explorer.default_config with
        state_config = k0;
        jobs;
        robustness =
          {
            Explorer.default_robustness with
            fault;
            max_retries;
            max_replay_steps;
          };
      }
    ~np:6 (Workloads.Adlb.program ())

let canonical_summary (r : Report.t) =
  ( r.Report.interleavings,
    Dist_harness.signatures r,
    r.Report.bounded_epochs,
    r.Report.wildcards_analyzed )

(* Same seed, same configuration: byte-identical canonical report AND
   identical fault accounting, at jobs=1 and jobs=4. *)
let test_seeded_report_determinism () =
  let spec =
    { (Fault.default_spec ~seed:7) with Fault.crash_prob = 0.05 }
  in
  let full (r : Report.t) =
    ( canonical_summary r,
      r.Report.runs_timed_out,
      r.Report.runs_retried,
      r.Report.runs_crashed )
  in
  List.iter
    (fun jobs ->
      let a = verify_adlb ~fault:spec ~jobs () in
      let b = verify_adlb ~fault:spec ~jobs () in
      Alcotest.(check bool)
        (Printf.sprintf "identical report and fault counters (jobs=%d)" jobs)
        true
        (full a = full b))
    [ 1; 4 ];
  (* The canonical report (though not the per-attempt accounting) also
     agrees across worker counts. *)
  let seq = verify_adlb ~fault:spec ~jobs:1 () in
  let par = verify_adlb ~fault:spec ~jobs:4 () in
  Alcotest.(check bool)
    "jobs=1 and jobs=4 agree under faults" true
    (canonical_summary seq = canonical_summary par)

(* Transient faults absorbed by retries leave no trace in the canonical
   report: the faulted exploration equals the fault-free one. *)
let test_retries_converge () =
  let baseline = verify_adlb () in
  List.iter
    (fun (label, spec) ->
      let faulted = verify_adlb ~fault:spec ~jobs:4 () in
      Alcotest.(check bool)
        (label ^ ": canonical report equals fault-free") true
        (canonical_summary faulted = canonical_summary baseline))
    [
      ("sendfail", Fault.default_spec ~seed:1);
      ("kills", { Fault.inert with Fault.seed = 3; crash_prob = 0.05 });
    ]

(* A replay wedged by an injected infinite delay is cut by the step-budget
   watchdog, retried, and recorded — and the jobs=4 pool is not stalled
   (this test finishing at all is the liveness claim). *)
let test_wedge_watchdog () =
  let spec = { Fault.inert with Fault.seed = 4; wedge_prob = 0.3 } in
  let r =
    verify_adlb ~fault:spec ~jobs:4 ~max_retries:2
      ~max_replay_steps:50_000 ()
  in
  Alcotest.(check bool)
    "wedges were cut by the watchdog" true
    (r.Report.runs_timed_out > 0);
  Alcotest.(check bool)
    "timed-out attempts were retried" true
    (r.Report.runs_retried > 0);
  Alcotest.(check bool)
    "exploration still made progress" true
    (r.Report.interleavings > 0)

(* With retries exhausted, a persistent injected crash is recorded as an
   ordinary Crash finding naming the fault. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_exhausted_transient_is_recorded () =
  let spec = { Fault.inert with Fault.seed = 2; crash_prob = 1.0 } in
  let r = verify_adlb ~fault:spec ~jobs:1 ~max_retries:1 () in
  Alcotest.(check bool)
    "attempts were lost to injected faults" true
    (r.Report.runs_crashed > 0);
  Alcotest.(check bool)
    "the exhausted fault surfaces as a Crash finding" true
    (List.exists
       (fun (f : Report.finding) ->
         match f.Report.error with
         (* the registered printer names the fault in the message *)
         | Report.Crash { message; _ } -> contains message "Rank_killed"
         | _ -> false)
       r.Report.findings)

let () =
  Alcotest.run "fault"
    [
      ( "primitives",
        [
          Alcotest.test_case "splitmix derive" `Quick test_derive;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "instance determinism" `Quick
            test_instance_determinism;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "seeded report determinism" `Quick
            test_seeded_report_determinism;
          Alcotest.test_case "retries converge to fault-free" `Quick
            test_retries_converge;
          Alcotest.test_case "wedge vs watchdog (jobs=4)" `Quick
            test_wedge_watchdog;
          Alcotest.test_case "exhausted transient recorded" `Quick
            test_exhausted_transient_is_recorded;
        ] );
    ]
