(* The workloads: what each verifies, configured as [dampi verify] would
   run it, and the check its report must pass. [Dist1] is not timed: it is
   the adlb2-cold walk through the coordinator and one forked worker, which
   adlb2-cold's traced run drives for the wire layers. All three walk the
   same adlb2 program, so their reports are held to one pinned report. *)

open Dampi
module Check = Perfbench.Check

type t = Cold | Warm | Dist1

let name = function Cold -> "adlb2-cold" | Warm -> "adlb2-warm" | Dist1 -> "adlb2-dist1"

(* The workloads the benchmark is run on. *)
let of_name n = List.find_opt (fun w -> name w = n) [ Cold; Warm ]
let np (_ : t) = 6

let program (_ : t) =
  Workloads.Adlb.program
    ~params:{ Workloads.Adlb.default_params with servers = 2; puts_per_client = 1 }
    ()

(* The checkpoint label the CLI would write for this configuration; the
   cache sidecar is refused under any other. *)
let label w =
  Printf.sprintf "dampi adlb2 np=%d clock=lamport k=-1 dual=false prune=true" (np w)

let checkpoint_path ~dir = Filename.concat dir "walk.ck"
let sidecar_path ~dir = checkpoint_path ~dir ^ ".cache"

(* [dampi verify]'s defaults: pruning on, 100k interleaving budget, jobs 1.
   The warm workload adds [--prefix-cache --checkpoint]. *)
let config w ~dir =
  let state_config =
    State.make_config ~clock:(module Clocks.Lamport : Clocks.Clock_intf.S) ()
  in
  let base =
    { Explorer.default_config with state_config; prune = true; max_runs = 100_000 }
  in
  match w with
  | Warm ->
      {
        base with
        prefix_cache = Some Prefix_cache.default_budget_bytes;
        robustness =
          {
            Explorer.default_robustness with
            checkpoint =
              Some
                { Explorer.path = checkpoint_path ~dir; every = 0; label = label w };
          };
      }
  | Cold | Dist1 -> base

(* The distributed job, with the parameters [verify --distribute] ships. *)
let job w =
  {
    Wire.workload = "adlb2";
    np = np w;
    params =
      [
        ("clock", "lamport");
        ("dual", "false");
        ("prune", "true");
        ("profile", "false");
        ("max-retries", "0");
        ("retry-backoff", string_of_float 0.0);
      ];
  }

let canon (r : Report.t) : Check.canon =
  {
    Check.interleavings = r.Report.interleavings;
    runs_pruned = r.Report.runs_pruned;
    bounded_epochs = r.Report.bounded_epochs;
    wildcards = r.Report.wildcards_analyzed;
    vtime = Printf.sprintf "%.12g" r.Report.total_virtual_time;
    signatures =
      List.sort_uniq compare
        (List.map
           (fun (f : Report.finding) -> Report.error_signature f.Report.error)
           r.Report.findings);
    harness_failures = List.length r.Report.harness_failures;
  }

let counter (r : Report.t) name = Obs.Metrics.counter_value r.Report.metrics name

(* What a timed verification must report. [cold_setup] is the warm
   workload's set-up run, which fills the cache rather than reading it. *)
let check ?(cold_setup = false) w (r : Report.t) =
  let c = canon r in
  let items =
    match w with
    | Cold | Dist1 -> Check.canonical ~expected:Check.adlb2 c
    | Warm ->
        let hits, misses =
          if cold_setup then (0, Check.adlb2.Check.interleavings)
          else (Check.adlb2.Check.interleavings, 0)
        in
        Check.canonical ~expected:Check.adlb2 c
        @ [
            Check.int "cache.hits" ~expected:hits (counter r "cache.hits");
            Check.int "cache.misses" ~expected:misses (counter r "cache.misses");
          ]
  in
  Check.verdict
    (Check.str "interrupted" ~expected:"false" (string_of_bool r.Report.interrupted)
    :: items)
