(* The differential equivalence harness for the two speed layers: sleep-set
   pruning (Prune) and the replay-prefix cache (Prefix_cache).

   The correctness bar — the only reason either optimization is allowed to
   exist — is that they change the COST of exploration, never its RESULT:
   for every registry workload, {unpruned, cache-only, prune-only, both} x
   {jobs=1, jobs=4, distribute=2} all reach the same canonical report
   (finding error values and signatures; unpruned configurations also agree
   exactly on interleaving and coverage counters, and every pruned
   configuration agrees with every other pruned configuration on how much
   was cut).

   Alongside the matrix: unit tests of the prefix cache (a warm
   re-verification is decision-for-decision identical to a cold one, a
   tiny-budget cache refuses entries without losing correctness, a full
   cache keeps what came first, the sidecar is
   label-guarded, faulted explorations are cache-transparent) and QCheck
   properties of the independence layer (commuting decisions share a plan
   normal form and force identically; an epoch that is not structurally
   equal to a sleeping epoch is never suppressed). *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Decisions = Dampi.Decisions
module Epoch = Dampi.Epoch
module Prune = Dampi.Prune
module Prefix_cache = Dampi.Prefix_cache
module Checkpoint = Dampi.Checkpoint

(* The registry: the usual suspects (where pruning must be a sound no-op)
   plus [twin] (where it must actually cut). *)
let registry : Dist_harness.case list =
  let default = State.default_config in
  let k0 = State.make_config ~mixing_bound:0 () in
  [
    ("fig3", 3, default, fun () -> Workloads.Patterns.fig3);
    ("fig4", 4, default, fun () -> Workloads.Patterns.fig4);
    ("deadlock", 2, default, fun () -> Workloads.Patterns.head_to_head);
    ( "matmult",
      6,
      default,
      fun () ->
        Workloads.Matmult.program
          ~params:
            { Workloads.Matmult.default_params with n = 6; rows_per_task = 1 }
          () );
    ("adlb/k0", 6, k0, fun () -> Workloads.Adlb.program ());
    ("twin", 8, default, fun () -> Dist_harness.twin_servers);
  ]

(* ---- the configuration matrix ---- *)

type mode = { m_name : string; m_prune : bool; m_cache : int option }

let modes =
  [
    { m_name = "unpruned"; m_prune = false; m_cache = None };
    { m_name = "cache"; m_prune = false; m_cache = Some (1 lsl 20) };
    { m_name = "prune"; m_prune = true; m_cache = None };
    { m_name = "both"; m_prune = true; m_cache = Some (1 lsl 20) };
  ]

let config_of ~state_config ~jobs (m : mode) =
  {
    Explorer.default_config with
    state_config;
    jobs;
    prune = m.m_prune;
    prefix_cache = m.m_cache;
  }

let verify_local ~np ~state_config ~jobs m build =
  Explorer.verify ~config:(config_of ~state_config ~jobs m) ~np (build ())

(* distribute=2 over the in-process socketpair workers of Dist_harness —
   the worker-side expansion must agree with the coordinator on the mode's
   prune flag. *)
let verify_distributed ~name ~np ~state_config m build =
  Dist_harness.verify_distributed
    ~config:(config_of ~state_config ~jobs:1 m)
    ~resolve:
      (Dist_harness.resolver ~prune:m.m_prune
         [ (name, np, state_config, build) ])
    ~name ~np build

(* The canonical content of a report: the sorted structural error values
   (NOT the reproduction schedules — pruning may legitimately discover a
   finding along a different minimal schedule, since some schedules are
   proven-equivalent and never replayed). *)
let errors_of (r : Report.t) =
  List.sort compare
    (List.map (fun (f : Report.finding) -> f.Report.error) r.Report.findings)

let check_matrix ((name, np, state_config, build) : _ * int * State.config * _)
    () =
  let baseline = verify_local ~np ~state_config ~jobs:1 (List.hd modes) build in
  let pruned_shape = ref None in
  List.iter
    (fun m ->
      List.iter
        (fun (backend, run) ->
          let label = Printf.sprintf "%s [%s/%s]" name m.m_name backend in
          let r : Report.t = run () in
          Alcotest.(check (list string))
            (label ^ ": no harness failures")
            []
            (List.map
               (fun (h : Report.harness_failure) -> h.Report.hf_message)
               r.Report.harness_failures);
          Alcotest.(check bool)
            (label ^ ": same finding error values")
            true
            (errors_of baseline = errors_of r);
          Alcotest.(check (list string))
            (label ^ ": same finding signatures")
            (Dist_harness.signatures baseline) (Dist_harness.signatures r);
          if not m.m_prune then begin
            (* No pruning: the walk is the same walk, whatever served it. *)
            Alcotest.(check int)
              (label ^ ": same interleaving count")
              baseline.Report.interleavings r.Report.interleavings;
            Alcotest.(check int)
              (label ^ ": same wildcards analyzed")
              baseline.Report.wildcards_analyzed r.Report.wildcards_analyzed;
            Alcotest.(check int)
              (label ^ ": same bounded epochs")
              baseline.Report.bounded_epochs r.Report.bounded_epochs;
            Alcotest.(check int) (label ^ ": nothing pruned") 0 r.Report.runs_pruned
          end
          else begin
            (* Pruning decisions travel with the items (sleep sets), so
               every pruned configuration cuts the tree identically. *)
            Alcotest.(check bool)
              (label ^ ": explores no more than unpruned")
              true
              (r.Report.interleavings <= baseline.Report.interleavings);
            match !pruned_shape with
            | None ->
                pruned_shape :=
                  Some (r.Report.interleavings, r.Report.runs_pruned)
            | Some (runs, pruned) ->
                Alcotest.(check int)
                  (label ^ ": same pruned interleaving count")
                  runs r.Report.interleavings;
                Alcotest.(check int)
                  (label ^ ": same pruned-run count")
                  pruned r.Report.runs_pruned
          end)
        [
          ("jobs=1", fun () -> verify_local ~np ~state_config ~jobs:1 m build);
          ("jobs=4", fun () -> verify_local ~np ~state_config ~jobs:4 m build);
          ( "distribute=2",
            fun () -> verify_distributed ~name ~np ~state_config m build );
        ])
    modes

(* [twin] exists to prove the cut is real, not just sound. *)
let test_twin_actually_prunes () =
  let _, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "twin") registry
  in
  let base = verify_local ~np ~state_config ~jobs:1 (List.hd modes) build in
  let pruned =
    verify_local ~np ~state_config ~jobs:1
      { m_name = "prune"; m_prune = true; m_cache = None }
      build
  in
  Alcotest.(check bool) "schedules were pruned" true (pruned.Report.runs_pruned > 0);
  Alcotest.(check bool)
    "fewer replays executed" true
    (pruned.Report.interleavings < base.Report.interleavings)

(* Expanding a run costs words linear in its epochs: an expandable epoch
   with no alternatives builds no sleep set (which would scan every deeper
   epoch). [e] such epochs, pairwise disjoint so every sleep set would be
   full-length, precede one epoch with an alternative; doubling [e] must
   not quadruple the words. *)
let test_expand_is_linear () =
  let summary ?(alternatives = []) j =
    {
      Epoch.s_owner = 2 * j;
      s_id = j;
      s_kind = Epoch.Wildcard_recv;
      s_ctx = 0;
      s_tag = 0;
      s_matched = (2 * j) + 1;
      s_alternatives = alternatives;
      s_expandable = true;
    }
  in
  let words e =
    let summaries =
      List.init e summary @ [ summary ~alternatives:[ (2 * e) + 2 ] e ]
    in
    let before = Gc.minor_words () in
    let x = Prune.expand ~prune:true ~sleep:[] ~plan_decisions:[] summaries in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) (Printf.sprintf "E=%d: one child" e) 1 (List.length x.Prune.items);
    words
  in
  let w1000 = words 1000 and w2000 = words 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "words at E=2000 (%.0f) <= 2.5x those at E=1000 (%.0f)" w2000 w1000)
    true
    (w2000 <= 2.5 *. w1000)

(* ---- prefix-cache behavior ---- *)

let with_temp_checkpoint f =
  let path = Filename.temp_file "dampi-test-pruning" ".ck" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".cache"; path ^ ".tmp"; path ^ ".cache.tmp" ])
    (fun () -> f path)

let canonical (r : Report.t) =
  ( r.Report.interleavings,
    r.Report.wildcards_analyzed,
    r.Report.bounded_epochs,
    r.Report.runs_pruned,
    r.Report.total_virtual_time,
    errors_of r )

(* A warm re-verification (every replay served from the label-matched
   sidecar) is decision-for-decision the cold run: identical canonical
   report, and exactly one cache hit per interleaving. *)
let test_warm_rerun_equals_cold () =
  let _, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "twin") registry
  in
  with_temp_checkpoint (fun path ->
      let cfg =
        {
          (config_of ~state_config ~jobs:1
             { m_name = "both"; m_prune = true; m_cache = Some (1 lsl 22) })
          with
          Explorer.robustness =
            {
              Explorer.default_robustness with
              checkpoint = Some { Explorer.path; every = 0; label = "twin" };
            };
        }
      in
      let cold = Explorer.verify ~config:cfg ~np (build ()) in
      Alcotest.(check bool)
        "sidecar written next to the checkpoint" true
        (Sys.file_exists (path ^ ".cache"));
      let warm = Explorer.verify ~config:cfg ~np (build ()) in
      Alcotest.(check bool)
        "warm re-run is canonically identical" true
        (canonical cold = canonical warm);
      Alcotest.(check int)
        "every replay was a cache hit" warm.Report.interleavings
        (Obs.Metrics.counter_value warm.Report.metrics "cache.hits");
      Alcotest.(check int)
        "no replay missed" 0
        (Obs.Metrics.counter_value warm.Report.metrics "cache.misses"))

(* A cache too small to hold the exploration must refuse, not corrupt: the
   report equals the uncached one, and the cache holds less than an
   unbounded one. *)
let test_tiny_budget_refusal_soak () =
  let _, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "twin") registry
  in
  let bare = verify_local ~np ~state_config ~jobs:1 (List.hd modes) build in
  let cached budget =
    Explorer.verify
      ~config:
        {
          (config_of ~state_config ~jobs:1 (List.hd modes)) with
          Explorer.prefix_cache = Some budget;
        }
      ~np (build ())
  in
  let cache_bytes (r : Report.t) =
    match Obs.Metrics.find r.Report.metrics "cache.bytes" with
    | Some (Obs.Metrics.Gauge g) -> int_of_float g
    | _ -> Alcotest.fail "no cache.bytes gauge"
  in
  let tiny = cached 512 in
  Alcotest.(check bool)
    "tiny-budget report equals uncached" true
    (canonical bare = canonical tiny);
  Alcotest.(check bool) "the budget holds" true (cache_bytes tiny <= 512);
  Alcotest.(check bool)
    "the budget refused entries" true
    (cache_bytes tiny < cache_bytes (cached max_int))

(* Fault injection with the cache on: transients absorbed by retries leave
   no trace, cached or not (the soak's DAMPI_FAULT_SEED contract). *)
let test_fault_soak_with_cache () =
  let seed =
    match Option.bind (Sys.getenv_opt "DAMPI_FAULT_SEED") int_of_string_opt with
    | Some n when n <> 0 -> n
    | _ -> 23
  in
  let _, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "adlb/k0") registry
  in
  let rb =
    {
      Explorer.default_robustness with
      fault =
        Some
          { Mpi.Fault.inert with Mpi.Fault.seed; sendfail_prob = 0.02 };
      max_retries = 6;
    }
  in
  let run cache =
    Explorer.verify
      ~config:
        {
          (config_of ~state_config ~jobs:1 (List.hd modes)) with
          Explorer.prefix_cache = cache;
          robustness = rb;
        }
      ~np (build ())
  in
  let bare = run None in
  let cached = run (Some (1 lsl 22)) in
  Alcotest.(check bool)
    "faulted exploration is cache-transparent" true
    (canonical bare = canonical cached)

(* The sidecar is label-guarded: a cache saved for one workload must not
   warm another (schedule keys carry no workload identity). *)
let test_sidecar_label_guard () =
  with_temp_checkpoint (fun path ->
      let entry =
        { Prefix_cache.vtime = 1.5; wildcards = 2; errors = []; epochs = [] }
      in
      let d =
        {
          Decisions.owner = 1;
          epoch_id = 0;
          src = 2;
          kind = Epoch.Wildcard_recv;
        }
      in
      let a = Prefix_cache.create ~label:"twin np=8" ~budget_bytes:4096 () in
      Prefix_cache.add a [ d ] entry;
      (match Prefix_cache.save a path with
      | Checkpoint.Written -> ()
      | Checkpoint.Degraded msg -> Alcotest.failf "cache save degraded: %s" msg);
      let b = Prefix_cache.create ~label:"adlb np=6" ~budget_bytes:4096 () in
      (match Prefix_cache.load b path with
      | Error msg ->
          Alcotest.(check bool)
            "mismatch message names the label" true
            (String.length msg > 0)
      | Ok () -> Alcotest.fail "foreign-label sidecar was accepted");
      Alcotest.(check bool)
        "nothing was warmed" true
        (Prefix_cache.find b [ d ] = None);
      let c = Prefix_cache.create ~label:"twin np=8" ~budget_bytes:4096 () in
      (match Prefix_cache.load c path with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("matching label refused: " ^ msg));
      match Prefix_cache.find c [ d ] with
      | Some e ->
          Alcotest.(check (float 0.0)) "artifact round-trips" 1.5 e.Prefix_cache.vtime
      | None -> Alcotest.fail "matching-label sidecar did not warm")

(* The table is append-only: a full cache refuses a new entry and keeps
   the ones that came first, a re-add changes nothing, and the sidecar
   lists the entries in insertion order. *)
let test_full_cache_refuses () =
  let entry =
    { Prefix_cache.vtime = 0.0; wildcards = 0; errors = []; epochs = [] }
  in
  (* One-decision schedules whose keys, and so costs, are of one width. *)
  let schedule i =
    [ { Decisions.owner = 0; epoch_id = i; src = 1; kind = Epoch.Wildcard_recv } ]
  in
  let line i = Prefix_cache.entry_line ~key:(Checkpoint.schedule_key (schedule i)) entry in
  let cost = String.length (line 1) + 1 in
  let t = Prefix_cache.create ~label:"refuse" ~budget_bytes:(3 * cost - 1) () in
  Prefix_cache.add t (schedule 2) entry;
  Prefix_cache.add t (schedule 1) entry;
  Prefix_cache.add t (schedule 3) entry;
  Prefix_cache.add t (schedule 2) entry;
  let _, _, bytes = Prefix_cache.stats t in
  Alcotest.(check int) "two entries charged" (2 * cost) bytes;
  Alcotest.(check bool) "the first entry stays" true
    (Prefix_cache.find t (schedule 2) <> None);
  Alcotest.(check bool) "the second entry stays" true
    (Prefix_cache.find t (schedule 1) <> None);
  Alcotest.(check bool) "the entry past the budget was refused" true
    (Prefix_cache.find t (schedule 3) = None);
  Alcotest.(check string) "the sidecar is in insertion order"
    ("# DAMPI prefix cache\nversion 1\nlabel refuse\n" ^ line 2 ^ "\n" ^ line 1 ^ "\n")
    (Prefix_cache.to_string t);
  let hits, misses, _ = Prefix_cache.stats t in
  Alcotest.(check (pair int int)) "hits and misses" (2, 1) (hits, misses)

(* The sidecar round trip: save, load into a fresh cache, save again —
   byte-identical text, and the loaded cache charges exactly the bytes the
   original adds did, so a budget admits the same entries either way. *)
let sidecar_entries =
  List.init 40 (fun i ->
      let schedule =
        if i = 0 then []
        else
          List.init (1 + (i mod 6)) (fun k ->
              {
                Decisions.owner = k mod 3;
                epoch_id = (100 * k) + i;
                src = (i + k) mod 4;
                kind = (if (i + k) mod 3 = 0 then Epoch.Wildcard_probe else Epoch.Wildcard_recv);
              })
      in
      let summary j =
        {
          Epoch.s_owner = j mod 4;
          s_id = i + j;
          s_kind = Epoch.Wildcard_recv;
          s_ctx = j;
          s_tag = j - 1;
          s_matched = (i + j) mod 4;
          s_alternatives = List.init (j mod 3) (fun a -> a + 1);
          s_expandable = j mod 2 = 0;
        }
      in
      ( schedule,
        {
          Prefix_cache.vtime = float_of_int i /. 7.0;
          wildcards = i;
          errors =
            (if i mod 9 = 0 then
               [ Report.Crash { pid = i mod 4; message = "boom; 100% \"bad\"\nline" } ]
             else []);
          epochs = List.init (i mod 4) summary;
        } ))

let test_sidecar_roundtrip () =
  let label = "roundtrip np=4" in
  let fill budget_bytes =
    let c = Prefix_cache.create ~label ~budget_bytes () in
    List.iter (fun (d, e) -> Prefix_cache.add c d e) sidecar_entries;
    c
  in
  let a = fill max_int in
  let text = Prefix_cache.to_string a in
  let b = Prefix_cache.create ~label ~budget_bytes:max_int () in
  (match Prefix_cache.load_into b text with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "save, load, save is byte-identical" text
    (Prefix_cache.to_string b);
  let bytes c = let _, _, bytes = Prefix_cache.stats c in bytes in
  Alcotest.(check int) "loaded bytes equal the adds' bytes" (bytes a) (bytes b);
  List.iter
    (fun (d, e) ->
      Alcotest.(check bool)
        (Checkpoint.schedule_key d ^ " hits with its artifact") true
        (Prefix_cache.find b ~key:(Checkpoint.schedule_key d) d = Some e))
    sidecar_entries;
  (* A budget a third of the total: loading refuses what adding refused. *)
  let budget = bytes a / 3 in
  let added = fill budget in
  let loaded = Prefix_cache.create ~label ~budget_bytes:budget () in
  ignore (Prefix_cache.load_into loaded text);
  Alcotest.(check bool) "tiny budget: entries refused" true (bytes added < bytes a);
  Alcotest.(check int) "tiny budget: same bytes" (bytes added) (bytes loaded);
  Alcotest.(check string) "tiny budget: same survivors"
    (Prefix_cache.to_string added) (Prefix_cache.to_string loaded)

(* A line whose key or entry does not parse is skipped; its neighbours
   still load. *)
let test_sidecar_skips_malformed_lines () =
  let label = "malformed np=4" in
  let good = "entry recv:0:1:2 0x1p-3 1 - -" in
  let text =
    String.concat "\n"
      [
        "# DAMPI prefix cache";
        "version 1";
        "label " ^ Checkpoint.enc label;
        "entry recv:0:x:2 0x1p-3 1 - -";
        "entry recv:0:1:2,recv:1 0x1p-3 1 - -";
        "entry recv:0:1:3 0x1p-3 zz - -";
        "entry recv:0:1:4 0x1p-3 1 recv:0:1 -";
        "entry recv:0:1:5 0x1p-3 1 - %ZZbogus";
        "entry recv:0:1:6 0x1p-3 1 -";
        good;
        "";
      ]
  in
  let c = Prefix_cache.create ~label ~budget_bytes:max_int () in
  (match Prefix_cache.load_into c text with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let _, _, bytes = Prefix_cache.stats c in
  Alcotest.(check int) "only the good line is charged" (String.length good + 1) bytes;
  let d = { Decisions.owner = 0; epoch_id = 1; src = 2; kind = Epoch.Wildcard_recv } in
  Alcotest.(check bool) "the good line hits" true (Prefix_cache.find c [ d ] <> None)

(* A sidecar as the previous Printf-based encoder wrote it (a fig3 run with
   its crash finding): it loads, hits, and re-saves byte for byte. *)
let test_sidecar_previous_format () =
  let label = "dampi fig3 np=3 clock=lamport k=-1 dual=false prune=true" in
  let text =
    "# DAMPI prefix cache\n\
     version 1\n\
     label dampi%20fig3%20np%3D3%20clock%3Dlamport%20k%3D-1%20dual%3Dfalse%20prune%3Dtrue\n\
     entry - 0x1.f5979a0f9e74cp-15 1 recv:1:0:0:-1:0:1:2 -\n\
     entry recv:1:0:2 0x1.bbbbecbffb663p-15 0 - \
     crash%201%3AFailure%2528%2522fig3%253A%2520received%252033%2520%255C226%255C128%255C148%2520the%2520interleaving-dependent%2520bug%2522%2529\n"
  in
  let c = Prefix_cache.create ~label ~budget_bytes:max_int () in
  (match Prefix_cache.load_into c text with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Prefix_cache.find c [] with
  | Some e -> Alcotest.(check int) "self run's epochs" 1 (List.length e.Prefix_cache.epochs)
  | None -> Alcotest.fail "self run missed");
  let d = { Decisions.owner = 1; epoch_id = 0; src = 2; kind = Epoch.Wildcard_recv } in
  (match Prefix_cache.find c ~key:"recv:1:0:2" [ d ] with
  | Some { Prefix_cache.errors = [ Report.Crash { pid = 1; _ } ]; _ } -> ()
  | Some _ -> Alcotest.fail "finding run lost its crash"
  | None -> Alcotest.fail "finding run missed");
  Alcotest.(check string) "re-saved byte for byte" text (Prefix_cache.to_string c)

(* ---- the sidecar is rewritten only when the cache changed ---- *)

let inode path = (Unix.stat path).Unix.st_ino
let read path = In_channel.with_open_bin path In_channel.input_all
let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* A sidecar whose last line lost its newline: every entry loads and hits,
   the last line is still charged its length plus the newline, the text
   re-saves with the newline, and the file is rewritten on the next save
   (the load did not take it as written). *)
let test_sidecar_without_final_newline () =
  with_temp_checkpoint (fun path ->
      let label = "roundtrip np=4" in
      let full = Prefix_cache.create ~label ~budget_bytes:max_int () in
      List.iter (fun (d, e) -> Prefix_cache.add full d e) sidecar_entries;
      let text = Prefix_cache.to_string full in
      let cut = String.sub text 0 (String.length text - 1) in
      write path cut;
      let c = Prefix_cache.create ~label ~budget_bytes:max_int () in
      (match Prefix_cache.load c path with Ok () -> () | Error msg -> Alcotest.fail msg);
      List.iter
        (fun (d, e) ->
          Alcotest.(check bool)
            (Checkpoint.schedule_key d ^ " hits with its artifact") true
            (Prefix_cache.find c d = Some e))
        sidecar_entries;
      let bytes c = let _, _, bytes = Prefix_cache.stats c in bytes in
      Alcotest.(check int) "the last line is charged its newline" (bytes full) (bytes c);
      Alcotest.(check string) "re-saved with the newline" text (Prefix_cache.to_string c);
      let ino = inode path in
      (match Prefix_cache.save c path with
      | Checkpoint.Written -> ()
      | Checkpoint.Degraded msg -> Alcotest.fail msg);
      Alcotest.(check bool) "the file was rewritten" true (inode path <> ino);
      Alcotest.(check string) "the file ends in the newline" text (read path))

(* The twin workload, cached and checkpointed at [path] as the CLI's
   [--prefix-cache --checkpoint path --checkpoint-every 0] runs it. *)
let twin_cached ?(budget = 1 lsl 22) path () =
  let _, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "twin") registry
  in
  let config =
    {
      (config_of ~state_config ~jobs:1
         { m_name = "both"; m_prune = true; m_cache = Some budget })
      with
      Explorer.robustness =
        {
          Explorer.default_robustness with
          checkpoint = Some { Explorer.path; every = 0; label = "twin" };
        };
    }
  in
  Explorer.verify ~config ~np (build ())

let counter (r : Report.t) name = Obs.Metrics.counter_value r.Report.metrics name

(* A warm re-verification served wholly from the sidecar leaves the file
   as it was: the same inode, the same bytes. *)
let test_warm_run_keeps_sidecar () =
  with_temp_checkpoint (fun path ->
      let side = path ^ ".cache" in
      let cold = twin_cached path () in
      let bytes = read side and ino = inode side in
      Sys.remove path;
      let warm = twin_cached path () in
      Alcotest.(check int) "no replay missed" 0 (counter warm "cache.misses");
      Alcotest.(check bool) "same report" true (canonical cold = canonical warm);
      Alcotest.(check bool) "the sidecar was not replaced" true (inode side = ino);
      Alcotest.(check string) "the sidecar's bytes are unchanged" bytes (read side))

(* A run whose cache changed rewrites the sidecar: an entry added back (at
   the end), a malformed line, a duplicate line or a foreign label dropped
   (each time back to the bytes of the cold run), entries refused under a
   smaller budget. *)
let test_changed_cache_rewrites_sidecar () =
  with_temp_checkpoint (fun path ->
      let side = path ^ ".cache" in
      ignore (twin_cached path ());
      let full = read side in
      let lines = String.split_on_char '\n' full in
      let rewritten name ?budget text ~misses =
        write side text;
        let ino = inode side in
        let r = twin_cached ?budget path () in
        Alcotest.(check bool) (name ^ ": misses") true (misses (counter r "cache.misses"));
        Alcotest.(check bool) (name ^ ": the sidecar was replaced") true (inode side <> ino);
        r
      in
      (* lines: header, version, label, the first entry, ..., "" *)
      let dropped = String.concat "\n" (List.filteri (fun i _ -> i <> 3) lines) in
      ignore (rewritten "one entry dropped" dropped ~misses:(( = ) 1));
      Alcotest.(check string) "one entry dropped: added back last"
        (dropped ^ List.nth lines 3 ^ "\n") (read side);
      ignore (rewritten "malformed line" (full ^ "entry recv:0:x:1 0x0p+0 0 - -\n") ~misses:(( = ) 0));
      Alcotest.(check string) "malformed line: rewritten clean" full (read side);
      ignore (rewritten "duplicate line" (full ^ List.nth lines 3 ^ "\n") ~misses:(( = ) 0));
      Alcotest.(check string) "duplicate line: rewritten clean" full (read side);
      let foreign =
        String.concat "\n"
          (List.mapi (fun i l -> if i = 2 then "label " ^ Checkpoint.enc "other" else l) lines)
      in
      ignore (rewritten "foreign label" foreign ~misses:(fun n -> n > 0));
      Alcotest.(check string) "foreign label: rewritten as the cold run" full (read side);
      ignore (rewritten "small budget" ~budget:(String.length full / 2) full ~misses:(( <> ) 0));
      let first = String.concat "\n" (List.filteri (fun i _ -> i <= 3) lines) in
      Alcotest.(check bool) "small budget: the first entries kept" true
        (String.starts_with ~prefix:first (read side));
      Alcotest.(check bool) "small budget: the sidecar shrank" true
        (String.length (read side) < String.length full))

(* Under a third of the full budget, a cold walk keeps the first part of
   the walk and a warm re-walk, in the same order, hits every entry it
   loaded and leaves the sidecar as it was. *)
let test_tight_budget_warm_hits () =
  with_temp_checkpoint (fun path ->
      let side = path ^ ".cache" in
      ignore (twin_cached path ());
      let budget = String.length (read side) / 3 in
      Sys.remove path;
      Sys.remove side;
      ignore (twin_cached ~budget path ());
      let bytes = read side and ino = inode side in
      let loaded =
        List.length
          (List.filter
             (String.starts_with ~prefix:"entry ")
             (String.split_on_char '\n' bytes))
      in
      Sys.remove path;
      let warm = twin_cached ~budget path () in
      Alcotest.(check bool) "some entries were kept" true (loaded > 0);
      Alcotest.(check int) "one hit per entry loaded" loaded (counter warm "cache.hits");
      Alcotest.(check bool) "the rest missed" true (counter warm "cache.misses" > 0);
      Alcotest.(check bool) "the sidecar was not replaced" true (inode side = ino);
      Alcotest.(check string) "the sidecar's bytes are unchanged" bytes (read side))

(* A clean cache is saved wherever it has not been saved: the skip is for
   the file it was loaded from, not for every path. *)
let test_clean_cache_saves_elsewhere () =
  with_temp_checkpoint (fun path ->
      let side = path ^ ".cache" and other = path ^ ".tmp" in
      ignore (twin_cached path ());
      let c = Prefix_cache.create ~label:"twin" ~budget_bytes:(1 lsl 22) () in
      (match Prefix_cache.load c side with Ok () -> () | Error e -> Alcotest.fail e);
      let ino = inode side in
      (match Prefix_cache.save c side with
      | Checkpoint.Written -> ()
      | Checkpoint.Degraded e -> Alcotest.fail e);
      Alcotest.(check bool) "the file it came from is kept" true (inode side = ino);
      (match Prefix_cache.save c other with
      | Checkpoint.Written -> ()
      | Checkpoint.Degraded e -> Alcotest.fail e);
      Alcotest.(check string) "another path gets the same bytes" (read side) (read other);
      (* A refused load (the file replaced under the cache) unsaves it. *)
      let c = Prefix_cache.create ~label:"twin" ~budget_bytes:(1 lsl 22) () in
      ignore (Prefix_cache.load c side);
      write side "# DAMPI prefix cache\nversion 1\nlabel other\n";
      Alcotest.(check bool) "foreign label refused" true (Result.is_error (Prefix_cache.load c side));
      ignore (Prefix_cache.save c side);
      Alcotest.(check string) "the refused file is rewritten" (read other) (read side))

(* ---- QCheck: the independence layer ---- *)

let gen_decision =
  QCheck.Gen.(
    map
      (fun (owner, epoch_id, src, k) ->
        {
          Decisions.owner;
          epoch_id;
          src;
          kind = (if k then Epoch.Wildcard_recv else Epoch.Wildcard_probe);
        })
      (quad (0 -- 4) (0 -- 6) (0 -- 4) bool))

let gen_summary =
  QCheck.Gen.(
    map
      (fun ((owner, id, k, ctx), (tag, matched, alts, expandable)) ->
        {
          Epoch.s_owner = owner;
          s_id = id;
          s_kind = (if k then Epoch.Wildcard_recv else Epoch.Wildcard_probe);
          s_ctx = ctx;
          s_tag = tag;
          s_matched = matched;
          s_alternatives = List.sort_uniq compare alts;
          s_expandable = expandable;
        })
      (pair
         (quad (0 -- 7) (0 -- 99) bool (0 -- 3))
         (quad (int_range (-1) 9) (0 -- 7) (list_size (0 -- 3) (0 -- 7)) bool)))

let np_for decisions =
  1 + List.fold_left (fun a (d : Decisions.decision) -> max a (max d.Decisions.owner d.Decisions.src)) 0 decisions

(* Commuting decisions are order-irrelevant: any adjacent swap of a
   commuting pair leaves the plan's normal form AND its forcing behavior
   (forced_src over every key it mentions) unchanged. *)
let prop_commuting_swaps_share_normal_form =
  QCheck.Test.make ~count:500
    ~name:"adjacent commuting swap: same normal form, same forcing"
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (0 -- 6) gen_decision)
           (pair gen_decision gen_decision)))
    (fun (rest, (a, b)) ->
      QCheck.assume (Decisions.commutes a b);
      let l1 = (a :: b :: rest) and l2 = (b :: a :: rest) in
      let np = np_for l1 in
      let p1 = Decisions.of_decisions ~np l1
      and p2 = Decisions.of_decisions ~np l2 in
      Decisions.normal_form p1 = Decisions.normal_form p2
      && List.for_all
           (fun (d : Decisions.decision) ->
             Decisions.forced_src p1 ~owner:d.Decisions.owner
               ~epoch_id:d.Decisions.epoch_id ~kind:d.Decisions.kind
             = Decisions.forced_src p2 ~owner:d.Decisions.owner
                 ~epoch_id:d.Decisions.epoch_id ~kind:d.Decisions.kind)
           l1)

(* Decisions on the same (owner, epoch) key never commute — they conflict
   by construction (the later one wins the forced source). *)
let prop_same_key_never_commutes =
  QCheck.Test.make ~count:500 ~name:"same (owner, epoch) key never commutes"
    (QCheck.make QCheck.Gen.(pair gen_decision (pair (0 -- 4) bool)))
    (fun (a, (src, k)) ->
      let b =
        {
          a with
          Decisions.src;
          kind = (if k then Epoch.Wildcard_recv else Epoch.Wildcard_probe);
        }
      in
      not (Decisions.commutes a b))

(* An epoch that is not structurally equal to a sleeping epoch is never
   suppressed: sleep sets only ever cut exact rediscoveries, so anything
   observed differently is explored in full. *)
let prop_non_equal_never_pruned =
  QCheck.Test.make ~count:1000
    ~name:"expansion never suppresses an epoch that escaped its sleep set"
    (QCheck.make QCheck.Gen.(pair gen_summary (list_size (0 -- 4) gen_summary)))
    (fun (e, sleep) ->
      let exp =
        Prune.expand ~prune:true ~sleep ~plan_decisions:[] [ e ]
      in
      if List.exists (fun s -> Epoch.summary_equal s e) sleep then true
      else exp.Prune.suppressed = 0)

(* footprint_disjoint is symmetric and demands distinct owners — an epoch
   never commutes with itself, so self-suppression is impossible. *)
let prop_footprint_disjoint_sane =
  QCheck.Test.make ~count:1000
    ~name:"footprint_disjoint: symmetric, never reflexive"
    (QCheck.make QCheck.Gen.(pair gen_summary gen_summary))
    (fun (a, b) ->
      Prune.footprint_disjoint a b = Prune.footprint_disjoint b a
      && (not (Prune.footprint_disjoint a a))
      && ((not (Prune.footprint_disjoint a b)) || a.Epoch.s_owner <> b.Epoch.s_owner))

(* ---- QCheck: the prefix cache's index against a list model ---- *)

(* DFS-shaped schedules: siblings differ in their last decision, so keys
   share long prefixes. *)
let gen_dfs_schedule =
  QCheck.Gen.(
    map
      (List.mapi (fun i src ->
           { Decisions.owner = i mod 3; epoch_id = i; src; kind = Epoch.Wildcard_recv }))
      (list_size (0 -- 9) (0 -- 2)))

(* The artifact a schedule's replay gives: a function of the schedule, as
   replays are deterministic, so a re-add carries the same entry. Few
   distinct epoch lists, as in a real sidecar, and now and then a finding. *)
let model_entry schedule =
  let n = List.length schedule in
  {
    Prefix_cache.vtime = float_of_int n /. 3.0;
    wildcards = n;
    errors = (if n = 7 then [ Report.Crash { pid = 1; message = "boom 7%" } ] else []);
    epochs =
      (if n mod 3 = 0 then
         [
           {
             Epoch.s_owner = n mod 3;
             s_id = n;
             s_kind = Epoch.Wildcard_recv;
             s_ctx = 0;
             s_tag = n;
             s_matched = 1;
             s_alternatives = [ 2 ];
             s_expandable = n mod 2 = 0;
           };
         ]
       else []);
  }

type cache_op = Add of int | Find of int | Reload | Load_self

let show_cache_op = function
  | Add i -> Printf.sprintf "add %d" i
  | Find i -> Printf.sprintf "find %d" i
  | Reload -> "reload"
  | Load_self -> "load-self"

(* Random runs of [add], [find], a reload into a fresh cache from
   [to_string] (a warm re-run's start) and a load of the cache's own text
   (every line a duplicate), under budgets from none to unbounded, against
   an association list of the kept keys and lines in insertion order. The
   pools run past the index's first capacity, so it grows both on [add]
   and during a load. *)
let prop_cache_matches_model =
  QCheck.Test.make ~count:300 ~name:"prefix cache: the index behaves as a list model"
    (QCheck.make
       ~print:(fun (pool, budget, ops) ->
         Printf.sprintf "pool %d budget %d ops [%s]" (List.length pool) budget
           (String.concat "; " (List.map show_cache_op ops)))
       QCheck.Gen.(
         list_size (1 -- 300) gen_dfs_schedule >>= fun pool ->
         let key = 0 -- (List.length pool - 1) in
         pair (oneofl [ 0; 60; 600; 6_000; 30_000; max_int ])
           (list_size (0 -- 600)
              (frequency
                 [
                   (6, map (fun i -> Add i) key);
                   (4, map (fun i -> Find i) key);
                   (1, return Reload);
                   (1, return Load_self);
                 ]))
         >|= fun (budget, ops) -> (pool, budget, ops)))
    (fun (pool, budget, ops) ->
      let pool = Array.of_list pool and label = "model np=3" in
      let fresh () = Prefix_cache.create ~label ~budget_bytes:budget () in
      let c = ref (fresh ()) and ok = ref true in
      (* kept: key and line, newest first *)
      let kept = ref [] and bytes = ref 0 and hits = ref 0 and misses = ref 0 in
      let find i =
        let k = Checkpoint.schedule_key pool.(i) in
        let expected =
          if List.mem_assoc k !kept then begin
            incr hits;
            Some (model_entry pool.(i))
          end
          else begin
            incr misses;
            None
          end
        in
        (* every other lookup builds its own key *)
        let key = if i mod 2 = 0 then Some k else None in
        if Prefix_cache.find !c ?key pool.(i) <> expected then ok := false
      in
      let step = function
        | Add i ->
            let k = Checkpoint.schedule_key pool.(i) and e = model_entry pool.(i) in
            let line = Prefix_cache.entry_line ~key:k e in
            let cost = String.length line + 1 in
            if cost <= budget - !bytes && not (List.mem_assoc k !kept) then begin
              kept := (k, line) :: !kept;
              bytes := !bytes + cost
            end;
            Prefix_cache.add !c pool.(i) e
        | Find i -> find i
        | Reload ->
            let text = Prefix_cache.to_string !c in
            c := fresh ();
            hits := 0;
            misses := 0;
            if Prefix_cache.load_into !c text <> Ok () then ok := false
        | Load_self ->
            if Prefix_cache.load_into !c (Prefix_cache.to_string !c) <> Ok () then
              ok := false
      in
      List.iter step ops;
      Array.iteri (fun i _ -> find i) pool;
      let expected_text =
        "# DAMPI prefix cache\nversion 1\nlabel " ^ Checkpoint.enc label ^ "\n"
        ^ String.concat "" (List.rev_map (fun (_, line) -> line ^ "\n") !kept)
      in
      !ok
      && Prefix_cache.stats !c = (!hits, !misses, !bytes)
      && Prefix_cache.to_string !c = expected_text)

(* ---- the sidecar load against a full-check reference ----

   The load checks a key only past the decisions it shares with the
   previous line's key, and parses each distinct result tail once. The
   reference below is the line reader it replaced: every line's key
   checked whole ([Checkpoint.is_schedule_key]), every line's fields
   found and parsed on their own. *)

let ref_find text c p j =
  let rec go p = if p >= j || text.[p] = c then p else go (p + 1) in
  go p

let ref_parse_errors field =
  let parse_err s =
    let l = Checkpoint.dec s in
    match String.index_opt l ' ' with
    | Some i ->
        Checkpoint.error_of_line (String.sub l 0 i)
          (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Checkpoint.error_of_line l ""
  in
  let parts = List.map parse_err (String.split_on_char ';' field) in
  if List.exists Option.is_none parts then None
  else Some (List.filter_map Fun.id parts)

(* The key and entry of the line [text.[i .. j-1]], if it is one. *)
let ref_entry_at text i j =
  let f1 = i + 6 in
  let s2 = ref_find text ' ' f1 j in
  let s3 = ref_find text ' ' (s2 + 1) j in
  let s4 = ref_find text ' ' (s3 + 1) j in
  let s5 = ref_find text ' ' (s4 + 1) j in
  if
    j - i > 6
    && String.sub text i 6 = "entry "
    && s5 < j
    && ref_find text ' ' (s5 + 1) j = j
    && Checkpoint.is_schedule_key text f1 s2
  then
    let errors =
      if s5 + 2 = j && text.[s5 + 1] = '-' then Some []
      else ref_parse_errors (String.sub text (s5 + 1) (j - s5 - 1))
    in
    match
      ( float_of_string_opt (String.sub text (s2 + 1) (s3 - s2 - 1)),
        int_of_string_opt (String.sub text (s3 + 1) (s4 - s3 - 1)),
        Checkpoint.sleep_of_key (String.sub text (s4 + 1) (s5 - s4 - 1)),
        errors )
    with
    | Some vtime, Some wildcards, Some epochs, Some errors ->
        Some (String.sub text f1 (s2 - f1), { Prefix_cache.vtime; wildcards; errors; epochs })
    | _ -> None
  else None

let sidecar_head label = "# DAMPI prefix cache\nversion 1\nlabel " ^ Checkpoint.enc label ^ "\n"

(* The reference load of [body] (the lines after the label) under
   [budget]: the kept key -> entry table, the kept lines in order, the
   bytes charged, and whether the file reads back as written (every line
   kept, the last one with its newline), which is when a save skips. *)
let ref_load ~budget body =
  let n = String.length body in
  let kept = Hashtbl.create 16 and lines = ref [] and bytes = ref 0 in
  let entries = ref 0 and skipped = ref false in
  let rec go pos =
    if pos < n then begin
      let eol = ref_find body '\n' pos n in
      (match ref_entry_at body pos eol with
      | Some (key, e) ->
          incr entries;
          if eol - pos + 1 <= budget - !bytes && not (Hashtbl.mem kept key) then begin
            Hashtbl.replace kept key e;
            lines := String.sub body pos (eol - pos) :: !lines;
            bytes := !bytes + eol - pos + 1
          end
      | None -> skipped := true);
      go (eol + 1)
    end
  in
  go 0;
  let exact =
    (not !skipped) && Hashtbl.length kept = !entries && (n = 0 || body.[n - 1] = '\n')
  in
  (kept, List.rev !lines, !bytes, exact)

(* The text between [entry ] and the first space of each line. *)
let line_keys body =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"entry " l then
        let k = String.sub l 6 (String.length l - 6) in
        Some (match String.index_opt k ' ' with Some i -> String.sub k 0 i | None -> k)
      else None)
    (String.split_on_char '\n' body)

(* [body] loaded from a file at [path] under [budget] gives the
   reference's table, bytes and text, and a save to [path] skips exactly
   when the reference reads the file back as written. A mismatch is
   returned as a message. *)
let load_matches_reference ~path ~budget body =
  let label = "reference np=6" in
  let kept, lines, bytes, exact = ref_load ~budget body in
  write path (sidecar_head label ^ body);
  let c = Prefix_cache.create ~label ~budget_bytes:budget () in
  let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
  match Prefix_cache.load c path with
  | Error e -> fail "refused: %s" e
  | Ok () -> (
      let _, _, cbytes = Prefix_cache.stats c in
      let text = sidecar_head label ^ String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      match
        List.find_opt
          (fun k -> compare (Prefix_cache.find c ~key:k []) (Hashtbl.find_opt kept k) <> 0)
          (line_keys body)
      with
      | Some k -> fail "key %S: the entry differs" k
      | None when cbytes <> bytes -> fail "bytes %d, reference %d" cbytes bytes
      | None when Prefix_cache.to_string c <> text -> fail "kept lines differ"
      | None ->
          let ino = inode path in
          ignore (Prefix_cache.save c path);
          if (inode path = ino) <> exact then
            fail "save %s, reference %s" (if inode path = ino then "skipped" else "wrote")
              (if exact then "skips" else "writes")
          else None)

let tail_ok = "0x1p-3 1 - -"
let tail_epochs = "0x1.8p+0 2 recv:0:1:0:-1:2:1:4;recv:0:2:0:-1:4:1:1.2 -"
let tail_crash = "0x1p-15 3 probe:1:0:0:5:2:0:~ crash%201%3Aboom"

(* Two tails that differ in one byte but hash alike: the byte is the last
   of the tail's third 8-byte word ([0x1p-3 1 - crash%201%3A] is 23 bytes
   long), and the two differ only in its top bit, which the word hash
   drops. Only a comparison of the bytes tells them apart. *)
let tail_twin_a = "0x1p-3 1 - crash%201%3AAtwin"
let tail_twin_b = "0x1p-3 1 - crash%201%3A\xc1twin"

let bad_tails =
  [ "0x1p-3 zz - -"; "0x1p-3 1 -"; "0x1p-3 1 - - extra"; "0x1p-3 1 recv:0:1 -";
    "0x1p-3 1 - %ZZbogus"; "" ]

(* Hand-picked texts: each names what it holds. *)
let reference_cases =
  let e key tail = "entry " ^ key ^ " " ^ tail in
  let a = "recv:1:2:3" and b = "recv:0:4:1" in
  [
    ("diverge inside a decision",
     [ e a tail_ok; e "recv:1:2:35" tail_ok; e (a ^ "," ^ b) tail_ok; e "recv:1:2:3x" tail_ok ]);
    ("invalid key, then one sharing its prefix",
     [ e (a ^ ",recv:0:x:1") tail_ok; e (a ^ ",recv:0:x:1," ^ b) tail_ok; e (a ^ ",recv:0:4") tail_ok;
       e ("recv:0:x:1," ^ a) tail_ok; e ("recv:0:x:1," ^ a ^ "," ^ b) tail_ok ]);
    ("byte changed in the shared part",
     [ e (a ^ "," ^ b) tail_ok; e ("recv:1:2:" ^ "," ^ b ^ ",recv:1:1:1") tail_ok;
       e ("recv:1;2:3," ^ b ^ ",recv:1:1:2") tail_ok ]);
    ("byte changed past the shared part",
     [ e (a ^ "," ^ b) tail_ok; e (a ^ "," ^ b ^ ",recv:2:2:x") tail_ok;
       e (a ^ "," ^ b ^ ",recx:2:2:2") tail_ok ]);
    ("a divergence on a comma",
     [ e a tail_ok; e "recv:1:2:,recv:1:1:1" tail_ok; e "recv:1:2:" tail_ok ]);
    ("dash keys",
     [ e "-" tail_ok; e (a ^ ",-") tail_ok; e (a ^ "," ^ b) tail_ok; e (a ^ ",-") tail_ok;
       e "-,recv:1:2:3" tail_ok; e (a ^ ",") tail_ok;
       e a tail_ok; e "-" tail_epochs; e "--" tail_ok ]);
    ("duplicate keys", [ e a tail_ok; e a tail_epochs; e (a ^ "," ^ b) tail_crash; e a tail_ok ]);
    ("bad tails after good keys",
     List.concat_map (fun t -> [ e a t; e (a ^ "," ^ b) tail_ok; e (a ^ ",recv:9:9:9") t ]) bad_tails);
    ("tails that hash alike",
     [ e a tail_twin_a; e (a ^ "," ^ b) tail_twin_b; e b tail_twin_a; e "recv:5:5:5" tail_twin_b ]);
    ("other lines in between",
     [ e a tail_ok; ""; e (a ^ "," ^ b) tail_ok; "# note"; "entry"; "entry "; e b tail_ok ]);
  ]

let budgets body = [ 0; 1; String.length body / 3; String.length body / 2; max_int ]

let test_load_matches_reference () =
  with_temp_checkpoint (fun path ->
      List.iter
        (fun (name, lines) ->
          List.iter
            (fun final ->
              let body = String.concat "\n" lines ^ final in
              List.iter
                (fun budget ->
                  match load_matches_reference ~path ~budget body with
                  | None -> ()
                  | Some msg -> Alcotest.failf "%s (budget %d): %s" name budget msg)
                (budgets body))
            [ "\n"; "" ])
        reference_cases)

(* Sidecar bodies with DFS-shaped keys: each key keeps a prefix of the
   previous key's decisions and adds a few, with numbers that extend one
   another ([3], [35]), and some keys are broken by a changed byte inside
   or past the part they share with the key before, by a [-] or an empty
   last decision. Half the time the keys after a broken one inherit the
   break in the prefix they keep. *)
let gen_sidecar_body =
  let open QCheck.Gen in
  let num = oneofl [ "0"; "1"; "2"; "3"; "35"; "12"; "-1"; "123" ] in
  let decision =
    map3 (fun k (o, e) s -> String.concat ":" [ k; o; e; s ]) (oneofl [ "recv"; "recv"; "probe" ])
      (pair num num) num
  in
  let spell ds = if ds = [] then "-" else String.concat "," ds in
  let shared a b =
    let n = min (String.length a) (String.length b) in
    let rec go k = if k < n && a.[k] = b.[k] then go (k + 1) else k in
    go 0
  in
  let mutate prev key =
    let n = String.length key and s = shared prev key in
    let set k c = String.mapi (fun i x -> if i = k then c else x) key in
    let ch = oneofl [ ':'; ','; 'x'; '0'; '5'; '-'; 'e'; ' ' ] in
    frequency
      [
        (8, return key);
        (2, if s > 0 then map2 set (0 -- (s - 1)) ch else return key);
        (2, if s < n then map2 set (s -- (n - 1)) ch else return key);
        (1, return
              (match String.rindex_opt key ',' with
              | Some i -> String.sub key 0 (i + 1) ^ "-"
              | None -> "-"));
        (1, return (key ^ ","));
      ]
  in
  let tail =
    frequency
      [
        (10, oneofl [ tail_ok; tail_epochs; tail_crash; tail_twin_a; tail_twin_b ]);
        (1, oneofl bad_tails);
      ]
  in
  let line = frequency [ (30, return `Entry); (1, oneofl [ `Raw ""; `Raw "# x"; `Raw "entry" ]) ] in
  list_size (0 -- 60) (triple line (pair (0 -- 8) (list_size (0 -- 3) decision)) (pair tail bool))
  >>= fun steps ->
  let rec build prev prev_key acc = function
    | [] -> return (List.rev acc)
    | (`Raw l, _, _) :: rest -> build prev prev_key (l :: acc) rest
    | (`Entry, (drop, added), (tail, dup)) :: rest ->
        let ds =
          if dup then prev
          else List.filteri (fun i _ -> i < List.length prev - drop) prev @ added
        in
        let key = spell ds in
        pair (mutate prev_key key) bool >>= fun (shown, keep_break) ->
        let ds = if keep_break && shown <> "-" then String.split_on_char ',' shown else ds in
        build ds shown (("entry " ^ shown ^ " " ^ tail) :: acc) rest
  in
  build [] "" [] steps

let prop_load_matches_reference =
  QCheck.Test.make ~count:400
    ~name:"sidecar load: the same table, bytes and save skip as a full-check reference"
    (QCheck.make
       ~print:(fun (lines, final, b) ->
         Printf.sprintf "budget choice %d, final newline %b:\n%s" b final
           (String.concat "\n" lines))
       QCheck.Gen.(triple gen_sidecar_body bool (0 -- 4)))
    (fun (lines, final, b) ->
      let body = String.concat "\n" lines ^ if final then "\n" else "" in
      let budget = List.nth (budgets body) b in
      match with_temp_checkpoint (fun path -> load_matches_reference ~path ~budget body) with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "budget %d: %s" budget msg)

(* The load allocates per distinct result, not per line: [n] lines that
   share [k] tails cost a fixed budget per tail and about a word per line
   in the minor heap (the tables themselves are large arrays, allocated in
   the major heap). The budget sits about twice above the measured cost
   of a tail (its fields cut out and parsed, its summaries built). *)
let alloc_words_per_tail = 200.0

let test_load_allocates_per_tail () =
  let label = "alloc np=6" in
  let n = 20_000 and k = 40 in
  let tail i =
    Printf.sprintf "0x1.%xp-12 %d recv:0:%d:0:-1:2:1:4;recv:1:%d:0:-1:3:1:5.2 -" (i + 1) i i i
  in
  let key i =
    String.concat ","
      (List.init 12 (fun d -> Printf.sprintf "recv:%d:%d:%d" (d mod 2) d ((i lsr (22 - (2 * d))) land 3)))
  in
  let text =
    sidecar_head label
    ^ String.concat "" (List.init n (fun i -> "entry " ^ key i ^ " " ^ tail (i mod k) ^ "\n"))
  in
  let load () =
    let c = Prefix_cache.create ~label ~budget_bytes:max_int () in
    let before = Gc.minor_words () in
    (match Prefix_cache.load_into c text with Ok () -> () | Error e -> Alcotest.fail e);
    let words = Gc.minor_words () -. before in
    let _, _, bytes = Prefix_cache.stats c in
    Alcotest.(check int) "every line kept" (String.length text - String.length (sidecar_head label)) bytes;
    words
  in
  ignore (load ());
  let words = load () in
  let budget = (alloc_words_per_tail *. float_of_int k) +. float_of_int n +. 1_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d lines of %d tails, within %.0f" words n k budget)
    true (words <= budget)

(* ---- report merging: signature collisions keep both findings ---- *)

let test_merge_signature_collision () =
  (* Two structurally different errors whose signatures collide: Comm_leak
     label lists whose ", "-joined renderings are equal. A signature-keyed
     table would keep whichever merged second; the structural merge keeps
     both. *)
  let e1 = Report.Comm_leak { pid = 0; labels = [ "x, y" ] }
  and e2 = Report.Comm_leak { pid = 0; labels = [ "x"; "y" ] } in
  Alcotest.(check string)
    "the signatures do collide"
    (Report.error_signature e1) (Report.error_signature e2);
  let f error schedule_src =
    {
      Report.error;
      run_index = 1;
      schedule =
        [
          {
            Decisions.owner = 0;
            epoch_id = 0;
            src = schedule_src;
            kind = Epoch.Wildcard_recv;
          };
        ];
    }
  in
  let t = Report.Merge.create () in
  Report.Merge.add t (f e1 1);
  Report.Merge.add t (f e2 2);
  (* And a duplicate of e1 along a canonically larger schedule: the
     smaller reproduction must win, order-independently. *)
  Report.Merge.add t (f e1 3);
  let out = Report.Merge.to_list t in
  Alcotest.(check int) "both structural errors survive" 2 (List.length out);
  Alcotest.(check bool)
    "errors are the two distinct values" true
    (List.sort compare (List.map (fun (g : Report.finding) -> g.Report.error) out)
    = List.sort compare [ e1; e2 ]);
  List.iter
    (fun (g : Report.finding) ->
      if g.Report.error = e1 then
        Alcotest.(check int)
          "canonically smallest schedule wins" 1
          (match g.Report.schedule with
          | [ d ] -> d.Decisions.src
          | _ -> -1))
    out

let () =
  Alcotest.run "pruning"
    ([
       ( "equivalence-matrix",
         List.map
           (fun ((name, _, _, _) as case) ->
             Alcotest.test_case name `Quick (check_matrix case))
           registry );
       ( "pruning-bites",
         [
           Alcotest.test_case "twin workload prunes" `Quick test_twin_actually_prunes;
           Alcotest.test_case "expand is linear in epochs" `Quick test_expand_is_linear;
         ] );
       ( "prefix-cache",
         [
           Alcotest.test_case "warm re-run equals cold" `Quick
             test_warm_rerun_equals_cold;
           Alcotest.test_case "tiny-budget refusal soak" `Quick
             test_tiny_budget_refusal_soak;
           Alcotest.test_case "fault soak with cache on" `Quick
             test_fault_soak_with_cache;
           Alcotest.test_case "sidecar label guard" `Quick
             test_sidecar_label_guard;
           Alcotest.test_case "full cache refuses, keeps the first" `Quick
             test_full_cache_refuses;
           Alcotest.test_case "sidecar round trip" `Quick test_sidecar_roundtrip;
           Alcotest.test_case "sidecar skips malformed lines" `Quick
             test_sidecar_skips_malformed_lines;
           Alcotest.test_case "sidecar without a final newline" `Quick
             test_sidecar_without_final_newline;
           Alcotest.test_case "sidecar of the previous encoder" `Quick
             test_sidecar_previous_format;
           Alcotest.test_case "warm run keeps the sidecar" `Quick
             test_warm_run_keeps_sidecar;
           Alcotest.test_case "changed cache rewrites the sidecar" `Quick
             test_changed_cache_rewrites_sidecar;
           Alcotest.test_case "clean cache saves elsewhere" `Quick
             test_clean_cache_saves_elsewhere;
           Alcotest.test_case "tight-budget warm re-walk hits" `Quick
             test_tight_budget_warm_hits;
           QCheck_alcotest.to_alcotest prop_cache_matches_model;
           Alcotest.test_case "sidecar load equals the full-check reference" `Quick
             test_load_matches_reference;
           QCheck_alcotest.to_alcotest prop_load_matches_reference;
           Alcotest.test_case "sidecar load allocates per distinct result" `Quick
             test_load_allocates_per_tail;
         ] );
       ( "independence-properties",
         [
           QCheck_alcotest.to_alcotest prop_commuting_swaps_share_normal_form;
           QCheck_alcotest.to_alcotest prop_same_key_never_commutes;
           QCheck_alcotest.to_alcotest prop_non_equal_never_pruned;
           QCheck_alcotest.to_alcotest prop_footprint_disjoint_sane;
         ] );
       ( "report-merge",
         [
           Alcotest.test_case "signature collision keeps both findings" `Quick
             test_merge_signature_collision;
         ] );
     ]
    : unit Alcotest.test list)
