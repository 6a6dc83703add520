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
   tiny-budget cache evicts without losing correctness, the sidecar is
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
module Payload = Mpi.Payload

(* ---- a workload where pruning actually fires ----

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
          if Payload.to_int x < 0 then failwith "twin: negative payload"
        done;
        ignore r
    | r -> M.send ~dest:(if r <= 4 then 0 else 1) world (Payload.int r)
end

let twin_servers : Mpi.Mpi_intf.program = (module Twin_servers)

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
    ("twin", 8, default, fun () -> twin_servers);
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

(* A cache too small to hold the exploration must evict, not corrupt: the
   report equals the uncached one and evictions are observable. *)
let test_tiny_budget_eviction_soak () =
  let _, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "twin") registry
  in
  let bare = verify_local ~np ~state_config ~jobs:1 (List.hd modes) build in
  let tiny =
    Explorer.verify
      ~config:
        {
          (config_of ~state_config ~jobs:1 (List.hd modes)) with
          Explorer.prefix_cache = Some 512;
        }
      ~np (build ())
  in
  Alcotest.(check bool)
    "tiny-budget report equals uncached" true
    (canonical bare = canonical tiny);
  Alcotest.(check bool)
    "the budget forced evictions" true
    (Obs.Metrics.counter_value tiny.Report.metrics "cache.evictions" > 0)

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

(* LRU mechanics, directly: recency decides the victim, and deepest_prefix
   reports the longest cached prefix. *)
let test_lru_and_deepest_prefix () =
  let d i =
    { Decisions.owner = 0; epoch_id = i; src = 1; kind = Epoch.Wildcard_recv }
  in
  let entry =
    { Prefix_cache.vtime = 0.0; wildcards = 0; errors = []; epochs = [] }
  in
  let schedule n = List.init n d in
  let cost =
    (* one entry's serialized footprint, measured via a throwaway cache *)
    let probe = Prefix_cache.create ~budget_bytes:max_int () in
    Prefix_cache.add probe (schedule 1) entry;
    let _, _, bytes, _ = Prefix_cache.stats probe in
    bytes
  in
  let t = Prefix_cache.create ~budget_bytes:(2 * cost + cost) () in
  Prefix_cache.add t (schedule 1) entry;
  Prefix_cache.add t (schedule 2) entry;
  Alcotest.(check int) "deepest prefix of [d0;d1;d2]" 2
    (Prefix_cache.deepest_prefix t (schedule 3));
  (* Touch the older entry, then overflow: the untouched one is evicted. *)
  ignore (Prefix_cache.find t (schedule 1));
  Prefix_cache.add t (schedule 3) entry;
  Alcotest.(check bool) "recently-used survives" true
    (Prefix_cache.find t (schedule 1) <> None);
  Alcotest.(check bool) "least-recently-used evicted" true
    (Prefix_cache.find t (schedule 2) = None);
  let _, _, _, evictions = Prefix_cache.stats t in
  Alcotest.(check bool) "eviction counted" true (evictions >= 1)

(* The sidecar round trip: save, load into a fresh cache, save again —
   byte-identical text, and the loaded cache charges exactly the bytes the
   original adds did, so a budget evicts the same entries either way. *)
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
  let bytes c = let _, _, bytes, _ = Prefix_cache.stats c in bytes in
  Alcotest.(check int) "loaded bytes equal the adds' bytes" (bytes a) (bytes b);
  List.iter
    (fun (d, e) ->
      Alcotest.(check bool)
        (Checkpoint.schedule_key d ^ " hits with its artifact") true
        (Prefix_cache.find b ~key:(Checkpoint.schedule_key d) d = Some e))
    sidecar_entries;
  (* A budget a third of the total: loading evicts what adding evicted. *)
  let budget = bytes a / 3 in
  let added = fill budget in
  let loaded = Prefix_cache.create ~label ~budget_bytes:budget () in
  ignore (Prefix_cache.load_into loaded text);
  let _, _, added_bytes, added_evictions = Prefix_cache.stats added in
  let _, _, loaded_bytes, loaded_evictions = Prefix_cache.stats loaded in
  Alcotest.(check (pair int int))
    "tiny budget: same bytes and evictions" (added_bytes, added_evictions)
    (loaded_bytes, loaded_evictions);
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
  let _, _, bytes, _ = Prefix_cache.stats c in
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
         [ Alcotest.test_case "twin workload prunes" `Quick test_twin_actually_prunes ] );
       ( "prefix-cache",
         [
           Alcotest.test_case "warm re-run equals cold" `Quick
             test_warm_rerun_equals_cold;
           Alcotest.test_case "tiny-budget eviction soak" `Quick
             test_tiny_budget_eviction_soak;
           Alcotest.test_case "fault soak with cache on" `Quick
             test_fault_soak_with_cache;
           Alcotest.test_case "sidecar label guard" `Quick
             test_sidecar_label_guard;
           Alcotest.test_case "LRU recency and deepest prefix" `Quick
             test_lru_and_deepest_prefix;
           Alcotest.test_case "sidecar round trip" `Quick test_sidecar_roundtrip;
           Alcotest.test_case "sidecar skips malformed lines" `Quick
             test_sidecar_skips_malformed_lines;
           Alcotest.test_case "sidecar of the previous encoder" `Quick
             test_sidecar_previous_format;
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
