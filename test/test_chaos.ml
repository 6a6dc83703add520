(* The degraded-network acceptance bar: a distributed exploration whose
   every connection is subjected to deterministic transport chaos — frame
   drops, delays, duplication, reordering, corruption, truncation,
   one-way partitions — must still produce the canonical report of the
   clean sequential walk, the same way test_pruning proved pruning sound.
   Workers are in-process domains redialling a real listening coordinator
   over a unix socket, because most fault kinds recover through the
   lose → refund → redial → re-lease path, which needs a listen socket to
   redial. A final test injects ENOSPC into checkpoint persistence and
   checks the run degrades (counted, logged) instead of crashing. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Coordinator = Dampi.Coordinator
module Remote_worker = Dampi.Remote_worker
module Wire = Dampi.Wire
module Net = Mpi.Fault.Net

(* Two workloads: matmult is the mid-size default (24 interleavings);
   adlb/k0 (81 interleavings) backs the schedules that need a guaranteed
   supply of payload frames per connection (every one-shot injection index
   is drawn under a bounded horizon, so enough frames ⇒ the fault fires). *)
let registry : Dist_harness.case list =
  [
    ( "matmult",
      5,
      State.default_config,
      fun () ->
        Workloads.Matmult.program
          ~params:
            { Workloads.Matmult.default_params with n = 8; rows_per_task = 2 }
          () );
    ( "adlb/k0",
      6,
      State.make_config ~mixing_bound:0 (),
      fun () -> Workloads.Adlb.program () );
  ]

let find_case name = List.find (fun (n, _, _, _) -> n = name) registry

let resolve_with spec =
  Dist_harness.resolver
    ~rb:{ Explorer.default_robustness with net_fault = spec }
    registry

(* Sequential baselines, computed once and shared by every schedule. *)
let seq_report =
  let tbl = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some r -> r
    | None ->
        let _, np, state_config, build = find_case name in
        let r =
          Explorer.verify
            ~config:{ Explorer.default_config with state_config }
            ~np (build ())
        in
        Hashtbl.add tbl name r;
        r

let counter_total (report : Report.t) pred =
  List.fold_left
    (fun acc (n, s) ->
      match s with Obs.Metrics.Counter v when pred n -> acc + v | _ -> acc)
    0 report.Report.metrics

let prefixed prefix n =
  String.length n >= String.length prefix
  && String.sub n 0 (String.length prefix) = prefix

let sock_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dampi-chaos-%s-%d.sock" tag (Unix.getpid ()))

(* One distributed run of [workload] with chaos [spec] on every link, both
   directions: the coordinator's setup carries the spec, and the workers'
   resolve plants the same spec in their robustness (as the CLI's job
   params would). Timeouts are short so drop/partition recovery — which
   must wait out a heartbeat silence — stays fast. *)
let chaos_dist ~tag ~workload spec =
  let _, np, state_config, build = find_case workload in
  let path = sock_path tag in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let doms = ref [] in
  let reconnect =
    { Remote_worker.max_redials = 4; backoff = 0.03; seed = spec.Net.seed }
  in
  let ready addr =
    for _ = 1 to 2 do
      doms :=
        Domain.spawn (fun () ->
            match
              Remote_worker.serve_addr ~reconnect
                ~resolve:(resolve_with (Some spec))
                (`Connect addr)
            with
            | Ok () -> ()
            | Error e -> failwith e)
        :: !doms
    done
  in
  let setup =
    {
      (Dist_harness.setup_of ~lease_size:1 ~rejoin_grace:0.15 ~name:workload
         ~np
         (Coordinator.Listen { addr = Wire.Unix_sock path; ready }))
      with
      heartbeat_timeout = 0.4;
      net_fault = Some spec;
    }
  in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  List.iter Domain.join !doms;
  dist

(* The fault schedules under differential test. Probabilities are 1.0 so
   the one-shot draws always land (the workload supplies more frames than
   any horizon); seeds are arbitrary but fixed. *)
let schedules =
  [
    ("drop", "matmult", { Net.inert with seed = 11; drop = 1.0 });
    ( "delay",
      "matmult",
      { Net.inert with seed = 12; delay = 1.0; max_delay = 0.02 } );
    ("duplicate", "adlb/k0", { Net.inert with seed = 13; dup = 1.0 });
    ("reorder", "matmult", { Net.inert with seed = 14; reorder = 1.0 });
    ("corrupt", "adlb/k0", { Net.inert with seed = 15; corrupt = 1.0 });
    ("truncate", "adlb/k0", { Net.inert with seed = 16; truncate = 1.0 });
    ( "partition",
      "matmult",
      { Net.inert with seed = 17; partition = 1.0; partition_frames = 4 } );
  ]

let test_schedule (tag, workload, spec) () =
  let seq = seq_report workload in
  let dist = chaos_dist ~tag ~workload spec in
  Dist_harness.check_same (Printf.sprintf "%s/%s" workload tag) seq dist;
  (* The schedule actually injected: at least one net_fault.<kind> counter
     ticked (coordinator-side counters land in the report's merged
     metrics; worker-side ones arrive as shipped telemetry). *)
  Alcotest.(check bool)
    (tag ^ ": chaos actually fired")
    true
    (counter_total dist (prefixed "net_fault.") > 0)

(* A mixed storm: every kind at a moderate rate on one run. No injection
   assert — with probabilistic rates a schedule may legally miss — just
   the equality bar. *)
let test_storm () =
  let spec =
    {
      Net.inert with
      seed = 18;
      drop = 0.3;
      delay = 0.5;
      max_delay = 0.02;
      dup = 0.3;
      reorder = 0.3;
      corrupt = 0.2;
      truncate = 0.2;
      partition = 0.2;
      partition_frames = 3;
    }
  in
  let seq = seq_report "matmult" in
  let dist = chaos_dist ~tag:"storm" ~workload:"matmult" spec in
  Dist_harness.check_same "matmult/storm" seq dist

(* The duplicated-results acceptance check: under dup=1.0 at least one
   results frame reaches the coordinator twice (worker-side duplication of
   a Results frame, or a duplicated Lease making the worker replay and
   re-ship under the same lease id). The canonical-report equality above
   already proves it was counted at most once; here we pin down that the
   dedup path — not an accident of timing — discarded it. *)
let test_duplicate_counted_once () =
  let seq = seq_report "adlb/k0" in
  let spec = { Net.inert with seed = 23; dup = 1.0 } in
  let dist = chaos_dist ~tag:"dup-once" ~workload:"adlb/k0" spec in
  Dist_harness.check_same "adlb/k0/dup-once" seq dist;
  let dedup =
    counter_total dist (fun n ->
        n = "coordinator.dup_results" || n = "coordinator.fenced")
  in
  Alcotest.(check bool)
    "a duplicated results frame was discarded by the dedup/fencing path"
    true (dedup > 0)

(* ENOSPC during checkpoint cuts: every write (periodic and final) fails
   with the injected No-space error; the run must complete with the clean
   report, count the failures, and leave no checkpoint behind. *)
let test_enospc_checkpoint () =
  let _, np, state_config, build = find_case "matmult" in
  let seq = seq_report "matmult" in
  let ck =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dampi-chaos-enospc-%d.dampi" (Unix.getpid ()))
  in
  (try Sys.remove ck with Sys_error _ -> ());
  let rb =
    {
      Explorer.default_robustness with
      net_fault = Some { Net.inert with seed = 31; write_fail = 1.0 };
      checkpoint = Some { Explorer.path = ck; every = 5; label = "chaos" };
    }
  in
  let r =
    Explorer.verify
      ~config:
        { Explorer.default_config with state_config; robustness = rb }
      ~np (build ())
  in
  Dist_harness.check_same "matmult/enospc" seq r;
  Alcotest.(check bool)
    "run completed despite failing writes" false r.Report.interrupted;
  Alcotest.(check bool)
    "write failures were counted" true
    (counter_total r (fun n -> n = "checkpoint.write_failures") > 0);
  Alcotest.(check bool)
    "no checkpoint file materialized" false (Sys.file_exists ck);
  Alcotest.(check bool)
    "no tempfile left behind" false (Sys.file_exists (ck ^ ".tmp"))

(* Control: the same checkpoint configuration without the injected fault
   still persists — the ENOSPC test above fails for the right reason. *)
let test_checkpoint_still_works () =
  let _, np, state_config, build = find_case "matmult" in
  let ck =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dampi-chaos-ok-%d.dampi" (Unix.getpid ()))
  in
  (try Sys.remove ck with Sys_error _ -> ());
  let rb =
    {
      Explorer.default_robustness with
      checkpoint = Some { Explorer.path = ck; every = 5; label = "chaos" };
    }
  in
  let r =
    Explorer.verify
      ~config:
        { Explorer.default_config with state_config; robustness = rb }
      ~np (build ())
  in
  Alcotest.(check bool) "run completed" false r.Report.interrupted;
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ck);
  Alcotest.(check bool)
    "no write failures counted" true
    (counter_total r (fun n -> n = "checkpoint.write_failures") = 0);
  Sys.remove ck

(* ---- Fault.Net.shape: the bytes each injection puts on the wire ----

   Under a fixed seed and probability 1.0, feed payload frames through one
   connection instance until the injection fires (every one-shot kind is
   drawn within a bounded frame horizon), checking that the frames before
   it go out untouched. Returns the instance, the frame the injection hit
   and what [shape] made of it. *)
let writes = Alcotest.(list (pair (float 0.0) string))

let frame i = Printf.sprintf "results %d r%d\n" i i

let until_fired spec kind =
  let fired = ref false in
  let t =
    Net.make ~on_inject:(fun k -> if k = kind then fired := true) spec ~salt:1
  in
  let rec go i =
    if i > 64 then Alcotest.failf "%s never fired" kind;
    let f = frame i in
    let shaped = Net.shape t ~klass:Net.Payload f in
    if !fired then (t, i, shaped)
    else begin
      Alcotest.check writes "untouched before the injection" [ (0.0, f) ]
        shaped.Net.writes;
      go (i + 1)
    end
  in
  go 0

let test_shape_dup () =
  let _, i, shaped = until_fired { Net.inert with seed = 41; dup = 1.0 } "dup" in
  Alcotest.check writes "two copies" [ (0.0, frame i); (0.0, frame i) ]
    shaped.Net.writes;
  Alcotest.(check bool) "no sever" false shaped.Net.sever

let test_shape_reorder () =
  let spec = { Net.inert with seed = 42; reorder = 1.0 } in
  let t, i, shaped = until_fired spec "reorder" in
  Alcotest.check writes "held frame writes nothing" [] shaped.Net.writes;
  let next = Net.shape t ~klass:Net.Payload (frame (i + 1)) in
  Alcotest.check writes "held frame goes out right after the next one"
    [ (0.0, frame (i + 1)); (0.0, frame i) ]
    next.Net.writes;
  Alcotest.(check (option string)) "nothing left to release" None
    (Net.release t);
  (* The same schedule again, with nothing overtaking the held frame. *)
  let t, i, _ = until_fired spec "reorder" in
  Alcotest.(check (option string)) "release returns it" (Some (frame i))
    (Net.release t);
  Alcotest.(check (option string)) "once" None (Net.release t)

let test_shape_corrupt () =
  let _, i, shaped =
    until_fired { Net.inert with seed = 43; corrupt = 1.0 } "corrupt"
  in
  let f = frame i in
  Alcotest.check writes "one frame, verb byte replaced"
    [ (0.0, "\x01" ^ String.sub f 1 (String.length f - 1)) ]
    shaped.Net.writes;
  Alcotest.(check bool) "no sever" false shaped.Net.sever

let test_shape_truncate () =
  let _, i, shaped =
    until_fired { Net.inert with seed = 44; truncate = 1.0 } "truncate"
  in
  let f = frame i in
  Alcotest.check writes "first half"
    [ (0.0, String.sub f 0 (String.length f / 2)) ]
    shaped.Net.writes;
  Alcotest.(check bool) "sever" true shaped.Net.sever

let test_shape_inert () =
  List.iter
    (fun (name, t) ->
      let shaped = Net.shape t ~klass:Net.Payload (frame 0) in
      Alcotest.check writes name [ (0.0, frame 0) ] shaped.Net.writes;
      Alcotest.(check bool) name false shaped.Net.sever;
      Alcotest.(check (option string)) name None (Net.release t))
    [ ("none", Net.none); ("inert spec", Net.make Net.inert ~salt:1) ]

let () =
  Alcotest.run "chaos"
    [
      ( "differential",
        List.map
          (fun ((tag, workload, _) as s) ->
            Alcotest.test_case
              (Printf.sprintf "%s on %s" tag workload)
              `Slow (test_schedule s))
          schedules
        @ [ Alcotest.test_case "storm on matmult" `Slow test_storm ] );
      ( "exactly-once",
        [
          Alcotest.test_case "duplicated results counted once" `Slow
            test_duplicate_counted_once;
        ] );
      ( "shape",
        [
          Alcotest.test_case "dup writes two copies" `Quick test_shape_dup;
          Alcotest.test_case "reorder holds until the next frame" `Quick
            test_shape_reorder;
          Alcotest.test_case "corrupt replaces the verb byte" `Quick
            test_shape_corrupt;
          Alcotest.test_case "truncate writes half and severs" `Quick
            test_shape_truncate;
          Alcotest.test_case "inert writes the frame as is" `Quick
            test_shape_inert;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "ENOSPC degrades gracefully" `Quick
            test_enospc_checkpoint;
          Alcotest.test_case "clean checkpoint control" `Quick
            test_checkpoint_still_works;
        ] );
    ]
