(* Cluster-telemetry acceptance.

   Differential half: the metric totals a verification reports must not
   depend on how the work was spread — the same counters (runtime match
   attempts, piggyback bytes, cache hits) must come out equal whether the
   exploration ran sequentially, on an in-process pool, or distributed
   over the wire with per-worker deltas merged coordinator-side. That is
   what makes the telemetry trustworthy enough to dashboard.

   Fuzz half: telemetry is advisory by contract ({!Dampi.Wire}) — a
   corrupted or truncated telemetry frame must be skipped or dropped
   whole by the assembler, never raise, and never prevent the next
   non-telemetry message on the connection from parsing (i.e. it cannot
   poison the session the way a malformed results frame would). *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Wire = Dampi.Wire

(* ---- differential harness ---- *)

(* Small exhaustive workloads (mirrors test_distributed's registry). *)
let registry : (string * int * (unit -> Mpi.Mpi_intf.program)) list =
  [
    ("fig3", 3, fun () -> Workloads.Patterns.fig3);
    ("fig4", 4, fun () -> Workloads.Patterns.fig4);
    ( "matmult",
      5,
      fun () ->
        Workloads.Matmult.program
          ~params:
            { Workloads.Matmult.default_params with n = 8; rows_per_task = 2 }
          () );
  ]

let resolve =
  Dist_harness.resolver
    (List.map
       (fun (name, np, build) -> (name, np, Dampi.State.default_config, build))
       registry)

(* The counters the acceptance bar names, plus clock merges for depth.
   [cache.hits] is absent (= 0) on all sides here — no cache configured —
   which is itself the equality that matters: no mode invents series. *)
let compared =
  [
    "mpi.match_attempts";
    "dampi.piggyback_bytes";
    "dampi.clock_merges";
    "cache.hits";
  ]

let totals (r : Report.t) =
  List.map (fun k -> (k, Obs.Metrics.counter_value r.Report.metrics k)) compared

let check_totals_equal (name, np, build) () =
  let seq = Explorer.verify ~np (build ()) in
  let pooled =
    Explorer.verify
      ~config:{ Explorer.default_config with jobs = 4 }
      ~np (build ())
  in
  let dist = Dist_harness.verify_distributed ~resolve ~name ~np build in
  Alcotest.(check (list (pair string int)))
    (name ^ ": jobs=4 totals equal jobs=1")
    (totals seq) (totals pooled);
  Alcotest.(check (list (pair string int)))
    (name ^ ": distribute=2 merged totals equal jobs=1")
    (totals seq) (totals dist);
  (* The distributed report keeps per-worker provenance: remote deltas
     appear as worker snapshots labeled by session id (w<pid>-<hex>),
     alongside the local w<i>/sched/aux shards — provided the frontier
     produced any remote replays at all (fig4 under Lamport does not:
     the imprecision hides the race, so the self run is the whole
     exploration). *)
  let remote_labels =
    List.filter
      (fun (l, _) -> String.contains l '-')
      dist.Report.worker_metrics
  in
  if dist.Report.interleavings > 1 then
    Alcotest.(check bool)
      (name ^ ": remote worker snapshots present")
      true
      (List.length remote_labels > 0)

(* Profiler histograms appear only under [profile = true], and their
   sample counts line up with the work that was actually measured. *)
let check_profile_series () =
  let np = 3 in
  let build () = Workloads.Patterns.fig3 in
  let plain = Explorer.verify ~np (build ()) in
  let profiled =
    Explorer.verify
      ~config:{ Explorer.default_config with profile = true }
      ~np (build ())
  in
  let hist_count (r : Report.t) name =
    match Obs.Metrics.find r.Report.metrics name with
    | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.count
    | _ -> -1
  in
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " absent without --profile")
        (-1) (hist_count plain name))
    [ "profile.match_loop_s"; "profile.clock_merge_s" ];
  Alcotest.(check bool)
    "profile.match_loop_s recorded samples" true
    (hist_count profiled "profile.match_loop_s" > 0);
  Alcotest.(check bool)
    "profile.clock_merge_s recorded samples" true
    (hist_count profiled "profile.clock_merge_s" > 0);
  (* Profiling must not perturb the canonical report. *)
  Alcotest.(check int)
    "same interleavings with profiling" plain.Report.interleavings
    profiled.Report.interleavings

(* ---- telemetry frame fuzz ---- *)

(* A registry with some activity in every sample kind, so generated
   frames carry realistic counter/gauge/histogram tokens. *)
let real_delta () =
  let reg = Obs.Metrics.create ~shards:1 () in
  let sh = Obs.Metrics.shard reg 0 in
  let c = Obs.Metrics.counter sh "fuzz.counter" in
  let h = Obs.Metrics.histogram sh "fuzz.hist" in
  Obs.Metrics.add c 7;
  Obs.Metrics.gauge_set sh "fuzz.gauge" 3.25;
  Obs.Metrics.observe h 0.004;
  Obs.Metrics.observe h 1.5;
  Obs.Metrics.to_delta ~prev:[] (Obs.Metrics.snapshot reg)

let gen_series =
  QCheck.Gen.(
    let gen_name =
      map
        (fun (a, b) -> Printf.sprintf "%s.%s" a b)
        (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 8))
           (string_size ~gen:(char_range 'a' 'z') (1 -- 8)))
    in
    let gen_sample =
      oneof
        [
          map (fun n -> Obs.Metrics.Counter n) (0 -- 1_000_000);
          map (fun f -> Obs.Metrics.Gauge f) (float_bound_inclusive 1e6);
        ]
    in
    map
      (fun (pairs, with_hist) ->
        (if with_hist then real_delta () else []) @ pairs)
      (pair (list_size (0 -- 6) (pair gen_name gen_sample)) bool))

let serialize msgs =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  List.iter (Wire.write_to_coord oc) msgs;
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  let b = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents b

let feed_all raw =
  let a = Wire.assembler () in
  let b = Bytes.of_string raw in
  Wire.feed a b (Bytes.length b)

(* Corrupt bytes of the telemetry frame body only: after the header line,
   excluding the frame's very last newline (so the appended heartbeat
   always starts a fresh line, as it would on a live socket where frames
   are written whole). *)
let arb_body_corruption =
  QCheck.make
    ~print:(fun (_, flips) ->
      string_of_int (List.length flips) ^ " body flip(s)")
    QCheck.Gen.(
      gen_series >>= fun series ->
      let raw = serialize [ Wire.Telemetry series ] in
      let body_start = String.index raw '\n' + 1 in
      let body_end = String.length raw - 1 in
      if body_end <= body_start then return (raw, [])
      else
        map
          (fun flips -> (raw, flips))
          (list_size (1 -- 6)
             (pair (int_range body_start (body_end - 1)) (0 -- 255))))

let prop_corrupt_body_never_poisons =
  QCheck.Test.make
    ~name:"corrupted telemetry body: no exception, no Error, session lives"
    ~count:500 arb_body_corruption (fun (raw, flips) ->
      let b = Bytes.of_string raw in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) flips;
      let stream = Bytes.to_string b ^ serialize [ Wire.Heartbeat ] in
      match feed_all stream with
      | out ->
          (* Whatever happened to the frame — samples skipped, frame
             dropped whole — the connection-fatal outcome (an [Error]) is
             forbidden, and the next real message must get through. *)
          List.for_all (function Ok _ -> true | Error _ -> false) out
          && List.exists (fun m -> m = Ok Wire.Heartbeat) out
      | exception e ->
          QCheck.Test.fail_reportf "assembler raised %s" (Printexc.to_string e))

let arb_truncation =
  QCheck.make
    ~print:(fun (_, keep) -> Printf.sprintf "first %d line(s) kept" keep)
    QCheck.Gen.(
      gen_series >>= fun series ->
      let raw = serialize [ Wire.Telemetry series ] in
      let lines = List.length (String.split_on_char '\n' raw) - 1 in
      map (fun keep -> (raw, keep)) (0 -- lines))

let prop_truncated_frame_dropped =
  QCheck.Test.make
    ~name:"truncated telemetry frame: dropped whole, next message parses"
    ~count:500 arb_truncation (fun (raw, keep) ->
      let prefix =
        String.split_on_char '\n' raw |> List.filteri (fun i _ -> i < keep)
        |> List.map (fun l -> l ^ "\n")
        |> String.concat ""
      in
      let stream = prefix ^ serialize [ Wire.Heartbeat ] in
      match feed_all stream with
      | out ->
          List.for_all (function Ok _ -> true | Error _ -> false) out
          && List.exists (fun m -> m = Ok Wire.Heartbeat) out
      | exception e ->
          QCheck.Test.fail_reportf "assembler raised %s" (Printexc.to_string e))

(* A clean frame round-trips exactly, so the merge arithmetic upstream
   operates on what the worker actually sent. *)
let prop_clean_roundtrip =
  QCheck.Test.make ~name:"clean telemetry frame round-trips exactly"
    ~count:300
    (QCheck.make
       ~print:(fun s -> string_of_int (List.length s) ^ " series")
       gen_series)
    (fun series ->
      match feed_all (serialize [ Wire.Telemetry series ]) with
      | [ Ok (Wire.Telemetry got) ] -> got = series
      | _ -> false)

let differential_cases =
  List.map
    (fun ((name, _, _) as case) ->
      Alcotest.test_case name `Quick (check_totals_equal case))
    registry

let () =
  Alcotest.run "telemetry"
    [
      ("differential-totals", differential_cases);
      ( "profiler",
        [ Alcotest.test_case "profile series" `Quick check_profile_series ] );
      ( "frame-fuzz",
        [
          QCheck_alcotest.to_alcotest prop_clean_roundtrip;
          QCheck_alcotest.to_alcotest prop_corrupt_body_never_poisons;
          QCheck_alcotest.to_alcotest prop_truncated_frame_dropped;
        ] );
    ]
