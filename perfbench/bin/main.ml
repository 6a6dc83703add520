(* The verifier benchmark: time-to-report on two adlb workloads, and a
   separate traced run that splits the time over named layers.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced, it verifies the workload in fresh child processes, one after
   another, until S seconds have passed (at least once), and reports the
   end-to-end metrics over those repeats (see [timed_run]). Traced, it
   verifies once untraced and once with every layer probe in, and reports
   the per-layer metrics. The last line of standard output is the JSON
   result; the log goes to stderr. Working files live under .perfbench/ in
   the current directory.

   The workloads are fixed programs, so their inputs do not depend on the
   seed; the seed picks the schedules the warm workload's traced run
   re-executes to check the cache against the shipped runner. *)

open Dampi
module Span = Perfbench.Span
module Stats = Perfbench.Stats
module Table = Perfbench.Table

let log fmt = Printf.ksprintf (fun s -> prerr_string s; prerr_newline ()) fmt

(* Cold cached set-ups per untraced warm run, for the median. *)
let warm_setups = 2

(* Set-up-only samples taken before each verification of adlb2-cold, whose
   set-up (fork, inputs) takes under a millisecond: spread over the run, so
   a noisy moment skews few. *)
let setup_samples = 3

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let remove path = try Sys.remove path with Sys_error _ -> ()

let copy src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let report_verdict oc = function
  | Ok () -> Proc.emit oc "ok"
  | Error msg -> Proc.emit oc "fail %s" msg

let both a b =
  match (a, b) with
  | Ok (), Ok () -> Ok ()
  | Error x, Ok () | Ok (), Error x -> Error x
  | Error x, Error y -> Error (x ^ "; " ^ y)

let out_fd oc = Unix.descr_of_out_channel oc

(* ---- the pieces every verification child shares ---- *)

let end_to_end oc ~(report : Report.t) ~wall ~cpu ~heap =
  Proc.metric oc "verify_s" wall;
  Proc.metric oc "interleavings" (float_of_int report.Report.interleavings);
  Proc.metric oc "cpu_s" cpu;
  Proc.metric oc "peak_heap_mb" heap

let worker_body w ~dir ~fd oc =
  let config = Workload.config w ~dir and np = Workload.np w in
  let c0 = Proc.cpu_seconds () in
  let runner = Explorer.dampi_runner config ~np (Workload.program w) in
  let resolve (_ : Wire.job) =
    Ok { Remote_worker.np; runner; rb = Explorer.default_robustness; prune = true }
  in
  let served = Remote_worker.serve ~resolve fd in
  Proc.metric oc "worker.cpu_s" (Proc.cpu_seconds () -. c0);
  Proc.metric oc "worker.heap_mb" (Proc.peak_heap_mb ());
  report_verdict oc
    (match served with
    | `Shutdown -> Ok ()
    | `Disconnected -> Error "worker disconnected"
    | `Rejected r -> Error ("worker rejected: " ^ r))

(* One untraced verification, as [dampi verify] runs it. With [setup_only]
   the child stops once its inputs are ready: an extra set-up sample. *)
let verify_child ?(setup_only = false) w ~dir oc =
  let config = Workload.config w ~dir and np = Workload.np w in
  let program = Workload.program w in
  match w with
  | _ when setup_only ->
      ignore (Sys.opaque_identity (config, program));
      Proc.emit oc "ready";
      Proc.emit oc "ok"
  | Workload.Dist1 ->
      let d =
        Dist.start w ~dir ~traced:false ~close:[ out_fd oc ] ~worker:(worker_body w ~dir)
      in
      Proc.emit oc "ready";
      let c0 = Proc.cpu_seconds () and t0 = Span.monotonic () in
      let report = Explorer.verify ~config ~distribute:d.Dist.setup ~np program in
      let wall = Span.monotonic () -. t0 and cpu = Proc.cpu_seconds () -. c0 in
      let wr = Dist.finish d in
      let get name = Option.value (List.assoc_opt name wr.Proc.metrics) ~default:0.0 in
      end_to_end oc ~report ~wall
        ~cpu:(cpu +. get "worker.cpu_s")
        ~heap:(Proc.peak_heap_mb () +. get "worker.heap_mb");
      Proc.metric oc "coordinator.cpu_s" cpu;
      Proc.metric oc "worker.cpu_s" (get "worker.cpu_s");
      report_verdict oc (both (Workload.check w report) wr.Proc.outcome)
  | Workload.Cold | Workload.Warm ->
      Proc.emit oc "ready";
      let c0 = Proc.cpu_seconds () and t0 = Span.monotonic () in
      let report = Explorer.verify ~config ~np program in
      let wall = Span.monotonic () -. t0 and cpu = Proc.cpu_seconds () -. c0 in
      end_to_end oc ~report ~wall ~cpu ~heap:(Proc.peak_heap_mb ());
      report_verdict oc (Workload.check w report)

(* The warm workload's set-up: the cold cached run that leaves the sidecar
   behind. The parent times it up to [ready]. *)
let warm_setup_child ~dir oc =
  let w = Workload.Warm in
  let report =
    Explorer.verify ~config:(Workload.config w ~dir) ~np:(Workload.np w)
      (Workload.program w)
  in
  Proc.emit oc "ready";
  report_verdict oc (Workload.check ~cold_setup:true w report)

(* ---- the traced run ---- *)

let per_replay_counts oc (report : Report.t) =
  let replays = Workload.counter report "explorer.replays" in
  List.iter
    (fun name ->
      Proc.metric oc name
        (Traced.per_replay (float_of_int (Workload.counter report name)) replays))
    [
      "mpi.match_attempts";
      "mpi.deadlock_checks";
      "dampi.clock_merges";
      "dampi.piggyback_bytes";
      "dampi.epochs_completed";
    ]

let emit_all oc = List.iter (fun (n, v) -> Proc.metric oc n v)

let redrive_counts ~(report : Report.t) ~items ~suppressed =
  [
    Perfbench.Check.int "redrive.items" ~expected:(report.Report.interleavings - 1) items;
    Perfbench.Check.int "redrive.suppressed" ~expected:report.Report.runs_pruned suppressed;
  ]

let fidelity_verdict (f : Traced.fidelity) =
  match f.Traced.mismatches with
  | [] -> Ok ()
  | keys ->
      Error ("traced runner disagrees with the shipped one on " ^ String.concat " " keys)

(* The re-driven walk must cover the verification's walk: every item found,
   the same order in both passes, and — where the report is at hand — the
   same item and suppression counts. *)
let walk_verdict (wk : Traced.walk) ~(report : Report.t option) =
  Perfbench.Check.verdict
    (Perfbench.Check.int "redrive.missing" ~expected:0 wk.Traced.missing
    :: Perfbench.Check.str "redrive.order" ~expected:"true" (string_of_bool wk.Traced.order_ok)
    ::
    (match report with
    | None -> []
    | Some r -> redrive_counts ~report:r ~items:wk.Traced.items ~suppressed:wk.Traced.suppressed))

let captures (p : Traced.probe) =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) p.Traced.captured []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Replay and walk layers of the process that ran the traced runner: the
   fidelity check over every captured record, then the walk re-driven on
   the captured artifacts. Returns the verdict. *)
let analyse_replays oc (p : Traced.probe) w ~dir ~(root : Prefix_cache.entry option)
    ~report =
  let config = Workload.config w ~dir and np = Workload.np w in
  let program = Workload.program w in
  let caps = captures p in
  let f = Traced.fidelity config ~np program caps in
  emit_all oc (Traced.replay_metrics p f);
  let root =
    match root with
    | Some r -> r
    | None -> (Hashtbl.find p.Traced.captured (Checkpoint.schedule_key [])).Traced.entry
  in
  let lookup ~key _ =
    Option.map (fun (c : Traced.capture) -> c.Traced.entry) (Hashtbl.find_opt p.Traced.captured key)
  in
  let budget = config.Explorer.max_runs - 1 in
  let wk = Traced.redrive p.Traced.spans ~prune:true ~budget ~root ~lookup in
  emit_all oc (Traced.walk_metrics p.Traced.spans wk);
  (* for a coordinator, which holds the report, to check *)
  Proc.metric oc "walk.items" (float_of_int wk.Traced.items);
  Proc.metric oc "walk.suppressed" (float_of_int wk.Traced.suppressed);
  both (fidelity_verdict f) (walk_verdict wk ~report)

let coverage oc ~name ~wall ~layers =
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 layers in
  Proc.emit oc "note %s traced: layer self times" name;
  List.iter
    (fun (l, s) -> Proc.emit oc "note   %-26s %10.4f s %6.1f%%" l s (100.0 *. s /. wall))
    layers;
  Proc.emit oc "note   %-26s %10.4f s of %.4f s wall: coverage %.1f%%" "sum" total wall
    (100.0 *. total /. wall);
  Proc.metric oc "trace.layers_s" total;
  Proc.metric oc "trace.wall_s" wall;
  Proc.metric oc "trace.coverage_pct" (100.0 *. total /. wall)

let spans_path ~dir name = Filename.concat dir (name ^ ".spans.tsv")

(* The traced worker of the distributed workload: the traced runner behind
   [Remote_worker.serve], then its replay and walk analysis. *)
let traced_worker_body w ~dir ~fd oc =
  let config = Workload.config w ~dir and np = Workload.np w in
  let program = Workload.program w in
  let p = Traced.probe () in
  let t0 = Span.now () in
  let runner = Traced.runner p config ~np program in
  let resolve (_ : Wire.job) =
    Ok { Remote_worker.np; runner; rb = Explorer.default_robustness; prune = true }
  in
  let served = Remote_worker.serve ~resolve fd in
  let wall = Span.now () -. t0 in
  Proc.metric oc "worker.busy_share" (Span.total p.Traced.replay_wall /. wall);
  Proc.metric oc "worker.replay_wall_s" (Span.total p.Traced.replay_wall);
  (* the self run executes on the coordinator; re-run it here as the root *)
  let root =
    Prefix_cache.entry_of_record
      (Explorer.dampi_runner config ~np program ~ctx:Explorer.null_ctx
         (Decisions.empty ~np) ~fork_index:(-1))
  in
  let verdict = analyse_replays oc p w ~dir ~root:(Some root) ~report:None in
  Proc.metric oc "worker.layers_s"
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Traced.layer_sums p.Traced.spans));
  Traced.write_spans p.Traced.spans (spans_path ~dir (Workload.name w ^ "-worker"));
  report_verdict oc
    (both verdict
       (match served with
       | `Shutdown -> Ok ()
       | `Disconnected -> Error "worker disconnected"
       | `Rejected r -> Error ("worker rejected: " ^ r)))

(* A deterministic sample of [k] elements, chosen by [seed]. *)
let sample ~seed k xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min k n))

let traced_child w ~dir ~seed oc =
  let config = Workload.config w ~dir and np = Workload.np w in
  let program = Workload.program w in
  let name = Workload.name w in
  let p = Traced.probe () in
  let sp = p.Traced.spans in
  let runner = Traced.runner p config ~np program in
  match w with
  | Workload.Cold ->
      Proc.emit oc "ready";
      let t0 = Span.now () in
      let report = Explorer.explore ~config ~np runner in
      let wall = Span.now () -. t0 in
      let verdict = analyse_replays oc p w ~dir ~root:None ~report:(Some report) in
      per_replay_counts oc report;
      let replay = Span.total p.Traced.replay_wall in
      Proc.metric oc "replay.share" (replay /. wall);
      Proc.metric oc "explorer.self_us"
        (1e6
        *. (wall -. replay -. Span.total p.Traced.capture_time)
        /. float_of_int report.Report.interleavings);
      coverage oc ~name ~wall ~layers:(Traced.layer_sums sp);
      Traced.write_spans sp (spans_path ~dir name);
      report_verdict oc (both (Workload.check w report) verdict)
  | Workload.Warm ->
      Proc.emit oc "ready";
      let t0 = Span.now () in
      let report = Explorer.explore ~config ~np runner in
      let wall = Span.now () -. t0 in
      let pristine = Filename.concat dir "pristine.cache" in
      let timed layer f = Span.around sp (Span.layer sp layer) f in
      Gc.full_major ();
      let budget = Prefix_cache.default_budget_bytes in
      let pc = Prefix_cache.create ~label:(Workload.label w) ~budget_bytes:budget () in
      let loaded = timed "cache.load" (fun () -> Prefix_cache.load pc pristine) in
      let l_find = Span.layer sp "cache.find" in
      let lookup ~key:_ d = Span.around sp l_find (fun () -> Prefix_cache.find pc d) in
      let root = lookup ~key:"-" [] in
      let verdict, visited =
        match (loaded, root) with
        | Error e, _ -> (Error ("sidecar: " ^ e), [])
        | Ok (), None -> (Error "sidecar lacks the self run", [])
        | Ok (), Some root ->
            let wk =
              Traced.redrive sp ~prune:true ~budget:(config.Explorer.max_runs - 1) ~root
                ~lookup
            in
            emit_all oc (Traced.walk_metrics sp wk);
            (walk_verdict wk ~report:(Some report), wk.Traced.visited)
      in
      let fresh = Prefix_cache.create ~label:(Workload.label w) ~budget_bytes:budget () in
      let l_add = Span.layer sp "cache.add" in
      List.iter (fun (d, e) -> Span.around sp l_add (fun () -> Prefix_cache.add fresh d e)) visited;
      let scratch = Filename.concat dir "resave" in
      let saved = timed "cache.save" (fun () -> Prefix_cache.save pc (scratch ^ ".cache")) in
      let ck =
        match Checkpoint.load (Workload.checkpoint_path ~dir) with
        | Error e -> Error ("checkpoint: " ^ e)
        | Ok c -> (
            match timed "checkpoint.save" (fun () -> Checkpoint.save c scratch) with
            | Checkpoint.Written -> Ok ()
            | Checkpoint.Degraded e -> Error ("checkpoint save: " ^ e))
      in
      remove scratch;
      remove (scratch ^ ".cache");
      let total name = fst (Span.layer_total sp name) in
      Proc.metric oc "cache.load_s" (total "cache.load");
      Proc.metric oc "cache.save_s" (total "cache.save");
      Proc.metric oc "checkpoint.save_s" (total "checkpoint.save");
      Proc.metric oc "cache.add_us" (Span.layer_mean_us sp "cache.add");
      let hits = Workload.counter report "cache.hits"
      and misses = Workload.counter report "cache.misses" in
      Proc.metric oc "cache.hit_ratio"
        (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      Proc.metric oc "cache.sidecar_bytes"
        (float_of_int (Unix.stat pristine).Unix.st_size);
      (* the cache must hold what the shipped runner computes *)
      let caps =
        List.map
          (fun (d, e) ->
            ( Checkpoint.schedule_key d,
              {
                Traced.schedule = d;
                fork_index = List.length d - 1;
                entry = e;
                outcome = None;
              } ))
          (sample ~seed 500 visited)
      in
      let f = Traced.fidelity config ~np program caps in
      Proc.metric oc "trace.fidelity_checked" (float_of_int f.Traced.checked);
      Proc.metric oc "explorer.self_us"
        (1e6 *. wall /. float_of_int report.Report.interleavings);
      coverage oc ~name ~wall ~layers:(Traced.layer_sums sp);
      Traced.write_spans sp (spans_path ~dir name);
      report_verdict oc
        (List.fold_left both (Workload.check w report)
           [
             verdict;
             fidelity_verdict f;
             ck;
             (match saved with
             | Checkpoint.Written -> Ok ()
             | Checkpoint.Degraded e -> Error ("cache save: " ^ e));
           ])
  | Workload.Dist1 ->
      let d =
        Dist.start w ~dir ~traced:true ~close:[ out_fd oc ]
          ~worker:(traced_worker_body w ~dir)
      in
      Proc.emit oc "ready";
      let t0 = Span.now () in
      let report = Explorer.explore ~config ~distribute:d.Dist.setup ~np runner in
      let wall = Span.now () -. t0 in
      let wr = Dist.finish d in
      let get n = Option.value (List.assoc_opt n wr.Proc.metrics) ~default:0.0 in
      (* the worker's replay and walk layers, passed on *)
      emit_all oc (List.filter (fun (n, _) -> Table.find n <> None) wr.Proc.metrics);
      List.iter (fun n -> Proc.emit oc "note %s" n) wr.Proc.notes;
      per_replay_counts oc report;
      let local = Span.total p.Traced.replay_wall in
      Proc.metric oc "replay.share" ((get "worker.replay_wall_s" +. local) /. wall);
      Proc.metric oc "explorer.self_us"
        (1e6
        *. (wall -. local -. Span.total p.Traced.capture_time)
        /. float_of_int report.Report.interleavings);
      let wire = Wire_probe.analyse sp ~down:d.Dist.down ~up:d.Dist.up in
      let n = float_of_int report.Report.interleavings in
      let per_frame s = 1e6 *. s /. float_of_int (max 1 wire.Wire_probe.frames) in
      Proc.metric oc "wire.bytes_per_interleaving" (float_of_int wire.Wire_probe.bytes /. n);
      Proc.metric oc "wire.frames_per_interleaving" (float_of_int wire.Wire_probe.frames /. n);
      Proc.metric oc "wire.decode_us" (per_frame wire.Wire_probe.decode_s);
      Proc.metric oc "wire.encode_us" (per_frame wire.Wire_probe.encode_s);
      Proc.metric oc "coordinator.leases" (float_of_int wire.Wire_probe.leases);
      Proc.metric oc "coordinator.items_per_lease"
        (float_of_int wire.Wire_probe.leased_items
        /. float_of_int (max 1 wire.Wire_probe.leases));
      (* both processes' named layers, against the coordinator's wall *)
      coverage oc ~name ~wall
        ~layers:
          (("worker layers", get "worker.layers_s")
          :: ("wire.decode", wire.Wire_probe.decode_s)
          :: ("wire.encode", wire.Wire_probe.encode_s)
          :: Traced.layer_sums sp);
      Traced.write_spans sp (spans_path ~dir name);
      let wire_ok =
        Perfbench.Check.verdict
          (Perfbench.Check.int "wire.malformed" ~expected:0 wire.Wire_probe.malformed
          :: Perfbench.Check.int "wire.leased_items"
               ~expected:(report.Report.interleavings - 1)
               wire.Wire_probe.leased_items
          :: redrive_counts ~report
               ~items:(int_of_float (get "walk.items"))
               ~suppressed:(int_of_float (get "walk.suppressed")))
      in
      report_verdict oc
        (List.fold_left both (Workload.check w report) [ wr.Proc.outcome; wire_ok ])

(* ---- driving the children ---- *)

(* Fork [body], time it up to its [ready] line, and collect its result. *)
let run_child body =
  let t0 = Span.monotonic () in
  let c = Proc.fork body in
  let ready = Proc.await_ready c in
  let setup = Span.monotonic () -. t0 in
  let r = Proc.finish c in
  List.iter (fun n -> log "%s" n) r.Proc.notes;
  let r =
    if ready then r
    else { r with Proc.outcome = both r.Proc.outcome (Error "child never got ready") }
  in
  (match r.Proc.outcome with Error e -> log "FAILED: %s" e | Ok () -> ());
  (setup, r)

let warm_prepare ~dir ~n =
  let ck = Workload.checkpoint_path ~dir and side = Workload.sidecar_path ~dir in
  let results =
    List.init n (fun i ->
        remove ck;
        remove side;
        let s, r = run_child (warm_setup_child ~dir) in
        log "set-up %d: cold cached run %.3f s" (i + 1) s;
        (s, r))
  in
  if Sys.file_exists side then copy side (Filename.concat dir "pristine.cache");
  results

let restore_pristine ~dir =
  copy (Filename.concat dir "pristine.cache") (Workload.sidecar_path ~dir)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let failures rs = List.length (List.filter (fun (r : Proc.result) -> Result.is_error r.Proc.outcome) rs)

(* Time spent on the host-speed reference before each verification, as a
   share of the previous verification's: about an eighth of the run, spread
   over it. *)
let calib_per_verify = 0.15

(* The calibrator: one child for the whole run. It builds the kernel's
   chain once and, each time the parent writes a number of seconds, times
   the kernel over and over for about that long (at least once), then says
   [ready]. At end of input it reports every time as a [calib_s] metric.
   The chain lives only there, so the parent stays small and its forks
   cheap. *)
let calibrator_body cmd oc =
  let chain = Calib.chain () in
  let ic = Unix.in_channel_of_descr cmd in
  let times = ref [] and ok = ref true in
  Proc.emit oc "ready";
  let rec serve () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let seconds = float_of_string line and start = Span.monotonic () in
        let rec go () =
          let t0 = Span.monotonic () in
          ok := Calib.kernel chain && !ok;
          let t1 = Span.monotonic () in
          times := (t1 -. t0) :: !times;
          if t1 -. start < seconds then go ()
        in
        go ();
        Proc.emit oc "ready";
        serve ()
  in
  serve ();
  List.iter (Proc.metric oc "calib_s") (List.rev !times);
  if !ok then Proc.emit oc "ok" else Proc.emit oc "fail calibration kernel computed a wrong result"

let timed_run w ~dir ~seconds =
  (* The host-speed reference is timed before the set-up, before every
     verification and after the last. *)
  let cmd, ask = Unix.pipe () in
  let calibrator = Proc.fork ~close:[ ask ] (calibrator_body cmd) in
  Unix.close cmd;
  let ask = Unix.out_channel_of_descr ask in
  let calibrated = ref (Proc.await_ready calibrator) and last_verify = ref 2.0 in
  let calibrate () =
    Printf.fprintf ask "%.17g\n%!" (calib_per_verify *. !last_verify);
    calibrated := Proc.await_ready calibrator && !calibrated
  in
  calibrate ();
  let prep = if w = Workload.Warm then warm_prepare ~dir ~n:warm_setups else [] in
  let setups = ref (List.map fst prep) and runs = ref [] in
  let start = Span.monotonic () and last = ref 0.0 in
  (* Start another verification while it should end no later than half of
     one past the deadline, so a run lasts about [seconds]. *)
  while !runs = [] || Span.monotonic () -. start +. (0.5 *. !last) < float_of_int seconds do
    let t0 = Span.monotonic () in
    if w = Workload.Warm then restore_pristine ~dir
    else
      for _ = 1 to setup_samples do
        setups := fst (run_child (verify_child ~setup_only:true w ~dir)) :: !setups
      done;
    calibrate ();
    let s, r = run_child (verify_child w ~dir) in
    last := Span.monotonic () -. t0;
    if w <> Workload.Warm then setups := s :: !setups;
    runs := r :: !runs;
    match List.assoc_opt "verify_s" r.Proc.metrics with
    | Some v ->
        last_verify := v;
        log "%s: verification %d took %.3f s" (Workload.name w) (List.length !runs) v
    | None -> ()
  done;
  calibrate ();
  close_out ask;
  let calib = Proc.finish calibrator in
  let calibs =
    [
      (if !calibrated then calib
       else { calib with Proc.outcome = both calib.Proc.outcome (Error "calibrator ended early") });
    ]
  in
  let values name rs =
    List.concat_map
      (fun (r : Proc.result) ->
        List.filter_map (fun (n, v) -> if n = name then Some v else None) r.Proc.metrics)
      rs
  in
  let runs = List.rev !runs in
  let over stat name = match values name runs with [] -> nan | v -> stat v in
  (* How much slower than the reference host this run's host was. *)
  let slowdown = Stats.lower_quartile (values "calib_s" calibs) /. Calib.reference_s in
  log "host: calibration kernel over %d repeats: lower quartile %.4f s, slowdown %.3f"
    (List.length (values "calib_s" calibs)) (slowdown *. Calib.reference_s) slowdown;
  (match values "verify_s" runs with
  | _ :: _ :: _ as v ->
      log "verify_s over %d repeats, as measured: median %.3f s, quartile spread %.1f%%"
        (List.length v) (Stats.median v) (100.0 *. Stats.spread v)
  | _ -> ());
  let all = runs @ List.map snd prep @ calibs in
  (* A verification's time is taken at the run's lower quartile, as is the
     kernel's: the host's interference only ever adds time, so the fast end
     of the repeats follows the program, and their middle the host. Then
     times are scaled to the reference host. *)
  let verify_s = over Stats.lower_quartile "verify_s" /. slowdown in
  {
    attempted = List.length all;
    failed = failures all;
    metrics =
      [
        ("verify_s", verify_s);
        ("interleavings_per_s", over Stats.median "interleavings" /. verify_s);
        ("cpu_s", over Stats.lower_quartile "cpu_s" /. slowdown);
        ("peak_heap_mb", over Stats.median "peak_heap_mb");
        ("setup_s", Stats.median !setups /. slowdown);
      ];
  }

let from (r : Proc.result) name = List.assoc_opt name r.Proc.metrics

(* One untraced and one traced verification of [w]; the tracing overhead is
   the ratio of their walls. *)
let traced_pair w ~dir ~seed =
  if w = Workload.Warm then restore_pristine ~dir;
  let _, untraced = run_child (verify_child w ~dir) in
  if w = Workload.Warm then restore_pristine ~dir;
  let _, traced = run_child (traced_child w ~dir ~seed) in
  let overhead =
    match (from traced "trace.wall_s", from untraced "verify_s") with
    | Some t, Some u -> t /. u
    | _ -> nan
  in
  log "%s: tracing overhead %.2fx (traced wall over untraced verify_s)" (Workload.name w)
    overhead;
  (untraced, traced, overhead)

(* The metrics of the wire layers and the two processes around them. *)
let wire_layer name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "wire."; "worker."; "coordinator." ]

let trace_run w ~dir ~seed =
  let prep = if w = Workload.Warm then warm_prepare ~dir ~n:1 else [] in
  let untraced, traced, overhead = traced_pair w ~dir ~seed in
  (* adlb2-cold's walk is driven once more through the coordinator and one
     forked worker, as [verify --distribute 1] runs it: the wire layers. *)
  let dist = if w = Workload.Cold then Some (traced_pair Workload.Dist1 ~dir ~seed) else None in
  let value (m : Table.metric) =
    let n = m.Table.name in
    let v =
      match dist with
      (* the CPU split from the untraced run, which tracing does not inflate *)
      | Some (d_untraced, _, _) when n = "worker.cpu_s" || n = "coordinator.cpu_s" ->
          from d_untraced n
      | Some (_, d_traced, _) when wire_layer n -> from d_traced n
      | _ -> if n = "trace.overhead" then Some overhead else from traced n
    in
    (n, Option.value v ~default:0.0)
  in
  let metrics = List.map value Table.per_layer in
  List.iter
    (fun ((n, v), (m : Table.metric)) ->
      log "  %-30s %14.4f %-6s moves %s" n v m.Table.unit_ m.Table.moves)
    (List.combine metrics Table.per_layer);
  let all =
    [ untraced; traced ]
    @ (match dist with Some (a, b, _) -> [ a; b ] | None -> [])
    @ List.map snd prep
  in
  { attempted = List.length all; failed = failures all; metrics }

(* ---- output ---- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~(outcome : outcome) =
  let unit_of name =
    match Table.find name with Some m -> m.Table.unit_ | None -> ""
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) outcome.metrics in
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) (unit_of n))
         outcome.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (outcome.failed = 0 && finite) outcome.attempted outcome.failed metrics

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: adlb2-cold adlb2-warm";
  exit 2

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 10 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        (match Workload.of_name v with
        | Some w -> workload := Some w
        | None ->
            prerr_endline ("unknown workload " ^ v);
            usage ());
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match int_of_string_opt v with Some n when n >= 1 -> seconds := n | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  let dir = Filename.concat ".perfbench" (Workload.name w) in
  mkdir_p dir;
  let outcome =
    if !trace then trace_run w ~dir ~seed:!seed else timed_run w ~dir ~seconds:!seconds
  in
  List.iter remove
    [
      Workload.checkpoint_path ~dir;
      Workload.sidecar_path ~dir;
      Filename.concat dir "pristine.cache";
      Filename.concat dir "wire.down";
      Filename.concat dir "wire.up";
    ];
  print_result ~outcome
