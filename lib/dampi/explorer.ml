(** The schedule generator and replay driver (Fig. 1, §II-B).

    After the initial self run, DAMPI walks the space of match decisions
    depth-first: it forces the alternate matches of the {e last} epoch
    first, then the penultimate, and so on, re-executing the target program
    under each Epoch-Decisions plan. The walk is stateless — every
    interleaving is a full re-execution from [MPI_Init] — so it relies on
    the runtime's determinism for sound replay.

    The explorer is parametric in the [runner] that executes one
    interleaving; the ISP baseline reuses the same walk and the same
    runner with its centralized-cost layer on top, which is exactly the
    comparison of Figs. 5/6 (same coverage, different per-run cost).

    Execution is delegated to an {!Executor.t} backend: the in-process
    domain pool ({!Scheduler}) by default, or — the paper's distributed
    mode — a {!Coordinator} leasing the frontier to worker processes over
    sockets. Both drain the same frontier and feed the same counting path,
    so the canonical report is identical whichever executes the replays. *)

module Runtime = Mpi.Runtime
module Coroutine = Sim.Coroutine

let src = Obs.Log.src "dampi.explorer"

module Log = (val Obs.Log.src_log src : Obs.Log.LOG)

type checkpoint_cfg = Executor.checkpoint_cfg = {
  path : string;
  every : int;  (** completed replays between periodic writes; 0 = only on interrupt/finish *)
  label : string;  (** workload identity stored in (and validated against) the file *)
}

type robustness = Executor.robustness = {
  replay_timeout : float option;
  max_replay_steps : int option;
  max_retries : int;
  retry_backoff : float;
  fault : Mpi.Fault.spec option;
  net_fault : Mpi.Fault.Net.spec option;
  checkpoint : checkpoint_cfg option;
  interrupt_after : int option;
}

let default_robustness = Executor.default_robustness

type config = {
  state_config : State.config;
  cost : Runtime.cost_model;
  max_runs : int;  (** interleaving budget; [max_int] = exhaustive *)
  check_leaks : bool;
  stop_on_first_error : bool;
  jobs : int;  (** worker domains; 1 = sequential depth-first walk *)
  trace : bool;  (** collect a span timeline of the exploration *)
  prune : bool;
      (** sleep-set pruning where {!Executor.run} expands an item ({!Prune}) *)
  prefix_cache : int option;
      (** memoize replay artifacts by schedule ({!Prefix_cache}), with this
          LRU byte budget; persisted as a checkpoint sidecar *)
  profile : bool;
      (** phase-timing histograms ([profile.match_loop_s],
          [profile.clock_merge_s], [profile.sched_wait_s],
          [profile.wire_io_s]) in the metrics output; each timed phase
          costs a clock read, so off by default *)
  progress : ((string * string) list -> unit) option;
      (** live-progress sink, called (throttled, ~2 Hz) with exploration
          key/values: replays/sec, frontier depth, prune/cache rates,
          per-worker figures. Drives [--progress]; in distributed mode the
          run-level pairs also ride the [Progress] frames the coordinator
          streams to observers ([dampi top]) *)
  robustness : robustness;
}

let default_config =
  {
    state_config = State.default_config;
    cost = Runtime.default_cost;
    max_runs = max_int;
    check_leaks = true;
    stop_on_first_error = false;
    jobs = 1;
    trace = false;
    prune = false;
    prefix_cache = None;
    profile = false;
    progress = None;
    robustness = default_robustness;
  }

type run_ctx = Executor.run_ctx = {
  worker : int;
  metrics : Obs.Metrics.shard option;
  poison : (unit -> bool) option;
  salt : int;
}

let null_ctx = Executor.null_ctx

type runner = Executor.runner

(* ---- The DAMPI runner: one interposed execution ---- *)

let errors_of_run ~check_leaks ~(outcome : Coroutine.outcome) ~leaks
    ~shadow_ctxs ~(st : State.t) =
  let errors = ref [] in
  (match outcome with
  | Coroutine.All_finished -> ()
  | Coroutine.Deadlock blocked ->
      (* Ranks parked in the tool's finalize barrier completed their user
         code; naming that keeps the report pointing at the real culprits. *)
      let describe (b : Coroutine.blocked_info) =
        let reason =
          if
            b.reason = "collective barrier on dup(world)"
            || b.reason = "collective comm_dup on world"
          then "finished its program (parked in tool finalize)"
          else b.reason
        in
        (b.pid, reason)
      in
      errors :=
        Report.Deadlock { blocked = List.map describe blocked } :: !errors
  | Coroutine.Crashed (pid, exn, _) ->
      errors :=
        Report.Crash { pid; message = Printexc.to_string exn } :: !errors);
  if check_leaks then begin
    (* Leaks are only meaningful for runs that completed finalize. *)
    (match outcome with
    | Coroutine.All_finished ->
        let { Runtime.comm_leaks; req_leaks; _ } = leaks in
        List.iter
          (fun (pid, leaked) ->
            let user_leaked =
              List.filter
                (fun (l : Runtime.leaked_comm) ->
                  not (List.mem l.Runtime.leaked_ctx shadow_ctxs))
                leaked
            in
            if user_leaked <> [] then
              errors :=
                Report.Comm_leak
                  {
                    pid;
                    labels =
                      List.map
                        (fun (l : Runtime.leaked_comm) ->
                          Printf.sprintf "%s(ctx=%d)" l.Runtime.leaked_label
                            l.Runtime.leaked_ctx)
                        user_leaked;
                  }
                :: !errors)
          comm_leaks;
        Array.iteri
          (fun pid count ->
            if count > 0 then
              errors := Report.Request_leak { pid; count } :: !errors)
          req_leaks
    | Coroutine.Deadlock _ | Coroutine.Crashed _ -> ())
  end;
  List.iter
    (fun (w : State.monitor_warning) ->
      errors :=
        Report.Monitor_alert
          { pid = w.State.warn_pid; epoch_id = w.State.warn_epoch_id; op = w.State.warn_op }
        :: !errors)
    (State.warnings st);
  if st.State.divergences > 0 then
    errors := Report.Replay_divergence { count = st.State.divergences } :: !errors;
  List.rev !errors

(* The fault instance for one (replay, attempt), derived from the configured
   spec and the context's salt. *)
let fault_of_ctx (ctx : run_ctx) = function
  | None -> Mpi.Fault.none
  | Some spec -> Mpi.Fault.make spec ~salt:ctx.salt

type layer =
  Runtime.t ->
  (module Mpi.Mpi_intf.MPI_CORE) ->
  (module Mpi.Mpi_intf.MPI_CORE)

let dampi_runner ?(layer : layer option) config ~np
    (program : Mpi.Mpi_intf.program) : runner =
 fun ~ctx plan ~fork_index ->
  let fault = fault_of_ctx ctx config.robustness.fault in
  let rt =
    Runtime.create ~cost:config.cost ?metrics:ctx.metrics
      ~profile:config.profile ~fault ~np ()
  in
  let st =
    State.create ~config:config.state_config ?metrics:ctx.metrics
      ~profile:config.profile ?poison:ctx.poison ~np ~plan ~fork_index ()
  in
  (* An injected wedge spins on this hook; the watchdog's poison breaks the
     spin through the same [State.check_poison] path as [--stop-first]. *)
  Runtime.set_interrupt_hook rt (fun () -> State.check_poison st);
  let module B = Mpi.Bind.Make (struct
    let rt = rt
  end) in
  let module W = Interpose.Wrap (B) (struct
    let st = st
  end) in
  let module P = (val program) in
  (* The program runs over [layer] when one is given (the ISP baseline's
     scheduler costs); the tool's own init/finalize stay on [W]. *)
  let main =
    match layer with
    | None ->
        let module Prog = P (W) in
        Prog.main
    | Some layer ->
        let module L = (val layer rt (module W)) in
        let module Prog = P (L) in
        Prog.main
  in
  Runtime.spawn_ranks rt (fun _rank ->
      W.init_tool ();
      main ();
      W.finalize_tool ());
  let outcome = Runtime.run rt in
  State.flush_metrics st;
  (* A poisoned rank surfaces as a crash on [Replay_cancelled]; the run is
     then a cancelled replay, not a finding. *)
  let cancelled =
    match outcome with
    | Coroutine.Crashed (_, State.Replay_cancelled, _) -> true
    | _ -> false
  in
  let leaks = Runtime.leak_report rt in
  {
    Report.run_plan = plan;
    outcome;
    makespan = Runtime.makespan rt;
    new_epochs = (if cancelled then [] else State.completed_epochs st);
    run_errors =
      (if cancelled then []
       else
         errors_of_run ~check_leaks:config.check_leaks ~outcome ~leaks
           ~shadow_ctxs:(W.shadow_ctxs ()) ~st);
    wildcards = State.wildcard_events st;
    cancelled;
  }

(* A run with no tool attached, for overhead baselines (Table II). *)
let native_makespan ?(cost = Runtime.default_cost) ~np program =
  let rt, _outcome = Mpi.Bind.exec ~cost ~np program in
  Runtime.makespan rt

(* ---- The walk over epoch decisions ---- *)

(* One pending guided run: the observed prefix up to a fork, plus the single
   alternate match to force there ({!Checkpoint.item}, so the frontier
   serializes as-is — to a checkpoint file or onto the distributed wire). *)
type item = Checkpoint.item = {
  prefix : Decisions.decision list;  (* observed matches before the fork *)
  choice : Decisions.decision;  (* the alternate match this run forces *)
  sleep : Epoch.summary list;  (* epochs this subtree must not re-expand *)
}

(* Sequential, parallel, and distributed exploration share this one walk:
   the frontier is drained by an executor backend, and each executed item
   is a complete guided replay (fresh Runtime + State inside [runner], so
   workers share no mutable state beyond the queue and the findings
   table). Findings merge under [m] keyed by error signature, keeping the
   canonically smallest reproduction schedule, and the report sorts
   findings by schedule — so the finding set, interleaving count, and
   bounded-epoch count are identical at any worker count and over any
   transport (on an exhaustive exploration; a binding [max_runs] budget
   selects a worker-order-dependent subset of runs by nature). *)
let explore ?(config = default_config) ?resume ?distribute
    ?(fallback_local = false) ~np (runner : runner) : Report.t =
  let started = Unix.gettimeofday () in
  let jobs = max 1 config.jobs in
  let rb = config.robustness in
  (* A checkpoint recording nothing is indistinguishable from a fresh start;
     treat it as one so an interrupt during the self run stays resumable. *)
  let resume =
    match resume with
    | Some (c : Checkpoint.t)
      when c.Checkpoint.totals.runs > 0 || c.Checkpoint.complete ->
        Some c
    | _ -> None
  in
  (* Shard layout: one per worker domain, plus a shard for the scheduler
     or coordinator (whose writes happen under its own lock, or on the
     single driving thread), plus a shard for the prefix cache (written under
     its own mutex) and the checkpoint-write counter (under [m]). The merged
     snapshot of a jobs=N exploration equals the jobs=1 one for every
     series that is a property of the run set. *)
  let registry = Obs.Metrics.create ~shards:(jobs + 2) () in
  let worker_shard w = Obs.Metrics.shard registry w in
  let replays_c =
    Array.init jobs (fun w ->
        Obs.Metrics.counter (worker_shard w) "explorer.replays")
  in
  let retries_c =
    Array.init jobs (fun w ->
        Obs.Metrics.counter (worker_shard w) "explorer.retries")
  in
  let timeouts_c =
    Array.init jobs (fun w ->
        Obs.Metrics.counter (worker_shard w) "explorer.timeouts")
  in
  let faults_c =
    Array.init jobs (fun w ->
        Obs.Metrics.counter (worker_shard w) "explorer.fault_aborts")
  in
  let wall_h =
    Array.init jobs (fun w ->
        Obs.Metrics.histogram (worker_shard w) "explorer.replay_wall_s")
  in
  let vtime_h =
    Array.init jobs (fun w ->
        Obs.Metrics.histogram (worker_shard w) "explorer.replay_vtime_s")
  in
  let cancel_h =
    Array.init jobs (fun w ->
        Obs.Metrics.histogram (worker_shard w) "explorer.cancel_latency_s")
  in
  let pruned_c =
    Array.init jobs (fun w ->
        Obs.Metrics.counter (worker_shard w) "prune.children_suppressed")
  in
  let aux_shard = Obs.Metrics.shard registry (jobs + 1) in
  let cache =
    Option.map
      (fun budget_bytes ->
        let label =
          match rb.checkpoint with Some ck -> ck.label | None -> ""
        in
        Prefix_cache.create ~metrics:aux_shard ~label ~budget_bytes ())
      config.prefix_cache
  in
  let tracer =
    if config.trace then Some (Obs.Trace.create ~shards:jobs ()) else None
  in
  let m = Mutex.create () in
  let findings = Report.Merge.create () in
  (* The canonical counters, moved under [m]; a resume starts from a copy
     of the checkpoint's. *)
  let totals =
    match resume with
    | Some c ->
        let t = c.Checkpoint.totals in
        { t with Checkpoint.runs = t.Checkpoint.runs }
    | None -> Checkpoint.zero_totals ()
  in
  let harness_failures : Report.harness_failure list ref = ref [] in
  let error_found = Atomic.make false in
  let cancel_at = Atomic.make 0.0 in
  let interrupt_requested = Atomic.make false in
  (* Keys of replays already counted. [resume_completed] is immutable during
     the run (safe to read from any worker without the lock); newly counted
     keys accumulate separately under [m] for the next checkpoint write. *)
  let resume_completed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let new_completed : string list ref = ref [] in
  let completed_since = ref 0 in
  let exec_ref : Executor.t option ref = ref None in
  (* Accumulated worker telemetry from a distributed run, labeled by
     session id — captured when the coordinator backend finishes driving
     and folded into the final report so distributed metric totals match
     an in-process run. *)
  let remote_telemetry : (string * Obs.Metrics.snapshot) list ref =
    ref []
  in
  (* Highest fencing epoch known to this run: the checkpoint's floor,
     raised by whatever the coordinator grants. Persisted so a restarted
     coordinator starts above every pre-crash grant. *)
  let epoch_hi =
    ref (match resume with Some c -> c.Checkpoint.epoch | None -> 0)
  in
  (* The frontier before any backend exists (the self run's children, or a
     resumed checkpoint's items): if the exploration is cut before the
     backend starts, this is what the checkpoint must carry. *)
  let frontier_fallback : item list ref = ref [] in
  (match resume with
  | None -> ()
  | Some c ->
      List.iter
        (fun (f : Report.finding) ->
          Report.Merge.add findings f;
          match f.Report.error with
          | Report.Deadlock _ | Report.Crash _ -> Atomic.set error_found true
          | _ -> ())
        c.Checkpoint.findings;
      List.iter
        (fun k -> Hashtbl.replace resume_completed k ())
        c.Checkpoint.completed);
  (* Warm the cache from the checkpoint's sidecar — on resume (the
     expand-only re-runs then cost a lookup, not a replay) but also on a
     fresh start, where a sidecar left by a previous complete run turns the
     whole re-verification into lookups. The label stored in the sidecar
     must match the checkpoint label, so a stale file from another workload
     or config is refused; a missing or corrupt sidecar costs warmth, not
     correctness. *)
  (match (cache, rb.checkpoint) with
  | Some pc, Some ck when Sys.file_exists (ck.path ^ ".cache") ->
      ignore (Prefix_cache.load pc (ck.path ^ ".cache"))
  | _ -> ());
  let need_poison =
    config.stop_on_first_error || rb.checkpoint <> None
    || rb.replay_timeout <> None || rb.max_replay_steps <> None
    || rb.fault <> None || rb.interrupt_after <> None
  in
  let root_span =
    Option.map
      (fun tr ->
        Obs.Trace.begin_span (Obs.Trace.sink tr 0)
          ~args:[ ("np", Obs.Trace.Int np); ("jobs", Obs.Trace.Int jobs) ]
          "explore")
      tracer
  in
  let root_id =
    match root_span with Some sp -> Obs.Trace.span_id sp | None -> -1
  in
  let worker_runs = Array.make jobs 0 in
  let worker_wall = Array.make jobs 0.0 in
  let worker_vtime = Array.make jobs 0.0 in
  (* The per-worker rows of the report; only the pool counts queue waits. *)
  let worker_stats ?(queue_waits = fun _ -> 0) () =
    List.init jobs (fun i ->
        {
          Report.worker_id = i;
          runs_executed = worker_runs.(i);
          queue_waits = queue_waits i;
          wall_seconds = worker_wall.(i);
          virtual_seconds = worker_vtime.(i);
        })
  in
  (* Caller holds [m]. Findings go through {!Report.Merge}: bucketed by
     signature but deduplicated by structural error value, so two distinct
     findings whose errors merely render identically can no longer shadow
     each other mid-merge. *)
  let record_findings errors ~run_index ~schedule =
    List.iter
      (fun error ->
        (match error with
        | Report.Monitor_alert _ -> totals.alerts <- totals.alerts + 1
        | _ -> ());
        Report.Merge.add findings { Report.error; run_index; schedule })
      errors
  in
  let sorted_findings () = Report.Merge.to_list findings in
  (* ---- live progress: the [--progress] ticker and observer frames ---- *)
  (* Caller holds [m]. Run-level figures — what the coordinator appends to
     the frames it streams to observers (its own pairs already carry
     frontier depth and per-worker heartbeat ages). *)
  let run_kvs now =
    let elapsed = now -. started in
    let rps =
      if elapsed > 0.0 then float_of_int totals.runs /. elapsed else 0.0
    in
    let cache_kvs =
      match cache with
      | None -> []
      | Some pc ->
          let hits, misses, bytes, _ = Prefix_cache.stats pc in
          [
            ("cache.hits", string_of_int hits);
            ("cache.misses", string_of_int misses);
            ("cache.bytes", string_of_int bytes);
          ]
    in
    [
      ("runs", string_of_int totals.runs);
      ("replays_per_s", Printf.sprintf "%.1f" rps);
      ("pruned", string_of_int totals.pruned);
      ("findings", string_of_int (List.length (sorted_findings ())));
    ]
    @ cache_kvs
  in
  (* Caller holds [m]. The local ticker additionally sees the frontier
     depth and per-worker run counts (its "lag" signal: a straggler's
     count stalls while its siblings advance). *)
  let ticker_kvs now =
    let frontier =
      match !exec_ref with
      | Some e -> List.length (e.Executor.snapshot ())
      | None -> List.length !frontier_fallback
    in
    let per_worker =
      List.init jobs (fun i ->
          (Printf.sprintf "w%d.runs" i, string_of_int worker_runs.(i)))
    in
    (("frontier", string_of_int frontier) :: run_kvs now) @ per_worker
  in
  let last_tick = ref 0.0 in
  (* Caller holds [m]. Throttled to ~2 Hz so a hot counting path never
     pays for rendering. *)
  let maybe_progress () =
    match config.progress with
    | None -> ()
    | Some emit ->
        let now = Unix.gettimeofday () in
        if now -. !last_tick >= 0.5 then begin
          last_tick := now;
          emit (ticker_kvs now)
        end
  in
  (* Fold one item's result into the totals, wherever it ran: on a pool
     domain, in the self run, or on a remote worker (from its wire result).
     One rule on every backend: the attempt counters are host-side events
     and always move; the run's own contribution — count, virtual time,
     bounded epochs, suppressed children, findings, completed key — moves
     only for a fresh item, all at once under [m]. An expand-only re-run of
     a resume was counted before the cut, its suppressions included.
     Everything here is a pure function of the run set, so the report is
     transport-independent. *)
  let ingest ~worker ~schedule (res : Executor.result) =
    let r = res.Executor.run in
    let fresh = not (Hashtbl.mem resume_completed r.Wire.key) in
    (* Per-worker shards: this domain (or the coordinator's single thread,
       as worker 0) is the only writer. *)
    Obs.Metrics.add timeouts_c.(worker) r.Wire.timeouts;
    Obs.Metrics.add retries_c.(worker) r.Wire.retries;
    Obs.Metrics.add faults_c.(worker) r.Wire.transients;
    if res.Executor.poisoned then
      Obs.Metrics.observe cancel_h.(worker)
        (Float.max 0.0 (Unix.gettimeofday () -. Atomic.get cancel_at));
    (match r.Wire.payload with
    | Some p ->
        if res.Executor.replayed then begin
          Obs.Metrics.incr replays_c.(worker);
          Obs.Metrics.observe vtime_h.(worker) p.Wire.vtime
        end;
        if fresh then Obs.Metrics.add pruned_c.(worker) p.Wire.pruned
    | None -> ());
    Mutex.lock m;
    totals.timed_out <- totals.timed_out + r.Wire.timeouts;
    totals.retried <- totals.retried + r.Wire.retries;
    totals.crashed <- totals.crashed + r.Wire.transients;
    if res.Executor.poisoned then totals.cancelled <- totals.cancelled + 1;
    (match r.Wire.payload with
    | Some p when fresh ->
        if schedule = [] then begin
          (* The self run's own figures. *)
          totals.wildcards <- res.Executor.wildcards;
          totals.first_makespan <- p.Wire.vtime
        end;
        let index = totals.runs in
        totals.runs <- index + 1;
        totals.total_vtime <- totals.total_vtime +. p.Wire.vtime;
        totals.bounded <- totals.bounded + p.Wire.bounded;
        totals.pruned <- totals.pruned + p.Wire.pruned;
        worker_runs.(worker) <- worker_runs.(worker) + 1;
        worker_vtime.(worker) <- worker_vtime.(worker) +. p.Wire.vtime;
        record_findings p.Wire.errors ~run_index:index ~schedule;
        new_completed := r.Wire.key :: !new_completed;
        incr completed_since;
        if
          List.exists
            (function Report.Deadlock _ | Report.Crash _ -> true | _ -> false)
            p.Wire.errors
        then begin
          if not (Atomic.get error_found) then
            Atomic.set cancel_at (Unix.gettimeofday ());
          Atomic.set error_found true
        end;
        (match rb.interrupt_after with
        | Some limit when totals.runs >= limit ->
            Atomic.set interrupt_requested true
        | _ -> ())
    | _ -> ());
    maybe_progress ();
    Mutex.unlock m
  in
  (* Serialize the current cut. [m] stays held through the file write: the
     counters, completed set, and frontier must come from one consistent
     instant (the backend snapshot is itself atomic, and [ingest] moves all
     of an item's counts at once, while the item is still in flight), and
     checkpoint writes are rare enough that stalling workers briefly is
     cheaper than a torn cut. *)
  (* Injected-ENOSPC stream for persistence writes, from the chaos spec.
     A degraded write must never abort the exploration: the failure is
     classified, counted, and logged loudly, and the run continues on the
     previous intact checkpoint. *)
  let fs_fault =
    match rb.net_fault with
    | Some ns when ns.Mpi.Fault.Net.write_fail > 0.0 ->
        Some (Mpi.Fault.Net.fs_fault ns ~salt:1)
    | _ -> None
  in
  let ck_write_failures =
    Obs.Metrics.counter aux_shard "checkpoint.write_failures"
  in
  let degraded_write what path = function
    | Checkpoint.Written -> ()
    | Checkpoint.Degraded msg ->
        Obs.Metrics.incr ck_write_failures;
        Log.warn (fun m ->
            m
              "%s write to %s failed (%s) — continuing without this cut; \
               the previous on-disk snapshot, if any, is intact"
              what path msg)
  in
  let write_checkpoint () =
    match rb.checkpoint with
    | None -> ()
    | Some c ->
        Mutex.lock m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock m)
          (fun () ->
            let frontier =
              match !exec_ref with
              | Some e -> e.Executor.snapshot ()
              | None -> !frontier_fallback
            in
            (match !exec_ref with
            | Some e -> epoch_hi := max !epoch_hi (e.Executor.fence_epoch ())
            | None -> ());
            let completed =
              Hashtbl.fold (fun k () acc -> k :: acc) resume_completed []
              @ !new_completed
            in
            degraded_write "checkpoint" c.path
              (Checkpoint.save ?fault:fs_fault
                 {
                   Checkpoint.label = c.label;
                   np;
                   complete =
                     frontier = [] && not (Atomic.get interrupt_requested);
                   totals;
                   findings = sorted_findings ();
                   completed;
                   frontier;
                   epoch = !epoch_hi;
                 }
                 c.path);
            match cache with
            | Some pc ->
                degraded_write "prefix-cache sidecar" (c.path ^ ".cache")
                  (Prefix_cache.save ?fault:fs_fault pc (c.path ^ ".cache"))
            | None -> ())
  in
  let maybe_periodic_checkpoint () =
    match rb.checkpoint with
    | Some c when c.every > 0 ->
        let due =
          Mutex.lock m;
          let d = !completed_since >= c.every in
          if d then completed_since := 0;
          Mutex.unlock m;
          d
        in
        if due then write_checkpoint ()
    | _ -> ()
  in
  (* One item on this process ({!Executor.run}), polled by the interrupt
     and stop-first flags, with the pool-only timing: a span per attempt
     and the per-attempt wall. *)
  let run_item ~worker ~name ~sleep schedule =
    (* Span args carry only run-set-determined values (fork, depth), never
       wall times, so jobs=1 span trees reproduce exactly. *)
    let wrap ~attempt f =
      let sp =
        Option.map
          (fun tr ->
            Obs.Trace.begin_span (Obs.Trace.sink tr worker) ~parent:root_id
              ~args:
                [
                  ("fork", Obs.Trace.Int (List.length schedule - 1));
                  ("depth", Obs.Trace.Int (List.length schedule));
                  ("attempt", Obs.Trace.Int attempt);
                ]
              name)
          tracer
      in
      let t0 = Unix.gettimeofday () in
      let record = f () in
      let wall = Unix.gettimeofday () -. t0 in
      (match (tracer, sp) with
      | Some tr, Some sp -> Obs.Trace.end_span (Obs.Trace.sink tr worker) sp
      | _ -> ());
      Obs.Metrics.observe wall_h.(worker) wall;
      Mutex.lock m;
      worker_wall.(worker) <- worker_wall.(worker) +. wall;
      Mutex.unlock m;
      record
    in
    Executor.run ~rb ~runner ?cache ~prune:config.prune ~worker
      ~metrics:(Some (worker_shard worker)) ~need_poison
      ~external_poison:(fun () ->
        Atomic.get interrupt_requested
        || (config.stop_on_first_error && Atomic.get error_found))
      ~abort_retries:(fun () -> Atomic.get interrupt_requested)
      ~wrap ~np ~sleep schedule
  in
  (* ---- the in-process backend: per-worker stealing deques ---- *)
  let pool_backend initial_items ~budget =
    let sched =
      Scheduler.create ~jobs ~budget ~metrics:(Obs.Metrics.shard registry jobs)
        ~profile:config.profile ()
    in
    Scheduler.push_batch sched initial_items;
    let drive () =
      Scheduler.run sched (fun ~worker it ->
          (* A raising replay is a harness failure, not a pool teardown:
             record it (with the backtrace from the catch site) and keep the
             sibling workers draining. *)
          match
            let schedule = it.prefix @ [ it.choice ] in
            let res = run_item ~worker ~name:"replay" ~sleep:it.sleep schedule in
            (* Ingested while still in flight, before this worker
               considers a checkpoint: a cut that catches the item holds
               none of its counts (it re-runs fresh) or all of them (it
               re-runs expand-only). *)
            ingest ~worker ~schedule res;
            res
          with
          | { Executor.poisoned = true; _ } ->
              Scheduler.cancel sched;
              (* Interrupted before completing: put the item back so the
                 checkpointed frontier still covers it. *)
              if Atomic.get interrupt_requested then [ it ] else []
          | { Executor.run = { Wire.payload = None; _ }; _ } ->
              (* Every attempt hit the watchdog: no frontier. *)
              maybe_periodic_checkpoint ();
              []
          | { Executor.run = { Wire.payload = Some p; _ }; _ } ->
              maybe_periodic_checkpoint ();
              if
                Atomic.get interrupt_requested
                || (config.stop_on_first_error && Atomic.get error_found)
              then
                (* Stop claiming, but still publish the children: a
                   checkpoint taken after the drain must see the completed
                   replay's subtree. *)
                Scheduler.cancel sched;
              p.Wire.children
          | exception exn ->
              let bt = Printexc.get_raw_backtrace () in
              Mutex.lock m;
              harness_failures :=
                {
                  Report.hf_worker = worker;
                  hf_message = Printexc.to_string exn;
                  hf_backtrace = Printexc.raw_backtrace_to_string bt;
                }
                :: !harness_failures;
              Mutex.unlock m;
              []);
      Executor.Drained
    in
    let stats () =
      let sched_stats = Scheduler.stats sched in
      worker_stats
        ~queue_waits:(fun i ->
          match
            List.find_opt
              (fun (ws : Scheduler.worker_stats) -> ws.Scheduler.worker_id = i)
              sched_stats
          with
          | Some ws -> ws.Scheduler.queue_waits
          | None -> 0)
        ()
    in
    {
      Executor.drive;
      snapshot = (fun () -> Scheduler.snapshot sched);
      stats;
      fence_epoch = (fun () -> 0);
    }
  in
  (* ---- the distributed backend: coordinator + remote workers ---- *)
  let coordinator_backend initial_items ~budget setup =
    let co =
      Coordinator.create
        ~metrics:(Obs.Metrics.shard registry jobs)
        ~profile:config.profile ~first_epoch:(!epoch_hi + 1)
        ~progress:(fun () ->
          Mutex.lock m;
          let kvs = run_kvs (Unix.gettimeofday ()) in
          Mutex.unlock m;
          kvs)
        ~budget setup
    in
    Coordinator.push co initial_items;
    (* Children were already folded into the coordinator's frontier; this
       ingests the rest. No checkpoint write from here: this runs mid-frame,
       after the lease was settled but before the frame's later items are
       counted and their children pushed — a cut taken now would lose them.
       [tick] below fires between event-loop iterations, where every
       ingested frame is whole. *)
    let on_run ~(item : Checkpoint.item) (r : Wire.run_result) =
      (* A worker replays every item it ships and is never poisoned. *)
      ingest ~worker:0 ~schedule:(item.prefix @ [ item.choice ])
        { Executor.run = r; poisoned = false; replayed = true; wildcards = 0 }
    in
    (* Crash tolerance hinges on the coordinator's cut reaching disk while
       it is healthy: besides the every-N-replays policy, force a write
       about once per second of ticking so a SIGKILLed coordinator loses at
       most that much progress. *)
    let last_forced = ref (Unix.gettimeofday ()) in
    let tick () =
      (* A stalled distributed run (all leases out, nothing completing)
         should still tick the local --progress line. *)
      Mutex.lock m;
      maybe_progress ();
      Mutex.unlock m;
      maybe_periodic_checkpoint ();
      match rb.checkpoint with
      | Some c when c.every > 0 ->
          let now = Unix.gettimeofday () in
          if now -. !last_forced > 1.0 then begin
            last_forced := now;
            write_checkpoint ()
          end
      | _ -> ()
    in
    let drive () =
      let outcome =
        Coordinator.drive co ~on_run
          ~should_stop:(fun () -> Atomic.get interrupt_requested)
          ~tick
      in
      remote_telemetry := Coordinator.telemetry co;
      match outcome with
      | Ok () -> Executor.Drained
      | Error msg ->
          (* The frontier still holds the unfinished work; hand it to the
             caller, who either drains it in-process (--fallback-local) or
             flags the run interrupted so it exits through the checkpoint
             path and can be resumed. *)
          Executor.Lost { reason = msg; leftover = Coordinator.snapshot co }
    in
    {
      Executor.drive;
      snapshot = (fun () -> Coordinator.snapshot co);
      stats = (fun () -> worker_stats ());
      fence_epoch = (fun () -> Coordinator.current_epoch co);
    }
  in
  (* SIGINT/SIGTERM flip the interrupt flag; the poison path then drains the
     pool cooperatively and the frontier is checkpointed. Installed only
     when checkpointing was requested, and restored on the way out. *)
  let old_signals =
    match rb.checkpoint with
    | None -> []
    | Some _ ->
        List.filter_map
          (fun signal ->
            match
              Sys.signal signal
                (Sys.Signal_handle
                   (fun _ -> Atomic.set interrupt_requested true))
            with
            | old -> Some (signal, old)
            | exception (Invalid_argument _ | Sys_error _) -> None)
          [ Sys.sigint; Sys.sigterm ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (signal, old) ->
          try Sys.set_signal signal old with Invalid_argument _ | Sys_error _ -> ())
        old_signals)
  @@ fun () ->
  (* Initial self run, on the calling domain — unless resuming, in which
     case the checkpoint already carries its contribution and frontier. *)
  let initial_items =
    match resume with
    | Some c -> c.Checkpoint.frontier
    | None -> (
        (* The root carries an empty sleep set; pruning begins with the
           sibling sets its children inherit. *)
        let res = run_item ~worker:0 ~name:"self-run" ~sleep:[] [] in
        ingest ~worker:0 ~schedule:[] res;
        match res.Executor.run.Wire.payload with
        | Some p -> p.Wire.children
        | None -> [])
  in
  frontier_fallback := initial_items;
  (* Expand-only items don't count against [max_runs] (their runs were
     already counted before the cut), but they do consume execution claims;
     widen the claim budget accordingly. *)
  let claim_budget items =
    if config.max_runs = max_int then max_int
    else
      config.max_runs - totals.runs
      + List.length
          (List.filter
             (fun it -> Hashtbl.mem resume_completed (Checkpoint.item_key it))
             items)
  in
  let skip =
    initial_items = []
    || totals.runs >= config.max_runs
    || (config.stop_on_first_error && Atomic.get error_found)
    || Atomic.get interrupt_requested
  in
  (* Even with nothing to distribute, attached workers are owed the
     job/shutdown handshake — a skipped run must not leave them blocked on
     their sockets — so the coordinator backend always drives (with a zero
     claim budget when skipping, which shuts workers down immediately). *)
  if (not skip) || distribute <> None then begin
    let budget = if skip then 0 else claim_budget initial_items in
    let exec =
      match distribute with
      | None -> pool_backend initial_items ~budget
      | Some setup -> coordinator_backend initial_items ~budget setup
    in
    exec_ref := Some exec;
    match exec.Executor.drive () with
    | Executor.Drained -> ()
    | Executor.Lost { reason; leftover } ->
        epoch_hi := max !epoch_hi (exec.Executor.fence_epoch ());
        if
          fallback_local && leftover <> []
          && not (Atomic.get interrupt_requested)
        then begin
          (* Graceful degradation: every worker is gone but this process
             can still replay. Drain the leftover cut on the in-process
             pool — the canonical report comes out identical, just
             slower. *)
          Log.warn (fun m ->
              m "%s — falling back to in-process execution of %d frontier item(s)"
                reason (List.length leftover));
          Obs.Metrics.incr
            (Obs.Metrics.counter
               (Obs.Metrics.shard registry jobs)
               "coordinator.fallbacks");
          let pool = pool_backend leftover ~budget:(claim_budget leftover) in
          exec_ref := Some pool;
          ignore (pool.Executor.drive ())
        end
        else begin
          (* The frontier still holds the unfinished work; flag the run
             interrupted so it exits through the checkpoint path and can
             be resumed. *)
          Mutex.lock m;
          harness_failures :=
            { Report.hf_worker = -1; hf_message = reason; hf_backtrace = "" }
            :: !harness_failures;
          Mutex.unlock m;
          Atomic.set interrupt_requested true
        end
  end;
  let interrupted = Atomic.get interrupt_requested in
  (* Always leave a final checkpoint behind when one was requested: either
     the interrupt cut (resumable) or the completed exploration (resuming
     it is a no-op that just re-reports). *)
  write_checkpoint ();
  let workers =
    match !exec_ref with Some e -> e.Executor.stats () | None -> worker_stats ()
  in
  (match (tracer, root_span) with
  | Some tr, Some sp -> Obs.Trace.end_span (Obs.Trace.sink tr 0) sp
  | _ -> ());
  {
    Report.np;
    interleavings = totals.runs;
    findings = sorted_findings ();
    wildcards_analyzed = totals.wildcards;
    first_run_makespan = totals.first_makespan;
    total_virtual_time = totals.total_vtime;
    monitor_alerts = totals.alerts;
    bounded_epochs = totals.bounded;
    runs_pruned = totals.pruned;
    host_seconds = Unix.gettimeofday () -. started;
    jobs;
    workers;
    runs_cancelled = totals.cancelled;
    runs_timed_out = totals.timed_out;
    runs_retried = totals.retried;
    runs_crashed = totals.crashed;
    harness_failures = List.rev !harness_failures;
    interrupted;
    metrics =
      (* Remote workers ship their registries as telemetry deltas; folding
         the accumulated per-session snapshots into the local merge is what
         makes a clean [--distribute N] run's totals equal a [jobs = 1]
         run's (no name overlap: remote registries carry the replay-side
         [mpi.*]/[dampi.*] series, the local shards the explorer-side
         ones). *)
      List.fold_left
        (fun acc (_, s) -> Obs.Metrics.merge_delta acc s)
        (Obs.Metrics.snapshot registry)
        !remote_telemetry;
    worker_metrics =
      (List.init (jobs + 2) (fun i ->
           let label =
             if i < jobs then Printf.sprintf "w%d" i
             else if i = jobs then "sched"
             else "aux"
           in
           (label, Obs.Metrics.shard_snapshot registry i))
      |> List.filter (fun (_, s) -> s <> []))
      @ !remote_telemetry;
    events = (match tracer with Some tr -> Obs.Trace.events tr | None -> []);
  }

(** Verify [program] on [np] simulated ranks under DAMPI. *)
let verify ?(config = default_config) ?resume ?distribute ?fallback_local ~np
    program =
  explore ~config ?resume ?distribute ?fallback_local ~np
    (dampi_runner config ~np program)

(** Execute exactly one guided run under [plan] (e.g. a schedule loaded from
    an Epoch-Decisions file) and report what it produced. *)
let replay ?(config = default_config) ?metrics ~np program plan =
  dampi_runner config ~np program
    ~ctx:{ null_ctx with metrics }
    plan
    ~fork_index:(Decisions.length plan - 1)
