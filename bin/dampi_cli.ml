(* The dampi command-line tool: verify bundled workloads, compare engines
   and clock algebras, sweep bounding heuristics.

     dune exec bin/dampi_cli.exe -- list
     dune exec bin/dampi_cli.exe -- verify fig3 --np 3
     dune exec bin/dampi_cli.exe -- verify matmult --np 6 -k 1
     dune exec bin/dampi_cli.exe -- verify adlb --np 8 --engine isp
     dune exec bin/dampi_cli.exe -- verify fig4 --clock vector *)

open Cmdliner

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module Registry = Workloads.Registry

(* A usage-class failure: one line on stderr, exit 2. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let or_fail = function Ok v -> v | Error msg -> fail "%s" msg

let find_workload workload =
  match Registry.find workload with
  | Some e -> e
  | None -> fail "unknown workload %S" workload

let set_log_level level =
  match Obs.Log.level_of_string level with
  | Ok lvl -> Obs.Log.set_level lvl
  | Error msg -> fail "bad --log-level: %s" msg

let parse_addr ?(what = "address") s =
  match Dampi.Wire.addr_of_string s with
  | Ok a -> a
  | Error msg -> fail "bad %s %S: %s" what s msg

let load_token file =
  match Dampi.Wire.load_token file with
  | Ok secret -> secret
  | Error msg -> fail "cannot read --auth-token %s: %s" file msg

(* Dial a listening address; a peer that never listened (wrong path, run
   already over, DNS miss) is one readable line and exit 2, not a raw
   backtrace. *)
let dial ~peer connect =
  match Dampi.Wire.dial (parse_addr connect) with
  | Ok fd -> (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | Error `Unresolved ->
      fail "cannot resolve %s: no such host or address" connect
  | Error e ->
      fail "cannot connect to %s: %s (is the %s running?)" connect
        (Dampi.Wire.dial_error_message e) peer

(* Send one request line to a serve daemon; its answers arrive on the
   returned channel. *)
let request connect line =
  let ic, oc = dial ~peer:"daemon" connect in
  if not (Dampi.Wire.send oc (line ^ "\n")) then begin
    Printf.eprintf "connection closed by daemon\n";
    exit 1
  end;
  ic

(* A [Sys_error] message names its file ("PATH: reason"); drop that copy
   when the caller's line names the path itself. *)
let sys_reason path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  else msg

(* An unwritable output path is one line and exit 2, not an uncaught
   exception; the report printed so far goes out first. *)
let cannot_write path msg =
  flush stdout;
  fail "cannot write %s: %s" path (sys_reason path msg)

let write_file path contents =
  try Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  with Sys_error msg -> cannot_write path msg

(* Decorative stderr writes (the --progress ticker, dampi top's redraw
   line). stderr may be a pipe whose consumer vanished mid-run; with
   SIGPIPE ignored that surfaces as Sys_error, and losing a ticker line
   must never kill a long verify. *)
let safe_eprintf fmt =
  Printf.ksprintf
    (fun s -> try Printf.eprintf "%s%!" s with Sys_error _ -> ())
    fmt

(* The --progress ticker of verify and submit: one stderr line, redrawn in
   place, never mixed into the report on stdout. *)
let draw_progress workload kvs =
  let v k = Option.value (List.assoc_opt k kvs) ~default:"-" in
  let cache =
    match List.assoc_opt "cache.hits" kvs with
    | Some h -> Printf.sprintf "  cache %s/%s" h (v "cache.misses")
    | None -> ""
  in
  safe_eprintf "\r%-76s"
    (Printf.sprintf
       "%s: runs %s  %s replays/s  frontier %s  pruned %s  findings %s%s"
       workload (v "runs") (v "replays_per_s") (v "frontier") (v "pruned")
       (v "findings") cache)

let log_level_flag doc =
  Arg.(value & opt string "warn" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let auth_token_flag doc =
  Arg.(value & opt (some string) None & info [ "auth-token" ] ~docv:"FILE" ~doc)

(* Children spawned by [verify --distribute] exit on the coordinator's
   shutdown; reap them, escalating to SIGKILL only if one wedges. *)
let reap_children pids =
  let deadline = Unix.gettimeofday () +. 10.0 in
  List.iter
    (fun pid ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
            end
            else begin
              Unix.sleepf 0.05;
              wait ()
            end
        | _, _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      wait ())
    pids

(* ---- list command ---- *)

let list_cmd =
  let run () =
    Printf.printf "%-14s %s\n" "WORKLOAD" "DESCRIPTION";
    List.iter
      (fun (e : Registry.entry) -> Printf.printf "%-14s %s\n" e.key e.doc)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled workloads.")
    Term.(const run $ const ())

(* ---- verify command ---- *)

let cli_src = Obs.Log.src "dampi.cli"

module Cli_log = (val Obs.Log.src_log cli_src : Obs.Log.LOG)

(* Re-exec this verify without --coordinator-respawn, restarting it from
   its checkpoint each time it dies to a signal (up to [budget] times). A
   SIGKILLed coordinator thus costs the run one resume, not the run. The
   child must never supervise in turn, so every spelling cmdliner resolves
   to the flag goes: any prefix from [--co] on (shorter ones are ambiguous
   with [--checkpoint]), joined to its value by [=] or followed by it. *)
let supervise_respawns ~budget =
  let respawn_flag a =
    let name =
      match String.index_opt a '=' with Some i -> String.sub a 0 i | None -> a
    in
    String.length name >= 4
    && String.starts_with ~prefix:name "--coordinator-respawn"
  in
  let rec strip = function
    | [] -> []
    | a :: rest when respawn_flag a ->
        if String.contains a '=' then strip rest
        else (match rest with _ :: tl -> strip tl | [] -> [])
    | a :: rest -> a :: strip rest
  in
  let argv = Array.of_list (strip (Array.to_list Sys.argv)) in
  (* OCaml signal numbers are a private negative encoding; name the common
     ones rather than leak e.g. -7 for SIGKILL into the diagnostics. *)
  let signal_name sg =
    if sg = Sys.sigkill then "SIGKILL"
    else if sg = Sys.sigterm then "SIGTERM"
    else if sg = Sys.sigint then "SIGINT"
    else if sg = Sys.sigsegv then "SIGSEGV"
    else if sg = Sys.sigabrt then "SIGABRT"
    else if sg = Sys.sighup then "SIGHUP"
    else if sg = Sys.sigquit then "SIGQUIT"
    else if sg = Sys.sigbus then "SIGBUS"
    else Printf.sprintf "signal %d" sg
  in
  let rec go restarts =
    let pid =
      Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
        Unix.stderr
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED code -> exit code
    | Unix.WSIGNALED sg | Unix.WSTOPPED sg ->
        if restarts >= budget then begin
          Cli_log.err (fun m ->
              m "coordinator died (%s); respawn budget exhausted after %d \
                 restart(s)"
                (signal_name sg) restarts);
          exit 1
        end
        else begin
          Cli_log.warn (fun m ->
              m "coordinator died (%s); respawning from checkpoint (%d/%d)"
                (signal_name sg) (restarts + 1) budget);
          go (restarts + 1)
        end
  in
  go 0

(* ---- the job flags, shared by verify and submit ---- *)

let workload_arg doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let np_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "np"; "n" ] ~docv:"N" ~doc:"Number of simulated MPI ranks.")

let mixing_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "k"; "mixing-bound" ] ~docv:"K"
        ~doc:"Bounded-mixing window (default: unbounded).")

let max_runs_flag =
  Arg.(
    value
    & opt int Job.defaults.max_runs
    & info [ "max-runs" ] ~docv:"N" ~doc:"Interleaving budget.")

let job_term =
  let d = Job.defaults in
  let clock =
    Arg.(
      value
      & opt (some string) None
      & info [ "clock" ] ~docv:"CLOCK"
          ~doc:
            "Clock algebra: $(b,lamport) (scalable, the default) or \
             $(b,vector) (precise).")
  in
  let engine =
    Arg.(
      value
      & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Verification engine: $(b,dampi) (decentralized, the default) or \
             $(b,isp) (centralized baseline; same coverage, different \
             virtual cost).")
  in
  let dual =
    Arg.(
      value & flag
      & info [ "dual-clock" ]
          ~doc:
            "Use the dual (lagging-transmission) Lamport clock that covers \
             the paper's Fig. 10 limitation pattern (SS V future work).")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable sleep-set schedule pruning and explore the full \
             interleaving tree. Pruning only suppresses runs whose fork \
             provably commutes (disjoint rank footprints on one \
             communicator) with an already-explored sibling, so the \
             canonical report is the same either way — this flag exists \
             for differential checks and benchmarking.")
  in
  let prefix_cache =
    Arg.(
      value
      & opt ~vopt:(Some Dampi.Prefix_cache.default_budget_bytes) (some int)
          None
      & info [ "prefix-cache" ] ~docv:"BYTES"
          ~doc:
            "Memoize each explored schedule's replay artifact under an LRU \
             budget of $(docv) bytes (default 64 MiB when the flag is given \
             bare). Re-discovered schedules — chiefly the expand-only \
             re-runs of a $(b,--checkpoint) resume, warmed from the \
             checkpoint's $(b,.cache) sidecar — then skip execution \
             entirely; replay determinism keeps the report identical. A \
             submitted job's sidecar lives in the daemon's state dir, so a \
             repeat submission of the same configuration starts warm.")
  in
  let stop_first =
    Arg.(
      value & flag
      & info [ "stop-first" ]
          ~doc:"Stop exploring after the first deadlock or crash finding.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"One-line summary only.")
  in
  let jobs =
    Arg.(
      value & opt int d.jobs
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains exploring interleavings in parallel (guided \
             replays are independent re-executions, so any $(docv) finds \
             the same interleavings and findings on an exhaustive search).")
  in
  let checkpoint_every =
    Arg.(
      value & opt int d.checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Completed replays between periodic checkpoint writes (0 writes \
             only on interrupt and completion). The serve daemon always \
             checkpoints its jobs, and a drain flushes the frontier \
             regardless, so there the cadence only bounds what a hard kill \
             can lose.")
  in
  let replay_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "replay-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock watchdog per replay attempt; a wedged replay is \
             cancelled, counted as timed out, and retried per \
             $(b,--max-retries) without stalling other workers.")
  in
  let max_replay_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-replay-steps" ] ~docv:"N"
          ~doc:
            "Deterministic per-attempt budget of verifier steps (interposed \
             MPI events); exceeding it counts as a timeout.")
  in
  let max_retries =
    Arg.(
      value & opt int d.max_retries
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Retries per replay after a timeout or an injected transient \
             fault, each under a fresh fault salt.")
  in
  let retry_backoff =
    Arg.(
      value & opt float d.retry_backoff
      & info [ "retry-backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base of the capped exponential backoff between retry attempts \
             (0 retries immediately).")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Enable deterministic fault injection with the default rates \
             under $(docv); the same seed reproduces the same fault schedule.")
  in
  let fault_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:
            "Fault-injection spec as comma-separated key=value pairs (keys: \
             $(b,seed), $(b,delay), $(b,max-delay), $(b,sendfail), \
             $(b,crash), $(b,wedge), $(b,rank)), e.g. \
             $(b,seed=7,delay=0.1,sendfail=0.05).")
  in
  let net_fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "net-fault-seed" ] ~docv:"SEED"
          ~doc:
            "Enable deterministic transport chaos with the default \
             (stall-free) rates under $(docv): wire-level delay, duplicate \
             and reorder injection on every distributed connection, both \
             directions. The same seed reproduces the same injection \
             schedule, and the canonical report stays identical to a clean \
             run — the point of the flag is rehearsing degraded networks.")
  in
  let net_fault_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "net-fault-spec" ] ~docv:"SPEC"
          ~doc:
            "Transport-chaos spec as comma-separated key=value pairs (keys: \
             $(b,seed), $(b,drop), $(b,delay), $(b,max-delay), $(b,dup), \
             $(b,reorder), $(b,corrupt), $(b,truncate), $(b,partition), \
             $(b,partition-frames), $(b,bandwidth), $(b,write-fail)), e.g. \
             $(b,seed=7,drop=0.1,dup=0.2). $(b,write-fail) injects ENOSPC \
             into checkpoint writes (local too); under drop/partition set \
             $(b,--heartbeat-timeout) low enough that recovery beats your \
             patience.")
  in
  let build workload np engine clock k dual no_prune prefix_cache max_runs
      jobs stop_first quiet checkpoint_every replay_timeout max_replay_steps
      max_retries retry_backoff fault_seed fault_spec net_fault_seed
      net_fault_spec =
    let ( let* ) = Result.bind in
    let parse of_string = function
      | None -> Ok None
      | Some s -> Result.map Option.some (of_string s)
    in
    let* d = Job.default workload in
    let* engine = parse Job.engine_of_string engine in
    let* clock = parse Job.clock_of_string clock in
    Job.check
      {
        d with
        np = Option.value np ~default:d.np;
        engine = Option.value engine ~default:d.engine;
        clock = Option.value clock ~default:d.clock;
        k;
        dual;
        prune = not no_prune;
        prefix_cache;
        max_runs;
        jobs;
        stop_first;
        quiet;
        checkpoint_every;
        replay_timeout;
        max_replay_steps;
        max_retries;
        retry_backoff;
        fault_seed;
        fault_spec;
        net_fault_seed;
        net_fault_spec;
      }
  in
  Term.(
    const build
    $ workload_arg "Workload to verify (see $(b,list))."
    $ np_flag $ engine $ clock $ mixing_flag $ dual $ no_prune $ prefix_cache
    $ max_runs_flag $ jobs $ stop_first $ quiet $ checkpoint_every
    $ replay_timeout $ max_replay_steps $ max_retries $ retry_backoff
    $ fault_seed $ fault_spec $ net_fault_seed $ net_fault_spec)

let progress_flag doc = Arg.(value & flag & info [ "progress" ] ~doc)

let verify_run job profile progress dump_schedule distribute workers trace_out
    metrics_out metrics_format log_level checkpoint auth_token fallback_local
    join_timeout heartbeat_timeout rejoin_grace coordinator_respawn =
  let job = { (or_fail job) with Job.profile } in
  set_log_level log_level;
  (match metrics_format with
  | "json" | "openmetrics" -> ()
  | other -> fail "unknown --metrics-format %S (json|openmetrics)" other);
  (match distribute with
  | Some n when n < 1 -> fail "--distribute needs at least 1 worker"
  | _ -> ());
  if distribute <> None && workers <> None then
    fail
      "--distribute and --workers cannot be combined (spawn workers or dial \
       already-running ones, not both)";
  let distributed = distribute <> None || workers <> None in
  if distributed && job.jobs > 1 then
    fail
      "--jobs does not combine with a distributed run (worker processes \
       replace the in-process pool)";
  if distributed && job.stop_first then
    fail "--stop-first is not supported in distributed mode";
  if distributed && job.engine <> Job.Dampi then
    fail "distributed mode supports only the dampi engine";
  if fallback_local && not distributed then
    fail "--fallback-local only applies to a distributed run";
  if auth_token <> None && not distributed then
    fail "--auth-token only applies to a distributed run";
  let auth = Option.map load_token auth_token in
  (match coordinator_respawn with
  | Some n ->
      if checkpoint = None then
        fail
          "--coordinator-respawn requires --checkpoint (a respawned \
           coordinator resumes from it)";
      if n < 1 then fail "--coordinator-respawn needs at least 1 restart";
      supervise_respawns ~budget:n
  | None -> ());
  let worker_addrs =
    List.map (parse_addr ~what:"worker address") (Option.value workers ~default:[])
  in
  let resume =
    Option.bind checkpoint (fun path ->
        Option.map
          (fun (c : Dampi.Checkpoint.t) ->
            Printf.printf
              "resuming from %s: %d interleavings already explored, %d \
               frontier item(s)\n"
              path c.totals.runs (List.length c.frontier);
            c)
          (or_fail (Job.resume job path)))
  in
  let progress_cb =
    if progress then Some (draw_progress job.workload) else None
  in
  (* a vanished ticker consumer must surface as Sys_error (ignored by
     safe_eprintf), not as a fatal SIGPIPE *)
  (if progress then Dampi.Wire.with_sigpipe_ignored else fun f -> f ())
  @@ fun () ->
  let children = ref [] in
  let distribute_setup =
    if not distributed then None
    else begin
      let attach =
        match distribute with
        | Some n ->
            (* Coordinator binds an ephemeral unix socket; [ready] fires
               once it is listening, so the spawned children never race the
               bind. *)
            let path = Filename.temp_file "dampi-coord" ".sock" in
            (* A path the kernel cannot bind (an over-long $TMPDIR) is a
               usage error, reported before any worker is spawned. *)
            Dampi.Wire.close_listener
              (or_fail (Dampi.Wire.listen (Dampi.Wire.Unix_sock path)));
            let ready addr =
              let connect = Dampi.Wire.addr_to_string addr in
              let argv =
                [ "dampi"; "worker"; "--connect"; connect ]
                @
                match auth_token with
                | Some file -> [ "--auth-token"; file ]
                | None -> []
              in
              for _ = 1 to n do
                children :=
                  Unix.create_process Sys.executable_name (Array.of_list argv)
                    Unix.stdin Unix.stdout Unix.stderr
                  :: !children
              done
            in
            Dampi.Coordinator.Listen { addr = Dampi.Wire.Unix_sock path; ready }
        | None -> Dampi.Coordinator.Dial worker_addrs
      in
      Some
        {
          (Dampi.Coordinator.default_setup attach (Job.to_wire job)) with
          heartbeat_timeout;
          join_timeout;
          rejoin_grace;
          auth;
          net_fault = (Job.to_config job).robustness.net_fault;
        }
    end
  in
  let report, text =
    Job.run ?progress:progress_cb ~trace:(trace_out <> None) ?checkpoint
      ?resume ?distribute:distribute_setup ~fallback_local job
  in
  reap_children !children;
  (* leave the redrawn ticker line behind before the report *)
  if progress then safe_eprintf "\n";
  print_string text;
  (match trace_out with
  | Some path ->
      write_file path (Report.trace_json report);
      Printf.printf "trace written to %s\n" path
  | None -> ());
  (match metrics_out with
  | Some path ->
      let body =
        if metrics_format = "openmetrics" then Report.metrics_openmetrics report
        else Report.metrics_json report
      in
      write_file path body;
      Printf.printf "metrics written to %s\n" path
  | None -> ());
  (match (dump_schedule, report.Report.findings) with
  | Some path, f :: _ ->
      (try
         Dampi.Decisions.save
           (Dampi.Decisions.of_decisions ~np:job.np f.Report.schedule)
           path
       with Sys_error msg -> cannot_write path msg);
      Printf.printf "schedule of the first finding written to %s\n" path
  | Some path, [] -> Printf.printf "no findings; nothing written to %s\n" path
  | None, _ -> ());
  (match (report.Report.interrupted, checkpoint) with
  | true, Some path ->
      Printf.printf
        "interrupted; frontier checkpointed to %s (rerun with the same \
         --checkpoint to resume)\n"
        path;
      exit 3
  | true, None -> exit 3
  | false, _ -> ());
  if Report.has_errors report then exit 1

let verify_cmd =
  let dump_schedule =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-schedule" ] ~docv:"FILE"
          ~doc:
            "Write the first finding's reproduction schedule (an \
             Epoch-Decisions file) to $(docv); replay it with $(b,replay).")
  in
  let distribute =
    Arg.(
      value
      & opt (some int) None
      & info [ "distribute" ] ~docv:"N"
          ~doc:
            "Distributed exploration: spawn $(docv) local worker processes \
             ($(b,dampi worker --connect)) over an ephemeral unix socket \
             and lease them the frontier. The canonical report of an \
             exhaustive run is identical to a single-process one.")
  in
  let workers =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "workers" ] ~docv:"ADDR,..."
          ~doc:
            "Distributed exploration against already-running workers \
             ($(b,dampi worker --listen ADDR)): comma-separated \
             $(b,unix:PATH) or $(b,tcp:HOST:PORT) addresses the \
             coordinator dials.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Collect a span timeline of the exploration and write it as \
             Chrome trace_event JSON to $(docv) (open in ui.perfetto.dev).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's metrics (merged and per-worker-shard) as JSON \
             to $(docv).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint the exploration frontier to $(docv) (atomically, \
             periodically and on SIGINT/SIGTERM). If $(docv) already exists, \
             resume from it: the resumed exploration reaches the same \
             canonical report as an uninterrupted one. Exits 3 when \
             interrupted.")
  in
  let progress =
    progress_flag
      "Stream a live one-line progress ticker to stderr (runs, replays/s, \
       frontier depth, pruned, findings, cache hits/misses; redrawn in place \
       about twice a second). The canonical report on stdout is unchanged."
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable the lightweight replay profiler: phase-timing histograms \
             ($(b,profile.match_loop_s), $(b,profile.clock_merge_s), \
             $(b,profile.sched_wait_s), $(b,profile.wire_io_s)) exported \
             through $(b,--metrics-out). Remote workers spawned by this run \
             inherit the flag through the job parameters.")
  in
  let metrics_format =
    Arg.(
      value & opt string "json"
      & info [ "metrics-format" ] ~docv:"FMT"
          ~doc:
            "Format for $(b,--metrics-out): $(b,json) (default) or \
             $(b,openmetrics) (Prometheus-scrapable text, one series per \
             counter/gauge and the usual _bucket/_sum/_count triplet per \
             histogram).")
  in
  let log_level =
    log_level_flag
      "Structured-log verbosity on stderr: $(b,quiet), $(b,error), \
       $(b,warn) (default), $(b,info) or $(b,debug). The default keeps \
       today's loud behaviour for operational warnings (worker loss, \
       fallback)."
  in
  let auth_token =
    auth_token_flag
      "Require workers to authenticate: $(docv) holds a shared secret \
       (trailing whitespace trimmed), and every joining worker must answer \
       an HMAC challenge over it before receiving work. Pass the same file \
       to $(b,dampi worker); mismatches are refused with a one-line reject. \
       Spawned $(b,--distribute) workers inherit the flag automatically."
  in
  let fallback_local =
    Arg.(
      value & flag
      & info [ "fallback-local" ]
          ~doc:
            "Graceful degradation: if a distributed run loses every worker \
             (past reconnect grace), drain the remaining frontier with the \
             in-process pool instead of flagging the run interrupted. The \
             canonical report is unchanged; the fallback is reported loudly \
             and counted in the $(b,coordinator.fallbacks) metric.")
  in
  let join_timeout =
    Arg.(
      value
      & opt float Dampi.Coordinator.default_join_timeout
      & info [ "join-timeout" ] ~docv:"SECONDS"
          ~doc:
            "How long a listening coordinator waits for the $(i,first) \
             worker to join before declaring the run lost (distinct from \
             $(b,--heartbeat-timeout), which governs workers already \
             admitted).")
  in
  let heartbeat_timeout =
    Arg.(
      value
      & opt float Dampi.Coordinator.default_heartbeat_timeout
      & info [ "heartbeat-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Silence threshold after which an admitted worker is considered \
             lost and its lease is eligible for refund (after \
             $(b,--rejoin-grace)).")
  in
  let rejoin_grace =
    Arg.(
      value
      & opt float Dampi.Coordinator.default_rejoin_grace
      & info [ "rejoin-grace" ] ~docv:"SECONDS"
          ~doc:
            "Grace window during which a lost worker may redial and resume \
             its in-flight lease; past it the lease is refunded to the \
             frontier and a late rejoiner is fenced onto a fresh epoch.")
  in
  let coordinator_respawn =
    Arg.(
      value
      & opt (some int) None
      & info [ "coordinator-respawn" ] ~docv:"N"
          ~doc:
            "Supervise the coordinator: re-exec this verify as a child and, \
             if it dies to a signal, restart it from its checkpoint up to \
             $(docv) times (requires $(b,--checkpoint)). Surviving \
             $(b,--listen) workers redial and rejoin the restarted \
             coordinator.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify a bundled workload over the space of its non-deterministic \
          matches. Exits 1 if errors were found, 3 if interrupted (after \
          checkpointing the frontier when $(b,--checkpoint) is set).")
    Term.(
      const verify_run $ job_term $ profile $ progress $ dump_schedule
      $ distribute $ workers $ trace_out $ metrics_out $ metrics_format
      $ log_level $ checkpoint $ auth_token $ fallback_local $ join_timeout
      $ heartbeat_timeout $ rejoin_grace $ coordinator_respawn)

(* ---- worker command ---- *)

let worker_run connect listen auth_token max_redials redial_backoff
    metrics_out trace_out log_level =
  set_log_level log_level;
  let mode =
    match (connect, listen) with
    | Some c, None -> `Connect (parse_addr c)
    | None, Some l -> `Listen (parse_addr l)
    | Some _, Some _ | None, None ->
        fail "worker needs exactly one of --connect or --listen"
  in
  let auth = Option.map load_token auth_token in
  let reconnect =
    {
      Dampi.Remote_worker.default_reconnect with
      max_redials;
      backoff = redial_backoff;
    }
  in
  (* The worker always keeps a local registry: it feeds the telemetry
     deltas shipped to the coordinator, and --metrics-out snapshots it at
     exit for offline debugging of a single worker. *)
  let registry = Obs.Metrics.create ~shards:1 () in
  let telemetry = Dampi.Remote_worker.telemetry registry in
  let tracer =
    if trace_out = None then None else Some (Obs.Trace.create ~shards:1 ())
  in
  let resolve job =
    match (Job.resolve job, tracer) with
    | (Error _ as e), _ | (Ok _ as e), None -> e
    | Ok resolved, Some t ->
        let sink = Obs.Trace.sink t 0 in
        let inner = resolved.Dampi.Remote_worker.runner in
        let runner ~ctx plan ~fork_index =
          Obs.Trace.with_span sink "replay"
            ~args:[ ("fork", Obs.Trace.Int fork_index) ]
            (fun () -> inner ~ctx plan ~fork_index)
        in
        Ok { resolved with Dampi.Remote_worker.runner }
  in
  (* Written on every exit path — a worker that lost its coordinator still
     leaves its metrics behind. *)
  let finish () =
    (match metrics_out with
    | Some path ->
        write_file path (Obs.Metrics.to_json (Obs.Metrics.snapshot registry))
    | None -> ());
    match (trace_out, tracer) with
    | Some path, Some t ->
        write_file path (Obs.Trace.to_chrome (Obs.Trace.events t))
    | _ -> ()
  in
  match Dampi.Remote_worker.serve_addr ?auth ~reconnect ~telemetry ~resolve mode with
  | Ok () -> finish ()
  | Error msg ->
      finish ();
      Printf.eprintf "%s\n" msg;
      exit 1

let worker_cmd =
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Dial a coordinator listening at $(docv) ($(b,unix:PATH) or \
             $(b,tcp:HOST:PORT)); this is what $(b,verify --distribute) \
             spawns.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Bind $(docv) and wait for coordinators to dial in (pair with \
             $(b,verify --workers)). Serves successive coordinator sessions \
             on one persistent worker identity — so it survives coordinator \
             restarts — and exits when a coordinator announces the run \
             complete or on SIGTERM.")
  in
  let auth_token =
    auth_token_flag
      "Shared-secret file matching the coordinator's $(b,--auth-token); \
       used to answer its HMAC challenge on join."
  in
  let max_redials =
    Arg.(
      value
      & opt int Dampi.Remote_worker.default_reconnect.max_redials
      & info [ "max-redials" ] ~docv:"N"
          ~doc:
            "With $(b,--connect): redial a lost coordinator up to $(docv) \
             times (capped exponential backoff with deterministic jitter) \
             before giving up; 0 exits on the first disconnect.")
  in
  let redial_backoff =
    Arg.(
      value
      & opt float Dampi.Remote_worker.default_reconnect.backoff
      & info [ "redial-backoff" ] ~docv:"SECONDS"
          ~doc:"Base delay of the redial backoff (doubles per attempt).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Snapshot this worker's local metric registry as JSON to \
             $(docv) at exit (on shutdown, rejection or a lost \
             coordinator). The same counters also stream to the \
             coordinator as telemetry deltas, so this is for offline \
             single-worker debugging.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Collect one span per leased replay and write Chrome \
             trace_event JSON to $(docv) at exit (open in \
             ui.perfetto.dev).")
  in
  let log_level =
    log_level_flag
      "Structured-log verbosity on stderr: $(b,quiet), $(b,error), \
       $(b,warn) (default), $(b,info) or $(b,debug)."
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Serve guided replays to a distributed $(b,verify) run: receive \
          the job description, replay leased frontier items, stream result \
          deltas back.")
    Term.(
      const worker_run $ connect $ listen $ auth_token $ max_redials
      $ redial_backoff $ metrics_out $ trace_out $ log_level)

(* ---- top command ---- *)

(* A read-only observer of a live distributed run: hello with
   role=observer, answer the HMAC challenge if the coordinator runs
   authenticated, then render the Progress stream. No session is created
   coordinator-side, so attaching and detaching cannot perturb the
   exploration or its canonical report. *)
let top_run connect auth_token once =
  let secret = Option.fold ~none:"" ~some:load_token auth_token in
  Dampi.Wire.with_sigpipe_ignored @@ fun () ->
  let ic, oc = dial ~peer:"coordinator" connect in
  let session = Printf.sprintf "top-%d" (Unix.getpid ()) in
  Dampi.Wire.write_to_coord oc
    (Dampi.Wire.Hello
       {
         proto = Dampi.Wire.proto_version;
         id = session;
         session;
         epoch = 0;
         pending = None;
         role = Some "observer";
       });
  let ticking = ref false in
  let finish msg =
    if !ticking && not once then safe_eprintf "\n";
    print_endline msg
  in
  let render kvs =
    let v k = Option.value (List.assoc_opt k kvs) ~default:"-" in
    let hb =
      List.filter_map
        (fun (k, value) ->
          if String.length k > 7 && String.sub k 0 7 = "hb_age." then
            Some
              (Printf.sprintf "%s:%s"
                 (String.sub k 7 (String.length k - 7))
                 (if value = "lost" then value else value ^ "s"))
          else None)
        kvs
    in
    let line =
      Printf.sprintf
        "frontier %s  %s replays/s  runs %s  leases %s  workers %s%s"
        (v "frontier") (v "replays_per_s") (v "runs") (v "leases")
        (v "workers")
        (match hb with [] -> "" | l -> "  hb " ^ String.concat " " l)
    in
    if once then print_endline line
    else begin
      ticking := true;
      safe_eprintf "\r%-78s" line
    end
  in
  let rec loop () =
    match Dampi.Wire.read_to_worker ic with
    | Ok (Dampi.Wire.Challenge nonce) ->
        Dampi.Wire.write_to_coord oc
          (Dampi.Wire.Auth (Dampi.Wire.auth_mac ~secret ~nonce ~session));
        loop ()
    | Ok (Dampi.Wire.Welcome _) -> loop ()
    | Ok (Dampi.Wire.Reject { reason; _ }) ->
        Printf.eprintf "rejected: %s\n" reason;
        exit 1
    | Ok (Dampi.Wire.Progress kvs) ->
        render kvs;
        if not once then loop ()
    | Ok Dampi.Wire.Detach -> finish "coordinator detached"
    | Ok Dampi.Wire.Shutdown -> finish "run complete"
    | Ok (Dampi.Wire.Job _ | Dampi.Wire.Lease _) ->
        (* never sent to observers; ignore defensively *)
        loop ()
    | Error "connection closed" -> finish "coordinator gone"
    | Error _ ->
        (* the progress stream is advisory: skip a malformed line *)
        loop ()
  in
  loop ();
  close_in_noerr ic

let top_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Coordinator address to observe ($(b,unix:PATH) or \
             $(b,tcp:HOST:PORT)) — the address a $(b,verify --workers) run \
             listens on.")
  in
  let auth_token =
    auth_token_flag
      "Shared-secret file matching the coordinator's $(b,--auth-token), \
       used to answer its HMAC challenge."
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print a single progress snapshot to stdout and exit (for \
             scripts); without it, a live ticker redraws on stderr until \
             the run ends.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Attach to a live distributed $(b,verify) run as a read-only \
          observer and stream its progress: frontier depth, replays/s, \
          per-worker heartbeat ages. Observers never receive leases, so \
          watching a run cannot change its canonical report.")
    Term.(const top_run $ connect $ auth_token $ once)

(* ---- replay command ---- *)

let replay_run workload file trace_out metrics_out =
  let entry = find_workload workload in
  match Dampi.Decisions.load file with
  | Error msg -> fail "cannot load %s: %s" file (sys_reason file msg)
  | Ok plan ->
    (* The schedule file fixes the rank count. *)
    let np = Array.length plan.Dampi.Decisions.guided_epoch in
    Format.printf "replaying %d forced decision(s):@.%a@.@."
      (Dampi.Decisions.length plan)
      Dampi.Decisions.pp plan;
    let registry = Obs.Metrics.create ~shards:1 () in
    let tracer = Obs.Trace.create ~shards:1 () in
    let sink = Obs.Trace.sink tracer 0 in
    let record =
      Obs.Trace.with_span sink "replay"
        ~args:
          [ ("workload", Obs.Trace.Str entry.key);
            ("np", Obs.Trace.Int np) ]
        (fun () ->
          Explorer.replay ~config:Explorer.default_config
            ~metrics:(Obs.Metrics.shard registry 0)
            ~np (entry.build ()) plan)
    in
    (match record.Report.outcome with
    | Sim.Coroutine.All_finished ->
        print_endline "run finished without deadlock or crash"
    | Sim.Coroutine.Deadlock _ -> print_endline "run deadlocked"
    | Sim.Coroutine.Crashed _ -> print_endline "run crashed");
    List.iter
      (fun e -> Format.printf "  %a@." Report.pp_error e)
      record.Report.run_errors;
    (match trace_out with
    | Some path ->
        write_file path (Obs.Trace.to_chrome (Obs.Trace.events tracer));
        Printf.printf "trace written to %s\n" path
    | None -> ());
    (match metrics_out with
    | Some path ->
        write_file path
          (Obs.Metrics.to_json (Obs.Metrics.snapshot registry));
        Printf.printf "metrics written to %s\n" path
    | None -> ())

let replay_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload the schedule belongs to.")
  in
  let file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Epoch-Decisions file (from --dump-schedule).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event span timeline to $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the replay's metrics as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-execute one interleaving from an \
          Epoch-Decisions schedule file.")
    Term.(const replay_run $ workload $ file $ trace_out $ metrics_out)

(* ---- trace command ---- *)

let trace_run workload np limit =
  let entry = find_workload workload in
  let np = Option.value np ~default:entry.default_np in
  let rt = Mpi.Runtime.create ~trace:true ~np () in
  let module B = Mpi.Bind.Make (struct
    let rt = rt
  end) in
  let module P = (val entry.build ()) in
  let module Prog = P (B) in
  Mpi.Runtime.spawn_ranks rt (fun _ -> Prog.main ());
  let outcome = Mpi.Runtime.run rt in
  let events = Mpi.Runtime.trace rt in
  let shown = ref 0 in
  List.iter
    (fun ev ->
      if !shown < limit then begin
        incr shown;
        Format.printf "%a@." Mpi.Runtime.pp_event ev
      end)
    events;
  if List.length events > limit then
    Printf.printf "... (%d more events)\n" (List.length events - limit);
  (match outcome with
  | Sim.Coroutine.All_finished -> ()
  | Sim.Coroutine.Deadlock _ -> print_endline "(run deadlocked)"
  | Sim.Coroutine.Crashed (pid, e, _) ->
      Printf.printf "(rank %d crashed: %s)\n" pid (Printexc.to_string e))

let trace_cmd =
  let limit =
    Arg.(
      value & opt int 200
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum events to print.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a workload natively and print its message-flow trace.")
    Term.(
      const trace_run
      $ workload_arg "Workload to trace (see $(b,list))."
      $ np_flag $ limit)

(* ---- stats command: one native run, operation + metric counters ---- *)

let stats_run workload np explore =
  let entry = find_workload workload in
  let np = Option.value np ~default:entry.default_np in
  if explore then begin
    (* A small pruned + cached exploration, so the cache.* and prune.*
       series carry real traffic (a single native run never populates
       them). *)
    let report =
      Explorer.verify
        ~config:
          {
            Explorer.default_config with
            max_runs = 500;
            prune = true;
            prefix_cache = Some Dampi.Prefix_cache.default_budget_bytes;
          }
        ~np (entry.build ())
    in
    Printf.printf "%s np=%d (exploration: %d interleavings, %d pruned)\n\n"
      entry.key np report.Report.interleavings report.Report.runs_pruned;
    Format.printf "%a" Obs.Metrics.pp report.Report.metrics;
    if Report.has_errors report then exit 1
  end
  else begin
    let registry = Obs.Metrics.create ~shards:1 () in
    let rt, outcome =
      Mpi.Bind.exec ~metrics:(Obs.Metrics.shard registry 0) ~np (entry.build ())
    in
    Printf.printf "%s np=%d (one native run)\n\n" entry.key np;
    Format.printf "%a@." Mpi.Stats.pp (Mpi.Runtime.stats rt);
    Format.printf "%a" Obs.Metrics.pp (Obs.Metrics.snapshot registry);
    match outcome with
    | Sim.Coroutine.All_finished -> ()
    | Sim.Coroutine.Deadlock _ ->
        print_endline "\n(run deadlocked)";
        exit 1
    | Sim.Coroutine.Crashed (pid, e, _) ->
        Printf.printf "\n(rank %d crashed: %s)\n" pid (Printexc.to_string e);
        exit 1
  end

let stats_cmd =
  let explore =
    Arg.(
      value & flag
      & info [ "explore" ]
          ~doc:
            "Instead of one native run, run a small pruned exploration with \
             the prefix cache on and print the merged exploration metrics \
             (including the $(b,cache.*) and $(b,prune.*) series).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload natively once and print its MPI operation counts \
          and runtime metrics.")
    Term.(
      const stats_run
      $ workload_arg "Workload to profile (see $(b,list))."
      $ np_flag $ explore)

(* ---- serve / submit / fetch: verification as a service ---- *)

let serve_run listen state_dir parallel max_queue max_queue_bytes max_inflight
    metrics_out log_level =
  set_log_level log_level;
  let addr =
    match listen with
    | None -> fail "serve needs --listen ADDR"
    | Some s -> parse_addr s
  in
  if parallel < 1 then fail "--parallel needs at least 1 job slot";
  if max_queue < 1 || max_queue_bytes < 1 || max_inflight < 1 then
    fail
      "--max-queue, --max-queue-bytes and --max-client-inflight need \
       positive values";
  let registry = Obs.Metrics.create ~shards:1 () in
  let finish () =
    match metrics_out with
    | Some path ->
        write_file path (Obs.Metrics.to_json (Obs.Metrics.snapshot registry))
    | None -> ()
  in
  let cfg =
    {
      Dampi.Serve.addr;
      state_dir;
      limits =
        {
          Dampi.Serve.default_limits with
          parallel;
          max_queue;
          max_queue_bytes;
          max_client_inflight = max_inflight;
        };
      validate = Job.admit;
      run = Job.serve_job;
      metrics = Some (Obs.Metrics.shard registry 0);
      ready =
        Some
          (fun a ->
            Printf.printf "listening on %s\n%!" (Dampi.Wire.addr_to_string a));
    }
  in
  match Dampi.Serve.serve cfg with
  | Ok code ->
      finish ();
      if code <> 0 then exit code
  | Error msg ->
      finish ();
      Printf.eprintf "%s\n" msg;
      exit 1

let serve_cmd =
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Address to serve on ($(b,unix:PATH) or $(b,tcp:HOST:PORT)). \
             Required.")
  in
  let state_dir =
    Arg.(
      value
      & opt string "dampi-serve.d"
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Where the job journal, per-job checkpoints (and their warm \
             prefix-cache sidecars), and parked reports live. A restarted \
             daemon pointed at the same directory re-admits every lost job \
             exactly once.")
  in
  let parallel =
    Arg.(
      value & opt int 2
      & info [ "parallel" ] ~docv:"N"
          ~doc:"Concurrent job processes (each job is a forked child).")
  in
  let max_queue =
    Arg.(
      value & opt int 32
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Queued-job cap; a submit past it gets a one-line \
             $(b,reject queue-full).")
  in
  let max_queue_bytes =
    Arg.(
      value
      & opt int 1048576
      & info [ "max-queue-bytes" ] ~docv:"BYTES"
          ~doc:"Byte cap on queued job specs (same reject).")
  in
  let max_inflight =
    Arg.(
      value & opt int 4
      & info [ "max-client-inflight" ] ~docv:"N"
          ~doc:
            "Per-client cap on queued+running jobs ($(b,reject \
             client-cap)).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the daemon's metrics snapshot (serve.jobs_*, queue \
             depth, per-job wall histograms) as JSON on exit.")
  in
  let log_level =
    log_level_flag
      "Stderr log level: $(b,quiet), $(b,error), $(b,warn), $(b,info) or \
       $(b,debug)."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident verification daemon: accepts $(b,submit) jobs \
          from many clients, runs each in a crash-isolated child process, \
          streams progress, and parks reports for $(b,fetch). SIGTERM \
          drains gracefully (in-flight jobs checkpoint and the journal \
          re-admits them on restart); a second SIGINT forces shutdown.")
    Term.(
      const serve_run $ listen $ state_dir $ parallel $ max_queue
      $ max_queue_bytes $ max_inflight $ metrics_out $ log_level)

(* Shared tail of submit and fetch: print the report, surface a crashed
   job's classification, exit with the job's code. *)
let finish_job ~report_lines ~status ~code ~msg ~backtrace =
  List.iter print_endline report_lines;
  (match status with
  | "crashed" ->
      Printf.eprintf "job failed: %s\n" msg;
      if backtrace <> "" then Printf.eprintf "%s" backtrace
  | "checkpointed" ->
      Printf.eprintf "daemon draining; job journaled for restart\n"
  | "cancelled" -> Printf.eprintf "job cancelled\n"
  | _ -> ());
  if code <> 0 then exit code

let submit_run job connect on_disconnect detach progress =
  let connect =
    match connect with Some c -> c | None -> fail "submit needs --connect ADDR"
  in
  let ondisc =
    match Dampi.Serve.on_disconnect_of_string on_disconnect with
    | Ok _ when detach -> Dampi.Serve.Detach
    | Ok o -> o
    | Error msg -> fail "%s" msg
  in
  let job = or_fail job in
  Dampi.Wire.with_sigpipe_ignored @@ fun () ->
  let ic =
    request connect
      (Dampi.Serve.submit_line ~params:(Job.to_params job)
         ~on_disconnect:ondisc)
  in
  let report_lines = ref [] in
  let ticking = ref false in
  let rec loop () =
    match Dampi.Serve.read_event ic with
    | Error e ->
        if !ticking then safe_eprintf "\n";
        Printf.eprintf "%s\n" e;
        exit 1
    | Ok (Dampi.Serve.Accepted id) ->
        if detach then begin
          Printf.printf "accepted id=%d\n" id;
          exit 0
        end
        else loop ()
    | Ok (Dampi.Serve.Rejected r) ->
        Printf.printf "reject %s\n" r;
        exit 1
    | Ok (Dampi.Serve.Errored { reason; _ }) -> fail "%s" reason
    | Ok (Dampi.Serve.Progress (_, kvs)) ->
        if progress then begin
          ticking := true;
          draw_progress job.workload kvs
        end;
        loop ()
    | Ok (Dampi.Serve.Report (_, lines)) ->
        report_lines := lines;
        loop ()
    | Ok (Dampi.Serve.Pending _) -> loop ()
    | Ok (Dampi.Serve.Done { status; code; msg; backtrace; _ }) ->
        if !ticking then safe_eprintf "\n";
        finish_job ~report_lines:!report_lines ~status ~code ~msg ~backtrace
  in
  loop ()

let submit_cmd =
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Daemon address ($(b,unix:PATH) or $(b,tcp:HOST:PORT)) — what \
             $(b,dampi serve --listen) was given. Required.")
  in
  let on_disconnect =
    Arg.(
      value & opt string "cancel"
      & info [ "on-disconnect" ] ~docv:"POLICY"
          ~doc:
            "What the daemon does with this job if the connection drops: \
             $(b,cancel) it, or $(b,detach) it to finish and park its \
             report for $(b,fetch).")
  in
  let detach =
    Arg.(
      value & flag
      & info [ "detach" ]
          ~doc:
            "Print $(b,accepted id=N) and exit as soon as the job is \
             admitted (implies $(b,--on-disconnect detach)); collect the \
             report later with $(b,dampi fetch).")
  in
  let progress =
    progress_flag "Redraw the daemon's streamed progress on stderr."
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a verification job to a running $(b,dampi serve) daemon, \
          stream its progress, and print its report. Takes $(b,verify)'s job \
          flags; the report is the one $(b,verify) would print. Exit code \
          mirrors $(b,verify): 0 clean, 1 findings, 3 interrupted.")
    Term.(
      const submit_run $ job_term $ connect $ on_disconnect $ detach
      $ progress)

let fetch_run connect id =
  let connect =
    match connect with Some c -> c | None -> fail "fetch needs --connect ADDR"
  in
  Dampi.Wire.with_sigpipe_ignored @@ fun () ->
  let ic = request connect (Dampi.Serve.fetch_line id) in
  let report_lines = ref [] in
  let rec loop () =
    match Dampi.Serve.read_event ic with
    | Error e ->
        Printf.eprintf "%s\n" e;
        exit 1
    | Ok (Dampi.Serve.Report (_, lines)) ->
        report_lines := lines;
        loop ()
    | Ok (Dampi.Serve.Pending { state; _ }) ->
        Printf.eprintf "job %d is still %s\n" id state;
        exit 3
    | Ok (Dampi.Serve.Errored { reason; _ }) -> fail "%s" reason
    | Ok (Dampi.Serve.Done { status; code; msg; backtrace; _ }) ->
        finish_job ~report_lines:!report_lines ~status ~code ~msg ~backtrace
    | Ok _ -> loop ()
  in
  loop ()

let fetch_cmd =
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR" ~doc:"Daemon address. Required.")
  in
  let id =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"ID"
          ~doc:"Job id, as printed by $(b,submit) ($(b,accepted id=N)).")
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:
         "Collect the parked report of a detached or recovered job from a \
          $(b,dampi serve) daemon. A report can be fetched exactly once. \
          Exits 3 while the job is still queued or running.")
    Term.(const fetch_run $ connect $ id)

let main =
  Cmd.group
    (Cmd.info "dampi" ~version:"1.0.0"
       ~doc:
         "Distributed Analyzer for MPI programs — dynamic formal verification \
          over a simulated MPI runtime (SC'10 reproduction).")
    [ list_cmd; verify_cmd; replay_cmd; trace_cmd; stats_cmd;
      worker_cmd; top_cmd; serve_cmd; submit_cmd; fetch_cmd ]

let () = exit (Cmd.eval main)