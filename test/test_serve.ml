(* The serve daemon's acceptance bar, exercised against a genuinely
   forked daemon process over a real unix socket:

   - differential: concurrent jobs produce byte-identical reports to a
     standalone in-process verification of the same configuration, even
     while a sibling job crashes (fork-per-job isolation);
   - admission: queue and per-client caps answer with one-line rejects
     and the daemon keeps serving; rejects are counted;
   - lifecycle: a vanished client cancels its running job (policy
     cancel) or lets it finish and park (policy detach + fetch, consumed
     exactly once);
   - robustness: seeded random garbage lines and an over-cap
     unterminated flood never terminate the daemon;
   - drain/recovery: SIGTERM with queued and running work exits 0 with
     every admitted job journaled; a restarted daemon on the same state
     dir completes each exactly once. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module Serve = Dampi.Serve
module Wire = Dampi.Wire
module Checkpoint = Dampi.Checkpoint

(* ---- the daemon's workload registry for these tests ---- *)

let workload = function
  | "fig3" -> Some (3, fun () -> Workloads.Patterns.fig3)
  | "fig4" -> Some (4, fun () -> Workloads.Patterns.fig4)
  | _ -> None

let known = [ "fig3"; "fig4"; "boom"; "slow"; "park" ]

let test_validate params =
  match List.assoc_opt "workload" params with
  | None -> Error "submit needs workload=<key>"
  | Some w ->
      if List.mem w known then Ok ("test " ^ w)
      else Error (Printf.sprintf "unknown workload %S" w)

(* Deterministic render shared by the daemon child and the standalone
   differential below: counts and sorted signatures, no wall times. *)
let render name (r : Report.t) =
  let sigs =
    List.map
      (fun (f : Report.finding) -> Report.error_signature f.Report.error)
      r.Report.findings
    |> List.sort_uniq compare
  in
  Printf.sprintf "%s: %d interleavings, findings [%s]\n" name
    r.Report.interleavings (String.concat "; " sigs)

let explore name =
  match workload name with
  | None -> Alcotest.failf "no such exploratory workload %s" name
  | Some (np, build) ->
      Explorer.verify ~config:Explorer.default_config ~np (build ())

(* Runs inside the daemon's forked job child. *)
let test_run ~ckpt ~label:_ ~params ~progress =
  match Option.value (List.assoc_opt "workload" params) ~default:"" with
  | "boom" -> failwith "boom exploded"
  | "slow" ->
      progress [ ("phase", "sleep") ];
      Unix.sleepf 1.2;
      Serve.Completed { report = "slow done\n"; code = 0 }
  | "park" ->
      if Sys.file_exists ckpt then
        Serve.Completed { report = "parked done\n"; code = 0 }
      else begin
        ignore (Checkpoint.atomic_write ckpt "armed");
        let hit = ref false in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> hit := true));
        progress [ ("phase", "armed") ];
        let deadline = Unix.gettimeofday () +. 10. in
        while (not !hit) && Unix.gettimeofday () < deadline do
          try Unix.sleepf 0.05
          with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        if !hit then Serve.Checkpointed
        else Serve.Completed { report = "park timed out\n"; code = 1 }
      end
  | name ->
      let report = explore name in
      Serve.Completed
        {
          report = render name report;
          code = (if Report.has_errors report then 1 else 0);
        }

(* ---- harness plumbing ---- *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dampi-serve-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let metrics_file state_dir = Filename.concat state_dir "metrics.json"

let start_daemon ?(limits = Serve.default_limits) ?(validate = test_validate)
    ?(run = test_run) ~state_dir () =
  let sock = Filename.concat state_dir "serve.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let registry = Obs.Metrics.create ~shards:1 () in
      let code =
        match
          Serve.serve
            {
              Serve.addr = Wire.Unix_sock sock;
              state_dir;
              limits;
              validate;
              run;
              metrics = Some (Obs.Metrics.shard registry 0);
              ready = None;
            }
        with
        | Ok c ->
            (* parent asserts on this snapshot after waitpid *)
            ignore
              (Checkpoint.atomic_write (metrics_file state_dir)
                 (Obs.Metrics.to_json (Obs.Metrics.snapshot registry)));
            c
        | Error msg ->
            ignore
              (Checkpoint.atomic_write
                 (Filename.concat state_dir "daemon-error")
                 msg);
            1
      in
      Unix._exit code
  | pid -> (pid, sock)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED sg -> Alcotest.failf "daemon killed by signal %d" sg
  | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped"

type conn = { ic : in_channel; oc : out_channel }

let connect sock =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "daemon socket never came up";
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let disconnect c = try close_out c.oc with Sys_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let submit c ?(on_disconnect = Serve.Cancel) params =
  send c (Serve.submit_line ~params ~on_disconnect)

let event c =
  match Serve.read_event c.ic with
  | Ok e -> e
  | Error e -> Alcotest.failf "protocol error: %s" e

let expect_accepted c =
  match event c with
  | Serve.Accepted id -> id
  | _ -> Alcotest.fail "expected accepted"

(* Read to the job's terminal frame, collecting progress and report. *)
type finished = {
  progress_seen : int;
  report : string list;
  status : string;
  code : int;
  msg : string;
  backtrace : string;
}

let await_done c =
  let progress_seen = ref 0 and report = ref [] in
  let rec go () =
    match event c with
    | Serve.Progress _ ->
        incr progress_seen;
        go ()
    | Serve.Report (_, lines) ->
        report := lines;
        go ()
    | Serve.Done { status; code; msg; backtrace; _ } ->
        {
          progress_seen = !progress_seen;
          report = !report;
          status;
          code;
          msg;
          backtrace;
        }
    | Serve.Accepted _ | Serve.Pending _ -> go ()
    | Serve.Rejected r -> Alcotest.failf "unexpected reject %s" r
    | Serve.Errored { reason; _ } -> Alcotest.failf "unexpected error %s" reason
  in
  go ()

let await_progress c =
  let rec go () =
    match event c with
    | Serve.Progress _ -> ()
    | Serve.Accepted _ -> go ()
    | _ -> Alcotest.fail "expected a progress frame"
  in
  go ()

(* Poll a detached job until its parked report can be fetched. *)
let rec fetch_parked c id =
  send c (Serve.fetch_line id);
  match event c with
  | Serve.Pending _ ->
      Unix.sleepf 0.1;
      fetch_parked c id
  | Serve.Report (_, lines) -> (
      match event c with
      | Serve.Done { status; _ } -> (lines, status)
      | _ -> Alcotest.fail "report without done")
  | Serve.Done { status; _ } -> ([], status)
  | Serve.Errored { reason; _ } ->
      (* a recovered job's id is never unknown: that would be a job lost
         in recovery *)
      Alcotest.failf "job %d lost: %s" id reason
  | _ -> Alcotest.fail "unexpected fetch answer"

let report_text f = String.concat "" (List.map (fun l -> l ^ "\n") f.report)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let count_journal_jobs state_dir =
  read_file (Filename.concat state_dir "journal")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length l > 4 && String.sub l 0 4 = "job ")
  |> List.length

let metric_count state_dir name =
  (* the snapshot JSON carries ["<name>",<n>] counter pairs; a substring
     probe keeps this free of a JSON parser *)
  let json = read_file (metrics_file state_dir) in
  let needle = Printf.sprintf "\"%s\"" name in
  let rec find i =
    if i + String.length needle > String.length json then None
    else if String.sub json i (String.length needle) = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> 0
  | Some i ->
      let j = ref (i + String.length needle) in
      while
        !j < String.length json
        && not (json.[!j] >= '0' && json.[!j] <= '9')
      do
        incr j
      done;
      let k = ref !j in
      while
        !k < String.length json && json.[!k] >= '0' && json.[!k] <= '9'
      do
        incr k
      done;
      if !k > !j then int_of_string (String.sub json !j (!k - !j)) else 0

(* ---- tests ---- *)

(* Three concurrent jobs, one of which raises: the two sound jobs'
   reports are byte-identical to standalone verification, the crash is
   classified with its message and backtrace, and the daemon serves a
   fourth job afterwards. *)
let test_crash_isolation_differential () =
  let state_dir = fresh_dir () in
  let pid, sock = start_daemon ~state_dir () in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid))
    (fun () ->
      let c1 = connect sock and c2 = connect sock and c3 = connect sock in
      submit c1 [ ("workload", "fig3") ];
      submit c2 [ ("workload", "boom") ];
      submit c3 [ ("workload", "fig4") ];
      let f1 = await_done c1 in
      let f2 = await_done c2 in
      let f3 = await_done c3 in
      Alcotest.(check string) "fig3 status" "completed" f1.status;
      Alcotest.(check string)
        "fig3 report equals standalone verify"
        (render "fig3" (explore "fig3"))
        (report_text f1);
      Alcotest.(check string)
        "fig4 report equals standalone verify"
        (render "fig4" (explore "fig4"))
        (report_text f3);
      Alcotest.(check string) "boom status" "crashed" f2.status;
      Alcotest.(check bool) "boom message names the exception" true
        (let m = f2.msg in
         let rec mem i =
           i + 4 <= String.length m
           && (String.sub m i 4 = "boom" || mem (i + 1))
         in
         mem 0);
      List.iter disconnect [ c1; c2; c3 ];
      (* the daemon survived the crash: a fresh job still completes *)
      let c4 = connect sock in
      submit c4 [ ("workload", "fig3") ];
      let f4 = await_done c4 in
      Alcotest.(check string) "post-crash job" "completed" f4.status;
      disconnect c4)

(* Queue and per-client caps answer with one-line rejects; a vanished
   client's running job is cancelled; both are visible in the metrics
   snapshot the daemon writes on exit. *)
let test_admission_and_cancel () =
  let state_dir = fresh_dir () in
  let limits =
    { Serve.default_limits with parallel = 1; max_queue = 1;
      max_client_inflight = 1 }
  in
  let pid, sock = start_daemon ~limits ~state_dir () in
  let a = connect sock in
  submit a [ ("workload", "slow") ];
  ignore (expect_accepted a);
  (* the progress frame proves the job left the queue: the caps below
     are then deterministic *)
  await_progress a;
  submit a [ ("workload", "fig3") ];
  (match event a with
  | Serve.Rejected r -> Alcotest.(check string) "client cap" "client-cap" r
  | _ -> Alcotest.fail "expected reject client-cap");
  let b = connect sock in
  submit b [ ("workload", "fig3") ];
  ignore (expect_accepted b);
  let c = connect sock in
  submit c [ ("workload", "fig4") ];
  (match event c with
  | Serve.Rejected r -> Alcotest.(check string) "queue cap" "queue-full" r
  | _ -> Alcotest.fail "expected reject queue-full");
  disconnect c;
  (* drop the slow job's submitter: policy cancel SIGTERMs the child and
     frees the slot for b's queued job *)
  disconnect a;
  let fb = await_done b in
  Alcotest.(check string) "queued job completes after cancel" "completed"
    fb.status;
  disconnect b;
  Alcotest.(check int) "daemon drained" 0 (stop_daemon pid);
  Alcotest.(check bool) "rejects counted" true
    (metric_count state_dir "serve.jobs_rejected" >= 2);
  Alcotest.(check bool) "cancellation counted" true
    (metric_count state_dir "serve.jobs_cancelled" >= 1)

(* Seeded random garbage, bad submits, a bad fetch and an over-cap
   unterminated flood: every line gets a versioned error (or a close for
   the flood), and the daemon still completes a real job afterwards. *)
let test_garbage_never_kills () =
  let state_dir = fresh_dir () in
  let limits = { Serve.default_limits with max_line = 512 } in
  let pid, sock = start_daemon ~limits ~state_dir () in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid))
    (fun () ->
      let rng = Random.State.make [| 0x5e4e |] in
      let garbage () =
        String.init
          (1 + Random.State.int rng 60)
          (fun _ ->
            (* printable, never '\n' *)
            Char.chr (32 + Random.State.int rng 95))
      in
      let c = connect sock in
      for _ = 1 to 50 do
        send c (garbage ());
        match event c with
        | Serve.Errored { proto; _ } ->
            Alcotest.(check int) "versioned error" Serve.proto proto
        | Serve.Rejected _ -> ()
        | _ -> Alcotest.fail "garbage must answer with an error"
      done;
      send c "submit workload=nope";
      (match event c with
      | Serve.Errored _ -> ()
      | _ -> Alcotest.fail "bad submit must answer with an error");
      send c "fetch zzz";
      (match event c with
      | Serve.Errored _ -> ()
      | _ -> Alcotest.fail "bad fetch must answer with an error");
      (* unterminated flood past the line cap: one error, then close *)
      output_string c.oc (String.make (limits.Serve.max_line + 64) 'x');
      flush c.oc;
      (match Serve.read_event c.ic with
      | Ok (Serve.Errored _) -> ()
      | Ok _ -> Alcotest.fail "flood must answer with an error"
      | Error _ -> () (* already closed: also acceptable *));
      (match Serve.read_event c.ic with
      | Error _ -> () (* connection closed after the overflow error *)
      | Ok _ -> Alcotest.fail "daemon must close a flooding connection");
      disconnect c;
      let c2 = connect sock in
      submit c2 [ ("workload", "fig3") ];
      let f = await_done c2 in
      Alcotest.(check string) "daemon survived the garbage" "completed"
        f.status;
      disconnect c2)

(* Detach: the job outlives its submitter, parks its report, and a later
   fetch consumes it exactly once. *)
let test_detach_and_fetch () =
  let state_dir = fresh_dir () in
  let pid, sock = start_daemon ~state_dir () in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid))
    (fun () ->
      let a = connect sock in
      submit a ~on_disconnect:Serve.Detach [ ("workload", "slow") ];
      let id = expect_accepted a in
      await_progress a;
      disconnect a;
      let b = connect sock in
      let lines, status = fetch_parked b id in
      Alcotest.(check string) "parked status" "completed" status;
      Alcotest.(check (list string)) "parked report" [ "slow done" ] lines;
      send b (Serve.fetch_line id);
      (match event b with
      | Serve.Errored _ -> () (* consumed exactly once *)
      | _ -> Alcotest.fail "second fetch must fail");
      disconnect b)

(* SIGTERM with one running (checkpointable) and one queued job: exit 0,
   both journaled; a restarted daemon on the same state dir completes
   each exactly once and parks their reports. *)
let test_drain_and_recovery () =
  let state_dir = fresh_dir () in
  let limits = { Serve.default_limits with parallel = 1 } in
  let pid, sock = start_daemon ~limits ~state_dir () in
  let a = connect sock in
  submit a ~on_disconnect:Serve.Detach [ ("workload", "park") ];
  let park_id = expect_accepted a in
  await_progress a (* the park job is running and trap-armed *);
  let b = connect sock in
  submit b ~on_disconnect:Serve.Detach [ ("workload", "fig3") ];
  let fig_id = expect_accepted b in
  Unix.kill pid Sys.sigterm;
  (* the queued job's submitter is told its job rides the journal *)
  let fb = await_done b in
  Alcotest.(check string) "queued job checkpointed" "checkpointed" fb.status;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | st ->
      Alcotest.failf "drain must exit 0, got %s"
        (match st with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED sg -> Printf.sprintf "signal %d" sg
        | Unix.WSTOPPED _ -> "stop"));
  disconnect a;
  disconnect b;
  Alcotest.(check int) "both jobs journaled" 2 (count_journal_jobs state_dir);
  (* restart on the same state dir: both jobs re-admitted, run detached,
     and park their reports *)
  let pid2, sock2 = start_daemon ~state_dir () in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid2))
    (fun () ->
      let c = connect sock2 in
      let park_lines, park_status = fetch_parked c park_id in
      Alcotest.(check string) "park resumed to completion" "completed"
        park_status;
      Alcotest.(check (list string)) "park report" [ "parked done" ] park_lines;
      let fig_lines, fig_status = fetch_parked c fig_id in
      Alcotest.(check string) "fig3 recovered" "completed" fig_status;
      Alcotest.(check string)
        "recovered fig3 report equals standalone verify"
        (render "fig3" (explore "fig3"))
        (String.concat "" (List.map (fun l -> l ^ "\n") fig_lines));
      (* exactly once: the ids are gone now *)
      send c (Serve.fetch_line park_id);
      (match event c with
      | Serve.Errored _ -> ()
      | _ -> Alcotest.fail "re-fetch of a consumed job must fail");
      disconnect c)

(* ---- the CLI's job spec behind the daemon ---- *)

let start_job_daemon ~state_dir =
  start_daemon ~validate:Job.admit ~run:Job.serve_job ~state_dir ()

let without_host_time text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         not (String.length l >= 10 && String.sub l 0 10 = "host time:"))
  |> String.concat "\n"

(* A job with flags the daemon once refused (fault injection, bounded
   mixing) reports exactly what [dampi verify] prints for it: quiet
   byte-equal, the full report equal but for its wall-clock line. *)
let test_submitted_job_reports_as_verify () =
  let state_dir = fresh_dir () in
  let pid, sock = start_job_daemon ~state_dir in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid))
    (fun () ->
      let base =
        match Job.default "adlb" with
        | Ok d -> { d with np = 6; k = Some 0; fault_seed = Some 7 }
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun quiet ->
          let job = { base with quiet } in
          let c = connect sock in
          submit c (Job.to_params job);
          let f = await_done c in
          disconnect c;
          Alcotest.(check string) "status" "completed" f.status;
          let report, text = Job.run job in
          Alcotest.(check int) "exit code"
            (if Report.has_errors report then 1 else 0)
            f.code;
          if quiet then
            Alcotest.(check string) "quiet report byte-equal" text
              (report_text f)
          else
            Alcotest.(check string) "full report equal"
              (without_host_time text)
              (without_host_time (report_text f)))
        [ true; false ])

(* A journal written before the job spec existed (sparse submit params,
   no engine key) is re-admitted under the label earlier builds gave it:
   the job's cache sidecar lands at that label's path. *)
let test_earlier_journal_readmitted () =
  let state_dir = fresh_dir () in
  ignore
    (Checkpoint.atomic_write
       (Filename.concat state_dir "journal")
       "# DAMPI serve journal\nversion 1\nnext 2\njob 1 detach \
        workload=matmult k=0 prefix-cache=1048576 quiet=true\n");
  let pid, sock = start_job_daemon ~state_dir in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid))
    (fun () ->
      let c = connect sock in
      let lines, status = fetch_parked c 1 in
      disconnect c;
      Alcotest.(check string) "recovered" "completed" status;
      Alcotest.(check (list string)) "report"
        [ "matmult np=5: 7 interleavings, 0 findings" ]
        lines;
      let label =
        "dampi matmult np=5 clock=lamport k=0 dual=false prune=true"
      in
      Alcotest.(check bool) "sidecar under the earlier label" true
        (Sys.file_exists
           (Filename.concat state_dir
              ("job-" ^ Digest.to_hex (Digest.string label) ^ ".ck.cache"))))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "crash isolation is differential" `Quick
            test_crash_isolation_differential;
          Alcotest.test_case "admission caps and disconnect-cancel" `Quick
            test_admission_and_cancel;
          Alcotest.test_case "garbage and floods never kill" `Quick
            test_garbage_never_kills;
          Alcotest.test_case "detach, park, fetch-once" `Quick
            test_detach_and_fetch;
          Alcotest.test_case "drain journals, restart recovers" `Quick
            test_drain_and_recovery;
        ] );
      ( "job spec",
        [
          Alcotest.test_case "a submitted job reports as verify does" `Quick
            test_submitted_job_reports_as_verify;
          Alcotest.test_case "an earlier journal keeps its labels" `Quick
            test_earlier_journal_readmitted;
        ] );
    ]
