(* Checkpoint/resume of the exploration frontier.

   The contract under test (the wire-format contract of the future
   distributed mode): interrupting an exploration at ANY cut point, on any
   worker count, and resuming from the written checkpoint reaches exactly
   the same canonical report as the uninterrupted exploration — same
   interleaving count, same findings with the same canonical reproduction
   schedules, same bounded-epoch and wildcard counts. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Checkpoint = Dampi.Checkpoint
module Decisions = Dampi.Decisions

(* ---- serialization round-trip ---- *)

let sample_decision i =
  {
    Decisions.owner = i mod 5;
    epoch_id = 3 * i;
    src = (i + 1) mod 5;
    kind = (if i mod 2 = 0 then Dampi.Epoch.Wildcard_recv else Dampi.Epoch.Wildcard_probe);
  }

let sample_checkpoint =
  let d = sample_decision in
  let prefix = [ d 1; d 2 ] in
  {
    Checkpoint.label = "dampi adlb np=6 clock=lamport k=0 dual=false";
    np = 6;
    complete = false;
    totals =
      {
        Checkpoint.runs = 37;
        cancelled = 2;
        timed_out = 3;
        retried = 4;
        crashed = 1;
        alerts = 5;
        bounded = 11;
        wildcards = 13;
        first_makespan = 0.12345678901234567;
        total_vtime = 1.9876543210987654e-3;
        pruned = 6;
      };
    findings =
      [
        {
          Report.error = Report.Deadlock { blocked = [ (0, "recv from 1, tag any"); (1, "collective barrier on dup(world)") ] };
          run_index = 3;
          schedule = [ d 1; d 2 ];
        };
        {
          Report.error = Report.Crash { pid = 2; message = "Failure(\"bug: got 33 — unexpected\")" };
          run_index = 5;
          schedule = [ d 3 ];
        };
        {
          Report.error = Report.Comm_leak { pid = 1; labels = [ "dup(world)(ctx=7)"; "split:0(ctx=9)" ] };
          run_index = 0;
          schedule = [];
        };
        {
          Report.error = Report.Request_leak { pid = 4; count = 2 };
          run_index = 1;
          schedule = [ d 4 ];
        };
        {
          Report.error = Report.Monitor_alert { pid = 0; epoch_id = 6; op = "send to 2" };
          run_index = 2;
          schedule = [ d 5; d 6 ];
        };
        {
          Report.error = Report.Replay_divergence { count = 1 };
          run_index = 4;
          schedule = [ d 7 ];
        };
      ];
    frontier =
      [
        Checkpoint.make_item ~prefix:[] ~choice:(d 1) ~sleep:[] ();
        Checkpoint.make_item ~prefix ~choice:(d 3)
          ~sleep:
            [
              {
                Dampi.Epoch.s_owner = 2;
                s_id = 9;
                s_kind = Dampi.Epoch.Wildcard_recv;
                s_ctx = 0;
                s_tag = 7;
                s_matched = 1;
                s_alternatives = [ 3; 4 ];
                s_expandable = true;
              };
            ]
          ();
        (* a sibling: its line writes [=] for the shared prefix *)
        Checkpoint.make_item ~prefix ~choice:(d 4) ~sleep:[] ();
      ];
    epoch = 4;
  }

let test_roundtrip () =
  let text = Checkpoint.to_string sample_checkpoint in
  match Checkpoint.of_string text with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok c ->
      Alcotest.(check bool)
        "structurally identical after a round trip" true
        (c = sample_checkpoint);
      (* floats survive exactly (hex serialization) *)
      Alcotest.(check bool)
        "exact float round trip" true
        (c.Checkpoint.totals.first_makespan
         = sample_checkpoint.Checkpoint.totals.first_makespan
        && c.Checkpoint.totals.total_vtime
           = sample_checkpoint.Checkpoint.totals.total_vtime)

(* The exact bytes of a checkpoint: line order, hex floats, percent-encoded
   text, and the [epoch]/[pruned] lines omitted when zero. Checkpoints are
   persisted across versions of the tool, so any change here is a format
   change. *)
let golden_sample =
  String.concat "\n"
    [
      "# DAMPI checkpoint";
      "version 3";
      "label dampi%20adlb%20np%3D6%20clock%3Dlamport%20k%3D0%20dual%3Dfalse";
      "np 6";
      "complete 0";
      "runs 37";
      "cancelled 2";
      "timed-out 3";
      "retried 4";
      "crashed 1";
      "alerts 5";
      "bounded 11";
      "wildcards 13";
      "first-makespan 0x1.f9add3746f65ep-4";
      "total-vtime 0x1.04869c9c18383p-9";
      "epoch 4";
      "pruned 6";
      "finding 3 probe:1:3:2,recv:2:6:3 deadlock \
       0:recv%20from%201%2C%20tag%20any;1:collective%20barrier%20on%20dup%28world%29";
      "finding 5 probe:3:9:4 crash \
       2:Failure%28%22bug%3A%20got%2033%20%E2%80%94%20unexpected%22%29";
      "finding 0 - commleak 1:dup%28world%29%28ctx%3D7%29;split%3A0%28ctx%3D9%29";
      "finding 1 recv:4:12:0 reqleak 4:2";
      "finding 2 probe:0:15:1,recv:1:18:2 monitor 0:6:send%20to%202";
      "finding 4 probe:2:21:3 divergence 1";
      "item - probe:1:3:2";
      "item probe:1:3:2,recv:2:6:3 probe:3:9:4 recv:2:9:0:7:1:1:3.4";
      "item = recv:4:12:0";
      "";
    ]

let golden_zeroes =
  String.concat "\n"
    [
      "# DAMPI checkpoint";
      "version 3";
      "label fig3";
      "np 3";
      "complete 1";
      "runs 2";
      "cancelled 0";
      "timed-out 0";
      "retried 0";
      "crashed 0";
      "alerts 0";
      "bounded 0";
      "wildcards 1";
      "first-makespan 0x1.8p-3";
      "total-vtime 0x1.8p-2";
      "";
    ]

let test_golden_bytes () =
  Alcotest.(check string)
    "sample checkpoint bytes" golden_sample
    (Checkpoint.to_string sample_checkpoint);
  match Checkpoint.of_string golden_zeroes with
  | Error e -> Alcotest.failf "golden document rejected: %s" e
  | Ok c ->
      Alcotest.(check string)
        "zero epoch and pruned stay omitted" golden_zeroes
        (Checkpoint.to_string c)

(* The line-oriented format's worst enemies: findings whose free text
   carries newlines, tabs, pipes, the field separators themselves, raw
   percent signs, CRLF, and non-ASCII. Percent-encoding must keep every
   serialized line a single line and round-trip the text byte-exactly —
   this is also the distributed wire's framing safety, which reuses these
   encodings verbatim. *)
let test_hostile_text_roundtrip () =
  let d = sample_decision in
  let hostile =
    [
      "line one\nline two";
      "tab\there and trailing\t";
      "pipe | in | the middle";
      "percent%25 raw% and %0A";
      "crlf\r\nand a ; semicolon";
      "unicode \xe2\x80\x94 d\xc3\xa9j\xc3\xa0 vu";
      "";
    ]
  in
  let findings =
    List.mapi
      (fun i text ->
        let error =
          match i mod 4 with
          | 0 -> Report.Crash { pid = i; message = text }
          | 1 -> Report.Deadlock { blocked = [ (i, text); (i + 1, "plain") ] }
          | 2 -> Report.Comm_leak { pid = i; labels = [ text; "ctx=1" ] }
          | _ -> Report.Monitor_alert { pid = i; epoch_id = i; op = text }
        in
        { Report.error; run_index = i; schedule = [ d i ] })
      hostile
  in
  let ck =
    {
      sample_checkpoint with
      Checkpoint.findings;
      label = "hostile\nlabel | with\ttabs and %";
    }
  in
  let text = Checkpoint.to_string ck in
  (* Framing safety first: no payload may smuggle a raw control character
     into the line structure. *)
  String.iter
    (fun c ->
      if c = '\r' then Alcotest.fail "raw CR leaked into the serialized form")
    text;
  match Checkpoint.of_string text with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok c ->
      Alcotest.(check bool)
        "hostile text survives byte-exactly" true (c = ck)

let test_save_load () =
  let path = Filename.temp_file "dampi_ck" ".dampi" in
  (match Checkpoint.save sample_checkpoint path with
  | Checkpoint.Written -> ()
  | Checkpoint.Degraded msg -> Alcotest.failf "save degraded: %s" msg);
  Alcotest.(check bool)
    "no temp file left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  (match Checkpoint.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok c ->
      Alcotest.(check bool) "load = save" true (c = sample_checkpoint));
  Sys.remove path

let test_load_errors () =
  let expect_error text fragment =
    match Checkpoint.of_string text with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" fragment
    | Error e ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %S (got %S)" fragment e)
          true (contains e fragment)
  in
  expect_error "garbage\n" "not a DAMPI checkpoint";
  expect_error "# DAMPI checkpoint\nversion 99\n" "version 99";
  expect_error "# DAMPI checkpoint\nruns 3\n" "version";
  (* the version-2 format spelled out every prefix; it is refused whole *)
  expect_error
    "# DAMPI checkpoint\nversion 2\nitem - recv:1:0:2\n"
    "checkpoint version 2 not supported (this build reads version 3)";
  (* [=] names the previous item's prefix; the first item has none *)
  expect_error "# DAMPI checkpoint\nversion 3\nitem = recv:1:0:2\n" "malformed item line";
  match Checkpoint.load "/nonexistent/path/x.dampi" with
  | Ok _ -> Alcotest.fail "loading a missing file should fail"
  | Error _ -> ()

(* K siblings under a D-decision prefix, as [Prune.expand] makes them
   (one epoch with K alternatives after a D-decision plan), write their
   prefix once: O(D + K) bytes. Doubling both D and K doubles the file; a
   writer that spells every item's prefix out (O(D K)) quadruples it. *)
let test_grouped_frontier_is_linear () =
  let bytes ~d ~k =
    let plan_decisions = List.init d sample_decision in
    let epoch =
      {
        Dampi.Epoch.s_owner = 0;
        s_id = 3 * d;
        s_kind = Dampi.Epoch.Wildcard_recv;
        s_ctx = 0;
        s_tag = 0;
        s_matched = 1;
        s_alternatives = List.init k (fun i -> i + 2);
        s_expandable = true;
      }
    in
    let exp =
      Dampi.Prune.expand ~prune:false ~sleep:[] ~plan_decisions [ epoch ]
    in
    Alcotest.(check int) "K siblings" k (List.length exp.Dampi.Prune.items);
    let ck =
      { sample_checkpoint with Checkpoint.findings = []; frontier = exp.Dampi.Prune.items }
    in
    let text = Checkpoint.to_string ck in
    (match Checkpoint.of_string text with
    | Ok back -> Alcotest.(check bool) "round trip" true (back = ck)
    | Error e -> Alcotest.failf "re-parse failed: %s" e);
    String.length text
  in
  let small = bytes ~d:400 ~k:400 and large = bytes ~d:800 ~k:800 in
  let ratio = float_of_int large /. float_of_int small in
  Alcotest.(check bool)
    (Printf.sprintf "bytes at D = K = 800 <= 2.5x those at 400 (%d / %d = %.2f)" large small ratio)
    true (ratio <= 2.5)

(* ---- interrupted exploration resumes to the uninterrupted report ---- *)

let canonical (r : Report.t) =
  ( r.Report.interleavings,
    Dist_harness.signatures r,
    List.map
      (fun (f : Report.finding) ->
        Format.asprintf "%a" Report.pp_finding
          { f with Report.run_index = 0 })
      r.Report.findings,
    r.Report.bounded_epochs,
    r.Report.wildcards_analyzed,
    r.Report.runs_pruned )

(* (name, np, state config, program builder, prune) *)
let registry =
  let k0 = State.make_config ~mixing_bound:0 () in
  [
    ("fig3", 3, State.default_config, (fun () -> Workloads.Patterns.fig3), false);
    ("adlb/k0", 6, k0, (fun () -> Workloads.Adlb.program ()), false);
    ("twin", 8, State.default_config, (fun () -> Dist_harness.twin_servers), true);
  ]

let config ?(prune = false) ~state_config ~jobs ~robustness () =
  { Explorer.default_config with state_config; jobs; prune; robustness }

let with_temp_checkpoint f =
  let path = Filename.temp_file "dampi_ck" ".dampi" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Interrupt deterministically after [cut] completed replays (the test
   stand-in for SIGTERM: it raises the same flag the signal handler sets),
   then resume from the checkpoint and compare against the baseline. *)
let check_cut ~name ~np ~state_config ~build ~prune ~jobs ~cut baseline =
  with_temp_checkpoint @@ fun path ->
  let ck = { Explorer.path; every = 0; label = name } in
  let interrupted =
    Explorer.verify
      ~config:
        (config ~prune ~state_config ~jobs
           ~robustness:
             {
               Explorer.default_robustness with
               checkpoint = Some ck;
               interrupt_after = Some cut;
             }
           ())
      ~np (build ())
  in
  if interrupted.Report.interrupted then begin
    Alcotest.(check bool)
      (Printf.sprintf "%s: checkpoint written at cut %d" name cut)
      true (Sys.file_exists path);
    let resumed =
      match Checkpoint.load path with
      | Error e -> Alcotest.failf "%s: reload at cut %d: %s" name cut e
      | Ok c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: cut %d not marked complete" name cut)
            false c.Checkpoint.complete;
          Explorer.verify
            ~config:
              (config ~prune ~state_config ~jobs
                 ~robustness:
                   {
                     Explorer.default_robustness with
                     checkpoint = Some ck;
                   }
                 ())
            ~resume:c ~np (build ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: resumed report = uninterrupted (cut %d, jobs %d)"
         name cut jobs)
      true
      (canonical resumed = baseline)
  end
  else
    (* The exploration finished before the cut (small space): it must then
       simply equal the baseline. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s: uninterrupted (cut %d beyond space)" name cut)
      true
      (canonical interrupted = baseline)

let test_resume_equivalence (name, np, state_config, build, prune) () =
  let baseline =
    canonical
      (Explorer.verify
         ~config:
           (config ~prune ~state_config ~jobs:1
              ~robustness:Explorer.default_robustness ())
         ~np (build ()))
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun cut ->
          check_cut ~name ~np ~state_config ~build ~prune ~jobs ~cut baseline)
        [ 1; 2; 7; 23 ])
    [ 1; 4 ]

(* Interrupt repeatedly — every ~8 replays — resuming each time from the
   previous checkpoint, until the exploration completes. The chain of
   partial explorations must still land on the baseline. *)
let test_chained_resume () =
  let np = 6 in
  let state_config = State.make_config ~mixing_bound:0 () in
  let build () = Workloads.Adlb.program () in
  let baseline =
    canonical
      (Explorer.verify
         ~config:
           (config ~state_config ~jobs:1
              ~robustness:Explorer.default_robustness ())
         ~np (build ()))
  in
  with_temp_checkpoint @@ fun path ->
  let ck = { Explorer.path; every = 3; label = "chain" } in
  let rec go ~resume ~limit ~hops =
    if hops > 40 then Alcotest.fail "resume chain does not converge";
    let report =
      Explorer.verify
        ~config:
          (config ~state_config ~jobs:4
             ~robustness:
               {
                 Explorer.default_robustness with
                 checkpoint = Some ck;
                 interrupt_after = Some limit;
               }
             ())
        ?resume ~np (build ())
    in
    if report.Report.interrupted then
      match Checkpoint.load path with
      | Error e -> Alcotest.failf "hop %d: reload: %s" hops e
      | Ok c -> go ~resume:(Some c) ~limit:(limit + 8) ~hops:(hops + 1)
    else (report, hops)
  in
  let final, hops = go ~resume:None ~limit:8 ~hops:0 in
  Alcotest.(check bool) "took several hops" true (hops >= 2);
  Alcotest.(check bool)
    "chained resume lands on the uninterrupted report" true
    (canonical final = baseline)

(* Resuming a completed checkpoint re-reports without re-running anything. *)
let test_resume_complete () =
  let np = 3 in
  with_temp_checkpoint @@ fun path ->
  let ck = { Explorer.path; every = 0; label = "fig3" } in
  let robustness =
    { Explorer.default_robustness with checkpoint = Some ck }
  in
  let first =
    Explorer.verify
      ~config:(config ~state_config:State.default_config ~jobs:1 ~robustness ())
      ~np Workloads.Patterns.fig3
  in
  let c =
    match Checkpoint.load path with
    | Ok c -> c
    | Error e -> Alcotest.failf "load: %s" e
  in
  Alcotest.(check bool) "marked complete" true c.Checkpoint.complete;
  let again =
    Explorer.verify
      ~config:(config ~state_config:State.default_config ~jobs:1 ~robustness ())
      ~resume:c ~np Workloads.Patterns.fig3
  in
  Alcotest.(check bool)
    "same canonical report" true
    (canonical again = canonical first);
  let executed (r : Report.t) =
    List.fold_left
      (fun acc (w : Report.worker_stat) -> acc + w.Report.runs_executed)
      0 r.Report.workers
  in
  Alcotest.(check int) "no replay re-executed" 0 (executed again)

(* A periodic checkpoint can land between a replay's count and its
   expansion: with [every = 1] one is written after every counted replay,
   while that replay is still in flight. Loading the file at the runner's
   Nth call captures the cut replay N-1 left behind; the cut holds that
   replay's children in its place. Resumed on the pool and on
   distribute=2, every such cut must reach the uninterrupted report,
   pruned-run count included, and the pool must replay only the runs the
   cut had not counted. *)
let test_resume_between_count_and_expansion () =
  let name, np, state_config, build, prune =
    List.find (fun (n, _, _, _, _) -> n = "twin") registry
  in
  let cfg robustness = config ~prune ~state_config ~jobs:1 ~robustness () in
  let plain = cfg Explorer.default_robustness in
  let baseline = canonical (Explorer.verify ~config:plain ~np (build ())) in
  let cuts =
    with_temp_checkpoint @@ fun path ->
    let runner = Explorer.dampi_runner plain ~np (build ()) in
    let calls = ref 0 in
    let cuts = ref [] in
    let cutting ~ctx plan ~fork_index =
      incr calls;
      (match Checkpoint.load path with
      | Ok c -> cuts := (!calls, c) :: !cuts
      | Error _ -> ());
      runner ~ctx plan ~fork_index
    in
    let full =
      Explorer.explore
        ~config:
          (cfg
             {
               Explorer.default_robustness with
               checkpoint = Some { Explorer.path; every = 1; label = name };
             })
        ~np cutting
    in
    Alcotest.(check bool)
      "checkpointed run = uninterrupted" true
      (canonical full = baseline);
    List.rev !cuts
  in
  Alcotest.(check (list int))
    "one cut before each of runner calls 3..11"
    (List.init 9 (fun i -> i + 3))
    (List.map fst cuts);
  List.iter
    (fun (n, c) ->
      let pool = Explorer.verify ~config:plain ~resume:c ~np (build ()) in
      let dist =
        Dist_harness.verify_distributed ~config:plain ~resume:c
          ~resolve:
            (Dist_harness.resolver ~prune [ (name, np, state_config, build) ])
          ~name ~np build
      in
      List.iter
        (fun (backend, (r : Report.t)) ->
          Alcotest.(check int)
            (Printf.sprintf "cut at call %d, %s: pruned-run count" n backend)
            (let _, _, _, _, _, pruned = baseline in
             pruned)
            r.Report.runs_pruned;
          Alcotest.(check bool)
            (Printf.sprintf "cut at call %d, %s: resumed = uninterrupted" n
               backend)
            true
            (canonical r = baseline))
        [ ("pool", pool); ("distribute=2", dist) ];
      let interleavings, _, _, _, _, _ = baseline in
      Alcotest.(check int)
        (Printf.sprintf "cut at call %d, pool: replays after the cut" n)
        (interleavings - c.Checkpoint.totals.runs)
        (Obs.Metrics.counter_value pool.Report.metrics "explorer.replays"))
    cuts

(* ---- codec identity: the Buffer encoders against the Printf originals ----

   Keys are persisted (checkpoint item lines, sidecars) and framed on the
   wire, so the Buffer encoders must print exactly what the Printf ones
   printed. The originals are kept here as the reference. *)

module Prefix_cache = Dampi.Prefix_cache
module Epoch = Dampi.Epoch

module Reference = struct
  let enc s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        if
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
          || c = '-' || c = '_' || c = '.' || c = '~'
        then Buffer.add_char b c
        else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents b

  let decision_to_key (d : Decisions.decision) =
    Printf.sprintf "%s:%d:%d:%d"
      (Decisions.kind_to_string d.Decisions.kind)
      d.Decisions.owner d.Decisions.epoch_id d.Decisions.src

  let schedule_key = function
    | [] -> "-"
    | ds -> String.concat "," (List.map decision_to_key ds)

  let item_key (it : Checkpoint.item) =
    schedule_key (it.Checkpoint.prefix @ [ it.Checkpoint.choice ])

  let summary_to_key (s : Epoch.summary) =
    Printf.sprintf "%s:%d:%d:%d:%d:%d:%d:%s"
      (Decisions.kind_to_string s.Epoch.s_kind)
      s.Epoch.s_owner s.Epoch.s_id s.Epoch.s_ctx s.Epoch.s_tag
      s.Epoch.s_matched
      (if s.Epoch.s_expandable then 1 else 0)
      (match s.Epoch.s_alternatives with
      | [] -> "~"
      | alts -> String.concat "." (List.map string_of_int alts))

  let sleep_key = function
    | [] -> "-"
    | ss -> String.concat ";" (List.map summary_to_key ss)

  let error_to_line = function
    | Report.Deadlock { blocked } ->
        Printf.sprintf "deadlock %s"
          (String.concat ";"
             (List.map (fun (pid, r) -> Printf.sprintf "%d:%s" pid (enc r)) blocked))
    | Report.Crash { pid; message } -> Printf.sprintf "crash %d:%s" pid (enc message)
    | Report.Comm_leak { pid; labels } ->
        Printf.sprintf "commleak %d:%s" pid (String.concat ";" (List.map enc labels))
    | Report.Request_leak { pid; count } -> Printf.sprintf "reqleak %d:%d" pid count
    | Report.Monitor_alert { pid; epoch_id; op } ->
        Printf.sprintf "monitor %d:%d:%s" pid epoch_id (enc op)
    | Report.Replay_divergence { count } -> Printf.sprintf "divergence %d" count

  let entry_line ~key (e : Prefix_cache.entry) =
    Printf.sprintf "entry %s %h %d %s %s" key e.Prefix_cache.vtime
      e.Prefix_cache.wildcards
      (sleep_key e.Prefix_cache.epochs)
      (match e.Prefix_cache.errors with
      | [] -> "-"
      | errs -> String.concat ";" (List.map (fun er -> enc (error_to_line er)) errs))

  (* The parsers as they were before they read in place: split at each
     delimiter, read each number with [int_of_string_opt]. *)

  let all parts =
    if List.exists Option.is_none parts then None
    else Some (List.filter_map Fun.id parts)

  let decision_of_key s =
    match String.split_on_char ':' s with
    | [ kind; owner; epoch_id; src ] -> (
        match
          ( Decisions.kind_of_string kind,
            int_of_string_opt owner,
            int_of_string_opt epoch_id,
            int_of_string_opt src )
        with
        | Some kind, Some owner, Some epoch_id, Some src ->
            Some { Decisions.owner; epoch_id; src; kind }
        | _ -> None)
    | _ -> None

  let schedule_of_key = function
    | "-" -> Some []
    | s -> all (List.map decision_of_key (String.split_on_char ',' s))

  let summary_of_key key =
    match String.split_on_char ':' key with
    | [ kind; owner; id; ctx; tag; matched; expandable; alts ] -> (
        let alternatives =
          if alts = "~" then Some []
          else all (List.map int_of_string_opt (String.split_on_char '.' alts))
        in
        match
          ( Decisions.kind_of_string kind,
            int_of_string_opt owner,
            int_of_string_opt id,
            int_of_string_opt ctx,
            int_of_string_opt tag,
            int_of_string_opt matched,
            expandable,
            alternatives )
        with
        | ( Some s_kind,
            Some s_owner,
            Some s_id,
            Some s_ctx,
            Some s_tag,
            Some s_matched,
            ("0" | "1"),
            Some s_alternatives ) ->
            Some
              {
                Epoch.s_owner;
                s_id;
                s_kind;
                s_ctx;
                s_tag;
                s_matched;
                s_alternatives;
                s_expandable = expandable = "1";
              }
        | _ -> None)
    | _ -> None

  let sleep_of_key = function
    | "-" -> Some []
    | s -> all (List.map summary_of_key (String.split_on_char ';' s))

  let item_of_line line =
    let fields =
      match String.split_on_char ' ' line with
      | [ "item"; prefix; choice ] -> Some (prefix, choice, "-")
      | [ "item"; prefix; choice; sleep ] -> Some (prefix, choice, sleep)
      | _ -> None
    in
    match fields with
    | None -> Error (Printf.sprintf "malformed item line %S" line)
    | Some (prefix, choice, sleep) -> (
        match (schedule_of_key prefix, decision_of_key choice, sleep_of_key sleep) with
        | Some prefix, Some choice, Some sleep -> Ok (Checkpoint.make_item ~prefix ~choice ~sleep ())
        | _ -> Error (Printf.sprintf "malformed item line %S" line))

  (* A sidecar line, and the key check the load made on it. *)
  let entry_of_line line =
    match String.split_on_char ' ' line with
    | [ "entry"; key; vtime; wildcards; epochs; errors ] -> (
        let parse_err s =
          let l = Checkpoint.dec s in
          match String.index_opt l ' ' with
          | Some i ->
              Checkpoint.error_of_line (String.sub l 0 i)
                (String.sub l (i + 1) (String.length l - i - 1))
          | None -> Checkpoint.error_of_line l ""
        in
        let errors =
          if errors = "-" then Some []
          else all (List.map parse_err (String.split_on_char ';' errors))
        in
        match
          ( float_of_string_opt vtime,
            int_of_string_opt wildcards,
            sleep_of_key epochs,
            errors,
            schedule_of_key key )
        with
        | Some vtime, Some wildcards, Some epochs, Some errors, Some _ ->
            Some (key, { Prefix_cache.vtime; wildcards; errors; epochs })
        | _ -> None)
    | _ -> None
end

(* Mostly small numbers, as ranks and epoch ids are, with the edges the
   digit fast path must hand back to [string_of_int]. *)
let gen_int =
  QCheck.Gen.(
    frequency
      [
        (6, 0 -- 120);
        (1, int_range (-200) (-1));
        (1, oneofl [ 9; 10; 99; 100; 101; 999_999; max_int; min_int ]);
        (1, int);
      ])

let gen_kind = QCheck.Gen.oneofl [ Epoch.Wildcard_recv; Epoch.Wildcard_probe ]

let gen_decision =
  QCheck.Gen.(
    map
      (fun (owner, epoch_id, src, kind) -> { Decisions.owner; epoch_id; src; kind })
      (quad gen_int gen_int gen_int gen_kind))

let gen_summary =
  QCheck.Gen.(
    map
      (fun ((s_owner, s_id, s_kind, s_ctx), (s_tag, s_matched, s_alternatives, s_expandable)) ->
        { Epoch.s_owner; s_id; s_kind; s_ctx; s_tag; s_matched; s_alternatives; s_expandable })
      (pair
         (quad gen_int gen_int gen_kind gen_int)
         (quad gen_int gen_int (list_size (0 -- 4) gen_int) bool)))

let gen_text =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (0 -- 12);
        string_size ~gen:char (0 -- 12);
        oneofl [ ""; "a b"; "x;y:z"; "100%"; "line\nbreak"; "\xe2\x80\x94" ];
      ])

let gen_error =
  QCheck.Gen.(
    oneof
      [
        map
          (fun blocked -> Report.Deadlock { blocked })
          (list_size (0 -- 3) (pair gen_int gen_text));
        map2 (fun pid message -> Report.Crash { pid; message }) gen_int gen_text;
        map2
          (fun pid labels -> Report.Comm_leak { pid; labels })
          gen_int
          (list_size (0 -- 3) gen_text);
        map2 (fun pid count -> Report.Request_leak { pid; count }) gen_int gen_int;
        map3
          (fun pid epoch_id op -> Report.Monitor_alert { pid; epoch_id; op })
          gen_int gen_int gen_text;
        map (fun count -> Report.Replay_divergence { count }) gen_int;
      ])

let gen_entry =
  QCheck.Gen.(
    map
      (fun (vtime, wildcards, errors, epochs) ->
        { Prefix_cache.vtime; wildcards; errors; epochs })
      (quad
         (oneof [ float; float_range 0.0 1.0; oneofl [ 0.0; -0.0; nan; infinity; 5e-324 ] ])
         gen_int
         (list_size (0 -- 2) gen_error)
         (list_size (0 -- 4) gen_summary)))

let gen_schedule = QCheck.Gen.(list_size (0 -- 24) gen_decision)

let prop_encoders_match_reference =
  QCheck.Test.make ~count:1000
    ~name:"schedule_key, item_key, sleep_key, entry_line: byte-equal to Printf"
    (QCheck.make
       QCheck.Gen.(
         quad gen_schedule gen_decision (list_size (0 -- 5) gen_summary) gen_entry))
    (fun (ds, choice, sleep, entry) ->
      let it = Checkpoint.make_item ~prefix:ds ~choice ~sleep () in
      let key = Checkpoint.schedule_key ds in
      key = Reference.schedule_key ds
      && Checkpoint.item_key it = Reference.item_key it
      && Checkpoint.decision_to_key choice = Reference.decision_to_key choice
      && Checkpoint.sleep_key sleep = Reference.sleep_key sleep
      && List.for_all
           (fun s -> Checkpoint.summary_to_key s = Reference.summary_to_key s)
           sleep
      && List.for_all
           (fun e -> Checkpoint.error_to_line e = Reference.error_to_line e)
           entry.Prefix_cache.errors
      && Prefix_cache.entry_line ~key entry = Reference.entry_line ~key entry
      && Checkpoint.schedule_of_key key = Some ds
      && Checkpoint.sleep_of_key (Checkpoint.sleep_key sleep) = Some sleep)

(* ---- the in-place parsers against the split-based originals ---- *)

let alphabet = "0123456789:,;.~+-_ abcdefghijklmnopqrstuvwxyz"

(* Fields that trip a number reader (empty, [0x1F], [+3], [1_000], a bare
   or doubled sign, 18, 19 and 20 digits, both ends of the int range and
   one past the top) beside the parts of real keys. *)
let gen_field =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ ""; "0"; "7"; "-1"; "-"; "--1"; "-0"; "007"; "0x1F"; "+3"; "1_000"; "0b101";
            "123456789012345678"; "-123456789012345678"; "1234567890123456789";
            "99999999999999999999"; "4611686018427387903"; "-4611686018427387904";
            "4611686018427387904"; "recv"; "probe"; "recvx"; "~"; "1"; "x"; "a b" ];
        map string_of_int gen_int;
        string_size ~gen:(oneofl (List.of_seq (String.to_seq alphabet))) (0 -- 4);
      ])

let gen_delim = QCheck.Gen.oneofl [ ":"; ":"; ":"; ","; ";"; "."; " " ]

(* One character of [s] replaced, dropped or doubled. *)
let gen_mutation s =
  QCheck.Gen.(
    if s = "" then return s
    else
      map3
        (fun i c op ->
          let i = i mod String.length s in
          let pre = String.sub s 0 i and post = String.sub s (i + 1) (String.length s - i - 1) in
          match op with
          | 0 -> pre ^ String.make 1 c ^ post
          | 1 -> pre ^ post
          | _ -> pre ^ String.make 2 s.[i] ^ post)
        nat
        (oneofl (List.of_seq (String.to_seq alphabet)))
        (0 -- 2))

(* A number as [int_of_string_opt] also reads it ([+3], [0x1F], [1_5] for 15,
   [007]), or now and then a field from [gen_field] in its place. *)
let gen_spelling n =
  QCheck.Gen.(
    frequency
      [
        (6, return (string_of_int n));
        (1, return (if n >= 0 then "+" ^ string_of_int n else string_of_int n));
        (1, return (if n >= 0 then Printf.sprintf "0x%x" n else string_of_int n));
        (1, return (if n >= 0 then "00" ^ string_of_int n else string_of_int n));
        (1, return (if n >= 10 then "1_" ^ string_of_int (n - 10) else string_of_int n));
        (1, gen_field);
      ])

let gen_spelled spell_all sep xs =
  QCheck.Gen.(map (String.concat sep) (flatten_l (List.map spell_all xs)))

let spell_decision (d : Decisions.decision) =
  QCheck.Gen.(
    map3
      (fun o e s -> String.concat ":" [ Decisions.kind_to_string d.Decisions.kind; o; e; s ])
      (gen_spelling d.Decisions.owner) (gen_spelling d.Decisions.epoch_id)
      (gen_spelling d.Decisions.src))

let spell_summary (x : Epoch.summary) =
  QCheck.Gen.(
    map3
      (fun a b alts ->
        String.concat ":"
          (Decisions.kind_to_string x.Epoch.s_kind :: a
          @ b
          @ [ (if x.Epoch.s_expandable then "1" else "0");
              (if alts = "" then "~" else alts) ]))
      (flatten_l (List.map gen_spelling [ x.Epoch.s_owner; x.Epoch.s_id; x.Epoch.s_ctx ]))
      (flatten_l (List.map gen_spelling [ x.Epoch.s_tag; x.Epoch.s_matched ]))
      (gen_spelled gen_spelling "." x.Epoch.s_alternatives))

let gen_key_text =
  QCheck.Gen.(
    oneof
      [
        (gen_schedule >>= gen_spelled spell_decision ",");
        (list_size (0 -- 4) gen_summary >>= gen_spelled spell_summary ";");
        map
          (fun (f, rest) -> f ^ String.concat "" (List.map (fun (d, f) -> d ^ f) rest))
          (pair gen_field (list_size (0 -- 24) (pair gen_delim gen_field)));
        string_size ~gen:(oneofl (List.of_seq (String.to_seq alphabet))) (0 -- 30);
        (gen_schedule >>= fun ds -> gen_mutation (Checkpoint.schedule_key ds));
        (list_size (0 -- 4) gen_summary >>= fun ss -> gen_mutation (Checkpoint.sleep_key ss));
        map Checkpoint.schedule_key gen_schedule;
        map Checkpoint.sleep_key (list_size (0 -- 4) gen_summary);
      ])

let prop_key_parsers_match_split =
  QCheck.Test.make ~count:3000
    ~name:"schedule_of_key, sleep_of_key, is_schedule_key: equal to the split parsers"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_key_text)
    (fun t ->
      let n = String.length t in
      let embedded = "x;" ^ t ^ ",9 " in
      let schedule = Reference.schedule_of_key t in
      let sleep = Reference.sleep_of_key t in
      (* decision_of_key is read through schedule_of_key on a comma-free key *)
      Checkpoint.schedule_of_key t = schedule
      && Checkpoint.sleep_of_key t = sleep
      && Checkpoint.is_schedule_key t 0 n = (schedule <> None)
      && Checkpoint.is_schedule_key embedded 2 (n + 2) = (schedule <> None))

(* One of the [:] and [,] delimiters of [s] replaced by another character. *)
let gen_delim_swap s =
  let at = List.filter (fun i -> s.[i] = ':' || s.[i] = ',') (List.init (String.length s) Fun.id) in
  QCheck.Gen.(
    if at = [] then return s
    else
      map2
        (fun i c -> String.mapi (fun j x -> if j = i then c else x) s)
        (oneofl at)
        (oneofl (List.of_seq (String.to_seq alphabet))))

(* Keys for the digit walk: canonical keys (its fast path), each with one
   character replaced, dropped or doubled or one delimiter swapped, keys
   whose numbers are spelled as only [int_of_string_opt] reads them (its
   fallback), and random text; checked in place inside a longer string. *)
let prop_key_walk_matches_parser =
  QCheck.Test.make ~count:4000
    ~name:"is_schedule_key: the digit walk accepts what schedule_of_key accepts"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         oneof
           [
             map Checkpoint.schedule_key gen_schedule;
             (gen_schedule >>= fun ds -> gen_mutation (Checkpoint.schedule_key ds));
             (gen_schedule >>= fun ds ->
              gen_mutation (Checkpoint.schedule_key ds) >>= gen_mutation);
             (gen_schedule >>= fun ds -> gen_delim_swap (Checkpoint.schedule_key ds));
             (gen_schedule >>= gen_spelled spell_decision ",");
             gen_key_text;
           ]))
    (fun t ->
      let n = String.length t in
      let accepted = Checkpoint.schedule_of_key t <> None in
      Checkpoint.is_schedule_key t 0 n = accepted
      && Checkpoint.is_schedule_key ("recv:1:2:3," ^ t ^ " x") 11 (n + 11) = accepted)

let gen_item_line =
  QCheck.Gen.(
    let item ds choice sleep =
      let b = Buffer.create 64 in
      Checkpoint.add_item_line b (Checkpoint.make_item ~prefix:ds ~choice ~sleep ());
      Buffer.sub b 0 (Buffer.length b - 1)
    in
    oneof
      [
        map3
          (fun p c s -> String.concat " " ("item" :: p :: c :: s))
          gen_key_text gen_key_text
          (oneof [ return []; map (fun s -> [ s ]) gen_key_text; map (fun (a, b) -> [ a; b ]) (pair gen_key_text gen_key_text) ]);
        map (fun t -> "item " ^ t) gen_key_text;
        (* a prefix spelled as only [int_of_string_opt] reads it, before a
           well-formed choice: its key is still [schedule_key prefix] *)
        map2
          (fun p c -> "item " ^ p ^ " " ^ Checkpoint.decision_to_key c)
          (oneof
             [
               gen_schedule >>= gen_spelled spell_decision ",";
               (* numbers at the edge of the canonical spelling *)
               (let edge = oneofl [ "0"; "-0"; "00"; "01"; "1"; "-1"; "10"; "-10"; "+1" ] in
                map (String.concat ",")
                  (list_size (1 -- 4)
                     (map3
                        (fun k (o, e) s -> String.concat ":" [ k; o; e; s ])
                        (oneofl [ "recv"; "probe" ]) (pair edge edge) edge)));
             ])
          gen_decision;
        oneofl [ ""; "item"; "item "; "item - recv:0:1:2"; "items - recv:0:1:2"; " item - recv:0:1:2" ];
        (triple gen_schedule gen_decision (list_size (0 -- 3) gen_summary) >>= fun (ds, c, ss) ->
         oneof [ return (item ds c ss); gen_mutation (item ds c ss) ]);
      ])

(* [prefix_key] is [schedule_key prefix] on every item, however it was
   made: by [Prune.expand] (prune on and off, the parent's key passed or
   not; the sleep set holds copies of some epochs so that some are
   suppressed), by [item_of_line] on any line it accepts, and after a
   version-3 checkpoint round trip of the expanded frontier. *)
let key_invariant (it : Checkpoint.item) =
  it.Checkpoint.prefix_key = Reference.schedule_key it.Checkpoint.prefix
  && Checkpoint.item_key it = Reference.item_key it

let prop_prefix_key_invariant =
  QCheck.Test.make ~count:1000
    ~name:"prefix_key is schedule_key prefix: expand, item lines, version-3 round trip"
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad gen_schedule (list_size (0 -- 8) gen_summary) bool (list_size (0 -- 8) bool))
           (pair (list_size (0 -- 2) gen_summary) (list_size (0 -- 4) gen_item_line))))
    (fun ((plan_decisions, summaries, prune, picks), (extra_sleep, lines)) ->
      let sleep =
        extra_sleep
        @ List.filteri (fun i _ -> List.nth_opt picks i = Some true) summaries
      in
      let expand ?key () = Dampi.Prune.expand ?key ~prune ~sleep ~plan_decisions summaries in
      let exp = expand () in
      let keyed = expand ~key:(Checkpoint.schedule_key plan_decisions) () in
      let items = exp.Dampi.Prune.items in
      let ck = { sample_checkpoint with Checkpoint.frontier = items } in
      List.for_all key_invariant items
      && keyed = exp
      && (match Checkpoint.of_string (Checkpoint.to_string ck) with
         | Ok back ->
             back = ck && List.for_all key_invariant back.Checkpoint.frontier
         | Error _ -> false)
      && List.for_all
           (fun line ->
             match Checkpoint.item_of_line line with
             | Ok it -> key_invariant it
             | Error _ -> true)
           lines)

(* The cut's in-flight test, [same_schedule], agrees with comparing keys;
   decisions from a tiny domain make equal choices under unequal prefixes
   common. *)
let prop_same_schedule_is_key_equality =
  let tiny =
    QCheck.Gen.(
      map3
        (fun owner epoch_id (src, kind) -> { Decisions.owner; epoch_id; src; kind })
        (0 -- 1) (0 -- 1) (pair (0 -- 1) gen_kind))
  in
  let item =
    QCheck.Gen.(
      map2
        (fun prefix choice -> Checkpoint.make_item ~prefix ~choice ~sleep:[] ())
        (list_size (0 -- 2) tiny) tiny)
  in
  QCheck.Test.make ~count:2000 ~name:"same_schedule: item keys are equal"
    (QCheck.make QCheck.Gen.(pair item item))
    (fun (a, b) ->
      Checkpoint.same_schedule a b = (Checkpoint.item_key a = Checkpoint.item_key b))

let prop_item_lines_match_split =
  QCheck.Test.make ~count:3000 ~name:"item_of_line: equal to the split parser"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_item_line)
    (fun line -> Checkpoint.item_of_line line = Reference.item_of_line line)

(* Sidecar lines: real entry lines, one character off, one field replaced
   or one more field, and lines built from random fields. The load keeps a
   line exactly when the split parser (and its key check) took it, charges
   its length plus the newline, and serves the same artifact. *)
let gen_entry_line =
  QCheck.Gen.(
    let real = map2 (fun ds e -> Prefix_cache.entry_line ~key:(Checkpoint.schedule_key ds) e) gen_schedule gen_entry in
    let replace line i field =
      let fields = String.split_on_char ' ' line in
      let i = i mod List.length fields in
      String.concat " " (List.mapi (fun j f -> if j = i then field else f) fields)
    in
    oneof
      [
        real;
        real >>= gen_mutation;
        map3 replace real nat (oneof [ return ""; gen_field ]);
        map2 (fun line field -> line ^ " " ^ field) real gen_field;
        map
          (fun fields -> String.concat " " ("entry" :: fields))
          (list_size (4 -- 6) (oneof [ gen_key_text; oneofl [ "0x1p-3"; "1.5"; "nan"; "-" ] ]));
      ])

let prop_sidecar_lines_match_split =
  QCheck.Test.make ~count:2000 ~name:"sidecar entry lines: loaded as the split parser read them"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_entry_line)
    (fun line ->
      let label = "parsers np=2" in
      let c = Prefix_cache.create ~label ~budget_bytes:max_int () in
      let text =
        "# DAMPI prefix cache\nversion 1\nlabel " ^ Checkpoint.enc label ^ "\n" ^ line ^ "\n"
      in
      let loaded = Prefix_cache.load_into c text = Ok () in
      let _, _, bytes = Prefix_cache.stats c in
      loaded
      &&
      match Reference.entry_of_line line with
      | None -> bytes = 0
      | Some (key, e) -> (
          bytes = String.length line + 1
          &&
          match Prefix_cache.find c ~key [] with
          | Some got -> compare got e = 0
          | None -> false))

let prop_round_trip_match_split =
  QCheck.Test.make ~count:1000 ~name:"decisions and summaries round-trip through both parsers"
    (QCheck.make
       QCheck.Gen.(triple gen_schedule gen_decision (list_size (0 -- 5) gen_summary)))
    (fun (ds, choice, sleep) ->
      let it = Checkpoint.make_item ~prefix:ds ~choice ~sleep () in
      let b = Buffer.create 64 in
      Checkpoint.add_item_line b it;
      let line = Buffer.sub b 0 (Buffer.length b - 1) in
      let key = Checkpoint.schedule_key ds and sk = Checkpoint.sleep_key sleep in
      Checkpoint.schedule_of_key key = Some ds
      && Reference.schedule_of_key key = Some ds
      && Checkpoint.schedule_of_key (Checkpoint.decision_to_key choice) = Some [ choice ]
      && Reference.decision_of_key (Checkpoint.decision_to_key choice) = Some choice
      && Checkpoint.sleep_of_key sk = Some sleep
      && Reference.sleep_of_key sk = Some sleep
      && List.for_all
           (fun x -> Reference.summary_of_key (Checkpoint.summary_to_key x) = Some x)
           sleep
      && Checkpoint.item_of_line line = Ok it
      && Reference.item_of_line line = Ok it)

let () =
  Alcotest.run "checkpoint"
    [
      ( "format",
        [
          Alcotest.test_case "round trip" `Quick test_roundtrip;
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          Alcotest.test_case "hostile text round trip" `Quick
            test_hostile_text_roundtrip;
          Alcotest.test_case "atomic save/load" `Quick test_save_load;
          Alcotest.test_case "load errors" `Quick test_load_errors;
          Alcotest.test_case "grouped frontier is linear" `Quick
            test_grouped_frontier_is_linear;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_encoders_match_reference;
          QCheck_alcotest.to_alcotest prop_key_parsers_match_split;
          QCheck_alcotest.to_alcotest prop_key_walk_matches_parser;
          QCheck_alcotest.to_alcotest prop_prefix_key_invariant;
          QCheck_alcotest.to_alcotest prop_same_schedule_is_key_equality;
          QCheck_alcotest.to_alcotest prop_item_lines_match_split;
          QCheck_alcotest.to_alcotest prop_sidecar_lines_match_split;
          QCheck_alcotest.to_alcotest prop_round_trip_match_split;
        ] );
      ( "resume",
        List.map
          (fun ((name, _, _, _, _) as case) ->
            Alcotest.test_case name `Quick (test_resume_equivalence case))
          registry
        @ [
            Alcotest.test_case "chained resume (jobs=4)" `Quick
              test_chained_resume;
            Alcotest.test_case "complete checkpoint" `Quick
              test_resume_complete;
            Alcotest.test_case "cut between count and expansion" `Quick
              test_resume_between_count_and_expansion;
          ] );
    ]
