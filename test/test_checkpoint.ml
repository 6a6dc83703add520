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
  {
    Checkpoint.label = "dampi adlb np=6 clock=lamport k=0 dual=false";
    np = 6;
    complete = false;
    runs = 37;
    runs_cancelled = 2;
    runs_timed_out = 3;
    runs_retried = 4;
    runs_crashed = 1;
    monitor_alerts = 5;
    bounded_epochs = 11;
    wildcards_analyzed = 13;
    first_run_makespan = 0.12345678901234567;
    total_virtual_time = 1.9876543210987654e-3;
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
    completed = [ "-"; Checkpoint.schedule_key [ sample_decision 1 ] ];
    frontier =
      [
        { Checkpoint.prefix = []; choice = d 1; sleep = [] };
        {
          Checkpoint.prefix = [ d 1; d 2 ];
          choice = d 3;
          sleep =
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
            ];
        };
      ];
    epoch = 4;
    pruned = 6;
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
        (c.Checkpoint.first_run_makespan
         = sample_checkpoint.Checkpoint.first_run_makespan
        && c.Checkpoint.total_virtual_time
           = sample_checkpoint.Checkpoint.total_virtual_time)

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
  match Checkpoint.load "/nonexistent/path/x.dampi" with
  | Ok _ -> Alcotest.fail "loading a missing file should fail"
  | Error _ -> ()

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
    r.Report.wildcards_analyzed )

let registry =
  let k0 = State.make_config ~mixing_bound:0 () in
  [
    ("fig3", 3, State.default_config, fun () -> Workloads.Patterns.fig3);
    ("adlb/k0", 6, k0, fun () -> Workloads.Adlb.program ());
  ]

let config ~state_config ~jobs ~robustness =
  { Explorer.default_config with state_config; jobs; robustness }

let with_temp_checkpoint f =
  let path = Filename.temp_file "dampi_ck" ".dampi" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Interrupt deterministically after [cut] completed replays (the test
   stand-in for SIGTERM: it raises the same flag the signal handler sets),
   then resume from the checkpoint and compare against the baseline. *)
let check_cut ~name ~np ~state_config ~build ~jobs ~cut baseline =
  with_temp_checkpoint @@ fun path ->
  let ck = { Explorer.path; every = 0; label = name } in
  let interrupted =
    Explorer.verify
      ~config:
        (config ~state_config ~jobs
           ~robustness:
             {
               Explorer.default_robustness with
               checkpoint = Some ck;
               interrupt_after = Some cut;
             })
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
              (config ~state_config ~jobs
                 ~robustness:
                   {
                     Explorer.default_robustness with
                     checkpoint = Some ck;
                   })
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

let test_resume_equivalence (name, np, state_config, build) () =
  let baseline =
    canonical
      (Explorer.verify
         ~config:
           (config ~state_config ~jobs:1
              ~robustness:Explorer.default_robustness)
         ~np (build ()))
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun cut ->
          check_cut ~name ~np ~state_config ~build ~jobs ~cut baseline)
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
              ~robustness:Explorer.default_robustness)
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
               })
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
      ~config:(config ~state_config:State.default_config ~jobs:1 ~robustness)
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
      ~config:(config ~state_config:State.default_config ~jobs:1 ~robustness)
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

(* ---- codec identity: the Buffer encoders against the Printf originals ----

   Keys are persisted (checkpoint [done] lines, sidecars) and framed on the
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
      let it = { Checkpoint.prefix = ds; choice; sleep } in
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

let () =
  Alcotest.run "checkpoint"
    [
      ( "format",
        [
          Alcotest.test_case "round trip" `Quick test_roundtrip;
          Alcotest.test_case "hostile text round trip" `Quick
            test_hostile_text_roundtrip;
          Alcotest.test_case "atomic save/load" `Quick test_save_load;
          Alcotest.test_case "load errors" `Quick test_load_errors;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_encoders_match_reference;
        ] );
      ( "resume",
        List.map
          (fun ((name, _, _, _) as case) ->
            Alcotest.test_case name `Quick (test_resume_equivalence case))
          registry
        @ [
            Alcotest.test_case "chained resume (jobs=4)" `Quick
              test_chained_resume;
            Alcotest.test_case "complete checkpoint" `Quick
              test_resume_complete;
          ] );
    ]
