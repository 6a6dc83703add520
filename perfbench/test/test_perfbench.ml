(* The benchmark's own arithmetic: order statistics, span self time, the
   correctness tally, and agreement between its metric table and
   BENCHMARK.json. *)

open Perfbench

let close = Alcotest.float 1e-9

(* ---- order statistics ---- *)

let test_median () =
  Alcotest.check close "odd count" 3.0 (Stats.median [ 5.0; 1.0; 3.0; 4.0; 2.0 ]);
  Alcotest.check close "even count" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (q1, q2, q3) =
    let a, b, c = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") q1 a;
    Alcotest.check close (name ^ " q2") q2 b;
    Alcotest.check close (name ^ " q3") q3 c
  in
  check "1..4" [ 1.0; 2.0; 3.0; 4.0 ] (1.25, 2.5, 3.75);
  check "two values" [ 3.0; 1.0 ] (0.5, 2.0, 3.5);
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "unsorted" [ 5.0; 1.0; 4.0; 2.0; 3.0 ] (1.5, 3.0, 4.5);
  check "seven" [ 0.8; 1.0; 1.1; 0.9; 1.3; 0.95; 1.05 ] (0.9, 1.0, 1.1);
  Alcotest.check close "lower quartile" 0.9
    (Stats.lower_quartile [ 0.8; 1.0; 1.1; 0.9; 1.3; 0.95; 1.05 ]);
  Alcotest.check close "one value is its own quartile" 4.0 (Stats.lower_quartile [ 4.0 ]);
  Alcotest.check close "spread" (0.2 /. 1.0)
    (Stats.spread [ 0.8; 1.0; 1.1; 0.9; 1.3; 0.95; 1.05 ])

let test_percentile () =
  let a = Array.init 101 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50" 50.0 (Stats.percentile (Array.copy a) 50.0);
  Alcotest.check close "p99" 99.0 (Stats.percentile (Array.copy a) 99.0);
  Alcotest.check close "p25 interpolates" 1.75 (Stats.percentile [| 1.0; 2.0; 4.0 |] 37.5);
  Alcotest.check close "empty" 0.0 (Stats.percentile [||] 50.0)

(* ---- self time across a suspension ---- *)

type _ Effect.t += Yield : unit Effect.t

(* Run [ranks] as coroutines: each runs until it yields, then goes to the
   back of the queue — the simulated runtime's discipline in miniature. *)
let run_ranks ranks =
  let q = Queue.create () in
  let spawn f =
    Queue.push
      (fun () ->
        Effect.Deep.match_with f ()
          {
            Effect.Deep.retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (e : a Effect.t) ->
                match e with
                | Yield ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        Queue.push (fun () -> Effect.Deep.continue k ()) q)
                | _ -> None);
          })
      q
  in
  List.iter spawn ranks;
  while not (Queue.is_empty q) do
    (Queue.pop q) ()
  done

(* A fake clock the ranks advance by hand. *)
let with_fake_clock f =
  let t = ref 0.0 in
  let saved = !Span.clock in
  Span.clock := (fun () -> !t);
  Fun.protect ~finally:(fun () -> Span.clock := saved) (fun () -> f (fun dt -> t := !t +. dt))

(* Rank A enters an interposed call (2 units of its own work), calls into
   the runtime (1 unit), suspends there while rank B makes a whole call of
   its own (1 + 3 + 1 units), resumes (1 unit) and finishes the
   interposed call (2 units). Interposition's own time is 2 + 2 for A and
   1 + 1 for B, although A's call spans B's entirely. [call body] makes one
   interposed call, handing [body] the function that makes its inner call
   into the runtime. *)
let scenario ~call tick =
  run_ranks
    [
      (fun () ->
        call (fun inner ->
            tick 2.0;
            inner (fun () ->
                tick 1.0;
                Effect.perform Yield;
                tick 1.0);
            tick 2.0));
      (fun () ->
        call (fun inner ->
            tick 1.0;
            inner (fun () -> tick 3.0);
            tick 1.0));
    ]

let test_acc_suspension () =
  with_fake_clock (fun tick ->
      let above = Span.acc () and below = Span.acc () in
      scenario tick ~call:(fun body ->
          Span.timed above (fun () -> body (Span.timed below)));
      Alcotest.(check int) "outer calls" 2 (Span.calls above);
      Alcotest.(check int) "inner calls" 2 (Span.calls below);
      (* A's outer call spans 11 units, B's 5; A's inner 7, B's 3 *)
      Alcotest.check close "sum above" 16.0 (Span.total above);
      Alcotest.check close "sum below" 10.0 (Span.total below);
      Alcotest.check close "interposition self" 6.0 (Span.total above -. Span.total below))

let test_span_suspension () =
  with_fake_clock (fun tick ->
      let sp = Span.create () in
      let l_run = Span.layer sp "run" in
      let l_call = Span.layer sp "call" and l_rt = Span.layer sp "runtime" in
      let run = Span.enter sp l_run in
      (* each rank's spans name their own parent, as a coroutine would *)
      let call body =
        let id = Span.enter sp ~parent:run l_call in
        body (Span.around sp ~parent:id l_rt);
        Span.leave sp id
      in
      scenario ~call tick;
      Span.leave sp run;
      let get name = fst (Span.layer_total sp name) in
      Alcotest.check close "call self excludes the suspension" 6.0 (get "call");
      (* B's call lies inside A's open runtime call, so the two calls'
         durations (11 + 5) exceed the run's 11: run self goes negative.
         Only the above-minus-below difference is a layer's own time. *)
      Alcotest.check close "run self" (-5.0) (get "run");
      Alcotest.check close "runtime spans" 10.0 (get "runtime"))

(* ---- the correctness tally ---- *)

let test_tampered_count () =
  let ok = Check.verdict (Check.canonical ~expected:Check.adlb2 Check.adlb2) in
  Alcotest.(check bool) "pinned report passes" true (Result.is_ok ok);
  Alcotest.check close "nothing failed" 0.0 (Check.failed_ratio [ ok; ok ]);
  let tampered = { Check.adlb2 with Check.interleavings = Check.adlb2.Check.interleavings + 1 } in
  let bad = Check.verdict (Check.canonical ~expected:tampered Check.adlb2) in
  (match bad with
  | Ok () -> Alcotest.fail "a tampered expectation must fail the check"
  | Error msg ->
      Alcotest.(check bool) "names the count" true
        (String.length msg > 0 && String.sub msg 0 13 = "interleavings"));
  Alcotest.check close "one in one" 1.0 (Check.failed_ratio [ bad ]);
  Alcotest.check close "one in four" 0.25 (Check.failed_ratio [ ok; bad; ok; ok ]);
  let other_sig = { Check.adlb2 with Check.signatures = [ "deadlock" ] } in
  Alcotest.(check bool) "a finding fails it too" true
    (Result.is_error (Check.verdict (Check.canonical ~expected:Check.adlb2 other_sig)))

(* ---- the metric table matches BENCHMARK.json ---- *)

(* The names under one top-level key, in order: every "name" value
   between the key and the closing bracket of its list. *)
let names_under text key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  match find_from 0 (Printf.sprintf "%S" key) with
  | None -> []
  | Some start ->
      let stop = Option.value (find_from start "]") ~default:(String.length text) in
      let rec collect i acc =
        match find_from i "\"name\": \"" with
        | Some j when j < stop ->
            let v = j + 9 in
            let e = String.index_from text v '"' in
            collect e (String.sub text v (e - v) :: acc)
        | _ -> List.rev acc
      in
      collect start []

let test_table_matches_manifest () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let names l = List.map (fun (m : Table.metric) -> m.Table.name) l in
  Alcotest.(check (list string)) "end_to_end" (names Table.end_to_end)
    (names_under text "end_to_end");
  Alcotest.(check (list string)) "per_layer" (names Table.per_layer)
    (names_under text "per_layer");
  List.iter
    (fun (m : Table.metric) ->
      Alcotest.(check bool) (m.Table.name ^ " says what it moves") true (m.Table.moves <> ""))
    Table.per_layer

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "span",
        [
          Alcotest.test_case "accumulated self time across a suspension" `Quick
            test_acc_suspension;
          Alcotest.test_case "nested span self time across a suspension" `Quick
            test_span_suspension;
        ] );
      ("check", [ Alcotest.test_case "tampered count flips failed_ratio" `Quick test_tampered_count ]);
      ("table", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_table_matches_manifest ]);
    ]
