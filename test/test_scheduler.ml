(* Unit tests for the domain-parallel work queue behind the explorer:
   ordering guarantees, budget enforcement under contention, cooperative
   cancellation, and the zero-frame fast path. *)

module Scheduler = Dampi.Scheduler

(* Run a scheduler with one worker and record execution order. [children]
   maps an item to its follow-on items. *)
let trace_order ~order ?budget seed children =
  let sched = Scheduler.create ~order ~jobs:1 ?budget () in
  Scheduler.push_batch sched seed;
  let log = ref [] in
  Scheduler.run sched (fun ~worker:_ x ->
      log := x :: !log;
      children x);
  List.rev !log

let test_lifo_batch_order () =
  (* The first element of a pushed batch pops first; a popped item's
     children run before its batch siblings — depth-first order. *)
  let children = function 1 -> [ 10; 11 ] | 10 -> [ 100 ] | _ -> [] in
  Alcotest.(check (list int))
    "depth-first"
    [ 1; 10; 100; 11; 2; 3 ]
    (trace_order ~order:Scheduler.Lifo [ 1; 2; 3 ] children)

let test_lifo_push_is_a_stack () =
  let sched = Scheduler.create ~order:Scheduler.Lifo ~jobs:1 () in
  Scheduler.push sched 1;
  Scheduler.push sched 2;
  Scheduler.push sched 3;
  let log = ref [] in
  Scheduler.run sched (fun ~worker:_ x ->
      log := x :: !log;
      []);
  Alcotest.(check (list int)) "stack order" [ 3; 2; 1 ] (List.rev !log)

let test_budget_sequential () =
  (* A self-replicating workload: without the budget it would never end. *)
  let executed =
    trace_order ~order:Scheduler.Lifo ~budget:7 [ 0 ] (fun x -> [ x + 1 ])
  in
  Alcotest.(check (list int)) "exactly budget items"
    [ 0; 1; 2; 3; 4; 5; 6 ] executed

let test_budget_under_contention () =
  (* Four domains racing over a replicating queue: the claim counter is the
     only admission gate, so exactly [budget] items may ever run. *)
  let budget = 50 in
  let sched = Scheduler.create ~order:Scheduler.Lifo ~jobs:4 ~budget () in
  Scheduler.push_batch sched [ 0; 1; 2; 3 ];
  let ran = Atomic.make 0 in
  Scheduler.run sched (fun ~worker:_ x ->
      Atomic.incr ran;
      [ (x * 2) + 1; (x * 2) + 2 ]);
  Alcotest.(check int) "claimed = budget" budget (Scheduler.executed sched);
  Alcotest.(check int) "ran = budget" budget (Atomic.get ran);
  let per_worker =
    List.fold_left
      (fun acc (ws : Scheduler.worker_stats) -> acc + ws.Scheduler.items_run)
      0 (Scheduler.stats sched)
  in
  Alcotest.(check int) "worker counters sum to budget" budget per_worker

let test_cancel_drops_queued_work () =
  let sched = Scheduler.create ~order:Scheduler.Lifo ~jobs:1 () in
  Scheduler.push_batch sched [ 1; 2; 3; 4; 5 ];
  let log = ref [] in
  Scheduler.run sched (fun ~worker:_ x ->
      log := x :: !log;
      if x = 2 then Scheduler.cancel sched;
      if x < 100 then [ x + 100 ] else []);
  Alcotest.(check (list int)) "stops after the cancelling item" [ 1; 101; 2 ]
    (List.rev !log);
  Alcotest.(check bool) "cancelled" true (Scheduler.cancelled sched);
  Alcotest.(check bool)
    "queued work dropped, not run"
    true
    (Scheduler.pending sched > 0)

let test_cancel_under_contention () =
  (* Cooperative cancellation with racing workers: whatever was in flight
     finishes, nothing is claimed afterwards, and the queue keeps the
     abandoned work. The first item to run cancels: which item that is
     depends on who wins the race, since thieves take the far end. *)
  let sched = Scheduler.create ~order:Scheduler.Lifo ~jobs:4 () in
  Scheduler.push_batch sched (List.init 64 Fun.id);
  let ran = Atomic.make 0 in
  Scheduler.run sched (fun ~worker:_ _ ->
      if Atomic.fetch_and_add ran 1 = 0 then Scheduler.cancel sched;
      []);
  Alcotest.(check bool) "cancelled" true (Scheduler.cancelled sched);
  Alcotest.(check bool)
    "not everything ran"
    true
    (Atomic.get ran < 64);
  Alcotest.(check int) "ran + pending = pushed" 64
    (Atomic.get ran + Scheduler.pending sched)

let test_zero_frame_fast_path () =
  (* A deterministic program produces no fork frames: run must return
     immediately, for any worker count, without spawning domains. *)
  List.iter
    (fun jobs ->
      let sched = Scheduler.create ~jobs () in
      let ran = Atomic.make 0 in
      Scheduler.run sched (fun ~worker:_ _ ->
          Atomic.incr ran;
          []);
      Alcotest.(check int)
        (Printf.sprintf "nothing ran (jobs=%d)" jobs)
        0 (Atomic.get ran);
      Alcotest.(check int)
        (Printf.sprintf "nothing executed (jobs=%d)" jobs)
        0 (Scheduler.executed sched))
    [ 1; 4 ]

let test_parallel_drains_everything () =
  (* No budget, no cancellation: every item (including discovered children)
     must run exactly once even with many workers. *)
  let sched = Scheduler.create ~order:Scheduler.Lifo ~jobs:4 () in
  Scheduler.push_batch sched (List.init 20 Fun.id);
  let sum = Atomic.make 0 in
  Scheduler.run sched (fun ~worker:_ x ->
      ignore (Atomic.fetch_and_add sum x);
      if x < 100 then [ x + 100 ] else []);
  (* seeds 0..19 plus one child x+100 each *)
  let expected = (190 * 2) + (20 * 100) in
  Alcotest.(check int) "all items ran once" expected (Atomic.get sum);
  Alcotest.(check int) "40 executions" 40 (Scheduler.executed sched);
  Alcotest.(check int) "queue drained" 0 (Scheduler.pending sched)

(* ---- property tests: the scheduler vs a pure-list reference ----

   The stealing-deque machinery (per-worker deques, near/far ends, the
   in-flight slot) must be observationally identical, at jobs=1, to the
   trivial model: a single list where [push_batch] prepends and execution
   pops the head. Random seed batches and a
   random branching table exercise the front/back refill paths that the
   hand-written cases above miss. *)

let reference ~budget seeds children =
  let enqueue queue batch = batch @ queue in
  let rec go queue left acc =
    if left = 0 then List.rev acc
    else
      match queue with
      | [] -> List.rev acc
      | x :: rest -> go (enqueue rest (children x)) (left - 1) (x :: acc)
  in
  go (List.fold_left enqueue [] seeds) budget []

(* Items are digit strings in disguise: seeds are 0..9 and item [x]'s
   children are [10x+1 .. 10x+arity], so the tree is finite (depth 4) and
   every item is distinct within its seed's subtree. The arity table is the
   random part. *)
let children_of_table table x =
  if x >= 1000 then []
  else
    let arity = List.nth table (x mod List.length table) in
    List.init arity (fun i -> (x * 10) + i + 1)

let gen_case =
  QCheck.make
    ~print:(fun (seeds, table, budget) ->
      Printf.sprintf "seeds=[%s] arity=[%s] budget=%d"
        (String.concat ";"
           (List.map
              (fun b -> String.concat "," (List.map string_of_int b))
              seeds))
        (String.concat "," (List.map string_of_int table))
        budget)
    QCheck.Gen.(
      triple
        (list_size (int_range 0 4) (list_size (int_range 0 5) (int_range 0 9)))
        (list_size (int_range 1 5) (int_range 0 3))
        (int_range 0 60))

let scheduler_trace ~order ~jobs ~budget seeds children =
  let sched = Scheduler.create ~order ~jobs ~budget () in
  List.iter (Scheduler.push_batch sched) seeds;
  let log = ref [] in
  let log_m = Mutex.create () in
  Scheduler.run sched (fun ~worker:_ x ->
      Mutex.lock log_m;
      log := x :: !log;
      Mutex.unlock log_m;
      children x);
  List.rev !log

let prop_matches_reference order name =
  QCheck.Test.make ~name ~count:500 gen_case (fun (seeds, table, budget) ->
      let children = children_of_table table in
      scheduler_trace ~order ~jobs:1 ~budget seeds children
      = reference ~budget seeds children)

(* With several workers the order is scheduling-dependent — and under a
   budget so is the admitted subset — but unbudgeted, the multiset of
   executed items is not: stealing must neither lose, duplicate, nor invent
   work. (Sorting both sides compares multisets.) *)
let prop_parallel_same_multiset =
  QCheck.Test.make ~name:"jobs=3 executes the same multiset" ~count:60
    gen_case (fun (seeds, table, _budget) ->
      let children = children_of_table table in
      List.sort compare
        (scheduler_trace ~order:Scheduler.Lifo ~jobs:3 ~budget:max_int seeds
           children)
      = List.sort compare
          (reference ~budget:max_int seeds children))

(* ---- snapshot is a consistent cut, taken mid-steal ----

   Park both workers inside their first item (one of which worker 1 can
   only have obtained by stealing: external pushes all land on worker 0's
   deque), photograph the queue from a third domain, then release. The cut
   must contain every seed exactly once — the two in-flight items included,
   their children excluded (not published yet) — which is precisely what a
   checkpoint written at that instant needs in order to resume without
   losing or duplicating subtrees. *)
let test_snapshot_mid_steal () =
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let children = function 1 -> [ 101; 102 ] | 2 -> [ 201 ] | _ -> [] in
  let sched = Scheduler.create ~order:Scheduler.Lifo ~jobs:2 () in
  Scheduler.push_batch sched seeds;
  let started = Atomic.make 0 in
  let release = Atomic.make false in
  let snap = Atomic.make None in
  let taker =
    Domain.spawn (fun () ->
        while Atomic.get started < 2 do
          Domain.cpu_relax ()
        done;
        Atomic.set snap (Some (Scheduler.snapshot sched));
        Atomic.set release true)
  in
  let ran = Atomic.make 0 in
  Scheduler.run sched (fun ~worker:_ x ->
      Atomic.incr started;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done;
      Atomic.incr ran;
      children x);
  Domain.join taker;
  (match Atomic.get snap with
  | None -> Alcotest.fail "snapshot never taken"
  | Some cut ->
      Alcotest.(check (list int))
        "cut = every seed once, no unpublished children" seeds
        (List.sort compare cut));
  Alcotest.(check int) "everything ran after release" 9 (Atomic.get ran);
  let steals =
    List.fold_left
      (fun acc (ws : Scheduler.worker_stats) -> acc + ws.Scheduler.steals)
      0 (Scheduler.stats sched)
  in
  Alcotest.(check bool)
    (Printf.sprintf "worker 1 stole its first item (steals=%d)" steals)
    true (steals >= 1)

let test_run_twice_rejected () =
  let sched = Scheduler.create ~jobs:1 () in
  Scheduler.push sched 1;
  Scheduler.run sched (fun ~worker:_ _ -> []);
  Alcotest.check_raises "second run rejected"
    (Invalid_argument "Scheduler.run: already ran") (fun () ->
      Scheduler.run sched (fun ~worker:_ _ -> []))

let () =
  Alcotest.run "scheduler"
    [
      ( "ordering",
        [
          Alcotest.test_case "lifo batch is depth-first" `Quick
            test_lifo_batch_order;
          Alcotest.test_case "lifo push is a stack" `Quick
            test_lifo_push_is_a_stack;
        ] );
      ( "budget",
        [
          Alcotest.test_case "sequential budget" `Quick test_budget_sequential;
          Alcotest.test_case "budget under contention" `Quick
            test_budget_under_contention;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cancel drops queued work" `Quick
            test_cancel_drops_queued_work;
          Alcotest.test_case "cancel under contention" `Quick
            test_cancel_under_contention;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "zero-frame fast path" `Quick
            test_zero_frame_fast_path;
          Alcotest.test_case "parallel drain" `Quick
            test_parallel_drains_everything;
          Alcotest.test_case "run twice rejected" `Quick test_run_twice_rejected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (prop_matches_reference Scheduler.Lifo
               "jobs=1 Lifo = pure-list reference");
          QCheck_alcotest.to_alcotest prop_parallel_same_multiset;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "consistent cut mid-steal" `Quick
            test_snapshot_mid_steal;
        ] );
    ]
