(* Tests for the simulation substrate: coroutines, virtual time, PRNG. *)

module Coroutine = Sim.Coroutine
module Vtime = Sim.Vtime
module Splitmix = Sim.Splitmix

(* ---- Coroutine scheduler ---- *)

let test_run_to_completion () =
  let sched = Coroutine.create () in
  let log = ref [] in
  for i = 0 to 2 do
    ignore
      (Coroutine.spawn sched (fun () ->
           log := (i, "a") :: !log;
           Coroutine.yield ();
           log := (i, "b") :: !log))
  done;
  (match Coroutine.run sched with
  | Coroutine.All_finished -> ()
  | _ -> Alcotest.fail "expected all processes to finish");
  let order = List.rev !log in
  Alcotest.(check (list (pair int string)))
    "round-robin interleaving"
    [ (0, "a"); (1, "a"); (2, "a"); (0, "b"); (1, "b"); (2, "b") ]
    order

let test_self () =
  let sched = Coroutine.create () in
  let seen = ref [] in
  for _ = 0 to 3 do
    ignore
      (Coroutine.spawn sched (fun () ->
           seen := Coroutine.current sched :: !seen;
           (* still this process after being resumed *)
           Coroutine.yield ();
           seen := Coroutine.current sched :: !seen))
  done;
  ignore (Coroutine.run sched);
  Alcotest.(check (list int))
    "pids in spawn order" [ 0; 1; 2; 3; 0; 1; 2; 3 ] (List.rev !seen)

let test_current_outside_body () =
  let sched = Coroutine.create () in
  let raises label =
    Alcotest.check_raises label
      (Invalid_argument "Coroutine.current: called outside a process body")
      (fun () -> ignore (Coroutine.current sched))
  in
  raises "before run";
  ignore (Coroutine.spawn sched (fun () -> Coroutine.yield ()));
  ignore (Coroutine.spawn sched (fun () -> Coroutine.block (fun () -> "parked")));
  ignore (Coroutine.run sched);
  raises "after run, with a process left blocked"

(* A block reason is a thunk rendered only by [blocked_processes]: a
   process that blocks and is woken never pays for its text. *)
let test_block_reason_is_lazy () =
  let sched = Coroutine.create () in
  let rendered = ref [] in
  let reason s () =
    rendered := s :: !rendered;
    s
  in
  ignore
    (Coroutine.spawn sched (fun () ->
         Coroutine.block (reason "woken");
         Coroutine.block (reason "stuck")));
  ignore (Coroutine.spawn sched (fun () -> Coroutine.wake sched 0));
  (match Coroutine.run sched with
  | Coroutine.Deadlock [ { pid = 0; reason = "stuck" } ] -> ()
  | _ -> Alcotest.fail "expected rank 0 deadlocked on its second block");
  Alcotest.(check (list string)) "rendered once, at the verdict" [ "stuck" ] !rendered

let test_block_wake () =
  let sched = Coroutine.create () in
  let log = ref [] in
  let _p0 =
    Coroutine.spawn sched (fun () ->
        log := "p0-before" :: !log;
        Coroutine.block (fun () -> "waiting for p1");
        log := "p0-after" :: !log)
  in
  let _p1 =
    Coroutine.spawn sched (fun () ->
        log := "p1" :: !log;
        Coroutine.wake sched 0)
  in
  (match Coroutine.run sched with
  | Coroutine.All_finished -> ()
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check (list string))
    "wake resumes blocked process"
    [ "p0-before"; "p1"; "p0-after" ]
    (List.rev !log)

let test_deadlock_detection () =
  let sched = Coroutine.create () in
  ignore (Coroutine.spawn sched (fun () -> Coroutine.block (fun () -> "stuck-0")));
  ignore (Coroutine.spawn sched (fun () -> ()));
  ignore (Coroutine.spawn sched (fun () -> Coroutine.block (fun () -> "stuck-2")));
  match Coroutine.run sched with
  | Coroutine.Deadlock blocked ->
      let pids = List.map (fun (b : Coroutine.blocked_info) -> b.pid) blocked in
      Alcotest.(check (list int)) "blocked pids" [ 0; 2 ] pids;
      let reasons =
        List.map (fun (b : Coroutine.blocked_info) -> b.reason) blocked
      in
      Alcotest.(check (list string)) "reasons" [ "stuck-0"; "stuck-2" ] reasons
  | _ -> Alcotest.fail "expected deadlock"

let test_crash_reported () =
  let sched = Coroutine.create () in
  ignore (Coroutine.spawn sched (fun () -> Coroutine.yield ()));
  ignore (Coroutine.spawn sched (fun () -> failwith "boom"));
  match Coroutine.run sched with
  | Coroutine.Crashed (pid, Failure msg, _) ->
      Alcotest.(check int) "crashing pid" 1 pid;
      Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected crash"

let test_wake_nonblocked_is_noop () =
  let sched = Coroutine.create () in
  let count = ref 0 in
  ignore
    (Coroutine.spawn sched (fun () ->
         incr count;
         Coroutine.yield ();
         incr count));
  ignore (Coroutine.spawn sched (fun () -> Coroutine.wake sched 0));
  (match Coroutine.run sched with
  | Coroutine.All_finished -> ()
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check int) "body ran exactly once through both halves" 2 !count

let test_many_processes () =
  let n = 2000 in
  let sched = Coroutine.create () in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    ignore
      (Coroutine.spawn sched (fun () ->
           Coroutine.yield ();
           sum := !sum + i))
  done;
  (match Coroutine.run sched with
  | Coroutine.All_finished -> ()
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check int) "all processes ran" (n * (n - 1) / 2) !sum

(* ---- Virtual time ---- *)

let test_vtime_advance_observe () =
  let vt = Vtime.create 2 in
  Vtime.advance vt 0 5.0;
  Vtime.observe vt 1 3.0;
  Vtime.observe vt 1 1.0;
  Alcotest.(check (float 1e-9)) "advance" 5.0 (Vtime.now vt 0);
  Alcotest.(check (float 1e-9)) "observe keeps max" 3.0 (Vtime.now vt 1);
  Alcotest.(check (float 1e-9)) "makespan" 5.0 (Vtime.makespan vt)

let test_vtime_synchronize () =
  let vt = Vtime.create 3 in
  Vtime.advance vt 0 1.0;
  Vtime.advance vt 1 7.0;
  Vtime.synchronize vt [ 0; 1; 2 ] 0.5;
  List.iter
    (fun pid ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pid %d synchronized" pid)
        7.5 (Vtime.now vt pid))
    [ 0; 1; 2 ]

let test_server_queueing () =
  let srv = Vtime.Server.create ~service:1.0 in
  let t1 = Vtime.Server.serve srv ~arrival:0.0 in
  let t2 = Vtime.Server.serve srv ~arrival:0.0 in
  let t3 = Vtime.Server.serve srv ~arrival:10.0 in
  Alcotest.(check (float 1e-9)) "first request" 1.0 t1;
  Alcotest.(check (float 1e-9)) "second queues behind first" 2.0 t2;
  Alcotest.(check (float 1e-9)) "idle server serves at arrival" 11.0 t3

(* ---- Splitmix PRNG ---- *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same seed, same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_splitmix_split_independent () =
  let a = Splitmix.create 7 in
  let child = Splitmix.split a in
  let x = Splitmix.next_int64 child in
  (* Re-derive: the child stream must not depend on later draws from parent. *)
  let a2 = Splitmix.create 7 in
  let child2 = Splitmix.split a2 in
  ignore (Splitmix.next_int64 a2);
  Alcotest.(check int64) "split stream stable" x (Splitmix.next_int64 child2)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Splitmix.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Splitmix.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Splitmix.int g bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Splitmix.float stays in bounds" ~count:200
    QCheck.small_int
    (fun seed ->
      let g = Splitmix.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Splitmix.float g 3.5 in
        if v < 0.0 || v >= 3.5 then ok := false
      done;
      !ok)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"Splitmix.shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let g = Splitmix.create seed in
      let arr = Array.of_list l in
      Splitmix.shuffle g arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let () =
  Alcotest.run "sim"
    [
      ( "coroutine",
        [
          Alcotest.test_case "run to completion, round-robin" `Quick
            test_run_to_completion;
          Alcotest.test_case "self returns pid" `Quick test_self;
          Alcotest.test_case "block / wake" `Quick test_block_wake;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "crash reported" `Quick test_crash_reported;
          Alcotest.test_case "wake on non-blocked is noop" `Quick
            test_wake_nonblocked_is_noop;
          Alcotest.test_case "2000 processes" `Quick test_many_processes;
          Alcotest.test_case "current raises outside a process body" `Quick
            test_current_outside_body;
          Alcotest.test_case "block reason rendered only on a verdict" `Quick
            test_block_reason_is_lazy;
        ] );
      ( "vtime",
        [
          Alcotest.test_case "advance / observe" `Quick test_vtime_advance_observe;
          Alcotest.test_case "synchronize" `Quick test_vtime_synchronize;
          Alcotest.test_case "server queueing" `Quick test_server_queueing;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "split independence" `Quick
            test_splitmix_split_independent;
          QCheck_alcotest.to_alcotest prop_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_float_in_bounds;
          QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
        ] );
    ]
