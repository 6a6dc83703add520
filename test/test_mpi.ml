(* Tests for the simulated MPI runtime: matching semantics, wildcard
   receives, collectives, communicators, deadlock and leak detection. *)

module Runtime = Mpi.Runtime
module Payload = Mpi.Payload
module Types = Mpi.Types
module Comm = Mpi.Comm
module Coroutine = Sim.Coroutine

(* Run [body rank] on [np] simulated ranks over a fresh runtime; return the
   runtime and outcome. *)
let exec ?cost ?oracle ~np body =
  let rt = Runtime.create ?cost ?oracle ~np () in
  Runtime.spawn_ranks rt (fun rank -> body rt rank);
  let outcome = Runtime.run rt in
  (rt, outcome)

(* Substring check used to assert on error messages. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_finished (outcome : Coroutine.outcome) =
  match outcome with
  | Coroutine.All_finished -> ()
  | Coroutine.Deadlock blocked ->
      Alcotest.failf "unexpected deadlock: %s"
        (String.concat ", "
           (List.map
              (fun (b : Coroutine.blocked_info) ->
                Printf.sprintf "%d:%s" b.pid b.reason)
              blocked))
  | Coroutine.Crashed (pid, exn, _) ->
      Alcotest.failf "rank %d crashed: %s" pid (Printexc.to_string exn)

(* ---- Point-to-point basics ---- *)

let test_ping_pong () =
  let got = ref None in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then Runtime.send rt ~dest:1 world (Payload.int 41)
        else begin
          let data, st = Runtime.recv rt ~src:0 world in
          got := Some (Payload.to_int data, st.Types.source, st.Types.tag)
        end)
  in
  check_finished outcome;
  Alcotest.(check (option (triple int int int)))
    "payload, source, tag" (Some (41, 0, 0)) !got

let test_tag_matching () =
  (* Receive tag 7 first even though tag 3 was sent first. *)
  let order = ref [] in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then begin
          Runtime.send rt ~tag:3 ~dest:1 world (Payload.int 3);
          Runtime.send rt ~tag:7 ~dest:1 world (Payload.int 7)
        end
        else begin
          let a, _ = Runtime.recv rt ~src:0 ~tag:7 world in
          let b, _ = Runtime.recv rt ~src:0 ~tag:3 world in
          order := [ Payload.to_int a; Payload.to_int b ]
        end)
  in
  check_finished outcome;
  Alcotest.(check (list int)) "tag-selective receive" [ 7; 3 ] !order

let test_non_overtaking () =
  (* Two same-tag messages on one channel must arrive in send order, even
     through wildcard receives. *)
  let order = ref [] in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then
          for i = 1 to 5 do
            Runtime.send rt ~dest:1 world (Payload.int i)
          done
        else
          for _ = 1 to 5 do
            let v, _ = Runtime.recv rt ~src:Types.any_source world in
            order := Payload.to_int v :: !order
          done)
  in
  check_finished outcome;
  Alcotest.(check (list int)) "fifo per channel" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_wildcard_two_senders () =
  (* Both senders' messages are received; sources recorded faithfully. *)
  let sources = ref [] in
  let _, outcome =
    exec ~np:3 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 1 then
          for _ = 1 to 2 do
            let _, st = Runtime.recv rt ~src:Types.any_source world in
            sources := st.Types.source :: !sources
          done
        else Runtime.send rt ~dest:1 world (Payload.int rank))
  in
  check_finished outcome;
  Alcotest.(check (list int))
    "both sources seen" [ 0; 2 ]
    (List.sort compare !sources)

let test_isend_wait () =
  let got = ref 0 in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then begin
          let reqs =
            List.init 4 (fun i -> Runtime.isend rt ~dest:1 world (Payload.int i))
          in
          ignore (Runtime.waitall rt reqs)
        end
        else begin
          let reqs = List.init 4 (fun _ -> Runtime.irecv rt ~src:0 world) in
          ignore (Runtime.waitall rt reqs);
          got :=
            List.fold_left
              (fun acc r -> acc + Payload.to_int (Runtime.recv_data r))
              0 reqs
        end)
  in
  check_finished outcome;
  Alcotest.(check int) "all payloads received" 6 !got

let test_ssend_blocks_until_matched () =
  (* P0's ssend cannot complete before P1 posts the receive; P1 only posts
     after it has made visible progress. *)
  let progress = ref [] in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then begin
          progress := "p0-ssend-start" :: !progress;
          Runtime.ssend rt ~dest:1 world (Payload.int 1);
          progress := "p0-ssend-done" :: !progress
        end
        else begin
          Coroutine.yield ();
          progress := "p1-posting" :: !progress;
          ignore (Runtime.recv rt ~src:0 world)
        end)
  in
  check_finished outcome;
  let idx s =
    let rec go i = function
      | [] -> Alcotest.failf "missing %s" s
      | x :: _ when String.equal x s -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 (List.rev !progress)
  in
  Alcotest.(check bool) "ssend completes after recv posted" true
    (idx "p0-ssend-done" > idx "p1-posting")

let test_waitany () =
  let winner = ref (-1) in
  let _, outcome =
    exec ~np:3 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then begin
          (* Rank 1 sends only after rank 0's go message, so request 0
             cannot be complete when waitany returns. *)
          let r1 = Runtime.irecv rt ~src:1 world in
          let r2 = Runtime.irecv rt ~src:2 world in
          let i, _ = Runtime.waitany rt [ r1; r2 ] in
          winner := i;
          Runtime.send rt ~dest:1 world Payload.Unit;
          ignore (Runtime.wait rt r1)
        end
        else if rank = 2 then Runtime.send rt ~dest:0 world Payload.Unit
        else begin
          ignore (Runtime.recv rt ~src:0 world);
          Runtime.send rt ~dest:0 world Payload.Unit
        end)
  in
  check_finished outcome;
  Alcotest.(check int) "second request completed first" 1 !winner

let test_probe () =
  let seen = ref None in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then Runtime.send rt ~tag:9 ~dest:1 world (Payload.str "hi")
        else begin
          let st = Runtime.probe rt ~src:Types.any_source world in
          seen := Some (st.Types.source, st.Types.tag, st.Types.count);
          (* The message is still there after the probe. *)
          let data, _ = Runtime.recv rt ~src:st.Types.source ~tag:st.Types.tag world in
          Alcotest.(check string) "probe left message" "hi" (Payload.to_str data)
        end)
  in
  check_finished outcome;
  Alcotest.(check (option (triple int int int)))
    "probe status" (Some (0, 9, 2)) !seen

let test_iprobe_miss () =
  let first = ref (Some { Types.source = 0; tag = 0; count = 0 }) in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 1 then begin
          first := Runtime.iprobe rt ~src:0 world;
          (* rank 0 sends on its first slice; eventually iprobe hits. *)
          let rec poll () =
            match Runtime.iprobe rt ~src:0 world with
            | Some _ -> ignore (Runtime.recv rt ~src:0 world)
            | None -> poll ()
          in
          poll ()
        end
        else begin
          Coroutine.yield ();
          Runtime.send rt ~dest:1 world Payload.Unit
        end)
  in
  check_finished outcome;
  Alcotest.(check bool) "first iprobe misses" true (!first = None)

(* ---- Deadlock and error detection ---- *)

let test_deadlock_cross_recv () =
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        (* Both ranks receive first: classic head-to-head deadlock. *)
        ignore (Runtime.recv rt ~src:(1 - rank) world);
        Runtime.send rt ~dest:(1 - rank) world Payload.Unit)
  in
  match outcome with
  | Coroutine.Deadlock blocked ->
      Alcotest.(check int) "both ranks blocked" 2 (List.length blocked)
  | _ -> Alcotest.fail "expected deadlock"

(* ---- Golden deadlock reasons ----

   One rank deadlocks at each blocking site while the other finishes; the
   [Deadlock] reasons must match these literals byte for byte. The texts are
   the reports' user-visible deadlock findings, so a change to how (or when)
   they are rendered must leave them unchanged. *)

let deadlock_reasons ~np body =
  match snd (exec ~np body) with
  | Coroutine.Deadlock blocked ->
      List.map (fun (b : Coroutine.blocked_info) -> (b.pid, b.reason)) blocked
  | Coroutine.All_finished -> Alcotest.fail "expected deadlock, all finished"
  | Coroutine.Crashed (pid, exn, _) ->
      Alcotest.failf "expected deadlock, rank %d crashed: %s" pid
        (Printexc.to_string exn)

let check_reasons name expected body =
  Alcotest.(check (list (pair int string)))
    name expected
    (deadlock_reasons ~np:2 body)

let test_golden_wait_wildcard () =
  check_reasons "wait on a wildcard irecv"
    [ (0, "wait(req#0@0 recv(src=*,tag=-1,ctx=0) [pending])") ]
    (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then ignore (Runtime.wait rt (Runtime.irecv rt world)));
  check_reasons "wait on a wildcard irecv, woken by a non-match"
    [ (0, "wait(req#0@0 recv(src=*,tag=4,ctx=0) [pending])") ]
    (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then ignore (Runtime.wait rt (Runtime.irecv rt ~tag:4 world))
      else Runtime.send rt ~tag:7 ~dest:0 world Payload.Unit)

let test_golden_wait_specific () =
  (* Rank 1's non-matching send wakes rank 0, which re-checks and parks
     again: the reason at the verdict is that of the last block. *)
  check_reasons "wait on a specific irecv"
    [ (0, "wait(req#0@0 recv(src=1,tag=5,ctx=0) [pending])") ]
    (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then
        ignore (Runtime.wait rt (Runtime.irecv rt ~src:1 ~tag:5 world))
      else Runtime.send rt ~tag:6 ~dest:0 world (Payload.int 6))

let test_golden_wait_issend () =
  check_reasons "wait on an issend"
    [ (1, "wait(req#0@1 ssend(dst=0,tag=3,ctx=0) [pending])") ]
    (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 1 then
        ignore (Runtime.wait rt (Runtime.issend rt ~tag:3 ~dest:0 world Payload.Unit)))

let test_golden_waitall_waitany_probe () =
  check_reasons "waitall"
    [ (0, "waitall") ]
    (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then
        ignore
          (Runtime.waitall rt
             [ Runtime.isend rt ~dest:1 world Payload.Unit; Runtime.irecv rt ~src:1 world ]));
  check_reasons "waitany"
    [ (1, "waitany") ]
    (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 1 then
        ignore
          (Runtime.waitany rt
             [ Runtime.irecv rt ~src:0 ~tag:1 world; Runtime.irecv rt ~tag:2 world ]));
  check_reasons "probe"
    [ (0, "probe") ]
    (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then ignore (Runtime.probe rt ~src:1 world))

let test_golden_collective () =
  check_reasons "barrier on world"
    [ (0, "collective barrier on world") ]
    (fun rt rank ->
      if rank = 0 then Runtime.barrier rt (Runtime.comm_world rt));
  check_reasons "bcast on a dup"
    [ (1, "collective bcast on dup(world)") ]
    (fun rt rank ->
      let dup = Runtime.comm_dup rt (Runtime.comm_world rt) in
      if rank = 1 then ignore (Runtime.bcast rt ~root:0 dup (Payload.int 1)))

let test_collective_mismatch_detected () =
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then Runtime.barrier rt world
        else ignore (Runtime.allreduce rt ~op:Types.Sum world (Payload.int 1)))
  in
  match outcome with
  | Coroutine.Crashed (_, Types.Mpi_error msg, _) ->
      Alcotest.(check bool) "mentions mismatch" true
        (contains ~sub:"collective mismatch" msg)
  | _ -> Alcotest.fail "expected Mpi_error crash"

let test_invalid_rank_detected () =
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then Runtime.send rt ~dest:5 world Payload.Unit)
  in
  match outcome with
  | Coroutine.Crashed (0, Types.Mpi_error _, _) -> ()
  | _ -> Alcotest.fail "expected Mpi_error for invalid rank"

let expect_mpi_error name body =
  let _, outcome = exec ~np:2 body in
  match outcome with
  | Coroutine.Crashed (_, Types.Mpi_error _, _) -> ()
  | _ -> Alcotest.failf "%s: expected an Mpi_error crash" name

let test_wait_on_foreign_request () =
  (* Rank 1 waits on a request owned by rank 0: usage error. *)
  let stash = ref None in
  expect_mpi_error "foreign wait" (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then begin
        stash := Some (Runtime.irecv rt ~src:1 world);
        Runtime.send rt ~dest:1 world Payload.Unit
      end
      else begin
        ignore (Runtime.recv rt ~src:0 world);
        match !stash with
        | Some req -> ignore (Runtime.wait rt req)
        | None -> ()
      end)

let test_negative_tag_rejected () =
  expect_mpi_error "negative tag" (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then Runtime.send rt ~tag:(-3) ~dest:1 world Payload.Unit)

let test_scatter_size_mismatch () =
  expect_mpi_error "scatter size" (fun rt rank ->
      let world = Runtime.comm_world rt in
      ignore
        (Runtime.scatter rt ~root:0 world
           (if rank = 0 then Some [| Payload.Unit |] else None)))

let test_alltoall_size_mismatch () =
  expect_mpi_error "alltoall size" (fun rt _rank ->
      let world = Runtime.comm_world rt in
      ignore (Runtime.alltoall rt world [| Payload.Unit |]))

let test_free_world_rejected () =
  expect_mpi_error "free world" (fun rt rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then Runtime.comm_free rt world)

let test_double_free_rejected () =
  expect_mpi_error "double free" (fun rt rank ->
      let world = Runtime.comm_world rt in
      let dup = Runtime.comm_dup rt world in
      Runtime.comm_free rt dup;
      if rank = 0 then Runtime.comm_free rt dup)

(* ---- Collectives ---- *)

let test_barrier_synchronizes_time () =
  let rt, outcome =
    exec ~np:4 (fun rt rank ->
        let world = Runtime.comm_world rt in
        (* Rank 2 does a lot of local work; barrier drags everyone to it. *)
        if rank = 2 then Runtime.advance_clock rt rank 1.0;
        Runtime.barrier rt world)
  in
  check_finished outcome;
  Alcotest.(check bool) "makespan includes slowest rank" true
    (Runtime.makespan rt >= 1.0)

let test_allreduce () =
  let results = Array.make 4 0 in
  let _, outcome =
    exec ~np:4 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let r = Runtime.allreduce rt ~op:Types.Sum world (Payload.int (rank + 1)) in
        results.(rank) <- Payload.to_int r)
  in
  check_finished outcome;
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "rank %d" i) 10 v)
    results

let test_allreduce_max_min () =
  let mx = ref 0 and mn = ref 0 in
  let _, outcome =
    exec ~np:5 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let m = Runtime.allreduce rt ~op:Types.Max world (Payload.int rank) in
        let n = Runtime.allreduce rt ~op:Types.Min world (Payload.int rank) in
        if rank = 0 then begin
          mx := Payload.to_int m;
          mn := Payload.to_int n
        end)
  in
  check_finished outcome;
  Alcotest.(check int) "max" 4 !mx;
  Alcotest.(check int) "min" 0 !mn

let test_bcast () =
  let results = Array.make 4 "" in
  let _, outcome =
    exec ~np:4 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let contrib = if rank = 2 then Payload.str "root" else Payload.Unit in
        let r = Runtime.bcast rt ~root:2 world contrib in
        results.(rank) <- Payload.to_str r)
  in
  check_finished outcome;
  Array.iter (fun v -> Alcotest.(check string) "bcast value" "root" v) results

let test_reduce_root_only () =
  let at_root = ref None and elsewhere = ref [] in
  let _, outcome =
    exec ~np:3 (fun rt rank ->
        let world = Runtime.comm_world rt in
        match Runtime.reduce rt ~root:1 ~op:Types.Prod world (Payload.int (rank + 1)) with
        | Some v -> at_root := Some (rank, Payload.to_int v)
        | None -> elsewhere := rank :: !elsewhere)
  in
  check_finished outcome;
  Alcotest.(check (option (pair int int))) "root result" (Some (1, 6)) !at_root;
  Alcotest.(check (list int)) "non-roots" [ 0; 2 ] (List.sort compare !elsewhere)

let test_gather_scatter () =
  let gathered = ref [||] in
  let scattered = Array.make 3 0 in
  let _, outcome =
    exec ~np:3 (fun rt rank ->
        let world = Runtime.comm_world rt in
        (match Runtime.gather rt ~root:0 world (Payload.int (rank * 10)) with
        | Some arr when rank = 0 -> gathered := Array.map Payload.to_int arr
        | Some _ -> Alcotest.fail "non-root got gather result"
        | None -> ());
        let mine =
          Runtime.scatter rt ~root:0 world
            (if rank = 0 then
               Some (Array.init 3 (fun i -> Payload.int (100 + i)))
             else None)
        in
        scattered.(rank) <- Payload.to_int mine)
  in
  check_finished outcome;
  Alcotest.(check (array int)) "gather in rank order" [| 0; 10; 20 |] !gathered;
  Alcotest.(check (array int)) "scatter" [| 100; 101; 102 |] scattered

let test_allgather_alltoall () =
  let ag = ref [||] in
  let at = Array.make 3 [||] in
  let _, outcome =
    exec ~np:3 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let everyone = Runtime.allgather rt world (Payload.int rank) in
        if rank = 1 then ag := Array.map Payload.to_int everyone;
        let out =
          Runtime.alltoall rt world
            (Array.init 3 (fun dst -> Payload.int ((rank * 10) + dst)))
        in
        at.(rank) <- Array.map Payload.to_int out)
  in
  check_finished outcome;
  Alcotest.(check (array int)) "allgather" [| 0; 1; 2 |] !ag;
  (* alltoall: rank r receives (s*10 + r) from each s. *)
  Alcotest.(check (array int)) "alltoall rank0" [| 0; 10; 20 |] at.(0);
  Alcotest.(check (array int)) "alltoall rank2" [| 2; 12; 22 |] at.(2)

(* ---- Communicators ---- *)

let test_comm_dup_isolates_traffic () =
  let got = ref [] in
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let dup = Runtime.comm_dup rt world in
        if rank = 0 then begin
          Runtime.send rt ~dest:1 world (Payload.int 1);
          Runtime.send rt ~dest:1 dup (Payload.int 2)
        end
        else begin
          (* Receive on dup first: must get the dup message, not the world
             one, even though world's was sent earlier with the same tag. *)
          let a, _ = Runtime.recv rt ~src:0 dup in
          let b, _ = Runtime.recv rt ~src:0 world in
          got := [ Payload.to_int a; Payload.to_int b ]
        end;
        Runtime.comm_free rt dup)
  in
  check_finished outcome;
  Alcotest.(check (list int)) "contexts isolate matching" [ 2; 1 ] !got

let test_comm_split () =
  let sizes = Array.make 4 0 in
  let ranks_in_split = Array.make 4 (-1) in
  let _, outcome =
    exec ~np:4 (fun rt rank ->
        let world = Runtime.comm_world rt in
        (* Even ranks vs odd ranks; key reverses order within evens. *)
        let sub =
          Runtime.comm_split rt ~color:(rank mod 2) ~key:(-rank) world
        in
        sizes.(rank) <- Comm.size sub;
        ranks_in_split.(rank) <- Comm.rank_of_world sub rank)
  in
  check_finished outcome;
  Alcotest.(check (array int)) "split sizes" [| 2; 2; 2; 2 |] sizes;
  (* Evens: key -0 > -2, so rank 2 (key -2) sorts first. *)
  Alcotest.(check int) "world rank 0 is second in evens" 1 ranks_in_split.(0);
  Alcotest.(check int) "world rank 2 is first in evens" 0 ranks_in_split.(2)

let test_use_after_free_detected () =
  let _, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let dup = Runtime.comm_dup rt world in
        Runtime.comm_free rt dup;
        if rank = 0 then Runtime.send rt ~dest:1 dup Payload.Unit)
  in
  match outcome with
  | Coroutine.Crashed (0, Types.Mpi_error msg, _) ->
      Alcotest.(check bool) "mentions free" true
        (contains ~sub:"after freeing" msg)
  | _ -> Alcotest.fail "expected use-after-free error"

(* ---- Leak reports ---- *)

let test_comm_leak_reported () =
  let rt, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let dup = Runtime.comm_dup rt world in
        (* Only rank 0 frees. *)
        if rank = 0 then Runtime.comm_free rt dup)
  in
  check_finished outcome;
  let report = Runtime.leak_report rt in
  let leakers = List.map fst report.Runtime.comm_leaks in
  Alcotest.(check (list int)) "rank 1 leaks the dup" [ 1 ] leakers

let test_request_leak_reported () =
  let rt, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then begin
          (* isend completed by the runtime but never waited: leaked. *)
          ignore (Runtime.isend rt ~dest:1 world Payload.Unit)
        end
        else ignore (Runtime.recv rt ~src:0 world))
  in
  check_finished outcome;
  let report = Runtime.leak_report rt in
  Alcotest.(check int) "rank 0 leaks one request" 1 report.Runtime.req_leaks.(0);
  Alcotest.(check int) "rank 1 leaks none" 0 report.Runtime.req_leaks.(1)

let test_no_false_leaks () =
  let rt, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let dup = Runtime.comm_dup rt world in
        if rank = 0 then Runtime.send rt ~dest:1 dup Payload.Unit
        else ignore (Runtime.recv rt ~src:0 dup);
        Runtime.comm_free rt dup)
  in
  check_finished outcome;
  let report = Runtime.leak_report rt in
  Alcotest.(check int) "no comm leaks" 0 (List.length report.Runtime.comm_leaks);
  Alcotest.(check int) "no req leaks rank0" 0 report.Runtime.req_leaks.(0);
  Alcotest.(check int) "no req leaks rank1" 0 report.Runtime.req_leaks.(1)

(* ---- Statistics (Table I infrastructure) ---- *)

let test_stats_census () =
  let rt, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        Runtime.barrier rt world;
        if rank = 0 then Runtime.send rt ~dest:1 world Payload.Unit
        else ignore (Runtime.recv rt ~src:0 world);
        Runtime.barrier rt world)
  in
  check_finished outcome;
  let stats = Runtime.stats rt in
  Alcotest.(check int) "collectives" 4 (Mpi.Stats.total_collective stats);
  (* send + (irecv) = 2 point-to-point posts; blocking wrappers add waits. *)
  Alcotest.(check int) "send-recv" 2 (Mpi.Stats.total_send_recv stats);
  Alcotest.(check int) "waits" 2 (Mpi.Stats.total_wait stats)

(* ---- Determinism (replay foundation) ---- *)

let run_trace () =
  let trace = ref [] in
  let _, outcome =
    exec ~np:4 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then
          for _ = 1 to 3 do
            let v, st = Runtime.recv rt ~src:Types.any_source world in
            trace := (st.Types.source, Payload.to_int v) :: !trace
          done
        else begin
          Runtime.send rt ~dest:0 world (Payload.int rank);
          Runtime.send rt ~dest:0 world (Payload.int (rank * 100))
        end)
  in
  (* Drain the extra messages so no deadlock; they stay unexpected. *)
  ignore outcome;
  List.rev !trace

let test_deterministic_replay () =
  let t1 = run_trace () and t2 = run_trace () in
  Alcotest.(check (list (pair int int))) "identical traces" t1 t2

let prop_allreduce_sum_matches_spec =
  QCheck.Test.make ~name:"allreduce sum over random contributions" ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (np, extra) ->
      let contributions = Array.init np (fun i -> i + List.length extra) in
      let expected = Array.fold_left ( + ) 0 contributions in
      let results = Array.make np 0 in
      let _, outcome =
        exec ~np (fun rt rank ->
            let world = Runtime.comm_world rt in
            let r =
              Runtime.allreduce rt ~op:Types.Sum world
                (Payload.int contributions.(rank))
            in
            results.(rank) <- Payload.to_int r)
      in
      (match outcome with Coroutine.All_finished -> () | _ -> failwith "bad");
      Array.for_all (fun v -> v = expected) results)

(* ---- Dense communicator membership ----

   [Comm] maps world pid to comm rank through a dense array. A [Hashtbl]
   model (the representation it replaced, with the same error texts) must
   agree on every query and on [mark_freed], for members, non-members,
   pid -1 and pids at or beyond np. *)

module Comm_model = struct
  type t = { of_world : (int, int) Hashtbl.t; freed : bool array }

  let label = "model"
  let ctx = 7

  let make ranks =
    let of_world = Hashtbl.create 8 in
    Array.iteri (fun r pid -> Hashtbl.replace of_world pid r) ranks;
    { of_world; freed = Array.make (Array.length ranks) false }

  let rank_of_world m pid =
    match Hashtbl.find_opt m.of_world pid with
    | Some r -> r
    | None ->
        Types.mpi_errorf "process %d is not a member of communicator %s(ctx=%d)"
          pid label ctx

  let is_member m pid = Hashtbl.mem m.of_world pid

  let freed_by m pid =
    match Hashtbl.find_opt m.of_world pid with
    | Some r -> m.freed.(r)
    | None -> true

  let mark_freed m pid =
    let r = rank_of_world m pid in
    if m.freed.(r) then
      Types.mpi_errorf "communicator %s(ctx=%d) freed twice by rank %d" label
        ctx r;
    m.freed.(r) <- true
end

let prop_comm_membership_matches_model =
  let gen =
    QCheck.Gen.(
      int_range 1 10 >>= fun np ->
      (* a random subset of the world pids, in random rank order *)
      list_repeat np bool >>= fun keep ->
      shuffle_l (List.concat (List.mapi (fun pid k -> if k then [ pid ] else []) keep))
      >>= fun members ->
      map
        (fun ops -> (np, Array.of_list members, ops))
        (small_list (pair (int_range 0 3) (int_range (-2) (np + 2)))))
  in
  let print (np, ranks, ops) =
    Printf.sprintf "np=%d ranks=[%s] ops=[%s]" np
      (String.concat ";" (Array.to_list (Array.map string_of_int ranks)))
      (String.concat ";"
         (List.map (fun (op, pid) -> Printf.sprintf "%d:%d" op pid) ops))
  in
  QCheck.Test.make ~name:"dense membership agrees with a Hashtbl model"
    ~count:300 (QCheck.make ~print gen) (fun (np, ranks, ops) ->
      let comm =
        Comm.make ~ctx:Comm_model.ctx ~ranks ~internal:false
          ~label:Comm_model.label
      in
      let model = Comm_model.make ranks in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Types.Mpi_error msg -> Error msg
      in
      List.for_all
        (fun (op, pid) ->
          match op with
          | 0 ->
              outcome (fun () -> Comm.rank_of_world comm pid)
              = outcome (fun () -> Comm_model.rank_of_world model pid)
          | 1 -> Comm.is_member comm pid = Comm_model.is_member model pid
          | 2 -> Comm.freed_by comm pid = Comm_model.freed_by model pid
          | _ ->
              outcome (fun () -> Comm.mark_freed comm pid)
              = outcome (fun () -> Comm_model.mark_freed model pid))
        (* every pid is also queried once after the random operations *)
        (ops
        @ List.concat_map
            (fun pid -> [ (0, pid); (1, pid); (2, pid) ])
            (List.init (np + 5) (fun i -> i - 2))))

(* ---- Execution trace ---- *)

let test_trace_events () =
  let rt = Runtime.create ~trace:true ~np:2 () in
  Runtime.spawn_ranks rt (fun rank ->
      let world = Runtime.comm_world rt in
      if rank = 0 then Runtime.send rt ~tag:5 ~dest:1 world (Payload.int 1)
      else ignore (Runtime.recv rt ~src:0 world);
      Runtime.barrier rt world);
  (match Runtime.run rt with
  | Coroutine.All_finished -> ()
  | _ -> Alcotest.fail "expected completion");
  let events = Runtime.trace rt in
  let has p = List.exists p events in
  Alcotest.(check bool) "send recorded" true
    (has (function Runtime.Ev_send { tag = 5; _ } -> true | _ -> false));
  Alcotest.(check bool) "match recorded" true
    (has (function
      | Runtime.Ev_match { src = 0; dst = 1; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "collective recorded" true
    (has (function
      | Runtime.Ev_collective { name = "barrier"; _ } -> true
      | _ -> false))

let test_trace_off_by_default () =
  let rt, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then Runtime.send rt ~dest:1 world Payload.Unit
        else ignore (Runtime.recv rt ~src:0 world))
  in
  check_finished outcome;
  Alcotest.(check int) "no events" 0 (List.length (Runtime.trace rt))

(* ---- sendrecv / scan ---- *)

let test_sendrecv_ring () =
  let received = Array.make 4 (-1) in
  let _, outcome =
    exec ~np:4 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let right = (rank + 1) mod 4 and left = (rank + 3) mod 4 in
        let v, st =
          Runtime.sendrecv rt ~dest:right ~src:left world (Payload.int rank)
        in
        Alcotest.(check int) "status source" left st.Types.source;
        received.(rank) <- Payload.to_int v)
  in
  check_finished outcome;
  Alcotest.(check (array int)) "ring shift" [| 3; 0; 1; 2 |] received

let test_scan () =
  let results = Array.make 5 0 in
  let _, outcome =
    exec ~np:5 (fun rt rank ->
        let world = Runtime.comm_world rt in
        let r = Runtime.scan rt ~op:Types.Sum world (Payload.int (rank + 1)) in
        results.(rank) <- Payload.to_int r)
  in
  check_finished outcome;
  Alcotest.(check (array int)) "inclusive prefix sums" [| 1; 3; 6; 10; 15 |]
    results

let test_exscan () =
  let results = Array.make 5 (-1) in
  let zeros = ref 0 in
  let _, outcome =
    exec ~np:5 (fun rt rank ->
        let world = Runtime.comm_world rt in
        match Runtime.exscan rt ~op:Types.Sum world (Payload.int (rank + 1)) with
        | Payload.Unit -> incr zeros
        | p -> results.(rank) <- Payload.to_int p)
  in
  check_finished outcome;
  Alcotest.(check int) "rank 0 gets Unit" 1 !zeros;
  Alcotest.(check (array int)) "exclusive prefix sums" [| -1; 1; 3; 6; 10 |]
    results

let test_reduce_scatter_block () =
  let results = Array.make 3 (-1) in
  let _, outcome =
    exec ~np:3 (fun rt rank ->
        let world = Runtime.comm_world rt in
        (* Contribution of rank s to slot r: 10*s + r. *)
        let contribs = Array.init 3 (fun r -> Payload.int ((10 * rank) + r)) in
        let mine =
          Runtime.reduce_scatter_block rt ~op:Types.Sum world contribs
        in
        results.(rank) <- Payload.to_int mine)
  in
  check_finished outcome;
  (* Slot r = sum over s of (10 s + r) = 30 + 3r. *)
  Alcotest.(check (array int)) "slotwise reductions" [| 30; 33; 36 |] results

let () =
  Alcotest.run "mpi"
    [
      ( "point-to-point",
        [
          Alcotest.test_case "ping pong" `Quick test_ping_pong;
          Alcotest.test_case "tag matching" `Quick test_tag_matching;
          Alcotest.test_case "non-overtaking fifo" `Quick test_non_overtaking;
          Alcotest.test_case "wildcard, two senders" `Quick
            test_wildcard_two_senders;
          Alcotest.test_case "isend + waitall" `Quick test_isend_wait;
          Alcotest.test_case "ssend blocks until matched" `Quick
            test_ssend_blocks_until_matched;
          Alcotest.test_case "waitany" `Quick test_waitany;
          Alcotest.test_case "probe" `Quick test_probe;
          Alcotest.test_case "iprobe can miss" `Quick test_iprobe_miss;
        ] );
      ( "errors",
        [
          Alcotest.test_case "wait on foreign request" `Quick
            test_wait_on_foreign_request;
          Alcotest.test_case "negative tag" `Quick test_negative_tag_rejected;
          Alcotest.test_case "scatter size mismatch" `Quick
            test_scatter_size_mismatch;
          Alcotest.test_case "alltoall size mismatch" `Quick
            test_alltoall_size_mismatch;
          Alcotest.test_case "free world rejected" `Quick
            test_free_world_rejected;
          Alcotest.test_case "double free rejected" `Quick
            test_double_free_rejected;
          Alcotest.test_case "cross-receive deadlock" `Quick
            test_deadlock_cross_recv;
          Alcotest.test_case "collective mismatch" `Quick
            test_collective_mismatch_detected;
          Alcotest.test_case "invalid rank" `Quick test_invalid_rank_detected;
          Alcotest.test_case "use after free" `Quick
            test_use_after_free_detected;
        ] );
      ( "golden-reasons",
        [
          Alcotest.test_case "wait on a wildcard irecv" `Quick
            test_golden_wait_wildcard;
          Alcotest.test_case "wait on a specific irecv" `Quick
            test_golden_wait_specific;
          Alcotest.test_case "wait on an issend" `Quick test_golden_wait_issend;
          Alcotest.test_case "waitall, waitany, probe" `Quick
            test_golden_waitall_waitany_probe;
          Alcotest.test_case "collective" `Quick test_golden_collective;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "barrier time sync" `Quick
            test_barrier_synchronizes_time;
          Alcotest.test_case "allreduce sum" `Quick test_allreduce;
          Alcotest.test_case "allreduce max/min" `Quick test_allreduce_max_min;
          Alcotest.test_case "bcast" `Quick test_bcast;
          Alcotest.test_case "reduce root-only" `Quick test_reduce_root_only;
          Alcotest.test_case "gather + scatter" `Quick test_gather_scatter;
          Alcotest.test_case "allgather + alltoall" `Quick
            test_allgather_alltoall;
          QCheck_alcotest.to_alcotest prop_allreduce_sum_matches_spec;
        ] );
      ( "communicators",
        [
          Alcotest.test_case "dup isolates traffic" `Quick
            test_comm_dup_isolates_traffic;
          Alcotest.test_case "split" `Quick test_comm_split;
          QCheck_alcotest.to_alcotest prop_comm_membership_matches_model;
        ] );
      ( "leaks",
        [
          Alcotest.test_case "comm leak" `Quick test_comm_leak_reported;
          Alcotest.test_case "request leak" `Quick test_request_leak_reported;
          Alcotest.test_case "no false positives" `Quick test_no_false_leaks;
        ] );
      ( "stats",
        [ Alcotest.test_case "census" `Quick test_stats_census ] );
      ( "trace",
        [
          Alcotest.test_case "events recorded" `Quick test_trace_events;
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
        ] );
      ( "sendrecv-scan",
        [
          Alcotest.test_case "sendrecv ring" `Quick test_sendrecv_ring;
          Alcotest.test_case "scan prefix sums" `Quick test_scan;
          Alcotest.test_case "exscan" `Quick test_exscan;
          Alcotest.test_case "reduce_scatter_block" `Quick
            test_reduce_scatter_block;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical replays" `Quick
            test_deterministic_replay;
        ] );
    ]
