(* Tests for the DAMPI verifier: the paper's illustrative patterns (Figs. 3,
   4, 10), guided replay, coverage guarantees, bounding heuristics, and the
   error checks of Table II. *)

module Explorer = Dampi.Explorer
module Report = Dampi.Report
module State = Dampi.State
module Epoch = Dampi.Epoch
module Decisions = Dampi.Decisions
module Payload = Mpi.Payload
module Types = Mpi.Types

let lamport = (module Clocks.Lamport : Clocks.Clock_intf.S)
let vector = (module Clocks.Vector : Clocks.Clock_intf.S)

let config ?(clock = lamport) ?mixing_bound ?(max_runs = 10_000) () =
  {
    Explorer.default_config with
    state_config = State.make_config ~clock ?mixing_bound ();
    max_runs;
  }

let crashes report =
  List.filter
    (fun (f : Report.finding) ->
      match f.Report.error with Report.Crash _ -> true | _ -> false)
    report.Report.findings

let deadlocks report =
  List.filter
    (fun (f : Report.finding) ->
      match f.Report.error with Report.Deadlock _ -> true | _ -> false)
    report.Report.findings

let monitor_alerts report =
  List.filter
    (fun (f : Report.finding) ->
      match f.Report.error with Report.Monitor_alert _ -> true | _ -> false)
    report.Report.findings

(* ---- Fig. 3: the bug that only an alternate match exposes ---- *)

(* P0: Isend(to:1, 22); P1: Irecv(any) -> x, crash if x = 33; P2: Isend(to:1, 33).
   The self run matches P0 (scheduled first); replay forces P2 and exposes
   the crash. *)
module Fig3 (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 -> M.send ~dest:1 world (Payload.int 22)
    | 1 ->
        let x, _ = M.recv ~src:M.any_source world in
        if Payload.to_int x = 33 then failwith "fig3: x = 33 bug triggered"
    | 2 -> M.send ~dest:1 world (Payload.int 33)
    | _ -> ()
end

let fig3_program = (module Fig3 : Mpi.Mpi_intf.PROGRAM)

let test_fig3_bug_found () =
  let report = Explorer.verify ~config:(config ()) ~np:3 fig3_program in
  Alcotest.(check int) "two interleavings" 2 report.Report.interleavings;
  (match crashes report with
  | [ f ] ->
      Alcotest.(check bool) "found in the replay, not the self run" true
        (f.Report.run_index = 1);
      Alcotest.(check int) "schedule has one forced decision" 1
        (List.length f.Report.schedule)
  | l -> Alcotest.failf "expected exactly one crash finding, got %d" (List.length l));
  Alcotest.(check int) "one wildcard analyzed" 1 report.Report.wildcards_analyzed

(* The same program is clean when only one sender exists: no false alarm. *)
module Fig3_single (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 -> M.send ~dest:1 world (Payload.int 22)
    | 1 ->
        let x, _ = M.recv ~src:M.any_source world in
        if Payload.to_int x = 33 then failwith "impossible"
    | _ -> ()
end

let test_single_sender_one_interleaving () =
  let report =
    Explorer.verify ~config:(config ())
      ~np:2 (module Fig3_single : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "one interleaving" 1 report.Report.interleavings;
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun (f : Report.finding) -> Report.error_signature f.Report.error)
       report.Report.findings)

(* ---- Deterministic program: nothing to explore ---- *)

module Deterministic (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let rank = M.rank world and size = M.size world in
    let next = (rank + 1) mod size and prev = (rank + size - 1) mod size in
    (* Token ring with deterministic receives plus a reduction. *)
    let req = M.irecv ~src:prev world in
    M.send ~dest:next world (Payload.int rank);
    ignore (M.wait req);
    let total = M.allreduce ~op:Types.Sum world (Payload.int rank) in
    assert (Payload.to_int total = size * (size - 1) / 2)
end

let test_deterministic_single_run () =
  let report =
    Explorer.verify ~config:(config ()) ~np:6
      (module Deterministic : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "one interleaving" 1 report.Report.interleavings;
  Alcotest.(check int) "no wildcards" 0 report.Report.wildcards_analyzed;
  Alcotest.(check int) "no findings" 0 (List.length report.Report.findings)

(* ---- Full coverage of a 3-sender wildcard pattern ---- *)

(* P1 receives three wildcard messages carrying distinct values and records
   the order; every permutation consistent with non-overtaking should be
   reachable, and the verifier must visit the matching orders exhaustively. *)
module Three_senders (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 ->
        let seen = ref [] in
        for _ = 1 to 3 do
          let v, _ = M.recv ~src:M.any_source world in
          seen := Payload.to_int v :: !seen
        done;
        (* Canary: one specific order is a bug. *)
        if !seen = [ 3; 2; 1 ] then failwith "order 1-2-3 triggers bug"
    | r -> M.send ~dest:0 world (Payload.int r)
end

let test_three_senders_coverage () =
  let report =
    Explorer.verify ~config:(config ()) ~np:4
      (module Three_senders : Mpi.Mpi_intf.PROGRAM)
  in
  (* 3 senders x independent matches: 3! = 6 distinct matching orders; DFS
     visits each at least once. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 6 interleavings (got %d)" report.Report.interleavings)
    true
    (report.Report.interleavings >= 6);
  Alcotest.(check int) "the buggy order was found" 1 (List.length (crashes report))

(* ---- Fig. 4: Lamport incompleteness vs vector completeness ---- *)

(* The cross-coupled pattern. The canary: P1 crashes iff its wildcard
   receive matches P2's send — the very match that Lamport clocks cannot
   discover (P2's send carries a scalar clock >= P1's epoch) but vector
   clocks can (the send is concurrent with the epoch in the partial
   order, once P2 is forced to match P3 first). *)
module Fig4 (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 -> M.send ~dest:1 world (Payload.int 0)
    | 1 ->
        let x, _ = M.recv ~src:M.any_source world in
        if Payload.to_int x = 2 then failwith "fig4: P2-to-P1 match reached"
    | 2 ->
        let _ = M.recv ~src:M.any_source world in
        M.send ~dest:1 world (Payload.int 2)
    | 3 -> M.send ~dest:2 world (Payload.int 3)
    | _ -> ()
end

let fig4_program = (module Fig4 : Mpi.Mpi_intf.PROGRAM)

(* P1 sends nothing of its own here: keep the paper's shape by making P1's
   send to P2 implicit in program order (the crash guard stands in for the
   divergent control flow). P2's wildcard still has the P1-vs-P3 choice
   through P0's message being consumed by P1 only. *)
let test_fig4_lamport_incomplete () =
  let report = Explorer.verify ~config:(config ~clock:lamport ()) ~np:4 fig4_program in
  Alcotest.(check int) "lamport never reaches the P2-to-P1 match" 0
    (List.length (crashes report))

let test_fig4_vector_complete () =
  let lam = Explorer.verify ~config:(config ~clock:lamport ()) ~np:4 fig4_program in
  let vec = Explorer.verify ~config:(config ~clock:vector ()) ~np:4 fig4_program in
  Alcotest.(check int) "vector reaches the P2-to-P1 match" 1
    (List.length (crashes vec));
  Alcotest.(check bool)
    (Printf.sprintf "vector explores at least as much (%d vs %d)"
       vec.Report.interleavings lam.Report.interleavings)
    true
    (vec.Report.interleavings >= lam.Report.interleavings)

(* ---- Fig. 10: the limitation pattern and its monitor ---- *)

module Fig10 (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 ->
        let req = M.isend ~dest:1 world (Payload.int 22) in
        M.barrier world;
        ignore (M.wait req)
    | 1 ->
        let req = M.irecv ~src:M.any_source world in
        M.barrier world;
        let _ = M.wait req in
        let x = Payload.to_int (M.recv_data req) in
        if x = 33 then failwith "fig10: crash"
    | 2 ->
        M.barrier world;
        M.send ~dest:1 world (Payload.int 33)
    | _ -> ()
end

let test_fig10_monitor_alert () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3 (module Fig10 : Mpi.Mpi_intf.PROGRAM)
  in
  (* DAMPI cannot see P2's send as an alternative (its clock was polluted by
     the barrier), so no crash is found — but the monitor flags the
     vulnerable pattern. *)
  Alcotest.(check int) "alternative is missed" 1 report.Report.interleavings;
  Alcotest.(check int) "no crash found" 0 (List.length (crashes report));
  Alcotest.(check bool) "monitor alert raised" true
    (List.length (monitor_alerts report) >= 1)

(* A well-formed variant (wait before barrier) must not alert. *)
module Fig10_clean (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 -> M.send ~dest:1 world (Payload.int 22)
    | 1 ->
        let req = M.irecv ~src:M.any_source world in
        ignore (M.wait req);
        M.barrier world
    | _ -> M.barrier world

  (* ranks 0 and 1 must also meet the barrier *)
end

let test_fig10_clean_no_alert () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3
      (module Fig10_clean : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "no monitor alert" 0 (List.length (monitor_alerts report))

(* ---- §V future work: dual Lamport clocks cover the Fig. 10 pattern ---- *)

let dual_config () =
  {
    Explorer.default_config with
    state_config = State.make_config ~dual_clock:true ();
    max_runs = 10_000;
  }

let test_fig10_dual_clock_covers () =
  (* With the lagging transmission clock, P2's post-barrier send carries a
     clock that predates P1's open epoch: the alternate match is discovered
     and the crash exposed — the coverage the baseline algorithm loses. *)
  let report =
    Explorer.verify ~config:(dual_config ()) ~np:3
      (module Fig10 : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check bool)
    (Printf.sprintf "explores the alternative (got %d runs)"
       report.Report.interleavings)
    true
    (report.Report.interleavings > 1);
  Alcotest.(check int) "fig10 crash found under dual clocks" 1
    (List.length (crashes report))

let test_dual_clock_equivalent_elsewhere () =
  (* On programs without the clock-escape pattern, dual clocks must find
     exactly what the baseline finds. *)
  let base = Explorer.verify ~config:(config ()) ~np:3 fig3_program in
  let dual = Explorer.verify ~config:(dual_config ()) ~np:3 fig3_program in
  Alcotest.(check int) "same interleavings" base.Report.interleavings
    dual.Report.interleavings;
  Alcotest.(check int) "same crash count"
    (List.length (crashes base))
    (List.length (crashes dual))

let test_dual_clock_still_sound () =
  (* The deterministic ring must stay a single quiet interleaving. *)
  let report =
    Explorer.verify ~config:(dual_config ()) ~np:6
      (module Deterministic : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "one interleaving" 1 report.Report.interleavings;
  Alcotest.(check int) "no findings" 0 (List.length report.Report.findings)

(* ---- Deadlock discovery through alternate matches ---- *)

(* P1: recv(any); recv(from 0). If the wildcard matches P0, the second receive
   starves — a deadlock reachable only under one matching. *)
module Wildcard_deadlock (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 -> M.send ~dest:1 world (Payload.int 0)
    | 1 ->
        let _ = M.recv ~src:M.any_source world in
        let _ = M.recv ~src:2 world in
        ()
    | 2 -> M.send ~dest:1 world (Payload.int 2)
    | _ -> ()
end

let test_wildcard_deadlock_found () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3
      (module Wildcard_deadlock : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "two interleavings" 2 report.Report.interleavings;
  Alcotest.(check int) "deadlock found" 1 (List.length (deadlocks report))

(* Golden text of that deadlock's finding: the starved rank names its
   receive, the finished ranks are mapped from the tool's finalize barrier. *)
let test_wildcard_deadlock_reasons () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3
      (module Wildcard_deadlock : Mpi.Mpi_intf.PROGRAM)
  in
  let blocked =
    List.concat_map
      (fun (f : Report.finding) ->
        match f.Report.error with
        | Report.Deadlock { blocked } -> blocked
        | _ -> [])
      report.Report.findings
  in
  Alcotest.(check (list (pair int string)))
    "deadlock reasons"
    [
      (0, "finished its program (parked in tool finalize)");
      (1, "wait(req#6@1 recv(src=2,tag=-1,ctx=0) [pending])");
      (2, "finished its program (parked in tool finalize)");
    ]
    blocked

(* ---- Resource-leak checks (Table II columns) ---- *)

module Leaky (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let dup = M.comm_dup world in
    (* Never freed: C-leak on every rank. *)
    ignore dup;
    if M.rank world = 0 then begin
      (* Posted and never completed: R-leak. *)
      ignore (M.irecv ~src:M.any_source world)
    end
end

let test_leaks_reported () =
  let report =
    Explorer.verify ~config:(config ()) ~np:2 (module Leaky : Mpi.Mpi_intf.PROGRAM)
  in
  let leaks =
    List.filter
      (fun (f : Report.finding) ->
        match f.Report.error with
        | Report.Comm_leak _ | Report.Request_leak _ -> true
        | _ -> false)
      report.Report.findings
  in
  Alcotest.(check bool)
    (Printf.sprintf "both leak kinds reported (got %d findings)" (List.length leaks))
    true
    (List.length leaks >= 3)
(* comm leak on each of 2 ranks + request leak on rank 0 *)

(* The tool's own shadow communicators must not be reported. *)
module Clean_comms (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let dup = M.comm_dup world in
    M.barrier dup;
    M.comm_free dup
end

let test_no_shadow_false_positives () =
  let report =
    Explorer.verify ~config:(config ()) ~np:2
      (module Clean_comms : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "no findings" 0 (List.length report.Report.findings)

(* ---- Master/worker matmult kernel: exploration counting ---- *)

(* A miniature of the paper's matmult: the master hands out [work] items,
   collecting results through wildcard receives; each completion triggers
   the next send. This is the workload of Figs. 6 and 8. *)
module Mini_master_worker (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let work = 4

  let main () =
    let world = M.comm_world in
    let rank = M.rank world and size = M.size world in
    let workers = size - 1 in
    if rank = 0 then begin
      let sent = ref 0 and received = ref 0 in
      (* Seed every worker. *)
      for w = 1 to workers do
        if !sent < work then begin
          M.send ~dest:w world (Payload.int !sent);
          incr sent
        end
        else M.send ~tag:1 ~dest:w world Payload.Unit
      done;
      while !received < work do
        let _, st = M.recv ~src:M.any_source world in
        incr received;
        if !sent < work then begin
          M.send ~dest:st.Types.source world (Payload.int !sent);
          incr sent
        end
        else M.send ~tag:1 ~dest:st.Types.source world Payload.Unit
      done
    end
    else begin
      let continue_ = ref true in
      while !continue_ do
        let st = M.probe ~src:0 world in
        if st.Types.tag = 1 then begin
          ignore (M.recv ~src:0 ~tag:1 world);
          continue_ := false
        end
        else begin
          let v, _ = M.recv ~src:0 ~tag:0 world in
          M.send ~dest:0 world (Payload.pair (Payload.int (M.rank world)) v)
        end
      done
    end
end

let mini_mw = (module Mini_master_worker : Mpi.Mpi_intf.PROGRAM)

let test_master_worker_explores () =
  let report = Explorer.verify ~config:(config ()) ~np:3 mini_mw in
  Alcotest.(check int) "no errors" 0 (List.length report.Report.findings);
  Alcotest.(check bool)
    (Printf.sprintf "multiple interleavings (got %d)" report.Report.interleavings)
    true
    (report.Report.interleavings > 1)

(* ---- Bounded mixing (§III-B2) ---- *)

let interleavings_with_k k =
  let report = Explorer.verify ~config:(config ?mixing_bound:k ()) ~np:3 mini_mw in
  report.Report.interleavings

let test_bounded_mixing_monotone () =
  let unbounded = interleavings_with_k None in
  let k0 = interleavings_with_k (Some 0) in
  let k1 = interleavings_with_k (Some 1) in
  let k2 = interleavings_with_k (Some 2) in
  Alcotest.(check bool)
    (Printf.sprintf "k=0 (%d) <= k=1 (%d)" k0 k1)
    true (k0 <= k1);
  Alcotest.(check bool)
    (Printf.sprintf "k=1 (%d) <= k=2 (%d)" k1 k2)
    true (k1 <= k2);
  Alcotest.(check bool)
    (Printf.sprintf "k=2 (%d) <= unbounded (%d)" k2 unbounded)
    true (k2 <= unbounded);
  Alcotest.(check bool)
    (Printf.sprintf "k=0 (%d) < unbounded (%d)" k0 unbounded)
    true (k0 < unbounded)

(* Bounded mixing must not lose the Fig. 3 bug: the buggy decision is the
   first (and only) epoch, inside every window. *)
let test_bounded_mixing_keeps_shallow_bugs () =
  let report =
    Explorer.verify ~config:(config ~mixing_bound:0 ()) ~np:3 fig3_program
  in
  Alcotest.(check int) "bug still found at k=0" 1 (List.length (crashes report))

(* ---- Loop iteration abstraction (§III-B1) ---- *)

module Abstracted_loop (B : sig
  val bracket : bool
end)
(M : Mpi.Mpi_intf.MPI_CORE) =
struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 ->
        (* Two wildcard receives in a "loop", then one outside. The bug
           (receiving 99 outside the loop) is reachable only if the loop
           consumes rank 2's first message — an interleaving that loop
           abstraction deliberately prunes. *)
        if B.bracket then M.pcontrol 1;
        for _ = 1 to 2 do
          ignore (M.recv ~src:M.any_source world)
        done;
        if B.bracket then M.pcontrol 0;
        let v, _ = M.recv ~src:M.any_source world in
        if Payload.to_int v = 99 then failwith "bug outside loop"
    | r ->
        M.send ~dest:0 world (Payload.int r);
        if r <= 2 then
          M.send ~dest:0 world (Payload.int (if r = 2 then 99 else 10))
end

module Bracketed = Abstracted_loop (struct
  let bracket = true
end)

module Unbracketed = Abstracted_loop (struct
  let bracket = false
end)

let test_loop_abstraction () =
  let free =
    Explorer.verify ~config:(config ()) ~np:3
      (module Unbracketed : Mpi.Mpi_intf.PROGRAM)
  in
  let bracketed =
    Explorer.verify ~config:(config ()) ~np:3
      (module Bracketed : Mpi.Mpi_intf.PROGRAM)
  in
  (* Unrestricted exploration reaches the bug. *)
  Alcotest.(check int) "bug found without brackets" 1
    (List.length (crashes free));
  (* Loop abstraction prunes the loop's epochs: fewer interleavings, and
     the deep bug is (knowingly) sacrificed. *)
  Alcotest.(check bool) "bracketed epochs reported" true
    (bracketed.Report.bounded_epochs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer interleavings with brackets (%d < %d)"
       bracketed.Report.interleavings free.Report.interleavings)
    true
    (bracketed.Report.interleavings < free.Report.interleavings);
  Alcotest.(check int) "pruned bug not reported" 0
    (List.length (crashes bracketed))

(* ---- Piggyback mechanisms (SS II-D) ---- *)

let inline_config ?(clock = lamport) () =
  {
    Explorer.default_config with
    state_config = State.make_config ~clock ~piggyback:State.Inline ();
    max_runs = 10_000;
  }

let test_inline_finds_fig3 () =
  let sep = Explorer.verify ~config:(config ()) ~np:3 fig3_program in
  let inl = Explorer.verify ~config:(inline_config ()) ~np:3 fig3_program in
  Alcotest.(check int) "same interleavings" sep.Report.interleavings
    inl.Report.interleavings;
  Alcotest.(check int) "bug found under inline packing" 1
    (List.length (crashes inl))

(* Payload integrity and user-visible sizes under inline packing. *)
module Size_sensitive (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 -> M.send ~dest:1 world (Payload.str "abcde")
    | 1 ->
        let data, st = M.recv ~src:M.any_source world in
        if Payload.to_str data <> "abcde" then failwith "payload corrupted";
        if st.Types.count <> 5 then
          failwith
            (Printf.sprintf "user-visible count is %d, wanted 5" st.Types.count)
    | _ -> ()
end

let test_inline_payload_transparent () =
  let report =
    Explorer.verify ~config:(inline_config ()) ~np:2
      (module Size_sensitive : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "no findings (payload and count intact)" 0
    (List.length report.Report.findings)

let test_inline_with_vector_clocks () =
  let report =
    Explorer.verify ~config:(inline_config ~clock:vector ()) ~np:4 fig4_program
  in
  Alcotest.(check int) "vector+inline still reaches the fig4 bug" 1
    (List.length (crashes report))

let test_inline_separate_equivalence () =
  (* Same exploration tree regardless of the piggyback transport. *)
  let sep = Explorer.verify ~config:(config ()) ~np:4 mini_mw in
  let inl = Explorer.verify ~config:(inline_config ()) ~np:4 mini_mw in
  Alcotest.(check int) "same interleavings" sep.Report.interleavings
    inl.Report.interleavings;
  Alcotest.(check int) "same findings" 
    (List.length sep.Report.findings)
    (List.length inl.Report.findings)

(* ---- Semantic edge cases through the interposition stack ---- *)

(* Fig. 3 with synchronous-mode sends. An unmatched Ssend blocks forever,
   so the receiver takes both messages; the bug is in the matching order of
   the first. *)
module Fig3_ssend (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 -> M.ssend ~dest:1 world (Payload.int 22)
    | 1 ->
        let x, _ = M.recv ~src:M.any_source world in
        let _ = M.recv ~src:M.any_source world in
        if Payload.to_int x = 33 then failwith "fig3-ssend bug"
    | 2 -> M.ssend ~dest:1 world (Payload.int 33)
    | _ -> ()
end

let test_fig3_with_ssend () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3
      (module Fig3_ssend : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "bug found with sync sends" 1
    (List.length (crashes report))

(* Wildcard on both source and tag: the epoch must accept any-tag late
   messages. *)
module Any_any (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 ->
        let v, _ = M.recv ~src:M.any_source ~tag:M.any_tag world in
        if Payload.to_int v = 2 then failwith "any-any bug";
        ignore (M.recv ~src:M.any_source ~tag:M.any_tag world)
    | 1 -> M.send ~tag:7 ~dest:0 world (Payload.int 1)
    | 2 -> M.send ~tag:9 ~dest:0 world (Payload.int 2)
    | _ -> ()
end

let test_any_source_any_tag () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3 (module Any_any : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "cross-tag alternative found" 1
    (List.length (crashes report))

(* A test-polling consumer: completion through M.test instead of M.wait
   must drive the same analysis. *)
module Poller (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    match M.rank world with
    | 0 ->
        let req = M.irecv ~src:M.any_source world in
        let rec poll () =
          match M.test req with
          | Some _ -> ()
          | None -> poll ()
        in
        poll ();
        if Payload.to_int (M.recv_data req) = 2 then failwith "poller bug";
        ignore (M.recv ~src:M.any_source world)
    | r -> M.send ~dest:0 world (Payload.int r)
end

let test_completion_via_test () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3 (module Poller : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "bug found through test-based completion" 1
    (List.length (crashes report))

(* Same tags on a dup'd communicator: a late message on the dup is no
   alternative for a world epoch. *)
module Dup_isolation (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let dup = M.comm_dup world in
    (match M.rank world with
    | 0 ->
        (* World wildcard can only legally match rank 1 (rank 2 sends on
           the dup): forcing rank 2 here would be unsound. *)
        let v, _ = M.recv ~src:M.any_source world in
        assert (Payload.to_int v = 1);
        let w, _ = M.recv ~src:M.any_source dup in
        assert (Payload.to_int w = 2)
    | 1 -> M.send ~dest:0 world (Payload.int 1)
    | 2 -> M.send ~dest:0 dup (Payload.int 2)
    | _ -> ());
    M.comm_free dup
end

let test_dup_context_isolation () =
  let report =
    Explorer.verify ~config:(config ()) ~np:3
      (module Dup_isolation : Mpi.Mpi_intf.PROGRAM)
  in
  (* One interleaving: neither wildcard has a cross-context alternative,
     and the asserts prove no unsound forcing happened. *)
  Alcotest.(check int) "no cross-context alternatives" 1
    report.Report.interleavings;
  Alcotest.(check int) "no findings" 0 (List.length report.Report.findings)

(* ---- Random-testing baseline (Sampler) ---- *)

let test_sampler_misses_fig3 () =
  (* The fig3 race needs an arrival reordering, not just a different match
     choice among queued candidates: randomizing the oracle cannot reach it
     (the paper's SS I point about schedule randomization). *)
  let r =
    Dampi.Sampler.test ~seeds:(List.init 50 Fun.id) ~np:3
      Workloads.Patterns.fig3
  in
  Alcotest.(check int) "trials" 50 r.Dampi.Sampler.trials;
  Alcotest.(check bool) "random testing misses the bug" false
    (Dampi.Sampler.found_errors r)

let test_sampler_finds_queued_races_sometimes () =
  let r =
    Dampi.Sampler.test ~seeds:(List.init 50 Fun.id) ~np:4
      (module Three_senders : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check bool) "some trials hit the bug" true
    (Dampi.Sampler.found_errors r);
  Alcotest.(check bool) "but not all" true
    (r.Dampi.Sampler.errors_found < r.Dampi.Sampler.trials)

let test_sampler_deterministic_per_seed () =
  let r1 =
    Dampi.Sampler.test ~seeds:[ 1; 2; 3 ] ~np:4
      (module Three_senders : Mpi.Mpi_intf.PROGRAM)
  in
  let r2 =
    Dampi.Sampler.test ~seeds:[ 1; 2; 3 ] ~np:4
      (module Three_senders : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "same errors for same seeds"
    r1.Dampi.Sampler.errors_found r2.Dampi.Sampler.errors_found

(* ---- Guided replay internals ---- *)

let test_decisions_lookup () =
  let plan =
    Decisions.of_decisions ~np:4
      [
        { Decisions.owner = 1; epoch_id = 0; src = 2; kind = Epoch.Wildcard_recv };
        { Decisions.owner = 1; epoch_id = 3; src = 0; kind = Epoch.Wildcard_recv };
        { Decisions.owner = 2; epoch_id = 1; src = 3; kind = Epoch.Wildcard_probe };
      ]
  in
  Alcotest.(check (option int)) "lookup hit" (Some 2)
    (Decisions.forced_src plan ~owner:1 ~epoch_id:0 ~kind:Epoch.Wildcard_recv);
  Alcotest.(check (option int)) "kind mismatch" None
    (Decisions.forced_src plan ~owner:2 ~epoch_id:1 ~kind:Epoch.Wildcard_recv);
  Alcotest.(check (option int)) "miss" None
    (Decisions.forced_src plan ~owner:0 ~epoch_id:0 ~kind:Epoch.Wildcard_recv);
  Alcotest.(check bool) "guided window inside" true
    (Decisions.in_guided_window plan ~owner:1 ~epoch_id:3);
  Alcotest.(check bool) "guided window outside" false
    (Decisions.in_guided_window plan ~owner:1 ~epoch_id:4);
  Alcotest.(check bool) "no window for unforced owner" false
    (Decisions.in_guided_window plan ~owner:3 ~epoch_id:0)

let test_epoch_potentials () =
  let e =
    Epoch.make ~owner:1 ~id:5 ~kind:Epoch.Wildcard_recv ~ctx:0 ~tag:7
      ~clock_enc:[| 5 |]
  in
  Epoch.add_potential e 2;
  Epoch.add_potential e 2;
  Epoch.add_potential e 3;
  Alcotest.(check (list int)) "no duplicates" [ 2; 3 ] (Epoch.alternatives e);
  Epoch.set_matched e 3;
  Alcotest.(check (list int)) "matched source dropped" [ 2 ]
    (Epoch.alternatives e);
  Alcotest.(check bool) "spec matches same ctx/tag" true
    (Epoch.spec_matches e ~ctx:0 ~tag:7);
  Alcotest.(check bool) "spec rejects other ctx" false
    (Epoch.spec_matches e ~ctx:1 ~tag:7);
  Alcotest.(check bool) "wildcard tag epoch matches anything" true
    (Epoch.spec_matches
       (Epoch.make ~owner:0 ~id:0 ~kind:Epoch.Wildcard_recv ~ctx:0
          ~tag:Types.any_tag ~clock_enc:[| 0 |])
       ~ctx:0 ~tag:42)

(* ---- stop_on_first_error ---- *)

let test_stop_on_first_error () =
  (* Three senders: full exploration is >= 6 runs, but stopping at the
     first crash cuts the walk short. *)
  let full = Explorer.verify ~config:(config ()) ~np:4 (module Three_senders : Mpi.Mpi_intf.PROGRAM) in
  let stopped =
    Explorer.verify
      ~config:{ (config ()) with Explorer.stop_on_first_error = true }
      ~np:4 (module Three_senders : Mpi.Mpi_intf.PROGRAM)
  in
  Alcotest.(check int) "still finds the bug" 1 (List.length (crashes stopped));
  Alcotest.(check bool)
    (Printf.sprintf "stops early (%d < %d)" stopped.Report.interleavings
       full.Report.interleavings)
    true
    (stopped.Report.interleavings < full.Report.interleavings)

(* ---- Determinism of verification itself ---- *)

let test_verify_deterministic () =
  let r1 = Explorer.verify ~config:(config ()) ~np:4 (module Three_senders : Mpi.Mpi_intf.PROGRAM) in
  let r2 = Explorer.verify ~config:(config ()) ~np:4 (module Three_senders : Mpi.Mpi_intf.PROGRAM) in
  Alcotest.(check int) "same interleaving count" r1.Report.interleavings
    r2.Report.interleavings;
  Alcotest.(check (list string)) "same findings"
    (List.map (fun (f : Report.finding) -> Report.error_signature f.Report.error) r1.Report.findings)
    (List.map (fun (f : Report.finding) -> Report.error_signature f.Report.error) r2.Report.findings)

let () =
  Alcotest.run "dampi"
    [
      ( "paper-patterns",
        [
          Alcotest.test_case "fig3: bug found via replay" `Quick
            test_fig3_bug_found;
          Alcotest.test_case "single sender: no exploration" `Quick
            test_single_sender_one_interleaving;
          Alcotest.test_case "fig4: lamport incomplete" `Quick
            test_fig4_lamport_incomplete;
          Alcotest.test_case "fig4: vector complete" `Quick
            test_fig4_vector_complete;
          Alcotest.test_case "fig10: monitor alert" `Quick
            test_fig10_monitor_alert;
          Alcotest.test_case "fig10 clean variant: no alert" `Quick
            test_fig10_clean_no_alert;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "deterministic program: one run" `Quick
            test_deterministic_single_run;
          Alcotest.test_case "three senders: full coverage" `Quick
            test_three_senders_coverage;
          Alcotest.test_case "wildcard-dependent deadlock" `Quick
            test_wildcard_deadlock_found;
          Alcotest.test_case "master/worker explores" `Quick
            test_master_worker_explores;
          Alcotest.test_case "verification is deterministic" `Quick
            test_verify_deterministic;
          Alcotest.test_case "stop on first error" `Quick
            test_stop_on_first_error;
          Alcotest.test_case "wildcard deadlock reasons" `Quick
            test_wildcard_deadlock_reasons;
        ] );
      ( "checks",
        [
          Alcotest.test_case "comm and request leaks" `Quick test_leaks_reported;
          Alcotest.test_case "shadow comms not reported" `Quick
            test_no_shadow_false_positives;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "bounded mixing monotone in k" `Quick
            test_bounded_mixing_monotone;
          Alcotest.test_case "bounded mixing keeps shallow bugs" `Quick
            test_bounded_mixing_keeps_shallow_bugs;
          Alcotest.test_case "loop iteration abstraction" `Quick
            test_loop_abstraction;
        ] );
      ( "dual-clock",
        [
          Alcotest.test_case "fig10 covered (SSV future work)" `Quick
            test_fig10_dual_clock_covers;
          Alcotest.test_case "equivalent on fig3" `Quick
            test_dual_clock_equivalent_elsewhere;
          Alcotest.test_case "sound on deterministic ring" `Quick
            test_dual_clock_still_sound;
        ] );
      ( "piggyback",
        [
          Alcotest.test_case "inline finds fig3" `Quick test_inline_finds_fig3;
          Alcotest.test_case "inline payload transparent" `Quick
            test_inline_payload_transparent;
          Alcotest.test_case "inline + vector clocks" `Quick
            test_inline_with_vector_clocks;
          Alcotest.test_case "inline/separate equivalence" `Quick
            test_inline_separate_equivalence;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "fig3 with ssend" `Quick test_fig3_with_ssend;
          Alcotest.test_case "any-source any-tag" `Quick
            test_any_source_any_tag;
          Alcotest.test_case "completion via test" `Quick
            test_completion_via_test;
          Alcotest.test_case "dup context isolation" `Quick
            test_dup_context_isolation;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "misses fig3 (coverage gap)" `Quick
            test_sampler_misses_fig3;
          Alcotest.test_case "finds queued races sometimes" `Quick
            test_sampler_finds_queued_races_sometimes;
          Alcotest.test_case "deterministic per seed" `Quick
            test_sampler_deterministic_per_seed;
        ] );
      ( "internals",
        [
          Alcotest.test_case "decision lookup" `Quick test_decisions_lookup;
          Alcotest.test_case "epoch potential bookkeeping" `Quick
            test_epoch_potentials;
        ] );
    ]
