(* The replay path's id-indexed tables and its reset runner.

   Communicator contexts, request uids and world pids are small dense ids,
   so the runtime and the interposition layer index arrays by them
   ({!Mpi.Dense}) instead of hashing. These tests push every table past its
   initial capacity, check the absent-id error texts byte for byte, pin the
   two visiting orders that reports depend on against a real Stdlib hash
   table ({!Dampi.Bucket_order}), and check the reset runner: N replays
   through one reused runner give the same records as N fresh runners,
   including the replays after a crashing, a cancelled, a fault-killed and a
   deadlocked one. *)

module Runtime = Mpi.Runtime
module Payload = Mpi.Payload
module Types = Mpi.Types
module Comm = Mpi.Comm
module Dense = Mpi.Dense
module Coroutine = Sim.Coroutine
module State = Dampi.State
module Epoch = Dampi.Epoch
module Decisions = Dampi.Decisions
module Explorer = Dampi.Explorer
module Report = Dampi.Report
module Bucket_order = Dampi.Bucket_order

let exec ~np body =
  let rt = Runtime.create ~np () in
  Runtime.spawn_ranks rt (fun rank -> body rt rank);
  (rt, Runtime.run rt)

let check_finished = function
  | Coroutine.All_finished -> ()
  | Coroutine.Deadlock _ -> Alcotest.fail "unexpected deadlock"
  | Coroutine.Crashed (pid, exn, _) ->
      Alcotest.failf "rank %d crashed: %s" pid (Printexc.to_string exn)

(* The [Mpi_error] text a run crashed with. *)
let crash_message = function
  | Coroutine.Crashed (_, Types.Mpi_error msg, _) -> msg
  | Coroutine.Crashed (_, exn, _) -> Printexc.to_string exn
  | Coroutine.All_finished -> "finished"
  | Coroutine.Deadlock _ -> "deadlock"

(* ---- Dense ---- *)

let test_dense_growth () =
  let t = Dense.create ~capacity:2 (-1) in
  Alcotest.(check int) "unset reads empty" (-1) (Dense.get t 0);
  Alcotest.(check int) "negative reads empty" (-1) (Dense.get t (-3));
  Alcotest.(check int) "far out of range reads empty" (-1) (Dense.get t max_int);
  for i = 0 to 99 do
    Dense.set t i (i * i)
  done;
  Alcotest.(check int) "slot 0 kept across growth" 0 (Dense.get t 0);
  Alcotest.(check int) "slot 99" 9801 (Dense.get t 99);
  Dense.set t 1000 7;
  Alcotest.(check int) "sparse jump" 7 (Dense.get t 1000);
  Alcotest.(check int) "gap reads empty" (-1) (Dense.get t 500);
  Dense.clear t;
  Alcotest.(check int) "clear empties" (-1) (Dense.get t 99);
  Alcotest.(check int) "clear empties the far slot" (-1) (Dense.get t 1000);
  Dense.set t 3 9;
  Alcotest.(check int) "usable after clear" 9 (Dense.get t 3);
  Alcotest.check_raises "negative set" (Invalid_argument "Dense.set: negative id")
    (fun () -> Dense.set t (-1) 0)

(* ---- Runtime tables ---- *)

(* Twenty dups and twenty splits: contexts run far past the context
   table's initial capacity, and each new communicator carries traffic on
   its own channel counters. *)
let test_many_comms_runtime () =
  let np = 4 in
  let seen = Array.make np [] in
  let rt, outcome =
    exec ~np (fun rt rank ->
        let world = Runtime.comm_world rt in
        for i = 1 to 20 do
          let c =
            if i mod 2 = 0 then Runtime.comm_dup rt world
            else Runtime.comm_split rt ~color:(rank mod 2) ~key:(-rank) world
          in
          let me = Comm.rank_of_world c rank and n = Comm.size c in
          let req = Runtime.irecv rt ~src:((me + n - 1) mod n) c in
          Runtime.send rt ~dest:((me + 1) mod n) c (Payload.int (100 * i));
          ignore (Runtime.wait rt req);
          seen.(rank) <- (Comm.ctx c, Payload.to_int (Runtime.recv_data req)) :: seen.(rank);
          if i mod 4 <> 0 then Runtime.comm_free rt c
        done)
  in
  check_finished outcome;
  (* Each split makes two communicators (one per color); dups make one. *)
  Alcotest.(check int) "last context" 30 (fst (List.hd seen.(0)));
  Array.iteri
    (fun rank l ->
      Alcotest.(check (list int))
        (Printf.sprintf "rank %d payloads" rank)
        (List.init 20 (fun i -> 100 * (20 - i)))
        (List.map snd l))
    seen;
  let leaks = Runtime.leak_report rt in
  Alcotest.(check (list string)) "unfreed communicators, by label"
    [ "dup(world)"; "dup(world)"; "dup(world)"; "dup(world)"; "dup(world)" ]
    (List.map
       (fun (l : Runtime.leaked_comm) -> l.Runtime.leaked_label)
       (List.assoc 0 leaks.Runtime.comm_leaks))

(* More synchronous sends in flight than the pending table's first
   growth, completed out of post order. *)
let test_many_ssends () =
  let rt, outcome =
    exec ~np:2 (fun rt rank ->
        let world = Runtime.comm_world rt in
        if rank = 0 then begin
          let reqs =
            List.init 80 (fun i ->
                Runtime.issend rt ~tag:i ~dest:1 world (Payload.int i))
          in
          ignore (Runtime.waitall rt reqs)
        end
        else
          for i = 79 downto 0 do
            let data, _ = Runtime.recv rt ~src:0 ~tag:i world in
            assert (Payload.to_int data = i)
          done)
  in
  check_finished outcome;
  Alcotest.(check (array int)) "no request leaks" [| 0; 0 |]
    (Runtime.leak_report rt).Runtime.req_leaks

let bogus ~ctx = Comm.make ~ctx ~ranks:[| 0; 1 |] ~internal:false ~label:"bogus"

let test_unknown_context_text () =
  List.iter
    (fun ctx ->
      let _, outcome =
        exec ~np:2 (fun rt rank ->
            let c = bogus ~ctx in
            if rank = 0 then Runtime.send rt ~dest:1 c (Payload.int 1)
            else ignore (Runtime.recv rt ~src:0 c))
      in
      Alcotest.(check string)
        (Printf.sprintf "ctx %d" ctx)
        (Printf.sprintf "unknown communicator context %d" ctx)
        (crash_message outcome))
    [ 99; -5; 1 lsl 40 ]

let test_unregistered_text () =
  let _, outcome =
    exec ~np:2 (fun rt _ -> Runtime.barrier rt (bogus ~ctx:7))
  in
  Alcotest.(check string) "collective on an unregistered communicator"
    "communicator bogus(ctx=7) is not registered" (crash_message outcome)

(* ---- Interposition tables ---- *)

let verify ?(config = Explorer.default_config) ~np program =
  Explorer.verify ~config:{ config with max_runs = 5_000 } ~np program

let only_errors (r : Report.t) =
  List.map
    (fun (f : Report.finding) -> Report.error_signature f.Report.error)
    r.Report.findings

(* Under DAMPI every user communicator also gets a shadow, so contexts
   double; requests in flight at once pass the request table's initial 64
   slots; a synchronous send waits in the runtime's pending table. *)
module Tables (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let rank = M.rank world in
    for i = 1 to 10 do
      let c =
        if i mod 2 = 0 then M.comm_dup world
        else M.comm_split ~color:(rank mod 2) ~key:rank world
      in
      let me = M.rank c and n = M.size c in
      M.send ~dest:((me + 1) mod n) c (Payload.int i);
      ignore (M.recv ~src:M.any_source c);
      M.comm_free c
    done;
    (match rank with
    | 0 ->
        let reqs = List.init 100 (fun i -> M.irecv ~src:1 ~tag:i world) in
        List.iteri
          (fun i (st : Types.status) -> assert (st.Types.tag = i))
          (M.waitall reqs)
    | 1 ->
        ignore
          (M.waitall
             (List.init 100 (fun i -> M.isend ~tag:i ~dest:0 world (Payload.int i))))
    | 2 -> M.ssend ~dest:3 world (Payload.int 3)
    | 3 -> ignore (M.recv ~src:2 world)
    | _ -> ());
    M.barrier world
end

let test_tables_under_dampi () =
  let r = verify ~np:4 (module Tables : Mpi.Mpi_intf.PROGRAM) in
  Alcotest.(check (list string)) "clean" [] (only_errors r);
  Alcotest.(check int) "one interleaving" 1 r.Report.interleavings

(* A message left unreceived on a communicator its members then free: the
   shadow goes with it (no leak), and the finalize drain skips it. *)
module Freed_with_message (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let c = M.comm_dup world in
    if M.rank world = 0 then M.send ~dest:1 c (Payload.int 1);
    M.barrier world;
    M.comm_free c
end

(* A freed communicator is dead to its member, shadow and all: the error
   names the user communicator, not its shadow. *)
module Use_after_free (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let c = M.comm_dup world in
    M.comm_free c;
    if M.rank world = 0 then M.send ~dest:1 c (Payload.int 1)
end

let test_freed_shadow () =
  let r = verify ~np:2 (module Freed_with_message : Mpi.Mpi_intf.PROGRAM) in
  Alcotest.(check (list string)) "freed with a message: no leak, no crash" []
    (only_errors r);
  let r = verify ~np:2 (module Use_after_free : Mpi.Mpi_intf.PROGRAM) in
  match r.Report.findings with
  | [ { Report.error = Report.Crash { pid = 0; message }; _ } ] ->
      Alcotest.(check string) "use after free"
        {|Mpi.Types.Mpi_error("rank 0 uses communicator dup(world)(ctx=2) after freeing it")|}
        message
  | _ -> Alcotest.failf "unexpected findings: %s" (String.concat "; " (only_errors r))

(* The interposition layer used before [init_tool]: no shadow yet. *)
let test_missing_shadow_text () =
  let rt = Runtime.create ~np:2 () in
  let st =
    State.create ~np:2 ~plan:(Decisions.empty ~np:2) ~fork_index:(-1) ()
  in
  let module B = Mpi.Bind.Make (struct
    let rt = rt
  end) in
  let module W =
    Dampi.Interpose.Wrap
      (B)
      (struct
        let st = st
      end)
  in
  Runtime.spawn_ranks rt (fun rank ->
      if rank = 0 then W.send ~dest:1 W.comm_world (Payload.int 1));
  Alcotest.(check string) "missing shadow"
    "DAMPI: no shadow communicator for ctx 0 (init_tool not called?)"
    (crash_message (Runtime.run rt))

(* Four user communicators (world and three dups), each still holding an
   unreceived message for rank 0 at finalize, of decreasing size. The drain
   takes them in the order of the ctx-keyed table that once held them; the
   order moves rank 0's virtual clock, so the makespan pins it (the value a
   drain in creation order gives differs). *)
module Undrained (M : Mpi.Mpi_intf.MPI_CORE) = struct
  let main () =
    let world = M.comm_world in
    let comms = world :: List.init 3 (fun _ -> M.comm_dup world) in
    if M.rank world = 1 then
      List.iteri
        (fun i c ->
          M.send ~dest:0 c (Payload.Ints (Array.make (1 + (4000 * (3 - i))) 0)))
        comms;
    M.barrier world
end

let test_drain_order () =
  let r =
    Explorer.replay ~np:2 (module Undrained : Mpi.Mpi_intf.PROGRAM)
      (Decisions.empty ~np:2)
  in
  Alcotest.(check string) "makespan" "0x1.416eb6166c3d5p-13"
    (Printf.sprintf "%h" r.Report.makespan)

(* ---- Decisions ---- *)

let test_later_decision_wins () =
  let d ~src ~kind = { Decisions.owner = 1; epoch_id = 3; src; kind } in
  let plan =
    Decisions.of_decisions ~np:2
      [ d ~src:0 ~kind:Epoch.Wildcard_recv; d ~src:5 ~kind:Epoch.Wildcard_recv ]
  in
  Alcotest.(check (option int)) "later source" (Some 5)
    (Decisions.forced_src plan ~owner:1 ~epoch_id:3 ~kind:Epoch.Wildcard_recv);
  Alcotest.(check (option int)) "other epoch" None
    (Decisions.forced_src plan ~owner:1 ~epoch_id:4 ~kind:Epoch.Wildcard_recv);
  Alcotest.(check (option int)) "other owner" None
    (Decisions.forced_src plan ~owner:0 ~epoch_id:3 ~kind:Epoch.Wildcard_recv);
  let plan =
    Decisions.of_decisions ~np:2
      [ d ~src:0 ~kind:Epoch.Wildcard_recv; d ~src:5 ~kind:Epoch.Wildcard_probe ]
  in
  Alcotest.(check (option int)) "the later decision's kind governs" None
    (Decisions.forced_src plan ~owner:1 ~epoch_id:3 ~kind:Epoch.Wildcard_recv);
  Alcotest.(check (option int)) "probe" (Some 5)
    (Decisions.forced_src plan ~owner:1 ~epoch_id:3 ~kind:Epoch.Wildcard_probe)

(* ---- Visiting orders ---- *)

let test_hash_matches_stdlib () =
  List.iter
    (fun k ->
      Alcotest.(check int) (string_of_int k) (Hashtbl.hash k) (Bucket_order.hash k))
    ([ 0; 1; 2; 63; 64; 1 lsl 31; (1 lsl 32) + 5; max_int; min_int; -1; -77 ]
    @ List.init 2000 (fun i -> (i * 7919) - 5000))

(* Random inserts (replace) and removes on a real table and on the
   newest-first model: the model sorted by [Bucket_order.sort] visits in
   the table's [iter] order, through resizes. *)
let prop_sort_matches_iter =
  QCheck.Test.make ~name:"sort = Hashtbl.iter order" ~count:300
    QCheck.(
      pair (oneofl [ 1; 8; 16; 64 ])
        (list_of_size (Gen.int_range 0 300) (pair bool (int_range 0 400))))
    (fun (initial, ops) ->
      let tbl = Hashtbl.create initial in
      let model = ref [] and high = ref 0 in
      List.iter
        (fun (insert, k) ->
          if insert then begin
            Hashtbl.replace tbl k ();
            if not (List.mem k !model) then model := k :: !model;
            high := max !high (List.length !model)
          end
          else begin
            Hashtbl.remove tbl k;
            model := List.filter (( <> ) k) !model
          end)
        ops;
      let visited = ref [] in
      Hashtbl.iter (fun k () -> visited := k :: !visited) tbl;
      List.rev !visited
      = Bucket_order.sort ~initial ~high_water:!high Fun.id !model)

(* The monitor's warnings against the uid-keyed table it once walked:
   random watches, unwatches and escapes over a few owners. *)
let prop_warning_order =
  QCheck.Test.make ~name:"monitor warnings keep the table order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (triple (int_range 0 2) (int_range 0 3) (int_range 0 60)))
    (fun ops ->
      let np = 4 in
      let st =
        State.create ~np ~plan:(Decisions.empty ~np) ~fork_index:(-1) ()
      in
      let open_tbl : (int, Epoch.t) Hashtbl.t = Hashtbl.create 16 in
      let warnings = ref [] in
      let reference_escape ~me =
        Hashtbl.iter
          (fun _ (e : Epoch.t) ->
            if
              e.Epoch.owner = me
              && not (List.mem (me, e.Epoch.id) !warnings)
            then warnings := (me, e.Epoch.id) :: !warnings)
          open_tbl
      in
      let next_uid = ref 0 in
      List.iter
        (fun (op, me, pick) ->
          match op with
          | 0 ->
              let e =
                State.record_epoch st ~me ~kind:Epoch.Wildcard_recv ~ctx:0 ~tag:0
              in
              let uid = !next_uid in
              incr next_uid;
              State.watch_wildcard st ~req_uid:uid e;
              Hashtbl.replace open_tbl uid e
          | 1 ->
              let uid = if !next_uid = 0 then 0 else pick mod !next_uid in
              State.unwatch_wildcard st ~req_uid:uid;
              Hashtbl.remove open_tbl uid
          | _ ->
              State.monitor_clock_escape st ~me ~op:"send";
              reference_escape ~me)
        ops;
      List.map (fun (w : State.monitor_warning) -> (w.State.warn_pid, w.State.warn_epoch_id))
        (State.warnings st)
      = List.rev !warnings)

(* ---- The reset runner ---- *)

let render_outcome = function
  | Coroutine.All_finished -> "finished"
  | Coroutine.Deadlock blocked ->
      "deadlock "
      ^ String.concat ","
          (List.map
             (fun (b : Coroutine.blocked_info) ->
               Printf.sprintf "%d:%s" b.Coroutine.pid b.Coroutine.reason)
             blocked)
  | Coroutine.Crashed (pid, exn, _) ->
      Printf.sprintf "crash %d %s" pid (Printexc.to_string exn)

let render_epoch (e : Epoch.t) =
  let s = Epoch.summarize e in
  Printf.sprintf "%d.%d k%s c%d t%d m%d a[%s] x%b g%d clk[%s]" s.Epoch.s_owner
    s.Epoch.s_id
    (Format.asprintf "%a" Epoch.pp_kind s.Epoch.s_kind)
    s.Epoch.s_ctx s.Epoch.s_tag s.Epoch.s_matched
    (String.concat "," (List.map string_of_int s.Epoch.s_alternatives))
    s.Epoch.s_expandable e.Epoch.global_index
    (String.concat "," (Array.to_list (Array.map string_of_int e.Epoch.clock_enc)))

(* Every field of a run record, as text. *)
let render (r : Report.run_record) =
  String.concat "\n"
    ([
       Decisions.to_string r.Report.run_plan;
       render_outcome r.Report.outcome;
       Printf.sprintf "makespan %h wildcards %d cancelled %b" r.Report.makespan
         r.Report.wildcards r.Report.cancelled;
     ]
    @ List.map render_epoch r.Report.new_epochs
    @ List.map (Format.asprintf "%a" Report.pp_error) r.Report.run_errors)

(* A poison closure that trips at its [n]th poll; [None] never trips. *)
let poison_after = function
  | None -> None
  | Some n ->
      let polls = ref 0 in
      Some
        (fun () ->
          incr polls;
          !polls >= n)

type replay = { schedule : Decisions.decision list; poison : int option; salt : int }

(* [replays] through one runner and through a fresh runner each: the
   records must render identically, replay for replay. *)
let check_reuse ?(config = Explorer.default_config) ~name ~np program replays =
  let shared = Explorer.dampi_runner config ~np program in
  let run runner { schedule; poison; salt } =
    let ctx = { Explorer.null_ctx with poison = poison_after poison; salt } in
    runner ~ctx
      (Decisions.of_decisions ~np schedule)
      ~fork_index:(List.length schedule - 1)
  in
  let records =
    List.map
      (fun rp ->
        let fresh = run (Explorer.dampi_runner config ~np program) rp in
        let reused = run shared rp in
        Alcotest.(check string)
          (Printf.sprintf "%s: [%s]" name (Dampi.Checkpoint.schedule_key rp.schedule))
          (render fresh) (render reused);
        fresh)
      replays
  in
  records

(* The schedules one level below the self run: each alternate match. *)
let children ~np program =
  let r =
    Explorer.dampi_runner Explorer.default_config ~np program
      ~ctx:Explorer.null_ctx (Decisions.empty ~np) ~fork_index:(-1)
  in
  let entry = Dampi.Prefix_cache.entry_of_record r in
  List.map
    (fun (it : Dampi.Checkpoint.item) -> it.Dampi.Checkpoint.prefix @ [ it.Dampi.Checkpoint.choice ])
    (Dampi.Prune.expand ~prune:false ~sleep:[] ~plan_decisions:[]
       entry.Dampi.Prefix_cache.epochs)
      .Dampi.Prune.items

let plain schedule = { schedule; poison = None; salt = 0 }

let test_reuse_fig3 () =
  let np = 3 and program = Workloads.Patterns.fig3 in
  let kids = children ~np program in
  Alcotest.(check bool) "fig3 has an alternate" true (kids <> []);
  let replays =
    (* self run, each alternate (one crashes), a cancelled replay mid-run,
       then all of it again *)
    let round = plain [] :: List.map plain kids in
    round
    @ [ { (plain []) with poison = Some 3 }; { (plain (List.hd kids)) with poison = Some 1 } ]
    @ round
  in
  let records = check_reuse ~name:"fig3" ~np program replays in
  let outcomes = List.map (fun (r : Report.run_record) -> r.Report.outcome) records in
  Alcotest.(check bool) "a replay crashed" true
    (List.exists (function Coroutine.Crashed _ -> true | _ -> false) outcomes);
  Alcotest.(check bool) "a replay was cancelled" true
    (List.exists (fun (r : Report.run_record) -> r.Report.cancelled) records)

let test_reuse_after_faults () =
  let np = 6 and program = Workloads.Adlb.program () in
  let spec = { Mpi.Fault.inert with seed = 11; crash_prob = 0.5; delay_prob = 0.3; max_delay = 1e-5 } in
  let config =
    {
      Explorer.default_config with
      robustness = { Explorer.default_robustness with fault = Some spec };
    }
  in
  let kids = children ~np program in
  let replays =
    List.concat_map
      (fun salt -> List.map (fun s -> { (plain s) with salt }) ([] :: kids))
      [ 1; 2; 3; 4 ]
  in
  let records = check_reuse ~config ~name:"adlb faults" ~np program replays in
  let killed =
    List.filter
      (fun (r : Report.run_record) ->
        match r.Report.outcome with
        | Coroutine.Crashed (_, exn, _) -> Mpi.Fault.is_transient exn
        | _ -> false)
      records
  in
  Alcotest.(check bool) "some replays fault-killed" true (killed <> []);
  Alcotest.(check bool) "some replays ran through" true
    (List.length killed < List.length records)

let test_reuse_deadlock_and_tables () =
  ignore
    (check_reuse ~name:"deadlock" ~np:2 Workloads.Patterns.head_to_head
       [ plain []; plain []; plain [] ]);
  ignore
    (check_reuse ~name:"tables" ~np:4 (module Tables : Mpi.Mpi_intf.PROGRAM)
       [ plain []; { (plain []) with poison = Some 50 }; plain []; plain [] ])

let () =
  Alcotest.run "tables"
    [
      ("dense", [ Alcotest.test_case "growth and clear" `Quick test_dense_growth ]);
      ( "runtime",
        [
          Alcotest.test_case "many communicators" `Quick test_many_comms_runtime;
          Alcotest.test_case "many synchronous sends" `Quick test_many_ssends;
          Alcotest.test_case "unknown context text" `Quick test_unknown_context_text;
          Alcotest.test_case "unregistered communicator text" `Quick
            test_unregistered_text;
        ] );
      ( "interpose",
        [
          Alcotest.test_case "tables past capacity" `Quick test_tables_under_dampi;
          Alcotest.test_case "freed communicator's shadow" `Quick test_freed_shadow;
          Alcotest.test_case "missing shadow text" `Quick test_missing_shadow_text;
          Alcotest.test_case "finalize drain order" `Quick test_drain_order;
          Alcotest.test_case "later decision wins" `Quick test_later_decision_wins;
        ] );
      ( "order",
        [
          Alcotest.test_case "hash = Hashtbl.hash" `Quick test_hash_matches_stdlib;
          QCheck_alcotest.to_alcotest prop_sort_matches_iter;
          QCheck_alcotest.to_alcotest prop_warning_order;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "fig3: crash and cancel" `Quick test_reuse_fig3;
          Alcotest.test_case "adlb: fault kills" `Quick test_reuse_after_faults;
          Alcotest.test_case "deadlock and tables" `Quick
            test_reuse_deadlock_and_tables;
        ] );
    ]
