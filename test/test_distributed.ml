(* The distributed mode's acceptance bar: a coordinator leasing the
   frontier to worker processes over sockets must produce the same
   canonical report as the sequential depth-first walk — for every
   workload of the registry, and even when a worker is killed mid-run and
   its lease re-leased to a survivor. Workers here are in-process domains
   speaking the real wire protocol over socketpairs (plus one genuinely
   forked process for the kill test), so the whole
   Wire/Coordinator/Remote_worker stack is exercised without shelling
   out (see Dist_harness). *)

open Dist_harness
module Checkpoint = Dampi.Checkpoint
module Decisions = Dampi.Decisions

(* The CLI registry, sized down so exhaustive exploration stays small
   (mirrors test_explorer_parallel). *)
let registry : case list =
  let default = State.default_config in
  let vector = State.make_config ~clock:(module Clocks.Vector) () in
  let dual = State.make_config ~dual_clock:true () in
  let k0 = State.make_config ~mixing_bound:0 () in
  [
    ("fig3", 3, default, fun () -> Workloads.Patterns.fig3);
    ("fig4", 4, default, fun () -> Workloads.Patterns.fig4);
    ("fig4/vector", 4, vector, fun () -> Workloads.Patterns.fig4);
    ("fig10", 3, default, fun () -> Workloads.Patterns.fig10);
    ("fig10/dual", 3, dual, fun () -> Workloads.Patterns.fig10);
    ("deadlock", 2, default, fun () -> Workloads.Patterns.head_to_head);
    ( "matmult",
      5,
      default,
      fun () ->
        Workloads.Matmult.program
          ~params:
            { Workloads.Matmult.default_params with n = 8; rows_per_task = 2 }
          () );
    ("samplesort", 6, default, fun () -> Workloads.Samplesort.program ());
    ("adlb/k0", 6, k0, fun () -> Workloads.Adlb.program ());
    ( "parmetis",
      4,
      default,
      fun () ->
        Workloads.Parmetis.program
          ~params:{ Workloads.Parmetis.default_params with scale = 0.01 }
          () );
  ]
  @ List.map
      (fun s ->
        ( s.Workloads.Skeleton.name,
          8,
          default,
          fun () -> Workloads.Skeleton.program s ))
      (Workloads.Nas.all @ Workloads.Specmpi.all)

let resolve = resolver registry

let verify_seq ~np ~state_config program =
  Explorer.verify
    ~config:{ Explorer.default_config with state_config }
    ~np program

let check_equivalence ((name, np, state_config, build) as _case) () =
  let seq = verify_seq ~np ~state_config (build ()) in
  let dist =
    verify_distributed
      ~config:{ Explorer.default_config with state_config }
      ~resolve ~name ~np build
  in
  check_same name seq dist

(* A worker SIGKILLed mid-exploration forfeits its lease; the coordinator
   re-leases to the survivor and the canonical report is unchanged. The
   victim is a genuinely separate process (so the kill severs the socket
   and exercises the EOF → re-lease path): this very test binary re-exec'd
   in worker mode (see the [DAMPI_TEST_WORKER] branch of [main]), with its
   socket passed as stdin — [Unix.fork] is off limits once any domain has
   ever been created, and an earlier test's domains would count. *)
let spawn_victim () =
  let c1, w1 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec c1;
  let victim =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      (Array.append (Unix.environment ()) [| "DAMPI_TEST_WORKER=slow" |])
      w1 Unix.stdout Unix.stderr
  in
  Unix.close w1;
  (c1, victim)

let test_worker_kill () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "adlb/k0") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  let c1, victim = spawn_victim () in
  let c2, w2 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let survivor =
    Domain.spawn (fun () -> ignore (Remote_worker.serve ~resolve w2))
  in
  (* The victim leases its first item within milliseconds of the handshake
     and needs 0.5s to replay it, so a kill at 0.15s lands mid-replay with
     the lease guaranteed outstanding (the fast survivor cannot finish the
     whole frontier sooner than that lease resolves). *)
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.15;
        try Unix.kill victim Sys.sigkill with Unix.Unix_error _ -> ())
  in
  let setup = setup_of ~lease_size:1 ~name ~np (Coordinator.Fds [ c1; c2 ]) in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  Domain.join killer;
  Domain.join survivor;
  ignore (Unix.waitpid [] victim);
  check_same "adlb/k0 (worker killed)" seq dist;
  (* The re-lease actually happened: the coordinator metrics shard
     recorded at least one released item. *)
  let series name =
    List.fold_left
      (fun acc (n, s) ->
        match s with
        | Obs.Metrics.Counter v when n = name -> acc + v
        | _ -> acc)
      0 dist.Report.metrics
  in
  Alcotest.(check bool)
    "items were re-leased after the kill" true
    (series "coordinator.releases" > 0)

(* Losing every worker mid-run is an interruption, not silent data loss:
   the run reports a harness failure and preserves the frontier. *)
let test_all_workers_lost () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "adlb/k0") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  (* One worker that dies after its first replay: serve a connection whose
     far end we close from a watchdog domain shortly into the run. *)
  let c, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let slow_resolve = slowed 0.05 resolve in
  let worker =
    Domain.spawn (fun () -> ignore (Remote_worker.serve ~resolve:slow_resolve w))
  in
  let closer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        try Unix.shutdown c Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  in
  let setup = setup_of ~lease_size:1 ~name ~np (Coordinator.Fds [ c ]) in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  Domain.join closer;
  Domain.join worker;
  Alcotest.(check bool)
    "harness failure reported" true
    (dist.Report.harness_failures <> []);
  Alcotest.(check bool)
    "exploration did not complete" true
    (dist.Report.interleavings < seq.Report.interleavings)

(* The CLI's two socket shapes, end to end over real addresses:
   [Listen] (what [--distribute] uses: the coordinator binds, [ready]
   starts connecting workers) and [Dial] (what [--workers] uses: workers
   already listening, the coordinator dials in). *)
let sock_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dampi-test-%s-%d.sock" tag (Unix.getpid ()))

let test_listen_attach () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "fig3") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  let path = sock_path "listen" in
  let doms = ref [] in
  let ready addr =
    for _ = 1 to 2 do
      doms :=
        Domain.spawn (fun () ->
            match Remote_worker.serve_addr ~resolve (`Connect addr) with
            | Ok () -> ()
            | Error e -> failwith e)
        :: !doms
    done
  in
  let setup =
    setup_of ~lease_size:1 ~name ~np
      (Coordinator.Listen { addr = Wire.Unix_sock path; ready })
  in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  List.iter Domain.join !doms;
  check_same "fig3 (listen attach)" seq dist

let test_dial_attach () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "fig4") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  let path = sock_path "dial" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let worker =
    Domain.spawn (fun () ->
        match
          Remote_worker.serve_addr ~resolve (`Listen (Wire.Unix_sock path))
        with
        | Ok () -> ()
        | Error e -> failwith e)
  in
  (* Wait for the worker to bind before dialing. *)
  let rec wait n =
    if not (Sys.file_exists path) then
      if n = 0 then Alcotest.fail "worker never bound its socket"
      else (
        Unix.sleepf 0.02;
        wait (n - 1))
  in
  wait 250;
  Unix.sleepf 0.05;
  let setup = setup_of ~name ~np (Coordinator.Dial [ Wire.Unix_sock path ]) in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  Domain.join worker;
  check_same "fig4 (dial attach)" seq dist

(* A worker whose resolve rejects the job surfaces as a lost worker, not a
   hang. *)
let test_resolve_failure () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "fig3") registry
  in
  let bad_resolve (_ : Wire.job) = Error "no such workload here" in
  let dist =
    verify_distributed ~workers:1
      ~config:{ Explorer.default_config with state_config }
      ~resolve:bad_resolve ~name ~np build
  in
  Alcotest.(check bool)
    "harness failure reported" true
    (dist.Report.harness_failures <> [])

let metric_sum (report : Report.t) name =
  List.fold_left
    (fun acc (n, s) ->
      match s with
      | Obs.Metrics.Counter v when n = name -> acc + v
      | _ -> acc)
    0 report.Report.metrics

(* ---- crash tolerance ---- *)

(* Workers behind a shared secret: the right token verifies as usual, the
   wrong one is refused with a one-line reject (and the run, having no
   other worker, errors out instead of hanging). *)
let test_auth_roundtrip () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "fig3") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  let dist =
    verify_distributed ~auth:"open sesame"
      ~config:{ Explorer.default_config with state_config }
      ~resolve ~name ~np build
  in
  check_same "fig3 (authenticated)" seq dist

let test_auth_mismatch () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "fig3") registry
  in
  let c, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let worker =
    Domain.spawn (fun () -> Remote_worker.serve ~auth:"wrong" ~resolve w)
  in
  let setup = setup_of ~auth:"right" ~name ~np (Coordinator.Fds [ c ]) in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  (match Domain.join worker with
  | `Rejected reason ->
      Alcotest.(check string)
        "reject names the cause" "authentication failed" reason
  | `Shutdown | `Disconnected ->
      Alcotest.fail "worker should have been rejected");
  Alcotest.(check bool)
    "run lost its only worker" true
    (dist.Report.harness_failures <> [])

(* An old (proto=1) worker gets one versioned reject line, not a hang: the
   scripted peer speaks the previous dialect raw and reads the answer. *)
let test_proto1_rejected () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "fig3") registry
  in
  let c, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let scripted =
    Domain.spawn (fun () ->
        let oc = Unix.out_channel_of_descr w in
        let ic = Unix.in_channel_of_descr w in
        output_string oc "hello proto=1 id=old%20timer\n";
        flush oc;
        let answer = try input_line ic with End_of_file -> "<eof>" in
        let eof = try ignore (input_line ic); false with End_of_file -> true in
        (try Unix.close w with Unix.Unix_error _ -> ());
        (answer, eof))
  in
  let setup = setup_of ~name ~np (Coordinator.Fds [ c ]) in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  let answer, eof = Domain.join scripted in
  let prefix = Printf.sprintf "reject proto=%d " Wire.proto_version in
  Alcotest.(check bool)
    (Printf.sprintf "versioned reject line (got %S)" answer)
    true
    (String.length answer > String.length prefix
    && String.sub answer 0 (String.length prefix) = prefix);
  Alcotest.(check bool) "connection closed after the reject" true eof;
  Alcotest.(check bool)
    "run lost its only worker" true
    (dist.Report.harness_failures <> [])

(* A listening coordinator no worker ever joins gives up after the join
   timeout — quickly, and as an error rather than a hang. *)
let test_join_timeout () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "fig3") registry
  in
  let path = sock_path "join" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let setup =
    {
      (setup_of ~lease_size:1 ~rejoin_grace:0.0 ~name ~np
         (Coordinator.Listen { addr = Wire.Unix_sock path; ready = ignore }))
      with
      join_timeout = 0.2;
    }
  in
  let t0 = Unix.gettimeofday () in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  Alcotest.(check bool)
    "harness failure reported" true
    (dist.Report.harness_failures <> []);
  Alcotest.(check bool)
    "gave up promptly" true
    (Unix.gettimeofday () -. t0 < 10.0)

(* Graceful degradation: same worker-loss scenario as
   [test_all_workers_lost], but with the local fallback the run completes
   and the canonical report is unchanged. *)
let test_fallback_local () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "adlb/k0") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  let c, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let slow_resolve = slowed 0.05 resolve in
  let worker =
    Domain.spawn (fun () ->
        ignore (Remote_worker.serve ~resolve:slow_resolve w))
  in
  let closer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        try Unix.shutdown c Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  in
  let setup = setup_of ~lease_size:1 ~name ~np (Coordinator.Fds [ c ]) in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~fallback_local:true ~np (build ())
  in
  Domain.join closer;
  Domain.join worker;
  check_same "adlb/k0 (fallback to local)" seq dist;
  Alcotest.(check bool)
    "fallback was taken and counted" true
    (metric_sum dist "coordinator.fallbacks" > 0)

(* The exactly-once guarantee under the nastiest rejoin: a worker leases
   items, goes silent past the heartbeat timeout (the lease is refunded
   and re-run by the survivor), then rejoins with its stale epoch and
   flushes a poisoned results frame for the old lease. The frame must be
   read whole, recognised as fenced, and discarded — the canonical report
   stays identical to jobs=1 even though the frame claims a virtual time
   of 1e9. *)
let test_zombie_fenced () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "adlb/k0") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  let path = sock_path "zombie" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let doms = ref [] in
  let slow_resolve = slowed 0.04 resolve in
  let zombie addr () =
    let dial () =
      let fd = Result.get_ok (Wire.dial addr) in
      (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd)
    in
    let expect what = function
      | Ok m -> m
      | Error e -> failwith (Printf.sprintf "zombie: %s: %s" what e)
    in
    let ic, oc, fd = dial () in
    Wire.write_to_coord oc
      (Wire.Hello
         {
           proto = Wire.proto_version;
           id = "zombie";
           session = "zombie-session";
           epoch = 0;
           pending = None;
           role = None;
         });
    let old_epoch =
      match expect "welcome" (Wire.read_to_worker ic) with
      | Wire.Welcome { epoch } -> epoch
      | _ -> failwith "zombie: expected welcome"
    in
    (match expect "job" (Wire.read_to_worker ic) with
    | Wire.Job _ -> ()
    | _ -> failwith "zombie: expected job");
    Wire.write_to_coord oc Wire.Ready;
    let lease_id, items =
      match expect "lease" (Wire.read_to_worker ic) with
      | Wire.Lease { lease_id; items } -> (lease_id, items)
      | _ -> failwith "zombie: expected lease"
    in
    (* Silence past the heartbeat timeout: the coordinator declares this
       session lost and (grace 0) refunds the lease to the survivor. *)
    Unix.sleepf 0.5;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (* Rejoin with the stale epoch and flush the poisoned frame. *)
    let ic2, oc2, fd2 = dial () in
    Wire.write_to_coord oc2
      (Wire.Hello
         {
           proto = Wire.proto_version;
           id = "zombie";
           session = "zombie-session";
           epoch = old_epoch;
           pending = Some lease_id;
           role = None;
         });
    (match expect "re-welcome" (Wire.read_to_worker ic2) with
    | Wire.Welcome { epoch } ->
        if epoch <= old_epoch then
          failwith "zombie: rejoin did not advance the fencing epoch"
    | _ -> failwith "zombie: expected second welcome");
    (match expect "re-job" (Wire.read_to_worker ic2) with
    | Wire.Job _ -> ()
    | _ -> failwith "zombie: expected second job");
    Wire.write_to_coord oc2 Wire.Ready;
    let runs =
      List.map
        (fun it ->
          {
            Wire.key = Checkpoint.item_key it;
            payload =
              Some
                {
                  Wire.vtime = 1e9;
                  bounded = 0;
                  errors = [];
                  children = [];
                  pruned = 0;
                };
            timeouts = 0;
            retries = 0;
            transients = 0;
          })
        items
    in
    Wire.write_to_coord oc2
      (Wire.Results { epoch = old_epoch; lease_id; runs });
    (* Stay connected until dismissed so the frame is provably processed
       (not lost to a racing close). *)
    (try
       let rec drain () =
         match Wire.read_to_worker ic2 with
         | Ok Wire.Shutdown | Ok Wire.Detach | Error _ -> ()
         | Ok _ -> drain ()
       in
       drain ()
     with _ -> ());
    try Unix.close fd2 with Unix.Unix_error _ -> ()
  in
  let ready addr =
    doms :=
      Domain.spawn (fun () ->
          match Remote_worker.serve_addr ~resolve:slow_resolve (`Connect addr) with
          | Ok () -> ()
          | Error e -> failwith e)
      :: Domain.spawn (zombie addr)
      :: !doms
  in
  let setup =
    {
      (setup_of ~lease_size:1 ~rejoin_grace:0.0 ~name ~np
         (Coordinator.Listen { addr = Wire.Unix_sock path; ready }))
      with
      heartbeat_timeout = 0.2;
    }
  in
  let dist =
    Explorer.verify
      ~config:{ Explorer.default_config with state_config }
      ~distribute:setup ~np (build ())
  in
  List.iter Domain.join !doms;
  check_same "adlb/k0 (fenced zombie)" seq dist;
  Alcotest.(check bool)
    "the rejoin was recorded" true
    (metric_sum dist "coordinator.reconnects" > 0);
  Alcotest.(check bool)
    "the stale frame was fenced, not counted" true
    (metric_sum dist "coordinator.fenced" > 0)

(* A results frame must name exactly the leased items, each once. A
   hand-written worker answers a two-item lease with the first item's run
   twice and leaves the second out: nothing is ingested, the connection is
   dropped, and once the rejoin grace expires both items are back in the
   snapshot, so a resume would re-lease them. *)
let test_results_must_match_lease () =
  let item src =
    Checkpoint.make_item ~prefix:[]
      ~choice:{ Decisions.owner = 0; epoch_id = 1; src; kind = Dampi.Epoch.Wildcard_recv }
      ~sleep:[] ()
  in
  let items = [ item 1; item 2 ] in
  let c, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let worker =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr w and oc = Unix.out_channel_of_descr w in
        let rec until f =
          match Wire.read_to_worker ic with
          | Ok m -> ( match f m with Some x -> x | None -> until f)
          | Error e -> failwith ("liar: " ^ e)
        in
        Wire.write_to_coord oc
          (Wire.Hello
             { proto = Wire.proto_version; id = "liar"; session = "liar"; epoch = 0;
               pending = None; role = None });
        let epoch = until (function Wire.Welcome { epoch } -> Some epoch | _ -> None) in
        until (function Wire.Job _ -> Some () | _ -> None);
        Wire.write_to_coord oc Wire.Ready;
        let lease_id, leased =
          until (function Wire.Lease { lease_id; items } -> Some (lease_id, items) | _ -> None)
        in
        let first =
          {
            Wire.key = Checkpoint.item_key (List.hd leased);
            payload =
              Some { Wire.vtime = 1.0; bounded = 0; pruned = 0; errors = []; children = [] };
            timeouts = 0;
            retries = 0;
            transients = 0;
          }
        in
        Wire.write_to_coord oc (Wire.Results { epoch; lease_id; runs = [ first; first ] });
        (* Hold the link until the coordinator closes it. *)
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        Unix.close w;
        List.length leased)
  in
  let co =
    Coordinator.create ~budget:100 (setup_of ~name:"liar" ~np:2 (Coordinator.Fds [ c ]))
  in
  Coordinator.push co items;
  let ingested = ref 0 in
  let outcome =
    Coordinator.drive co
      ~on_run:(fun ~item:_ _ -> incr ingested)
      ~should_stop:(fun () -> false)
      ~tick:ignore
  in
  let keys l = List.sort compare (List.map Checkpoint.item_key l) in
  Alcotest.(check int) "the worker was leased both items" 2 (Domain.join worker);
  Alcotest.(check int) "nothing ingested" 0 !ingested;
  Alcotest.(check (list string))
    "both items back in the snapshot" (keys items) (keys (Coordinator.snapshot co));
  Alcotest.(check (result unit string))
    "drive gives up" (Error "all 1 worker(s) lost with work remaining") outcome

(* The tentpole end to end, in-process: interrupt a distributed run (the
   stand-in for SIGKILLing the coordinator), let its worker outlive it and
   redial, then restart the coordinator from the checkpoint at the same
   address. The resumed run re-admits the worker (fencing the dead
   coordinator's epochs) and finishes with the canonical jobs=1 report. *)
let test_coordinator_restart () =
  let name, np, state_config, build =
    List.find (fun (n, _, _, _) -> n = "adlb/k0") registry
  in
  let seq = verify_seq ~np ~state_config (build ()) in
  let ckpt = Filename.temp_file "dampi-restart" ".ckpt" in
  Sys.remove ckpt;
  let path = sock_path "restart" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let addr = Wire.Unix_sock path in
  let rb interrupt_after =
    {
      Explorer.default_robustness with
      checkpoint = Some { Explorer.path = ckpt; every = 1; label = name };
      interrupt_after;
    }
  in
  let config interrupt_after =
    {
      Explorer.default_config with
      state_config;
      robustness = rb interrupt_after;
    }
  in
  let worker = ref None in
  let ready _addr =
    worker :=
      Some
        (Domain.spawn (fun () ->
             match
               Remote_worker.serve_addr
                 ~reconnect:
                   { Remote_worker.max_redials = 400; backoff = 0.02; seed = 7 }
                 ~resolve (`Connect addr)
             with
             | Ok () -> ()
             | Error e -> failwith e))
  in
  let setup ready =
    setup_of ~lease_size:1 ~rejoin_grace:0.5 ~name ~np
      (Coordinator.Listen { addr; ready })
  in
  (* First life: explore a few replays, then die (interrupt), leaving the
     checkpoint behind and the worker redialling. *)
  let first =
    Explorer.verify ~config:(config (Some 4)) ~distribute:(setup ready) ~np
      (build ())
  in
  Alcotest.(check bool) "first life was interrupted" true
    first.Report.interrupted;
  Alcotest.(check bool)
    "first life left work behind" true
    (first.Report.interleavings < seq.Report.interleavings);
  let resume =
    match Checkpoint.load ckpt with
    | Ok c -> c
    | Error e -> Alcotest.fail ("checkpoint did not load: " ^ e)
  in
  Alcotest.(check bool)
    "checkpoint carries the fencing epoch" true
    (resume.Checkpoint.epoch > 0);
  (* Second life: same address, resumed from the checkpoint; the worker's
     redial loop finds it. *)
  let dist =
    Explorer.verify ~config:(config None) ~resume
      ~distribute:(setup ignore) ~np (build ())
  in
  (match !worker with Some d -> Domain.join d | None -> ());
  check_same "adlb/k0 (coordinator restarted)" seq dist

(* ---- wire unit tests ---- *)

let test_addr_parsing () =
  (match Wire.addr_of_string "unix:/tmp/x.sock" with
  | Ok (Wire.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix addr");
  (match Wire.addr_of_string "tcp:localhost:7777" with
  | Ok (Wire.Tcp ("localhost", 7777)) -> ()
  | _ -> Alcotest.fail "tcp addr");
  List.iter
    (fun s ->
      match Wire.addr_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ ""; "unix:"; "tcp:host"; "tcp:host:notaport"; "ftp:x" ];
  List.iter
    (fun a ->
      Alcotest.(check bool)
        "addr round-trips" true
        (Wire.addr_of_string (Wire.addr_to_string a) = Ok a))
    [ Wire.Unix_sock "/tmp/a b.sock"; Wire.Tcp ("10.0.0.1", 9) ]

(* Serialize worker→coordinator messages through a pipe, then reassemble
   them with the select-loop assembler fed one byte at a time — the worst
   possible framing — and check structural equality. *)
let test_assembler_byte_at_a_time () =
  let item =
    Checkpoint.make_item
      ~prefix:
        [
          {
            Decisions.owner = 0;
            epoch_id = 1;
            src = 2;
            kind = Dampi.Epoch.Wildcard_recv;
          };
        ]
      ~choice:
        {
          Decisions.owner = 1;
          epoch_id = 3;
          src = 0;
          kind = Dampi.Epoch.Wildcard_probe;
        }
      ~sleep:
        [
          {
            Dampi.Epoch.s_owner = 2;
            s_id = 5;
            s_kind = Dampi.Epoch.Wildcard_recv;
            s_ctx = 0;
            s_tag = -1;
            s_matched = 3;
            s_alternatives = [ 0; 1 ];
            s_expandable = true;
          };
        ]
      ()
  in
  let msgs =
    [
      Wire.Hello
        {
          proto = Wire.proto_version;
          id = "worker one";
          session = "sess one";
          epoch = 3;
          pending = Some 7;
          role = None;
        };
      Wire.Hello
        {
          proto = Wire.proto_version;
          id = "fresh";
          session = "";
          epoch = 0;
          pending = None;
          role = None;
        };
      Wire.Auth "deadbeefdeadbeefdeadbeefdeadbeef";
      Wire.Ready;
      Wire.Heartbeat;
      Wire.Results
        {
          epoch = 3;
          lease_id = 7;
          runs =
            [
              {
                Wire.key = Checkpoint.item_key item;
                payload =
                  Some
                    {
                      Wire.vtime = 1.25e-3;
                      bounded = 2;
                      errors = [];
                      children = [ item ];
                      pruned = 4;
                    };
                timeouts = 1;
                retries = 2;
                transients = 0;
              };
              {
                Wire.key = "-";
                payload = None;
                timeouts = 3;
                retries = 3;
                transients = 1;
              };
            ];
        };
      Wire.Failed "it broke | badly\nvery badly";
    ]
  in
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  List.iter (Wire.write_to_coord oc) msgs;
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  let raw = Buffer.contents buf in
  let a = Wire.assembler () in
  let out = ref [] in
  String.iter
    (fun ch ->
      let b = Bytes.make 1 ch in
      List.iter
        (function
          | Ok m -> out := m :: !out
          | Error e -> Alcotest.fail ("assembler error: " ^ e))
        (Wire.feed a b 1))
    raw;
  Alcotest.(check int) "all messages reassembled" (List.length msgs)
    (List.length !out);
  Alcotest.(check bool)
    "messages survive the wire intact" true
    (List.rev !out = msgs)

(* SIGPIPE holders on different domains overlap without nesting: the first
   to enter leaves while the second still writes. The ignore must outlive
   the first holder, or the write to a closed peer kills the process. *)
let test_sigpipe_outlives_first_holder () =
  let entered = Atomic.make false and leave = Atomic.make false in
  let first =
    Domain.spawn (fun () ->
        Wire.with_sigpipe_ignored (fun () ->
            Atomic.set entered true;
            while not (Atomic.get leave) do Domain.cpu_relax () done))
  in
  while not (Atomic.get entered) do Domain.cpu_relax () done;
  Wire.with_sigpipe_ignored (fun () ->
      Atomic.set leave true;
      Domain.join first;
      let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.close r;
      let epipe =
        match Unix.write_substring w "x" 0 1 with
        | _ -> false
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> true
      in
      Unix.close w;
      Alcotest.(check bool) "write to a closed peer raises EPIPE" true epipe)

let test_assembler_rejects_garbage () =
  let a = Wire.assembler () in
  let b = Bytes.of_string "definitely not a frame\n" in
  match Wire.feed a b (Bytes.length b) with
  | [ Error _ ] -> ()
  | _ -> Alcotest.fail "garbage should yield a protocol error"

(* Worker mode for the kill test: serve the wire protocol on stdin (a
   socketpair end inherited from the spawning test), replaying slowly so
   the parent can kill this process with a lease reliably outstanding. *)
let () =
  match Sys.getenv_opt "DAMPI_TEST_WORKER" with
  | Some _ ->
      ignore (Remote_worker.serve ~resolve:(slowed 0.5 resolve) Unix.stdin);
      exit 0
  | None -> ()

let () =
  Alcotest.run "distributed"
    [
      ( "wire",
        [
          Alcotest.test_case "addresses" `Quick test_addr_parsing;
          Alcotest.test_case "byte-at-a-time reassembly" `Quick
            test_assembler_byte_at_a_time;
          Alcotest.test_case "garbage rejected" `Quick
            test_assembler_rejects_garbage;
          Alcotest.test_case "SIGPIPE ignore outlives its first holder" `Quick
            test_sigpipe_outlives_first_holder;
        ] );
      ( "jobs=1 vs distribute=2",
        List.map
          (fun ((name, _, _, _) as case) ->
            Alcotest.test_case name `Quick (check_equivalence case))
          registry );
      ( "fault tolerance",
        [
          Alcotest.test_case "worker killed mid-run" `Quick test_worker_kill;
          Alcotest.test_case "all workers lost" `Quick test_all_workers_lost;
          Alcotest.test_case "resolve failure" `Quick test_resolve_failure;
        ] );
      ( "crash tolerance",
        [
          Alcotest.test_case "authenticated run" `Quick test_auth_roundtrip;
          Alcotest.test_case "auth mismatch rejected" `Quick
            test_auth_mismatch;
          Alcotest.test_case "proto=1 peer rejected" `Quick
            test_proto1_rejected;
          Alcotest.test_case "join timeout" `Quick test_join_timeout;
          Alcotest.test_case "fallback to local pool" `Quick
            test_fallback_local;
          Alcotest.test_case "zombie worker fenced" `Quick test_zombie_fenced;
          Alcotest.test_case "coordinator restart from checkpoint" `Quick
            test_coordinator_restart;
          Alcotest.test_case "results must match the lease" `Quick
            test_results_must_match_lease;
        ] );
      ( "attach modes",
        [
          Alcotest.test_case "listen + connect" `Quick test_listen_attach;
          Alcotest.test_case "dial" `Quick test_dial_attach;
        ] );
    ]
