(* Worker side of the distributed mode. See remote_worker.mli. *)

let src = Obs.Log.src "dampi.worker"

module Log = (val Obs.Log.src_log src : Obs.Log.LOG)

type resolved = {
  np : int;
  runner : Executor.runner;
  rb : Executor.robustness;
  prune : bool;
}

(* The worker's chaos spec rides in [rb.net_fault] (the CLI decodes it from
   the job params, tests set it directly), so both ends of every link
   inject deterministically under the same seed. *)

(* An unacknowledged results frame: the lease was computed but the send
   failed (or never happened) before the connection died. It is re-sent on
   the next session, stamped with the epoch of the grant it answers — the
   coordinator fences it if that grant was superseded meanwhile. *)
type pending = {
  p_epoch : int;
  p_lease_id : int;
  p_runs : Wire.run_result list;
}

type session = {
  id : string;
  mutable epoch : int;  (* last granted fencing epoch; 0 = never admitted *)
  mutable pending : pending option;
  mutable conns : int;  (* serve invocations: the chaos salt stream *)
}

let make_session () =
  let id =
    Printf.sprintf "w%d-%s" (Unix.getpid ()) (String.sub (Wire.gen_nonce ()) 0 8)
  in
  { id; epoch = 0; pending = None; conns = 0 }

type reconnect = { max_redials : int; backoff : float; seed : int }

let default_reconnect = { max_redials = 5; backoff = 0.1; seed = 0 }

(* The worker's local metric registry plus the snapshot as of the last
   telemetry frame known to have been written. The pair must share a
   lifetime: deltas are computed against [t_prev], so a registry that
   outlives a session (a redialling CLI worker) must carry its prev
   snapshot along or re-ship — and double-count — old increments. *)
type telemetry = {
  t_registry : Obs.Metrics.t;
  mutable t_prev : Obs.Metrics.snapshot;
}

let telemetry registry = { t_registry = registry; t_prev = [] }

(* The worker end of the chaos boundary: every outgoing frame funnels
   through a sender, which consults the per-connection injector. Writes are
   synchronous (this side has no event loop), so a delay is a sleep, a drop
   pretends success, and a truncation writes half the frame and shuts the
   socket down — the very next operation then fails the way a real
   mid-stream link death would, engaging the pending-stash recovery. *)
type sender = {
  s_fd : Unix.file_descr;
  s_oc : out_channel;
  mutable s_net : Mpi.Fault.Net.t;
}

let make_sender fd oc = { s_fd = fd; s_oc = oc; s_net = Mpi.Fault.Net.none }

let klass_of_to_coord = function
  | Wire.Results _ -> Mpi.Fault.Net.Payload
  | Wire.Heartbeat | Wire.Telemetry _ -> Mpi.Fault.Net.Chatter
  | Wire.Hello _ | Wire.Auth _ | Wire.Ready | Wire.Failed _ ->
      Mpi.Fault.Net.Control

(* Raises [Sys_error]/[Unix_error] exactly like a plain [write_to_coord]
   would, so every existing call-site recovery path applies unchanged. *)
let send_frame snd msg =
  if not (Mpi.Fault.Net.active snd.s_net) then Wire.write_to_coord snd.s_oc msg
  else begin
    let shaped =
      Mpi.Fault.Net.shape snd.s_net ~klass:(klass_of_to_coord msg)
        (Wire.to_coord_string msg)
    in
    let slept = ref 0.0 in
    List.iter
      (fun (delay, data) ->
        if delay > !slept then begin
          Unix.sleepf (delay -. !slept);
          slept := delay
        end;
        output_string snd.s_oc data;
        flush snd.s_oc)
      shaped.writes;
    if shaped.sever then begin
      (try Unix.shutdown snd.s_fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      raise (Sys_error "injected: link severed after truncated frame")
    end
  end

(* A held frame that nothing overtook must not outlive the send burst:
   release it before blocking on the next read, so reordering is bounded
   and never a stall. *)
let flush_held snd =
  match Mpi.Fault.Net.release snd.s_net with
  | None -> true
  | Some h -> Wire.send snd.s_oc h

(* Ship the metric delta since the last successful ship. Best-effort by
   design: a failed write leaves [t_prev] alone so the increments travel
   with the next frame instead. *)
let ship_telemetry tele snd =
  let cur = Obs.Metrics.snapshot tele.t_registry in
  match Obs.Metrics.to_delta ~prev:tele.t_prev cur with
  | [] -> ()
  | delta -> (
      match send_frame snd (Wire.Telemetry delta) with
      | () -> tele.t_prev <- cur
      | exception (Sys_error _ | Unix.Unix_error _) -> ())

(* Heartbeats ride the replay's poison hook: every [hb_poll_steps]
   interposed calls, if [hb_interval] elapsed, send one [hb] line (plus
   any accumulated telemetry delta). The hook answers false — a worker is
   never externally poisoned; cancellation is the coordinator closing the
   connection, which the next write notices. *)
let hb_poll_steps = 4096
let hb_interval = 0.25

type hb = {
  snd : sender;
  mutable polls : int;
  mutable last : float;
  tele : telemetry;
}

let heartbeat hb () =
  hb.polls <- hb.polls + 1;
  if hb.polls land (hb_poll_steps - 1) = 0 then begin
    let now = Unix.gettimeofday () in
    if now -. hb.last > hb_interval then begin
      hb.last <- now;
      (* An injected sever raises here mid-replay; swallowing it is right —
         the replay finishes, the stash is taken, and the next flush
         notices the dead socket and redials with the frame intact. *)
      (try send_frame hb.snd Wire.Heartbeat
       with Sys_error _ | Unix.Unix_error _ -> ());
      ship_telemetry hb.tele hb.snd
    end
  end;
  false

let serve_session ?auth ~sess ?telemetry:tele ~resolve fd =
  (* The worker's metric shard is process-local (registry of one shard);
     canonical counters travel in result deltas, while the registry's own
     series (runtime, executor) ship as advisory telemetry frames. *)
  let tele =
    match tele with
    | Some t -> t
    | None -> telemetry (Obs.Metrics.create ~shards:1 ())
  in
  Wire.with_sigpipe_ignored @@ fun () ->
  Fun.protect ~finally:(fun () -> Wire.close_quietly fd) @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  sess.conns <- sess.conns + 1;
  let snd = make_sender fd oc in
  (* A write can fail because the coordinator already said its goodbye and
     closed — a drained run shuts down the instant the frontier empties,
     racing our hello/ready/results. The farewell is still sitting in the
     receive buffer, and reading cannot block (the peer is gone, so EOF
     follows the buffered bytes). Without this drain a [`Listen] worker
     would treat a completed run as a lost coordinator and wait forever. *)
  let disconnected () =
    let rec drain () =
      match Wire.read_to_worker ic with
      | Ok Wire.Shutdown -> `Shutdown
      | Ok _ -> drain ()
      | Error _ -> `Disconnected
    in
    drain ()
  in
  let hb = { snd; polls = 0; last = Unix.gettimeofday (); tele } in
  let metrics = Some (Obs.Metrics.shard tele.t_registry 0) in
  let id = Printf.sprintf "pid%d" (Unix.getpid ()) in
  (* Re-send the unacknowledged frame from a previous incarnation, tagged
     with its grant-time epoch. The coordinator either still holds that
     lease (it resumes: the frame is counted, exactly once) or has fenced
     this session (the frame is discarded). Either way the coordinator has
     settled the lease once the write went through, so the stash clears. *)
  let flush_pending () =
    match sess.pending with
    | None -> true
    | Some p -> (
        match
          send_frame snd
            (Wire.Results
               { epoch = p.p_epoch; lease_id = p.p_lease_id; runs = p.p_runs })
        with
        | () ->
            sess.pending <- None;
            true
        | exception (Sys_error _ | Unix.Unix_error _) -> false)
  in
  match
    send_frame snd
      (Wire.Hello
         {
           proto = Wire.proto_version;
           id;
           session = sess.id;
           epoch = sess.epoch;
           pending = Option.map (fun p -> p.p_lease_id) sess.pending;
           role = None;
         })
  with
  | exception (Sys_error _ | Unix.Unix_error _) -> disconnected ()
  | () ->
      let rec loop (r : resolved option) =
        (* Bounded reorder: anything still held back must go out before we
           block waiting on the coordinator. *)
        if not (flush_held snd) then disconnected ()
        else
        match Wire.read_to_worker ic with
        | Error e ->
            Log.debug (fun m -> m "session over: %s" e);
            `Disconnected
        | Ok (Wire.Challenge nonce) -> (
            let secret = Option.value auth ~default:"" in
            match
              send_frame snd
                (Wire.Auth (Wire.auth_mac ~secret ~nonce ~session:sess.id))
            with
            | () -> loop r
            | exception (Sys_error _ | Unix.Unix_error _) -> disconnected ())
        | Ok (Wire.Welcome { epoch }) ->
            (* An epoch differing from ours means any stale state we hold
               (the pending stash aside — its frame carries its own grant
               epoch and gets fenced server-side) is history. *)
            sess.epoch <- epoch;
            loop r
        | Ok (Wire.Reject { proto; reason }) ->
            Log.err (fun m ->
                m "coordinator (proto=%d) rejected us: %s" proto reason);
            `Rejected reason
        | Ok (Wire.Progress _) ->
            (* Progress frames are observer fare; a worker receiving one
               (a confused coordinator) just ignores it. *)
            loop r
        | Ok Wire.Detach ->
            Log.info (fun m -> m "coordinator detached; session over");
            `Disconnected
        | Ok Wire.Shutdown -> `Shutdown
        | Ok (Wire.Job job) -> (
            match resolve job with
            | Ok r -> (
                (* The chaos spec arrives with the job, so the handshake up
                   to here always went out clean; from Ready on, this
                   connection injects under a salt that redraws per redial
                   (fresh schedule ⇒ eventual convergence). *)
                (match r.rb.Executor.net_fault with
                | Some ns when not (Mpi.Fault.Net.wire_inert ns) ->
                    let sh = Obs.Metrics.shard tele.t_registry 0 in
                    let count kind =
                      Obs.Metrics.incr
                        (Obs.Metrics.counter sh ("net_fault." ^ kind))
                    in
                    snd.s_net <-
                      Mpi.Fault.Net.make ~on_inject:count ns
                        ~salt:(Hashtbl.hash (sess.id, sess.conns))
                | _ -> ());
                match send_frame snd Wire.Ready with
                | () ->
                    if flush_pending () then loop (Some r) else disconnected ()
                | exception (Sys_error _ | Unix.Unix_error _) ->
                    disconnected ())
            | Error reason ->
                Log.err (fun m -> m "cannot resolve job: %s" reason);
                (try send_frame snd (Wire.Failed reason)
                 with Sys_error _ | Unix.Unix_error _ -> ());
                (* Redialling cannot fix an unresolvable job; end cleanly. *)
                `Shutdown)
        | Ok (Wire.Lease { lease_id; items }) -> (
            match r with
            | None ->
                (try send_frame snd (Wire.Failed "lease before job")
                 with Sys_error _ | Unix.Unix_error _ -> ());
                `Shutdown
            | Some rr ->
                (* The pool's own item function, under the leased item's
                   sleep set, so suppressions match the pool's. The poison
                   only heartbeats, so no result comes back poisoned. *)
                let runs =
                  List.map
                    (fun (it : Checkpoint.item) ->
                      (Executor.run ~rb:rr.rb ~runner:rr.runner
                         ~prune:rr.prune ~worker:0 ~metrics ~need_poison:true
                         ~external_poison:(heartbeat hb)
                         ~abort_retries:(fun () -> false)
                         ~np:rr.np ~key:(Checkpoint.item_key it) ~sleep:it.sleep
                         (it.prefix @ [ it.choice ]))
                        .Executor.run)
                    items
                in
                (* Stash before sending: if the write dies part-way the
                   next session re-delivers the whole frame. Telemetry for
                   these replays ships first, so a drain right after the
                   final results frame cannot strand their metrics. *)
                sess.pending <-
                  Some { p_epoch = sess.epoch; p_lease_id = lease_id;
                         p_runs = runs };
                ship_telemetry tele snd;
                if flush_pending () then loop r else disconnected ())
      in
      loop None

let serve ?auth ?telemetry ~resolve fd =
  serve_session ?auth ~sess:(make_session ()) ?telemetry ~resolve fd

(* ---- standalone worker entry points ---- *)

let sigterm_seen = Atomic.make false

let serve_addr ?auth ?telemetry:tele ?(reconnect = default_reconnect) ?stop
    ~resolve mode =
  let sess = make_session () in
  (* One registry across every (re)connection of this worker, so the
     shipped deltas stay monotone over reconnects. *)
  let tele =
    match tele with
    | Some t -> t
    | None -> telemetry (Obs.Metrics.create ~shards:1 ())
  in
  let stopping () =
    Atomic.get sigterm_seen
    || match stop with Some f -> f () | None -> false
  in
  (* Deterministic jitter: same (seed, session) always sleeps the same
     schedule, so reconnect tests are reproducible. *)
  let rng =
    Sim.Splitmix.derive reconnect.seed ~salt:(Hashtbl.hash sess.id)
  in
  let delay attempt =
    let base = reconnect.backoff *. (2.0 ** float_of_int attempt) in
    min 5.0 base *. (0.5 +. Sim.Splitmix.float rng 1.0)
  in
  match mode with
  | `Connect addr ->
      let rec go attempt ever_connected =
        if stopping () then Ok ()
        else
          match Wire.dial addr with
          | Ok fd -> (
              match serve_session ?auth ~sess ~telemetry:tele ~resolve fd with
              | `Shutdown -> Ok ()
              | `Rejected reason ->
                  Error ("rejected by coordinator: " ^ reason)
              | `Disconnected ->
                  if reconnect.max_redials <= 0 then Ok ()
                  else begin
                    (* Fresh failure streak: the dial worked, so count
                       redials from here. *)
                    Unix.sleepf (delay 0);
                    go 1 true
                  end)
          | Error (`Gone e) ->
              if (not ever_connected) && attempt = 0 then begin
                (* A coordinator that already drained its frontier closes
                   and unlinks its socket before late workers arrive;
                   joining a finished run is a no-op, not an error. *)
                Log.info (fun m ->
                    m "coordinator at %s already gone (%s); nothing to do"
                      (Wire.addr_to_string addr) (Unix.error_message e));
                Ok ()
              end
              else if attempt >= reconnect.max_redials then begin
                Log.warn (fun m ->
                    m "giving up on %s after %d redial(s)"
                      (Wire.addr_to_string addr) attempt);
                Ok ()
              end
              else begin
                Unix.sleepf (delay attempt);
                go (attempt + 1) ever_connected
              end
          | Error e ->
              Error
                (Printf.sprintf "cannot %s %s: %s"
                   (if e = `Unresolved then "resolve" else "connect to")
                   (Wire.addr_to_string addr) (Wire.dial_error_message e))
      in
      go 0 false
  | `Listen addr ->
      Result.bind (Wire.listen addr) @@ fun l ->
      (* The CLI worker runs standalone, so claiming the process SIGTERM
         handler is fine there; embedded callers pass [stop] instead and
         keep their handlers. *)
      let old_term =
        match stop with
        | Some _ -> None
        | None -> (
            try
              Some
                (Sys.signal Sys.sigterm
                   (Sys.Signal_handle (fun _ -> Atomic.set sigterm_seen true)))
            with Invalid_argument _ | Sys_error _ -> None)
      in
      Fun.protect ~finally:(fun () ->
          (match old_term with
          | Some h -> (
              try Sys.set_signal Sys.sigterm h
              with Invalid_argument _ | Sys_error _ -> ())
          | None -> ());
          Wire.close_listener l)
      @@ fun () ->
      (* Serve successive coordinator sessions on one persistent session
         identity — a coordinator restarted from a checkpoint dials back
         in, and the carried-over pending/epoch state is exactly what
         exercises lease resumption and fencing. *)
      let rec accept_loop () =
        if stopping () then Ok ()
        else
          match Wire.readable [ Wire.listener_fd l ] 0.2 with
          | [] -> accept_loop ()
          | _ -> (
              match Wire.accept l with
              | None -> accept_loop ()
              | Some afd -> (
                  match
                    serve_session ?auth ~sess ~telemetry:tele ~resolve afd
                  with
                  | `Shutdown -> Ok ()
                  | `Rejected reason ->
                      Error ("rejected by coordinator: " ^ reason)
                  | `Disconnected -> accept_loop ()))
      in
      accept_loop ()
