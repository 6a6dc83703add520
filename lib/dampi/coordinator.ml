(* Frontier coordinator for the distributed mode: the socket shell around
   Coord_step. The shell owns the select loop, the sockets, each
   connection's frame assembler and chaos out-queue, the clock and the
   nonces; it turns what it observes into Coord_step events and carries
   out the actions. See coordinator.mli. *)

let src = Obs.Log.src "dampi.coordinator"

module Log = (val Obs.Log.src_log src : Obs.Log.LOG)
module Net = Mpi.Fault.Net

type attach =
  | Fds of Unix.file_descr list
  | Listen of { addr : Wire.addr; ready : Wire.addr -> unit }
  | Dial of Wire.addr list

type setup = {
  attach : attach;
  job : Wire.job;
  lease_size : int;
  heartbeat_timeout : float;
  join_timeout : float;
  rejoin_grace : float;
  auth : string option;
  net_fault : Net.spec option;
  outq_budget : int;
}

let default_lease_size = 4
let default_heartbeat_timeout = 30.0
let default_join_timeout = 30.0
let default_rejoin_grace = 1.0
let default_outq_budget = 262144

let default_setup attach job =
  {
    attach;
    job;
    lease_size = default_lease_size;
    heartbeat_timeout = default_heartbeat_timeout;
    join_timeout = default_join_timeout;
    rejoin_grace = default_rejoin_grace;
    auth = None;
    net_fault = None;
    outq_budget = default_outq_budget;
  }

(* One open connection. Blocking: reads happen only after select reports
   the fd readable, and writes are small frames a socket buffer absorbs. *)
type link = {
  id : int;  (* the connection counter: names it in events, salts its chaos *)
  fd : Unix.file_descr;
  oc : out_channel;
  asm : Wire.assembler;
  net : Net.t;  (* chaos injector for this connection instance *)
  mutable outq : (float * string) list;
      (* due-time × serialized frame, FIFO. Delays are head-of-line (a TCP
         stream does not overtake itself); only an injected reorder (held
         in [net]) reorders. Empty except under chaos. *)
  mutable outq_bytes : int;
  mutable sever : bool;  (* cut the link once the truncated prefix is out *)
}

(* The state's counts the shell publishes, as coordinator.<name> counters. *)
let published =
  Coord_step.
    [
      ("leases", fun s -> s.leases);
      ("releases", fun s -> s.releases);
      ("reconnects", fun s -> s.reconnects);
      ("fenced", fun s -> s.fenced);
      ("dup_results", fun s -> s.dup_results);
      ("backpressure", fun s -> s.backpressure);
    ]
  |> List.map (fun (n, f) -> ("coordinator." ^ n, f))

type t = {
  setup : setup;
  mutable st : Coord_step.state;
  mutable links : link list;  (* open connections only, oldest first *)
  mutable conn_seq : int;
  net_count : string -> unit;  (* net_fault.<kind> injection counters *)
  mutable listener : Wire.listener option;  (* bound by [drive] *)
  mutable on_run : item:Checkpoint.item -> Wire.run_result -> unit;
  mutable ran : bool;
  mutable finish : [ `Done | `Abort ];  (* shutdown vs detach at close *)
  metrics : Obs.Metrics.shard option;
  rtt : Obs.Metrics.histogram option;
  wire_io : Obs.Metrics.histogram option;  (* present under --profile *)
  telemetry : (string, Obs.Metrics.snapshot) Hashtbl.t;
      (* session id -> accumulated worker metric deltas *)
  progress : unit -> (string * string) list;
  mutable last_progress : float;
}

let create ?metrics ?(profile = false) ?(first_epoch = 1)
    ?(progress = fun () -> []) ~budget setup =
  let { job; lease_size; heartbeat_timeout; join_timeout; rejoin_grace; auth; _ } =
    setup
  in
  let listening = match setup.attach with Listen _ -> true | _ -> false in
  let cfg =
    { Coord_step.job; lease_size; heartbeat_timeout; join_timeout; rejoin_grace; auth;
      budget = max 0 budget; listening }
  in
  let series name = Option.map (fun sh -> Obs.Metrics.histogram sh name) metrics in
  Option.iter
    (fun sh -> List.iter (fun (n, _) -> ignore (Obs.Metrics.counter sh n)) published)
    metrics;
  {
    setup;
    st = Coord_step.init cfg ~first_epoch ~now:(Unix.gettimeofday ());
    links = [];
    conn_seq = 0;
    net_count =
      (match metrics with
      | Some sh ->
          fun kind -> Obs.Metrics.incr (Obs.Metrics.counter sh ("net_fault." ^ kind))
      | None -> ignore);
    listener = None;
    on_run = (fun ~item:_ _ -> ());
    ran = false;
    finish = `Abort;
    metrics;
    rtt = series "coordinator.worker_rtt_s";
    wire_io = (if profile then series "profile.wire_io_s" else None);
    telemetry = Hashtbl.create 16;
    progress;
    last_progress = 0.0;
  }

let push t items = t.st <- Coord_step.push t.st items
let snapshot t = Coord_step.snapshot t.st
let current_epoch t = Coord_step.current_epoch t.st

let telemetry t =
  Hashtbl.fold (fun sid snap acc -> (sid, snap) :: acc) t.telemetry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let name st id =
  match List.assoc_opt id st.Coord_step.conns with Some c -> c.name | None -> "?"

let timed t f =
  match t.wire_io with
  | Some h ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      Obs.Metrics.observe h (Unix.gettimeofday () -. t0);
      r
  | _ -> f ()

(* Publish what a step counted, and log what an operator should know. *)
let account t (a : Coord_step.state) (b : Coord_step.state) =
  let add sh (n, f) =
    if f b > f a then Obs.Metrics.add (Obs.Metrics.counter sh n) (f b - f a)
  in
  Option.iter (fun sh -> List.iter (add sh) published) t.metrics;
  if b.releases > a.releases then
    Log.warn (fun m -> m "re-leasing %d item(s)" (b.releases - a.releases));
  if b.reconnects > a.reconnects then Log.info (fun m -> m "a worker rejoined its session");
  if b.fenced > a.fenced then Log.warn (fun m -> m "discarding a fenced results frame");
  if b.dup_results > a.dup_results then
    Log.warn (fun m -> m "discarding a duplicate results frame")

let linked t l = List.memq l t.links

let unlink t l =
  t.links <- List.filter (fun l' -> l' != l) t.links;
  Wire.close_quietly l.fd

let enqueue l ~due data =
  l.outq <- l.outq @ [ (due, data) ];
  l.outq_bytes <- l.outq_bytes + String.length data

let klass_of_to_worker = function
  | Wire.Lease _ -> Net.Payload
  | Wire.Progress _ -> Net.Chatter
  | Wire.Challenge _ | Wire.Welcome _ | Wire.Reject _ | Wire.Job _ | Wire.Detach
  | Wire.Shutdown ->
      Net.Control

let rec feed t ev =
  let before = t.st in
  let st, actions = Coord_step.step before ev in
  t.st <- st;
  account t before st;
  List.iter (perform t before) actions

and perform t before = function
  | Coord_step.Send (id, msg) ->
      Option.iter (fun l -> send t l msg) (List.find_opt (fun l -> l.id = id) t.links)
  | Close (id, reason) ->
      Option.iter
        (fun l ->
          Log.warn (fun m -> m "closing connection %s: %s" (name before id) reason);
          unlink t l)
        (List.find_opt (fun l -> l.id = id) t.links)
  | Ingest { runs; rtt } ->
      Option.iter (fun h -> Obs.Metrics.observe h rtt) t.rtt;
      List.iter (fun (item, r) -> t.on_run ~item r) runs

(* The shell saw a connection die: close it and tell the state machine. *)
and lose t l ~reason =
  if linked t l then begin
    Log.warn (fun m -> m "worker %s lost (%s)" (name t.st l.id) reason);
    unlink t l;
    feed t (Coord_step.Closed { conn = l.id; now = Unix.gettimeofday () })
  end

and raw_write t l data =
  if not (timed t (fun () -> Wire.send l.oc data)) then lose t l ~reason:"write failed"

(* Write every due frame, oldest first. A delayed head holds back the rest:
   only an injected reorder reorders, the queue itself models a slow pipe.
   Once a truncated frame has drained, the injected sever cuts the link. *)
and flush_outq t l now =
  let rec go () =
    match l.outq with
    | (due, data) :: rest when linked t l && due <= now ->
        l.outq <- rest;
        l.outq_bytes <- l.outq_bytes - String.length data;
        raw_write t l data;
        go ()
    | _ -> ()
  in
  go ();
  if l.sever && l.outq = [] then
    lose t l ~reason:"injected: link severed after truncated frame"

and send t l msg =
  if (not (Net.active l.net)) && l.outq = [] then
    (* No chaos on this connection: write straight through. *)
    raw_write t l (Wire.to_worker_string msg)
  else begin
    let now = Unix.gettimeofday () in
    let shaped =
      Net.shape l.net ~klass:(klass_of_to_worker msg) (Wire.to_worker_string msg)
    in
    List.iter (fun (delay, data) -> enqueue l ~due:(now +. delay) data) shaped.writes;
    if shaped.sever then l.sever <- true;
    flush_outq t l now
  end

(* Called once per event-loop turn: due frames drain, and a held frame that
   nothing overtook within the turn is released — reordering is bounded by
   the select timeout, never a stall. *)
let pump_out t l now =
  if l.outq = [] then Option.iter (enqueue l ~due:now) (Net.release l.net);
  if l.outq <> [] || l.sever then flush_outq t l now

let open_link t fd =
  t.conn_seq <- t.conn_seq + 1;
  let net =
    match t.setup.net_fault with
    | Some sp when not (Net.wire_inert sp) ->
        (* Salted by the connection counter: a redialed worker gets a fresh
           instance with fresh one-shot draws, which is what makes a lossy
           link converge under retry. *)
        Net.make ~on_inject:t.net_count sp ~salt:t.conn_seq
    | _ -> Net.none
  in
  let oc = Unix.out_channel_of_descr fd and asm = Wire.assembler () in
  let l =
    { id = t.conn_seq; fd; oc; asm; net; outq = []; outq_bytes = 0; sever = false }
  in
  t.links <- t.links @ [ l ];
  let nonce = if t.setup.auth = None then "" else Wire.gen_nonce () in
  feed t (Coord_step.Opened { conn = l.id; now = Unix.gettimeofday (); nonce })

let read_link t l buf =
  match Unix.read l.fd buf 0 (Bytes.length buf) with
  | 0 -> lose t l ~reason:"connection closed"
  | n ->
      let msgs = timed t (fun () -> Wire.feed l.asm buf n) in
      let now = Unix.gettimeofday () in
      List.iter
        (fun msg ->
          (* Advisory metric deltas fold into the session's snapshot; deltas
             from a connection with no session have nowhere to go. *)
          (match (msg, Coord_step.session_of t.st l.id) with
          | Ok (Wire.Telemetry series), Some sid ->
              let prev = Hashtbl.find_opt t.telemetry sid in
              Hashtbl.replace t.telemetry sid
                (Obs.Metrics.merge_delta (Option.value prev ~default:[]) series)
          | _ -> ());
          feed t (Coord_step.Frame { conn = l.id; now; msg }))
        msgs
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> lose t l ~reason:(Unix.error_message e)

(* ---- observer progress frames ---- *)

(* Every half second, each observer gets the coordinator's own figures and
   the caller's. *)
let stream_progress t now =
  let st = t.st in
  let phase l = Option.map (fun c -> c.Coord_step.phase) (List.assoc_opt l.id st.conns) in
  let observers = List.filter (fun l -> phase l = Some Coord_step.Observer) t.links in
  if observers <> [] && now -. t.last_progress >= 0.5 then begin
    t.last_progress <- now;
    let hb_age (sid, (s : Coord_step.session)) =
      ( "hb_age." ^ sid,
        match Option.bind s.bound (fun id -> List.assoc_opt id st.conns) with
        | Some c -> Printf.sprintf "%.3f" (now -. c.last_seen)
        | None -> "lost" )
    in
    let kvs =
      [
        ("frontier", string_of_int (List.length st.frontier));
        ("claimed", string_of_int st.claimed);
        ("budget", string_of_int st.cfg.budget);
        ("leases", string_of_int st.leases);
        ("results", string_of_int st.results);
        ("workers", string_of_int (List.length st.conns - List.length observers));
        ("uptime_s", Printf.sprintf "%.3f" (now -. st.started));
      ]
      @ List.sort compare (List.map hb_age st.sessions)
      @ t.progress ()
    in
    List.iter (fun l -> send t l (Wire.Progress kvs)) observers
  end

let close_all t =
  let farewell = match t.finish with `Done -> Wire.Shutdown | `Abort -> Wire.Detach in
  let farewell = Wire.to_worker_string farewell in
  List.iter
    (fun l ->
      (* Drain what the chaos queue still holds (held or delayed frames) so
         the farewell is not overtaken by stale traffic; an injected sever
         still cuts the link before it. *)
      Option.iter (enqueue l ~due:0.0) (Net.release l.net);
      if List.for_all (fun (_, d) -> Wire.send l.oc d) l.outq && not l.sever then
        ignore (Wire.send l.oc farewell);
      Wire.close_quietly l.fd)
    t.links;
  t.links <- [];
  Option.iter Wire.close_listener t.listener

(* Bring up the connections [setup.attach] describes. A listen failure
   ends the run; an unreachable worker address is only a warning, and
   the run fails later if no worker ever joins. *)
let attach t =
  match t.setup.attach with
  | Fds fds ->
      List.iter (open_link t) fds;
      Ok ()
  | Listen { addr; ready } ->
      Result.map
        (fun l ->
          t.listener <- Some l;
          ready addr)
        (Wire.listen addr)
  | Dial addrs ->
      List.iter
        (fun addr ->
          match Wire.dial addr with
          | Ok fd -> open_link t fd
          | Error e ->
              Log.warn (fun m ->
                  m "cannot dial %s: %s" (Wire.addr_to_string addr)
                    (Wire.dial_error_message e)))
        addrs;
      Ok ()

let drive t ~on_run ~should_stop ~tick =
  if t.ran then invalid_arg "Coordinator.drive: already ran";
  t.ran <- true;
  t.on_run <- on_run;
  (* EPIPE must surface as an exception on write, not kill the process. *)
  Wire.with_sigpipe_ignored @@ fun () ->
  Fun.protect ~finally:(fun () -> close_all t) @@ fun () ->
  let buf = Bytes.create 65536 in
  let rec loop () =
    if should_stop () then Ok ()
    else begin
      let now = Unix.gettimeofday () in
      let ready =
        List.filter_map
          (fun l -> if l.outq_bytes <= t.setup.outq_budget then Some l.id else None)
          t.links
      in
      feed t (Coord_step.Tick { now; ready });
      match Coord_step.verdict t.st ~now with
      | Some (Ok ()) ->
          (* Drained (or budget-capped): the exploration is over, workers
             may exit. Any other way out leaves finish = `Abort, and
             close_all sends [detach] so long-lived workers keep serving. *)
          t.finish <- `Done;
          Ok ()
      | Some (Error _ as lost) -> lost
      | None ->
          (* Chaos-queue pump: due delayed frames drain, held (reordered)
             frames release, pending severs cut. A no-op without chaos. *)
          List.iter (fun l -> pump_out t l now) t.links;
          let links = t.links in
          let lfd = Option.map Wire.listener_fd t.listener in
          let readable =
            Wire.readable (Option.to_list lfd @ List.map (fun l -> l.fd) links) 0.2
          in
          if lfd <> None && List.mem (Option.get lfd) readable then
            Option.iter (open_link t) (Option.bind t.listener Wire.accept);
          List.iter
            (fun l -> if linked t l && List.mem l.fd readable then read_link t l buf)
            links;
          stream_progress t (Unix.gettimeofday ());
          tick ();
          loop ()
    end
  in
  Result.bind (attach t) loop
