(* Frontier coordinator for the distributed mode: leases item batches to
   remote workers over the Wire protocol, ingests result deltas, re-leases
   on worker loss. Single-threaded select loop; see coordinator.mli.

   proto=2 separates the *connection* (a socket that can drop and come
   back) from the *session* (a worker identity that survives reconnects).
   Leases belong to sessions; each (re)admission is stamped with a
   monotone fencing epoch, and a results frame is ingested only when its
   epoch and lease id match the session's current ones — anything else is
   a zombie flush and is discarded whole. *)

let src = Obs.Log.src "dampi.coordinator"

module Log = (val Obs.Log.src_log src : Obs.Log.LOG)

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
  net_fault : Mpi.Fault.Net.spec option;
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

type lease = {
  lease_id : int;
  lease_items : Checkpoint.item list;
  sent_at : float;
}

(* A worker identity: survives reconnects, owns the outstanding lease. *)
type sess = {
  sid : string;
  mutable epoch : int;  (* current fencing epoch grant *)
  mutable lease : lease option;
  mutable conn_fd : Unix.file_descr option;  (* bound connection, if any *)
  mutable lost_at : float;  (* when conn_fd went None *)
  mutable seen_ready : bool;  (* first ready counted in workers_seen *)
  mutable last_settled : (int * int) option;
      (* (epoch, lease_id) of the most recently ingested results frame:
         a second arrival of the same frame is duplicate delivery, not a
         zombie, and is counted separately *)
}

(* Hello fields carried across the auth round-trip. *)
type hello = {
  h_id : string;
  h_session : string;
  h_epoch : int;
  h_pending : int option;
  h_role : string option;
}

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  asm : Wire.assembler;
  net : Mpi.Fault.Net.t;  (* chaos injector for this connection instance *)
  mutable name : string;
  mutable state :
    [ `Greeting  (* awaiting hello *)
    | `Challenged of string * hello  (* nonce sent, awaiting auth *)
    | `Jobbed of sess  (* welcomed + job sent, awaiting ready *)
    | `Bound of sess  (* ready; leases flow *)
    | `Observer  (* read-only [dampi top] client; progress frames flow *) ];
  mutable last_seen : float;
  mutable alive : bool;
  mutable outq : (float * string) list;
      (* due-time × serialized frame, FIFO. Delays are head-of-line (a
         TCP stream does not overtake itself); only an injected reorder
         (held in [net]) reorders. Empty except under chaos or a genuinely
         slow peer. *)
  mutable outq_bytes : int;
  mutable sever : bool;  (* injected truncation: cut the link once the
                            truncated prefix has been written *)
  mutable gap_ewma : float;
      (* smoothed inter-frame arrival gap, the RTT proxy behind the
         adaptive heartbeat grace: a slow link with long-but-regular gaps
         earns a longer silence allowance than a fast one going quiet *)
  mutable hb_extended : bool;  (* grace extension logged once per episode *)
}

type cmetrics = {
  m_leases : Obs.Metrics.counter;
  m_releases : Obs.Metrics.counter;
  m_reconnects : Obs.Metrics.counter;
  m_fenced : Obs.Metrics.counter;
  m_dup_results : Obs.Metrics.counter;
  m_backpressure : Obs.Metrics.counter;
  m_hb_grace : Obs.Metrics.counter;
  m_rtt : Obs.Metrics.histogram;
  m_wire_io : Obs.Metrics.histogram option;  (* present under --profile *)
}

type t = {
  setup : setup;
  budget : int;
  mutable claimed : int;  (* items ever leased, net of re-leases *)
  mutable frontier : Checkpoint.item list;  (* stack *)
  mutable conns : conn list;
  mutable conn_seq : int;  (* salt stream for per-connection chaos *)
  net_count : string -> unit;  (* net_fault.<kind> injection counters *)
  sessions : (string, sess) Hashtbl.t;
  mutable next_epoch : int;
  mutable anon : int;  (* synthetic ids for proto peers without a session *)
  mutable listener : Wire.listener option;  (* bound by [drive] *)
  started : float;
  mutable next_lease : int;
  mutable leases : int;  (* lease frames sent *)
  mutable results : int;  (* result frames ingested *)
  mutable workers_seen : int;  (* sessions past their first handshake *)
  mutable ran : bool;
  mutable finish : [ `Done | `Abort ];  (* shutdown vs detach at close *)
  metrics : cmetrics option;
  telemetry : (string, Obs.Metrics.snapshot) Hashtbl.t;
      (* session id -> accumulated worker metric deltas *)
  progress : unit -> (string * string) list;
      (* caller-supplied aggregate (explorer runs, rates, cache) appended
         to the coordinator's own figures in observer progress frames *)
  mutable last_progress : float;
}

let create ?metrics ?(profile = false) ?(first_epoch = 1)
    ?(progress = fun () -> []) ~budget setup =
  {
    setup;
    budget = max 0 budget;
    claimed = 0;
    frontier = [];
    conns = [];
    conn_seq = 0;
    net_count =
      (match metrics with
      | Some sh ->
          fun kind -> Obs.Metrics.incr (Obs.Metrics.counter sh ("net_fault." ^ kind))
      | None -> ignore);
    sessions = Hashtbl.create 16;
    next_epoch = max 1 first_epoch;
    anon = 0;
    listener = None;
    started = Unix.gettimeofday ();
    next_lease = 0;
    leases = 0;
    results = 0;
    workers_seen = 0;
    ran = false;
    finish = `Abort;
    metrics =
      Option.map
        (fun sh ->
          {
            m_leases = Obs.Metrics.counter sh "coordinator.leases";
            m_releases = Obs.Metrics.counter sh "coordinator.releases";
            m_reconnects = Obs.Metrics.counter sh "coordinator.reconnects";
            m_fenced = Obs.Metrics.counter sh "coordinator.fenced";
            m_dup_results = Obs.Metrics.counter sh "coordinator.dup_results";
            m_backpressure = Obs.Metrics.counter sh "coordinator.backpressure";
            m_hb_grace = Obs.Metrics.counter sh "coordinator.hb_grace_extends";
            m_rtt = Obs.Metrics.histogram sh "coordinator.worker_rtt_s";
            m_wire_io =
              (if profile then Some (Obs.Metrics.histogram sh "profile.wire_io_s")
               else None);
          })
        metrics;
    telemetry = Hashtbl.create 16;
    progress;
    last_progress = 0.0;
  }

let push t items = t.frontier <- items @ t.frontier

let outstanding t =
  Hashtbl.fold
    (fun _ s acc ->
      match s.lease with Some l -> l.lease_items @ acc | None -> acc)
    t.sessions []

let snapshot t = t.frontier @ outstanding t
let current_epoch t = t.next_epoch - 1

let telemetry t =
  Hashtbl.fold (fun sid snap acc -> (sid, snap) :: acc) t.telemetry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let next_epoch t =
  let e = t.next_epoch in
  t.next_epoch <- e + 1;
  e

(* ---- connection lifecycle ---- *)

(* Connections stay blocking: reads happen only after select reports the fd
   readable (so they return whatever is buffered without blocking), and
   writes are small frames a socket buffer absorbs. *)
let add_conn t fd =
  t.conn_seq <- t.conn_seq + 1;
  let net =
    match t.setup.net_fault with
    | Some sp when not (Mpi.Fault.Net.wire_inert sp) ->
        (* Salted by the connection counter: a redialed worker gets a fresh
           instance with fresh one-shot draws, which is what makes a lossy
           link converge under retry. *)
        Mpi.Fault.Net.make ~on_inject:t.net_count sp ~salt:t.conn_seq
    | _ -> Mpi.Fault.Net.none
  in
  let c =
    {
      fd;
      oc = Unix.out_channel_of_descr fd;
      asm = Wire.assembler ();
      net;
      name = "?";
      state = `Greeting;
      last_seen = Unix.gettimeofday ();
      alive = true;
      outq = [];
      outq_bytes = 0;
      sever = false;
      gap_ewma = 0.0;
      hb_extended = false;
    }
  in
  t.conns <- t.conns @ [ c ];
  c

(* Return a session's leased items to the frontier for another worker. *)
let refund t s ~reason =
  match s.lease with
  | None -> ()
  | Some l ->
      let n = List.length l.lease_items in
      Log.warn (fun m ->
          m "session %s: re-leasing %d item(s) (%s)" s.sid n reason);
      t.frontier <- l.lease_items @ t.frontier;
      t.claimed <- t.claimed - n;
      s.lease <- None;
      (match t.metrics with
      | Some ms -> Obs.Metrics.add ms.m_releases n
      | None -> ())

(* Close a connection without touching its session (version/auth
   rejections, superseded duplicates). *)
let drop_conn t c ~reason =
  ignore t;
  if c.alive then begin
    c.alive <- false;
    Log.info (fun m -> m "dropping connection %s: %s" c.name reason);
    Wire.close_quietly c.fd
  end

(* A worker connection died. Its session keeps the lease for the rejoin
   grace period — the grace scan refunds it if the worker stays away.
   A departing observer is only a dropped connection, not a lost worker. *)
let lose t c ~reason =
  if c.alive then
    match c.state with
    | `Observer -> drop_conn t c ~reason
    | state ->
        (match state with
        | (`Jobbed s | `Bound s) when s.conn_fd = Some c.fd ->
            s.conn_fd <- None;
            s.lost_at <- Unix.gettimeofday ();
            Log.warn (fun m ->
                m "worker %s lost (%s)%s" c.name reason
                  (match s.lease with
                  | Some l ->
                      Printf.sprintf "; lease %d held for %.3gs rejoin grace"
                        l.lease_id t.setup.rejoin_grace
                  | None -> ""))
        | _ -> Log.warn (fun m -> m "worker %s lost (%s)" c.name reason));
        c.alive <- false;
        Wire.close_quietly c.fd

let raw_write t c data =
  let sent =
    match t.metrics with
    | Some { m_wire_io = Some h; _ } ->
        let t0 = Unix.gettimeofday () in
        let sent = Wire.send c.oc data in
        if sent then Obs.Metrics.observe h (Unix.gettimeofday () -. t0);
        sent
    | _ -> Wire.send c.oc data
  in
  if not sent then lose t c ~reason:"write failed"

(* Write every due frame, oldest first. A delayed head holds back the rest:
   only an injected reorder reorders, the queue itself models a slow pipe.
   Once a truncated frame has drained, the injected sever cuts the link. *)
let flush_outq t c now =
  let rec go () =
    match c.outq with
    | (due, data) :: rest when c.alive && due <= now ->
        c.outq <- rest;
        c.outq_bytes <- c.outq_bytes - String.length data;
        raw_write t c data;
        go ()
    | _ -> ()
  in
  go ();
  if c.sever && c.outq = [] && c.alive then
    lose t c ~reason:"injected: link severed after truncated frame"

let enqueue c ~due data =
  c.outq <- c.outq @ [ (due, data) ];
  c.outq_bytes <- c.outq_bytes + String.length data

let klass_of_to_worker = function
  | Wire.Lease _ -> Mpi.Fault.Net.Payload
  | Wire.Progress _ -> Mpi.Fault.Net.Chatter
  | Wire.Challenge _ | Wire.Welcome _ | Wire.Reject _ | Wire.Job _
  | Wire.Detach | Wire.Shutdown ->
      Mpi.Fault.Net.Control

let send t c msg =
  if (not (Mpi.Fault.Net.active c.net)) && c.outq = [] then
    (* No chaos on this connection: write straight through, as before. *)
    raw_write t c (Wire.to_worker_string msg)
  else begin
    let now = Unix.gettimeofday () in
    let shaped =
      Mpi.Fault.Net.shape c.net ~klass:(klass_of_to_worker msg)
        (Wire.to_worker_string msg)
    in
    List.iter
      (fun (delay, data) -> enqueue c ~due:(now +. delay) data)
      shaped.writes;
    if shaped.sever then c.sever <- true;
    flush_outq t c now
  end

(* Called once per event-loop turn: due frames drain, and a held frame that
   nothing overtook within the turn is released — reordering is bounded by
   the select timeout, never a stall. *)
let pump_out t c now =
  if c.outq = [] then
    Option.iter (enqueue c ~due:now) (Mpi.Fault.Net.release c.net);
  if c.outq <> [] || c.sever then flush_outq t c now

(* ---- leasing ---- *)

let rec take_front n acc = function
  | rest when n = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | x :: tl -> take_front (n - 1) (x :: acc) tl

let maybe_lease t c =
  match c.state with
  | `Bound s
    when c.alive && s.lease = None && t.frontier <> []
         && t.claimed < t.budget
         && c.outq_bytes > t.setup.outq_budget ->
      (* Backpressure: this session's link is backed up past its write
         budget — leasing more work to it would only deepen the queue.
         The items stay in the frontier for a less congested worker. *)
      (match t.metrics with
      | Some ms -> Obs.Metrics.incr ms.m_backpressure
      | None -> ())
  | `Bound s
    when c.alive && s.lease = None && t.frontier <> []
         && t.claimed < t.budget ->
      let n = min t.setup.lease_size (t.budget - t.claimed) in
      let items, rest = take_front n [] t.frontier in
      t.frontier <- rest;
      t.claimed <- t.claimed + List.length items;
      let lease_id = t.next_lease in
      t.next_lease <- t.next_lease + 1;
      s.lease <-
        Some { lease_id; lease_items = items; sent_at = Unix.gettimeofday () };
      t.leases <- t.leases + 1;
      (match t.metrics with
      | Some ms -> Obs.Metrics.incr ms.m_leases
      | None -> ());
      send t c (Wire.Lease { lease_id; items })
  | _ -> ()

(* ---- admission ---- *)

let const_eq a b =
  String.length a = String.length b
  &&
  let d = ref 0 in
  String.iteri (fun i c -> d := !d lor (Char.code c lxor Char.code b.[i])) a;
  !d = 0

(* The hello (and auth, when configured) checked out. Observers get a
   welcome and then a stream of progress frames — no session, no job, no
   lease, so their presence cannot perturb the exploration. *)
let bind_observer t c (h : hello) =
  c.name <- h.h_id;
  c.state <- `Observer;
  Log.info (fun m -> m "observer %s attached" c.name);
  send t c (Wire.Welcome { epoch = 0 })

(* Bind a worker connection to its session, deciding between lease
   resumption and fencing. *)
let bind t c (h : hello) =
  let sid =
    if h.h_session = "" then begin
      t.anon <- t.anon + 1;
      Printf.sprintf "anon%d" t.anon
    end
    else h.h_session
  in
  let s, rejoined =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> (s, true)
    | None ->
        let s =
          {
            sid;
            epoch = next_epoch t;
            lease = None;
            conn_fd = None;
            lost_at = 0.0;
            seen_ready = false;
            last_settled = None;
          }
        in
        Hashtbl.add t.sessions sid s;
        (s, false)
  in
  (* A live connection already bound to this session is a stale duplicate
     (the worker redialed before we read its EOF): supersede it, keeping
     the lease with the session. *)
  (match s.conn_fd with
  | Some fd -> (
      match List.find_opt (fun c' -> c'.alive && c'.fd = fd) t.conns with
      | Some old -> drop_conn t old ~reason:"superseded by reconnect"
      | None -> ())
  | None -> ());
  if rejoined then begin
    (match t.metrics with
    | Some ms -> Obs.Metrics.incr ms.m_reconnects
    | None -> ());
    let intact =
      match (s.lease, h.h_pending) with
      | Some l, Some p -> h.h_epoch = s.epoch && p = l.lease_id
      | _ -> false
    in
    if intact then
      Log.info (fun m ->
          m "worker %s rejoined session %s: resuming lease at epoch %d"
            h.h_id sid s.epoch)
    else begin
      (* Anything the previous incarnation still holds is now a zombie's:
         refund the lease and fence the old epoch so its late results
         frames are recognisably stale. *)
      refund t s ~reason:"rejoined without the lease intact";
      s.epoch <- next_epoch t;
      Log.info (fun m ->
          m "worker %s rejoined session %s: fenced to epoch %d" h.h_id sid
            s.epoch)
    end
  end;
  s.conn_fd <- Some c.fd;
  s.lost_at <- 0.0;
  c.name <- h.h_id;
  c.state <- `Jobbed s;
  send t c (Wire.Welcome { epoch = s.epoch });
  send t c (Wire.Job t.setup.job)

let reject t c ~reason =
  send t c (Wire.Reject { proto = Wire.proto_version; reason });
  drop_conn t c ~reason

(* ---- message handling ---- *)

let handle_msg t c ~on_run msg =
  let now = Unix.gettimeofday () in
  (* Inter-frame gap EWMA: the pace this peer actually talks at, feeding
     the adaptive heartbeat grace. Seeded by the first gap, then smoothed. *)
  let gap = now -. c.last_seen in
  c.gap_ewma <-
    (if c.gap_ewma <= 0.0 then gap else (0.7 *. c.gap_ewma) +. (0.3 *. gap));
  c.hb_extended <- false;
  c.last_seen <- now;
  match msg with
  | Error e -> lose t c ~reason:("protocol error: " ^ e)
  | Ok (Wire.Hello { proto; id; session; epoch; pending; role }) -> (
      match c.state with
      | `Greeting ->
          if proto <> Wire.proto_version then
            (* One versioned line, then close: an old peer learns why it
               was refused instead of hanging on a silent drop. *)
            reject t c
              ~reason:
                (Printf.sprintf
                   "protocol version %d not supported (this build speaks %d)"
                   proto Wire.proto_version)
          else if not (role = None || role = Some "observer") then
            reject t c
              ~reason:
                (Printf.sprintf "unknown role %S"
                   (Option.value role ~default:""))
          else begin
            c.name <- id;
            let h =
              { h_id = id; h_session = session; h_epoch = epoch;
                h_pending = pending; h_role = role }
            in
            match t.setup.auth with
            | Some _ ->
                let nonce = Wire.gen_nonce () in
                c.state <- `Challenged (nonce, h);
                send t c (Wire.Challenge nonce)
            | None ->
                if h.h_role = Some "observer" then bind_observer t c h
                else bind t c h
          end
      | _ -> lose t c ~reason:"hello out of sequence")
  | Ok (Wire.Auth mac) -> (
      match c.state with
      | `Challenged (nonce, h) ->
          let secret = Option.value t.setup.auth ~default:"" in
          if const_eq (Wire.auth_mac ~secret ~nonce ~session:h.h_session) mac
          then
            if h.h_role = Some "observer" then bind_observer t c h
            else bind t c h
          else reject t c ~reason:"authentication failed"
      | _ -> lose t c ~reason:"auth out of sequence")
  | Ok Wire.Ready -> (
      match c.state with
      | `Jobbed s ->
          c.state <- `Bound s;
          if not s.seen_ready then begin
            s.seen_ready <- true;
            t.workers_seen <- t.workers_seen + 1
          end;
          Log.info (fun m -> m "worker %s ready" c.name)
      | _ -> lose t c ~reason:"ready out of sequence")
  | Ok Wire.Heartbeat -> ()
  | Ok (Wire.Telemetry series) -> (
      (* Advisory metric deltas: fold them into the session's accumulated
         snapshot. Deltas from unbound or observer connections have no
         session to account to and are dropped. *)
      match c.state with
      | `Jobbed s | `Bound s ->
          let prev =
            Option.value (Hashtbl.find_opt t.telemetry s.sid) ~default:[]
          in
          Hashtbl.replace t.telemetry s.sid (Obs.Metrics.merge_delta prev series)
      | _ -> ())
  | Ok (Wire.Failed reason) -> lose t c ~reason:("worker failed: " ^ reason)
  | Ok (Wire.Results { epoch; lease_id; runs }) -> (
      match c.state with
      | `Bound s
        when epoch = s.epoch
             && (match s.lease with
                | Some l -> l.lease_id = lease_id
                | None -> false) -> (
          let l = Option.get s.lease in
          (* Validate the frame covers exactly the leased items before
             ingesting anything: all-or-nothing is what makes re-leases
             duplicate-free. *)
          let by_key =
            List.map (fun it -> (Checkpoint.item_key it, it)) l.lease_items
          in
          let matched =
            List.map
              (fun (r : Wire.run_result) ->
                (List.assoc_opt r.Wire.key by_key, r))
              runs
          in
          if
            List.length runs <> List.length l.lease_items
            || List.exists (fun (it, _) -> it = None) matched
          then lose t c ~reason:"results do not match the lease"
          else begin
            (match t.metrics with
            | Some ms ->
                Obs.Metrics.observe ms.m_rtt
                  (Unix.gettimeofday () -. l.sent_at)
            | None -> ());
            s.lease <- None;
            s.last_settled <- Some (epoch, lease_id);
            t.results <- t.results + 1;
            List.iter
              (fun (it, r) ->
                let item = Option.get it in
                (match (r : Wire.run_result).Wire.payload with
                | Some p -> push t p.Wire.children
                | None -> ());
                on_run ~item r)
              matched
          end)
      | `Bound s when s.last_settled = Some (epoch, lease_id) ->
          (* Duplicate delivery of a frame this session already settled at
             its *current* epoch — a retransmission or an injected wire
             duplicate, not a zombie. Same discard (the first arrival was
             counted, exactly once), separate ledger: dedup is cheaper to
             reason about when it is distinguishable from fencing. *)
          (match t.metrics with
          | Some ms -> Obs.Metrics.incr ms.m_dup_results
          | None -> ());
          Log.warn (fun m ->
              m
                "worker %s: discarding duplicate results frame (epoch %d, \
                 lease %d already ingested for session %s)"
                c.name epoch lease_id s.sid)
      | `Bound s ->
          (* Stale epoch, or a lease this session no longer holds: a fenced
             zombie flushing work that was re-leased at a later epoch. The
             frame arrived whole through the assembler; acknowledge by
             discarding it, never by counting. *)
          (match t.metrics with
          | Some ms -> Obs.Metrics.incr ms.m_fenced
          | None -> ());
          Log.warn (fun m ->
              m
                "worker %s: discarding fenced results frame (epoch %d, lease \
                 %d, %d run(s); session %s is at epoch %d)"
                c.name epoch lease_id (List.length runs) s.sid s.epoch)
      | _ -> lose t c ~reason:"results out of sequence")

(* ---- the event loop ---- *)

let work_remains t =
  (t.frontier <> [] && t.claimed < t.budget)
  || Hashtbl.fold (fun _ s acc -> acc || s.lease <> None) t.sessions false

let live_conns t = List.filter (fun c -> c.alive) t.conns

(* Observers are connections but not workers: they take no leases, send
   no heartbeats, and must not hold off the all-workers-lost verdict. *)
let live_workers t =
  List.filter
    (fun c ->
      c.alive && match c.state with `Observer -> false | _ -> true)
    t.conns

let observers t =
  List.filter
    (fun c ->
      c.alive && match c.state with `Observer -> true | _ -> false)
    t.conns

(* ---- observer progress frames ---- *)

let progress_kvs t now =
  let base =
    [
      ("frontier", string_of_int (List.length t.frontier));
      ("claimed", string_of_int t.claimed);
      ("budget", string_of_int t.budget);
      ("leases", string_of_int t.leases);
      ("results", string_of_int t.results);
      ("workers", string_of_int (List.length (live_workers t)));
      ("uptime_s", Printf.sprintf "%.3f" (now -. t.started));
    ]
  in
  let per_worker =
    Hashtbl.fold
      (fun sid s acc ->
        let v =
          match s.conn_fd with
          | Some fd -> (
              match List.find_opt (fun c -> c.alive && c.fd = fd) t.conns with
              | Some c -> Printf.sprintf "%.3f" (now -. c.last_seen)
              | None -> "lost")
          | None -> "lost"
        in
        (("hb_age." ^ sid), v) :: acc)
      t.sessions []
    |> List.sort compare
  in
  base @ per_worker @ t.progress ()

let progress_interval = 0.5

let stream_progress t now =
  match observers t with
  | [] -> ()
  | obs ->
      if now -. t.last_progress >= progress_interval then begin
        t.last_progress <- now;
        let kvs = progress_kvs t now in
        List.iter (fun c -> send t c (Wire.Progress kvs)) obs
      end

(* Sessions disconnected within the grace window: their leases are still
   honoured and their return is still expected, so an all-workers-lost
   verdict would be premature. *)
let any_in_grace t now =
  Hashtbl.fold
    (fun _ s acc ->
      acc
      || (s.conn_fd = None && s.lost_at > 0.0
         && now -. s.lost_at <= t.setup.rejoin_grace))
    t.sessions false

(* Refund leases whose worker stayed away past the grace window. The
   epoch is NOT bumped here — fencing happens at rebind time, and a
   session that never returns never sends a stale frame. *)
let grace_scan t now =
  Hashtbl.iter
    (fun _ s ->
      if
        s.conn_fd = None && s.lease <> None
        && now -. s.lost_at > t.setup.rejoin_grace
      then refund t s ~reason:"rejoin grace expired")
    t.sessions

let close_all t =
  let farewell =
    match t.finish with `Done -> Wire.Shutdown | `Abort -> Wire.Detach
  in
  List.iter
    (fun c ->
      if c.alive then begin
        (* Drain anything the chaos queue still holds (held or delayed
           frames) so the farewell is not overtaken by stale traffic. *)
        Option.iter (enqueue c ~due:0.0) (Mpi.Fault.Net.release c.net);
        if c.outq <> [] then flush_outq t c infinity;
        if c.alive then raw_write t c (Wire.to_worker_string farewell);
        c.alive <- false;
        Wire.close_quietly c.fd
      end)
    t.conns;
  Option.iter Wire.close_listener t.listener

(* Bring up the connections [setup.attach] describes. A listen failure
   ends the run; an unreachable worker address is only a warning, and
   the run fails later if no worker ever joins. *)
let attach t =
  match t.setup.attach with
  | Fds fds ->
      List.iter (fun fd -> ignore (add_conn t fd)) fds;
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
          | Ok fd -> ignore (add_conn t fd)
          | Error e ->
              Log.warn (fun m ->
                  m "cannot dial %s: %s" (Wire.addr_to_string addr)
                    (Wire.dial_error_message e)))
        addrs;
      Ok ()

let drive t ~on_run ~should_stop ~tick =
  if t.ran then invalid_arg "Coordinator.drive: already ran";
  t.ran <- true;
  (* EPIPE must surface as an exception on write, not kill the process. *)
  Wire.with_sigpipe_ignored @@ fun () ->
  Fun.protect ~finally:(fun () -> close_all t) @@ fun () ->
  let buf = Bytes.create 65536 in
  let rec loop () =
    if should_stop () then Ok ()
    else if not (work_remains t) then begin
      (* Drained (or budget-capped): the exploration is over, workers may
         exit. Any other way out of the loop leaves finish = `Abort, and
         close_all sends [detach] so long-lived workers keep serving. *)
      t.finish <- `Done;
      Ok ()
    end
    else begin
      let now = Unix.gettimeofday () in
      grace_scan t now;
      let live = live_workers t in
      (* Lost everyone (or nobody ever arrived): the frontier still holds
         the unfinished work, so the caller can checkpoint and resume —
         or drain it locally (Explorer's --fallback-local). *)
      if
        live = []
        && (not (any_in_grace t now))
        && (t.workers_seen > 0 || t.listener = None
           || now -. t.started > t.setup.join_timeout)
      then
        Error
          (if t.workers_seen = 0 then "no workers connected"
           else
             Printf.sprintf "all %d worker(s) lost with work remaining"
               t.workers_seen)
      else begin
        List.iter (fun c -> maybe_lease t c) live;
        (* Chaos-queue pump: due delayed frames drain, held (reordered)
           frames release, pending severs cut. A no-op without chaos. *)
        List.iter (fun c -> pump_out t c now) (live_conns t);
        let lfd = Option.map Wire.listener_fd t.listener in
        let fds =
          Option.to_list lfd @ List.map (fun c -> c.fd) (live_conns t)
        in
        List.iter
          (fun fd ->
            if Some fd = lfd then
              Option.iter
                (fun afd -> ignore (add_conn t afd))
                (Option.bind t.listener Wire.accept)
            else
              match List.find_opt (fun c -> c.fd = fd && c.alive) t.conns with
              | None -> ()
              | Some c -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> lose t c ~reason:"connection closed"
                  | n ->
                      let msgs =
                        match t.metrics with
                        | Some { m_wire_io = Some h; _ } ->
                            let t0 = Unix.gettimeofday () in
                            let msgs = Wire.feed c.asm buf n in
                            Obs.Metrics.observe h (Unix.gettimeofday () -. t0);
                            msgs
                        | _ -> Wire.feed c.asm buf n
                      in
                      List.iter (handle_msg t c ~on_run) msgs
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                      ()
                  | exception Unix.Unix_error (e, _, _) ->
                      lose t c ~reason:(Unix.error_message e)))
          (Wire.readable fds 0.2);
        (* Heartbeat scan: a worker silent past the timeout is dead even if
           its socket is technically open (wedged process, dead host). The
           timeout adapts to the link: a peer whose frames already arrive
           with long (but regular) gaps — a slow or shaped link — earns up
           to 4x the configured silence allowance before being declared
           dead, so degradation is not misclassified as death. *)
        let now = Unix.gettimeofday () in
        let base = t.setup.heartbeat_timeout in
        List.iter
          (fun c ->
            let effective =
              if c.gap_ewma <= 0.0 then base
              else Float.min (4.0 *. base) (Float.max base (4.0 *. c.gap_ewma))
            in
            let silent = now -. c.last_seen in
            if c.alive && silent > effective then
              lose t c ~reason:"missed heartbeat"
            else if c.alive && silent > base && not c.hb_extended then begin
              c.hb_extended <- true;
              (match t.metrics with
              | Some ms -> Obs.Metrics.incr ms.m_hb_grace
              | None -> ());
              Log.info (fun m ->
                  m
                    "worker %s: %.2fs silent exceeds the %.2fs heartbeat \
                     timeout, but its link paces at %.2fs/frame — extending \
                     grace to %.2fs"
                    c.name silent base c.gap_ewma effective)
            end)
          (live_workers t);
        stream_progress t now;
        tick ();
        loop ()
      end
    end
  in
  Result.bind (attach t) loop
