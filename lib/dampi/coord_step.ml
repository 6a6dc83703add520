(* The coordinator's lease, session, fencing, rejoin-grace and refund rules
   as a pure state machine; see coord_step.mli. Nothing here reads a clock,
   touches a socket, draws a nonce or records a metric: events carry their
   time, the shell supplies each connection's nonce, and the state counts
   what the shell publishes. Handlers take [emit], which collects the
   step's actions in order. *)

type config = {
  job : Wire.job;
  lease_size : int;
  heartbeat_timeout : float;
  join_timeout : float;
  rejoin_grace : float;
  auth : string option;
  budget : int;
  listening : bool;
}

type lease = { lease_id : int; items : Checkpoint.item list; sent_at : float }

type session = {
  sid : string;
  epoch : int;
  lease : lease option;
  bound : int option;
  lost_at : float option;
  seen_ready : bool;
  last_settled : (int * int) option;
}

type hello = {
  h_id : string;
  h_session : string;
  h_epoch : int;
  h_pending : int option;
  h_observer : bool;
}

type phase =
  | Greeting of string
  | Challenged of string * hello
  | Jobbed of string
  | Bound of string
  | Observer

type conn = { name : string; phase : phase; last_seen : float }

type state = {
  cfg : config;
  started : float;
  frontier : Checkpoint.item list;
  claimed : int;
  conns : (int * conn) list;
  sessions : (string * session) list;
  next_epoch : int;
  next_lease : int;
  anon : int;
  workers_seen : int;
  leases : int;
  results : int;
  releases : int;
  reconnects : int;
  fenced : int;
  dup_results : int;
  backpressure : int;
}

type event =
  | Opened of { conn : int; now : float; nonce : string }
  | Frame of { conn : int; now : float; msg : (Wire.to_coord, string) result }
  | Closed of { conn : int; now : float }
  | Tick of { now : float; ready : int list }

type action =
  | Send of int * Wire.to_worker
  | Close of int * string
  | Ingest of { runs : (Checkpoint.item * Wire.run_result) list; rtt : float }

let init cfg ~first_epoch ~now =
  { cfg; started = now; frontier = []; claimed = 0; conns = []; sessions = [];
    next_epoch = max 1 first_epoch; next_lease = 0; anon = 0; workers_seen = 0;
    leases = 0; results = 0; releases = 0; reconnects = 0; fenced = 0;
    dup_results = 0; backpressure = 0 }

let push st items = { st with frontier = items @ st.frontier }

let snapshot st =
  let leased (_, s) = match s.lease with Some l -> l.items | None -> [] in
  st.frontier @ List.concat_map leased st.sessions

let current_epoch st = st.next_epoch - 1

let session_of st id =
  match List.assoc_opt id st.conns with
  | Some { phase = Jobbed sid | Bound sid; _ } -> Some sid
  | _ -> None

(* Observers are connections but not workers: they take no leases, send
   no heartbeats, and must not hold off the all-workers-lost verdict. *)
let is_worker (_, c) = c.phase <> Observer

let verdict st ~now =
  let leased = List.exists (fun (_, s) -> s.lease <> None) st.sessions in
  (* A session lost within the grace window still has its return expected. *)
  let in_grace (_, s) =
    match s.lost_at with Some t -> now -. t <= st.cfg.rejoin_grace | None -> false
  in
  if not ((st.frontier <> [] && st.claimed < st.cfg.budget) || leased) then Some (Ok ())
  else if List.exists is_worker st.conns || List.exists in_grace st.sessions then None
  else if
    st.workers_seen > 0 || (not st.cfg.listening)
    || now -. st.started > st.cfg.join_timeout
  then
    (* Lost everyone (or nobody ever arrived): the frontier still holds the
       unfinished work, so the caller can checkpoint and resume it. *)
    Some
      (Error
         (if st.workers_seen = 0 then "no workers connected"
          else
            Printf.sprintf "all %d worker(s) lost with work remaining"
              st.workers_seen))
  else None

(* ---- state edits ---- *)

let replace k v l =
  if List.mem_assoc k l then List.map (fun (k', v') -> (k', if k' = k then v else v')) l
  else l @ [ (k, v) ]

let set_session s st = { st with sessions = replace s.sid s st.sessions }
let set_conn id c st = { st with conns = replace id c st.conns }
let session st sid = List.assoc sid st.sessions

(* Return a session's leased items to the frontier for another worker. *)
let refund s st =
  match s.lease with
  | None -> st
  | Some l ->
      let n = List.length l.items in
      set_session { s with lease = None }
        { st with frontier = l.items @ st.frontier; claimed = st.claimed - n;
                  releases = st.releases + n }

(* A connection is gone. Its session keeps the lease for the rejoin grace;
   the tick refunds it if the worker stays away. *)
let lose id ~now st =
  match List.assoc_opt id st.conns with
  | None -> st
  | Some c -> (
      let st = { st with conns = List.remove_assoc id st.conns } in
      match c.phase with
      | Jobbed sid | Bound sid when (session st sid).bound = Some id ->
          set_session { (session st sid) with bound = None; lost_at = Some now } st
      | _ -> st)

let close ~emit id reason ~now st =
  emit (Close (id, reason));
  lose id ~now st

let reject ~emit id reason ~now st =
  emit (Send (id, Wire.Reject { proto = Wire.proto_version; reason }));
  close ~emit id reason ~now st

(* ---- admission ---- *)

let const_eq a b =
  String.length a = String.length b
  &&
  let d = ref 0 in
  String.iteri (fun i c -> d := !d lor (Char.code c lxor Char.code b.[i])) a;
  !d = 0

(* Bind a worker connection to its session, deciding between lease
   resumption and fencing. *)
let bind ~emit id c h st =
  let st, sid =
    if h.h_session <> "" then (st, h.h_session)
    else ({ st with anon = st.anon + 1 }, Printf.sprintf "anon%d" (st.anon + 1))
  in
  let st, s =
    match List.assoc_opt sid st.sessions with
    | None ->
        ( { st with next_epoch = st.next_epoch + 1 },
          { sid; epoch = st.next_epoch; lease = None; bound = None; lost_at = None;
            seen_ready = false; last_settled = None } )
    | Some s ->
        (* A connection still bound to this session is a stale duplicate
           (the worker redialed before its EOF was read): supersede it,
           keeping the lease with the session. *)
        Option.iter (fun old -> emit (Close (old, "superseded by reconnect"))) s.bound;
        let st =
          { st with reconnects = st.reconnects + 1;
                    conns = List.filter (fun (id, _) -> Some id <> s.bound) st.conns }
        in
        let intact =
          match (s.lease, h.h_pending) with
          | Some l, Some p -> h.h_epoch = s.epoch && p = l.lease_id
          | _ -> false
        in
        if intact then (st, s)
        else
          (* Anything the previous incarnation still holds is now a zombie's:
             refund the lease and fence the old epoch so its late results
             frames are recognisably stale. *)
          let st = refund s st in
          ( { st with next_epoch = st.next_epoch + 1 },
            { (session st sid) with epoch = st.next_epoch } )
  in
  let s = { s with bound = Some id; lost_at = None } in
  emit (Send (id, Wire.Welcome { epoch = s.epoch }));
  emit (Send (id, Wire.Job st.cfg.job));
  set_session s st |> set_conn id { c with phase = Jobbed sid }

(* Observers get a welcome and then the shell's progress frames: no
   session, no job, no lease, so they cannot perturb the exploration. *)
let admit ~emit id c h st =
  if h.h_observer then begin
    emit (Send (id, Wire.Welcome { epoch = 0 }));
    set_conn id { c with phase = Observer } st
  end
  else bind ~emit id c h st

(* ---- results ---- *)

let on_results ~emit id sid ~now (epoch, lease_id, runs) st =
  let s = session st sid in
  match s.lease with
  | Some l when epoch = s.epoch && l.lease_id = lease_id ->
      (* All-or-nothing, which is what makes re-leases duplicate-free: the
         frame's runs must name exactly the leased items, each once. *)
      let keyed = List.map (fun it -> (Checkpoint.item_key it, it)) l.items in
      let keys = List.map (fun (r : Wire.run_result) -> r.Wire.key) runs in
      if List.sort compare keys <> List.sort compare (List.map fst keyed) then
        close ~emit id "results do not match the lease" ~now st
      else begin
        let pair (r : Wire.run_result) = (List.assoc r.Wire.key keyed, r) in
        emit (Ingest { runs = List.map pair runs; rtt = now -. l.sent_at });
        let frontier =
          List.fold_left
            (fun fr (r : Wire.run_result) ->
              match r.Wire.payload with Some p -> p.Wire.children @ fr | None -> fr)
            st.frontier runs
        in
        set_session
          { s with lease = None; last_settled = Some (epoch, lease_id) }
          { st with frontier; results = st.results + 1 }
      end
  | _ when s.last_settled = Some (epoch, lease_id) ->
      (* A second arrival of a frame this session already settled at its
         current epoch: duplicate delivery, not a zombie. Discarded like a
         fenced frame, but counted apart. *)
      { st with dup_results = st.dup_results + 1 }
  | _ ->
      (* Stale epoch, or a lease this session no longer holds: a fenced
         zombie flushing work that was re-leased. Discard, never count. *)
      { st with fenced = st.fenced + 1 }

let on_frame ~emit id ~now msg st =
  match List.assoc_opt id st.conns with
  | None -> st  (* read after the connection was closed *)
  | Some c -> (
      let c = { c with last_seen = now } in
      let st = set_conn id c st in
      let close reason = close ~emit id reason ~now st in
      let reject reason = reject ~emit id reason ~now st in
      match (msg, c.phase) with
      | Error e, _ -> close ("protocol error: " ^ e)
      | Ok (Wire.Hello { proto; id = name; session; epoch; pending; role }),
        Greeting nonce ->
          if proto <> Wire.proto_version then
            reject
              (Printf.sprintf
                 "protocol version %d not supported (this build speaks %d)" proto
                 Wire.proto_version)
          else if not (role = None || role = Some "observer") then
            reject (Printf.sprintf "unknown role %S" (Option.value role ~default:""))
          else
            let c = { c with name } in
            let h =
              { h_id = name; h_session = session; h_epoch = epoch; h_pending = pending;
                h_observer = role <> None }
            in
            if st.cfg.auth = None then admit ~emit id c h st
            else begin
              emit (Send (id, Wire.Challenge nonce));
              set_conn id { c with phase = Challenged (nonce, h) } st
            end
      | Ok (Wire.Hello _), _ -> close "hello out of sequence"
      | Ok (Wire.Auth mac), Challenged (nonce, h) ->
          let secret = Option.value st.cfg.auth ~default:"" in
          if const_eq (Wire.auth_mac ~secret ~nonce ~session:h.h_session) mac then
            admit ~emit id c h st
          else reject "authentication failed"
      | Ok (Wire.Auth _), _ -> close "auth out of sequence"
      | Ok Wire.Ready, Jobbed sid ->
          let st = set_conn id { c with phase = Bound sid } st in
          let s = session st sid in
          if s.seen_ready then st
          else
            set_session { s with seen_ready = true }
              { st with workers_seen = st.workers_seen + 1 }
      | Ok Wire.Ready, _ -> close "ready out of sequence"
      | Ok (Wire.Heartbeat | Wire.Telemetry _), _ -> st
      | Ok (Wire.Failed reason), _ -> close ("worker failed: " ^ reason)
      | Ok (Wire.Results { epoch; lease_id; runs }), Bound sid ->
          on_results ~emit id sid ~now (epoch, lease_id, runs) st
      | Ok (Wire.Results _), _ -> close "results out of sequence")

(* ---- the tick ---- *)

let rec take n acc = function
  | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
  | rest -> (List.rev acc, rest)

let lease_to ~emit ~now ~ready st (id, c) =
  match c.phase with
  | Bound sid
    when (session st sid).lease = None && st.frontier <> []
         && st.claimed < st.cfg.budget ->
      if not (List.mem id ready) then
        (* Backpressure: this link is backed up past its write budget; the
           items stay in the frontier for a less congested worker. *)
        { st with backpressure = st.backpressure + 1 }
      else
        let items, frontier =
          take (min st.cfg.lease_size (st.cfg.budget - st.claimed)) [] st.frontier
        in
        let lease = { lease_id = st.next_lease; items; sent_at = now } in
        emit (Send (id, Wire.Lease { lease_id = lease.lease_id; items }));
        set_session
          { (session st sid) with lease = Some lease }
          { st with frontier; claimed = st.claimed + List.length items;
                    next_lease = st.next_lease + 1; leases = st.leases + 1 }
  | _ -> st

let on_tick ~emit ~now ~ready st =
  (* A worker silent past the timeout is dead even if its socket is
     technically open (wedged process, dead host). *)
  let st =
    List.fold_left
      (fun st ((id, c) as conn) ->
        if is_worker conn && now -. c.last_seen > st.cfg.heartbeat_timeout then
          close ~emit id "missed heartbeat" ~now st
        else st)
      st st.conns
  in
  (* Refund leases whose worker stayed away past the grace window. The
     epoch is not bumped here: fencing happens at rebind time, and a
     session that never returns never sends a stale frame. *)
  let st =
    List.fold_left
      (fun st (_, s) ->
        match s.lost_at with
        | Some t when now -. t > st.cfg.rejoin_grace -> refund s st
        | _ -> st)
      st st.sessions
  in
  List.fold_left (lease_to ~emit ~now ~ready) st st.conns

let step st ev =
  let out = ref [] in
  let emit a = out := a :: !out in
  let st =
    match ev with
    | Opened { conn; now; nonce } ->
        set_conn conn { name = "?"; phase = Greeting nonce; last_seen = now } st
    | Frame { conn; now; msg } -> on_frame ~emit conn ~now msg st
    | Closed { conn; now } -> lose conn ~now st
    | Tick { now; ready } -> on_tick ~emit ~now ~ready st
  in
  (st, List.rev !out)
