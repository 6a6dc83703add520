(* An explicit-state explorer over the coordinator's pure state machine
   (Coord_step.step). Two model workers dial in, take leases over a fixed
   tree of six items and answer them; on the way the environment may drop
   a connection, crash a worker mid-lease, redial inside or after the
   rejoin grace, deliver a results frame twice, flush a zombie's
   stale-epoch frame, send a frame that contradicts its lease, and crash
   the coordinator, which resumes from the last loop-turn checkpoint with
   first_epoch = saved epoch + 1. Every interleaving with up to two
   failures per path is visited (states are deduplicated by value: the
   state is immutable, so branching costs nothing), and on every path:

   - each item is counted exactly once: an item the resumed cut already
     counted is never ingested again, because a cut holds only uncounted
     work;
   - a drained run's totals equal the jobs=1 walk of the tree;
   - no lease is lost: every item is counted or still reachable from the
     coordinator's frontier plus outstanding leases;
   - the walk terminates: no reachable cycle, no stuck state;
   - the state holds no connection after that connection's close;
   - per event, a results frame is ingested only when its epoch and lease
     id are its session's current ones and its runs name exactly the
     leased items. *)

module Step = Dampi.Coord_step
module Checkpoint = Dampi.Checkpoint
module Wire = Dampi.Wire

(* ---- the item tree ---- *)

let item ?parent i =
  let prefix =
    match parent with
    | None -> []
    | Some (p : Checkpoint.item) -> p.Checkpoint.prefix @ [ p.Checkpoint.choice ]
  in
  let choice =
    { Dampi.Decisions.owner = 0; epoch_id = i; src = 1; kind = Dampi.Epoch.Wildcard_recv }
  in
  Checkpoint.make_item ~prefix ~choice ~sleep:[] ()

let id_of (it : Checkpoint.item) = it.Checkpoint.choice.Dampi.Decisions.epoch_id

(* 1 → {3 → {6}, 4}, 2 → {5} *)
let children it =
  List.map (fun i -> item ~parent:it i)
    (match id_of it with 1 -> [ 3; 4 ] | 2 -> [ 5 ] | 3 -> [ 6 ] | _ -> [])

let roots = [ item 1; item 2 ]
let key = Checkpoint.item_key
let sorted_keys l = List.sort compare l

let run_of it =
  let vtime = float_of_int (1 lsl id_of it) and children = children it in
  {
    Wire.key = key it;
    payload = Some { Wire.vtime; bounded = id_of it; pruned = 0; errors = []; children };
    timeouts = 0;
    retries = 0;
    transients = 0;
  }

(* (runs, vtime, bounded) *)
type totals = int * float * int

let add (n, v, b) (r : Wire.run_result) =
  match r.Wire.payload with
  | Some p -> (n + 1, v +. p.Wire.vtime, b + p.Wire.bounded)
  | None -> (n + 1, v, b)

let rec walk acc it = List.fold_left walk (add acc (run_of it)) (children it)
let jobs1 = List.fold_left walk (0, 0.0, 0) roots
let rec reach acc it = List.fold_left reach (key it :: acc) (children it)
let all_keys = List.fold_left reach [] roots

(* ---- the model ---- *)

let secret = "model secret"

let cfg =
  {
    Step.job = { Wire.workload = "model"; np = 2; params = [] };
    lease_size = 2;
    heartbeat_timeout = 100.0;
    join_timeout = 100.0;
    rejoin_grace = 1.5;
    auth = Some secret;
    budget = 100;
    listening = true;
  }

type worker = {
  sid : string;
  conn : int option;
  epoch : int;  (* last welcome *)
  held : (int * int * Checkpoint.item list) list;
      (* leases received and not yet answered: (grant epoch, id, items) *)
  sent : Wire.to_coord option;  (* last results frame, for a re-send *)
  crashed : bool;
}

(* A checkpoint taken at a loop-turn boundary. *)
type cut = {
  c_frontier : Checkpoint.item list;
  c_completed : string list;
  c_totals : totals;
  c_epoch : int;
}

type fault = Drop | Crash | Dup | Garble | Restart

type model = {
  co : Step.state;
  now : float;
  next_conn : int;
  ws : worker list;
  resumed : string list;  (* keys counted before the cut this life resumed *)
  counted : string list;  (* keys counted in this life *)
  totals : totals;
  cut : cut;
  used : fault list;  (* each kind at most once per path *)
}

exception Violation of string

let violate fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let cut_of m =
  {
    c_frontier = Step.snapshot m.co;
    c_completed = sorted_keys (m.resumed @ m.counted);
    c_totals = m.totals;
    c_epoch = Step.current_epoch m.co;
  }

let no_cut = { c_frontier = []; c_completed = []; c_totals = (0, 0.0, 0); c_epoch = 0 }

let initial =
  let co = Step.push (Step.init cfg ~first_epoch:1 ~now:0.0) roots in
  let w sid = { sid; conn = None; epoch = 0; held = []; sent = None; crashed = false } in
  let m =
    { co; now = 0.0; next_conn = 1; ws = [ w "w0"; w "w1" ]; resumed = [];
      counted = []; totals = (0, 0.0, 0); cut = no_cut; used = [] }
  in
  { m with cut = cut_of m }

let update m sid f = { m with ws = List.map (fun w -> if w.sid = sid then f w else w) m.ws }
let on_conn m c = List.find_opt (fun w -> w.conn = Some c) m.ws
let ingests = List.exists (function Step.Ingest _ -> true | _ -> false)

let count m ((it : Checkpoint.item), (r : Wire.run_result)) =
  let k = r.Wire.key in
  if key it <> k then violate "run %s paired with item %s" k (key it);
  if List.mem k m.resumed then violate "item %s counted before the cut, again after" k
  else if List.mem k m.counted then violate "item %s counted twice" k
  else { m with counted = k :: m.counted; totals = add m.totals r }

(* Per-event postconditions, stated against the state before the event. *)
let check_event (pre : Step.state) ev (post : Step.state) acts =
  List.iter
    (function
      | Step.Close (c, _) when List.mem_assoc c post.Step.conns ->
          violate "connection %d survives its close" c
      | _ -> ())
    acts;
  match ev with
  | Step.Frame { conn; msg = Ok (Wire.Results { epoch; lease_id; runs }); _ }
    when ingests acts -> (
      let current =
        Option.bind (Step.session_of pre conn) (fun sid ->
            let s = List.assoc sid pre.Step.sessions in
            if s.Step.epoch = epoch then s.Step.lease else None)
      in
      let run_keys = List.map (fun (r : Wire.run_result) -> r.Wire.key) runs in
      match current with
      | Some l
        when l.Step.lease_id = lease_id
             && sorted_keys run_keys = sorted_keys (List.map key l.Step.items) ->
          ()
      | _ ->
          violate "ingested results (epoch %d, lease %d) that are not the current lease"
            epoch lease_id)
  | Step.Closed { conn; _ } when List.mem_assoc conn post.Step.conns ->
      violate "connection %d survives its close" conn
  | _ -> ()

(* A model worker's answer to one frame the coordinator sent it: a reply
   frame, or a change to the worker. *)
let receive m (w : worker) c msg =
  let frame msg = [ Step.Frame { conn = c; now = m.now; msg = Ok msg } ] in
  match msg with
  | Wire.Challenge nonce -> (m, frame (Wire.Auth (Wire.auth_mac ~secret ~nonce ~session:w.sid)))
  | Wire.Welcome { epoch } -> (update m w.sid (fun w -> { w with epoch }), [])
  | Wire.Job _ -> (m, frame Wire.Ready)
  | Wire.Lease { lease_id; items } ->
      (update m w.sid (fun w -> { w with held = w.held @ [ (w.epoch, lease_id, items) ] }), [])
  | Wire.Reject _ | Wire.Progress _ | Wire.Detach | Wire.Shutdown -> (m, [])

(* Feed events in order; model workers answer what the coordinator sends. *)
let rec run m = function
  | [] -> m
  | ev :: rest ->
      let pre = m.co in
      let co, acts = Step.step pre ev in
      let act (m, replies) = function
        | Step.Ingest { runs; _ } -> (List.fold_left count m runs, replies)
        | Step.Close (c, _) -> (
            match on_conn m c with
            | Some w -> (update m w.sid (fun w -> { w with conn = None }), replies)
            | None -> (m, replies))
        | Step.Send (c, msg) -> (
            match on_conn m c with
            | Some w ->
                let m, more = receive m w c msg in
                (m, replies @ more)
            | None -> (m, replies))
      in
      let m, replies = List.fold_left act ({ m with co }, []) acts in
      check_event pre ev co acts;
      run m (rest @ replies)

(* ---- transitions ---- *)

type next = Next of model | Drained of model | Lost of model

(* One loop turn at [now]: the shell's checkpoint, then the tick and the
   verdict. A turn that changes nothing is not a transition. *)
let turn ~norm m0 now =
  let m = { m0 with now; cut = cut_of m0 } in
  let m' = norm (run m [ Step.Tick { now; ready = List.map fst m.co.Step.conns } ]) in
  match Step.verdict m'.co ~now with
  | Some (Ok ()) -> Some (Drained m')
  | Some (Error _) -> Some (Lost m')
  | None -> if m' = m0 then None else Some (Next m')

let can ~max_faults m f = List.length m.used < max_faults && not (List.mem f m.used)

(* Forget what no remaining fault can use, so equal futures share a state:
   the checkpoint once the coordinator can no longer crash, the last
   results frame once it can no longer be re-sent. *)
let normalize ~max_faults m =
  let m = { m with used = List.sort compare m.used } in
  let m = if can ~max_faults m Restart then m else { m with cut = no_cut } in
  if can ~max_faults m Dup then m
  else { m with ws = List.map (fun w -> { w with sent = None }) m.ws }

(* A worker's moves while connected on [c]: answer (or garble) a held
   lease, lose the link, crash, or re-send its last results frame. *)
let connected ~fault ~next m w c =
  let send msg m = run m [ Step.Frame { conn = c; now = m.now; msg = Ok msg } ] in
  let closed m =
    run (update m w.sid (fun w -> { w with conn = None })) [ Step.Closed { conn = c; now = m.now } ]
  in
  let without h m = update m w.sid (fun w -> { w with held = List.filter (( <> ) h) w.held }) in
  let per_lease ((epoch, lease_id, items) as h) =
    let frame runs = Wire.Results { epoch; lease_id; runs } in
    let answer = frame (List.map run_of items) in
    let answered m = update (without h m) w.sid (fun w -> { w with sent = Some answer }) in
    ( Printf.sprintf "%s answers lease %d@%d" w.sid lease_id epoch,
      fun () -> next (send answer (answered m)) )
    ::
    (match items with
    | a :: _ :: _ ->
        fault Garble (Printf.sprintf "%s garbles lease %d" w.sid lease_id) (fun m ->
            send (frame [ run_of a; run_of a ]) (without h m))
    | _ -> [])
  in
  let crash m = closed (update m w.sid (fun w -> { w with held = []; crashed = true })) in
  List.concat_map per_lease w.held
  @ fault Drop ("drop " ^ w.sid) closed
  @ (if w.held = [] || List.exists (fun w -> w.crashed) m.ws then []
     else fault Crash ("crash " ^ w.sid) crash)
  @ match w.sent with Some frame -> fault Dup ("re-send " ^ w.sid) (send frame) | None -> []

(* Dial, hello (naming the lease it still works on), auth, ready. *)
let dial ~next m w =
  let c = m.next_conn in
  let pending = List.find_map (fun (e, id, _) -> if e = w.epoch then Some id else None) w.held in
  let hello =
    Wire.Hello
      { proto = Wire.proto_version; id = w.sid; session = w.sid; epoch = w.epoch; pending;
        role = None }
  in
  let go () =
    let m = update { m with next_conn = c + 1 } w.sid (fun w -> { w with conn = Some c }) in
    next
      (run m
         [
           Step.Opened { conn = c; now = m.now; nonce = Printf.sprintf "n%d" c };
           Step.Frame { conn = c; now = m.now; msg = Ok hello };
         ])
  in
  [ ("dial " ^ w.sid, go) ]

(* The coordinator dies; a new one resumes from the last cut, fencing
   every epoch the dead one may have granted up to the cut. *)
let restart m =
  let c = m.cut in
  {
    m with
    co = Step.push (Step.init cfg ~first_epoch:(c.c_epoch + 1) ~now:m.now) c.c_frontier;
    ws = List.map (fun w -> { w with conn = None }) m.ws;
    resumed = c.c_completed;
    counted = [];
    totals = c.c_totals;
  }

(* Every transition out of [m], each a label and a thunk: [None] when it
   turns out to change nothing (an idle tick). *)
let successors ~max_faults m =
  let norm = normalize ~max_faults in
  let next m = Some (Next (norm m)) in
  let fault f label k =
    if can ~max_faults m f then [ (label, fun () -> next (k { m with used = f :: m.used })) ]
    else []
  in
  let per_worker w =
    match w.conn with
    | _ when w.crashed -> []
    | None -> dial ~next m w
    | Some c -> connected ~fault ~next m w c
  in
  (* Time matters only to a lease still inside its grace. *)
  let waiting (_, (s : Step.session)) =
    match (s.lost_at, s.lease) with
    | Some t, Some _ -> m.now -. t <= cfg.rejoin_grace
    | _ -> false
  in
  [ ("tick", fun () -> turn ~norm m m.now) ]
  @ (if List.exists waiting m.co.Step.sessions then
       [ ("advance 1s", fun () -> turn ~norm m (m.now +. 1.0)) ]
     else [])
  @ List.concat_map per_worker m.ws
  @ fault Restart "coordinator crash" restart

(* ---- invariants ---- *)

let check_state m =
  let done_ = m.resumed @ m.counted in
  let pending = List.fold_left reach [] (Step.snapshot m.co) in
  List.iter
    (fun k -> if not (List.mem k done_ || List.mem k pending) then violate "item %s was lost" k)
    all_keys;
  let open_ = List.sort compare (List.map fst m.co.Step.conns) in
  if open_ <> List.sort compare (List.filter_map (fun w -> w.conn) m.ws) then
    violate "the state holds a connection its worker no longer has";
  List.iter
    (fun (sid, (s : Step.session)) ->
      match s.bound with
      | Some c when not (List.mem c open_) ->
          violate "session %s is bound to closed connection %d" sid c
      | _ -> ())
    m.co.Step.sessions

let check_drained m =
  if Step.snapshot m.co <> [] then violate "drained with work outstanding";
  List.iter
    (fun k ->
      if not (List.mem k (m.resumed @ m.counted)) then violate "drained without counting %s" k)
    all_keys;
  if m.totals <> jobs1 then violate "totals differ from the jobs=1 walk"

type stats = {
  mutable states : int;
  mutable drained : int;
  mutable lost : int;
  mutable fenced : int;
  mutable dups : int;
  mutable refunds : int;
  mutable resumed_intact : int;
}

(* Depth-first over every reachable state; a state met again while still
   on the path is a cycle. *)
let explore ~max_faults =
  let color : (Digest.t, [ `Open | `Done ]) Hashtbl.t = Hashtbl.create 65536 in
  let st =
    { states = 0; drained = 0; lost = 0; fenced = 0; dups = 0; refunds = 0; resumed_intact = 0 }
  in
  let ends (co : Step.state) =
    if co.fenced > 0 then st.fenced <- st.fenced + 1;
    if co.dup_results > 0 then st.dups <- st.dups + 1;
    if co.releases > 0 then st.refunds <- st.refunds + 1;
    if co.reconnects > 0 && co.releases = 0 then st.resumed_intact <- st.resumed_intact + 1
  in
  let rec visit path m =
    let k = Digest.string (Marshal.to_string m [ Marshal.No_sharing ]) in
    match Hashtbl.find_opt color k with
    | Some `Open -> violate "a cycle: this path need not terminate%s" (trace path)
    | Some `Done -> ()
    | None ->
        Hashtbl.replace color k `Open;
        st.states <- st.states + 1;
        let moved (label, next) =
          let path = label :: path in
          let within f = try f () with Violation v -> raise (Violation (v ^ trace path)) in
          match within next with
          | None -> false
          | Some (Next m') ->
              visit path m';
              true
          | Some (Drained m') ->
              st.drained <- st.drained + 1;
              ends m'.co;
              within (fun () -> check_state m'; check_drained m');
              true
          | Some (Lost m') ->
              st.lost <- st.lost + 1;
              within (fun () -> check_state m');
              true
        in
        (try check_state m with Violation v -> raise (Violation (v ^ trace path)));
        if List.filter moved (successors ~max_faults m) = [] then
          violate "stuck: nothing can happen and the run is not over%s" (trace path);
        Hashtbl.replace color k `Done
  and trace path = "\n  after: " ^ String.concat "; " (List.rev path) in
  (try visit [] initial with Violation v -> Alcotest.fail v);
  st

(* ---- tests ---- *)

let test_exhaustive ~max_faults () =
  let t0 = Unix.gettimeofday () in
  let st = explore ~max_faults in
  Printf.printf "max %d fault(s): %d states, %d drained ends, %d lost ends (%.2fs)\n%!"
    max_faults st.states st.drained st.lost (Unix.gettimeofday () -. t0);
  Alcotest.(check bool) "some path drains" true (st.drained > 0);
  if max_faults > 0 then begin
    Alcotest.(check bool) "some path fences a stale frame" true (st.fenced > 0);
    Alcotest.(check bool) "some path discards a duplicate" true (st.dups > 0);
    Alcotest.(check bool) "some path refunds a lease" true (st.refunds > 0);
    Alcotest.(check bool) "some path resumes a lease intact" true (st.resumed_intact > 0)
  end

let frame c now msg = Step.Frame { conn = c; now; msg = Ok msg }

let hello ~epoch ~pending =
  Wire.Hello
    { proto = Wire.proto_version; id = "w"; session = "w"; epoch; pending; role = None }

let feed co evs =
  List.fold_left
    (fun (co, acts) ev ->
      let co, a = Step.step co ev in
      (co, acts @ a))
    (co, []) evs

(* One worker admitted on connection 1 at t = 0 (no auth), holding a lease
   of both roots. *)
let leased () =
  let co = Step.push (Step.init { cfg with auth = None } ~first_epoch:1 ~now:0.0) roots in
  let co, _ =
    feed co
      [
        Step.Opened { conn = 1; now = 0.0; nonce = "" };
        frame 1 0.0 (hello ~epoch:0 ~pending:None);
        frame 1 0.0 Wire.Ready;
      ]
  in
  match feed co [ Step.Tick { now = 0.0; ready = [ 1 ] } ] with
  | co, [ Step.Send (1, Wire.Lease { lease_id; items = [ _; _ ] as items }) ] ->
      (co, lease_id, items)
  | _ -> Alcotest.fail "expected one lease of two items"

(* A results frame that repeats one leased key and leaves out the other
   is not ingested: the connection goes, and the lease comes back after
   the grace. *)
let test_results_must_match_lease () =
  let co, lease_id, items = leased () in
  let a = List.hd items in
  let co, acts =
    feed co [ frame 1 0.0 (Wire.Results { epoch = 1; lease_id; runs = [ run_of a; run_of a ] }) ]
  in
  Alcotest.(check bool) "nothing ingested" false (ingests acts);
  Alcotest.(check bool) "the connection is closed" true
    (List.mem (Step.Close (1, "results do not match the lease")) acts);
  Alcotest.(check (list int)) "no connection left" [] (List.map fst co.Step.conns);
  let co, _ = feed co [ Step.Tick { now = 2.0; ready = [] } ] in
  Alcotest.(check (list string))
    "both items back in the frontier" (sorted_keys (List.map key items))
    (sorted_keys (List.map key co.Step.frontier))

(* A session lost at t = 0 is inside its grace at t = 0: the lease is
   held, the run is not given up, and a redial with the lease resumes it. *)
let test_lost_at_time_zero () =
  let co, lease_id, items = leased () in
  let co, _ =
    feed co [ Step.Closed { conn = 1; now = 0.0 }; Step.Tick { now = 0.0; ready = [] } ]
  in
  Alcotest.(check bool) "no verdict inside the grace" true (Step.verdict co ~now:0.0 = None);
  Alcotest.(check int) "frontier still empty" 0 (List.length co.Step.frontier);
  let co, acts =
    feed co
      [
        Step.Opened { conn = 2; now = 0.0; nonce = "" };
        frame 2 0.0 (hello ~epoch:1 ~pending:(Some lease_id));
        frame 2 0.0 Wire.Ready;
        frame 2 0.0 (Wire.Results { epoch = 1; lease_id; runs = List.map run_of items });
      ]
  in
  Alcotest.(check int) "no refund" 0 co.Step.releases;
  Alcotest.(check bool) "the resumed lease is ingested" true (ingests acts)

let () =
  Alcotest.run "coordinator model"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "no faults" `Quick (test_exhaustive ~max_faults:0);
          Alcotest.test_case "up to two faults per path" `Quick
            (test_exhaustive ~max_faults:2);
        ] );
      ( "directed",
        [
          Alcotest.test_case "results must match the lease" `Quick
            test_results_must_match_lease;
          Alcotest.test_case "lost at t = 0 is inside the grace" `Quick
            test_lost_at_time_zero;
        ] );
    ]
