(** The simulated MPI runtime.

    Ranks execute as deterministic coroutines ({!Sim.Coroutine}); every MPI
    operation below runs in the context of the "current" process. Message
    transfer is eager: a send deposits its envelope at the destination
    mailbox immediately in scheduler order, while virtual timestamps carry
    the cost model ({!Sim.Vtime}). The combination gives a runtime that is

    - {e deterministic}: same program, same oracle, same schedule — the
      property DAMPI's stateless replay relies on;
    - {e biased}: wildcard receives resolve to whatever the (deterministic)
      default oracle picks, mirroring how a production MPI library biases
      non-deterministic outcomes (the paper's §I motivation);
    - {e observable}: deadlock (global quiescence), operation statistics,
      and resource leaks are all surfaced to the verification layers. *)

module Coroutine = Sim.Coroutine
module Vtime = Sim.Vtime

type cost_model = {
  local_op : float;  (** CPU cost of posting any MPI operation *)
  latency : float;  (** point-to-point wire latency *)
  per_byte : float;  (** per-byte transfer cost *)
  coll_base : float;  (** base cost of a collective *)
  coll_per_log : float;  (** additional collective cost per log2(size) *)
}

let default_cost =
  {
    local_op = 1e-7;
    latency = 2e-6;
    per_byte = 1e-9;
    coll_base = 4e-6;
    coll_per_log = 2e-6;
  }

(** Match oracle: picks among the per-source candidate envelopes of a
    wildcard receive or probe. Called only when two or more candidates
    exist. The default picks the earliest arrival — the "native MPI bias". *)
type oracle = Envelope.t list -> Envelope.t

let default_oracle = function
  | [] -> invalid_arg "oracle: no candidates"
  | env :: _ -> env

(* Per-communicator rendezvous slot for collectives. *)
type coll_slot = {
  mutable op_name : string;
  mutable arrivals : (int * Payload.t * float) list;  (* rank, contrib, time *)
  mutable results : Payload.t array;
  mutable gen : int;  (* completed generations *)
}

type comm_record = { comm : Comm.t; coll : coll_slot }

(** Optional execution trace: one entry per interesting runtime event, in
    scheduler order. Virtual timestamps are the acting process's clock. *)
type event =
  | Ev_send of {
      t : float;
      src : int;
      dst : int;
      tag : int;
      ctx : int;
      bytes : int;
      sync : bool;
    }
  | Ev_recv_post of { t : float; pid : int; src : int; tag : int; ctx : int }
  | Ev_match of { t : float; src : int; dst : int; tag : int; ctx : int }
  | Ev_collective of { t : float; name : string; ctx : int; size : int }

let pp_event ppf = function
  | Ev_send { t; src; dst; tag; ctx; bytes; sync } ->
      Format.fprintf ppf "%.6f  %ssend   %d -> %d  tag=%d ctx=%d (%dB)" t
        (if sync then "s" else " ")
        src dst tag ctx bytes
  | Ev_recv_post { t; pid; src; tag; ctx } ->
      Format.fprintf ppf "%.6f   recv   %d <- %s  tag=%s ctx=%d" t pid
        (if src = Types.any_source then "*" else string_of_int src)
        (if tag = Types.any_tag then "*" else string_of_int tag)
        ctx
  | Ev_match { t; src; dst; tag; ctx } ->
      Format.fprintf ppf "%.6f   match  %d -> %d  tag=%d ctx=%d" t src dst tag
        ctx
  | Ev_collective { t; name; ctx; size } ->
      Format.fprintf ppf "%.6f   coll   %-10s ctx=%d (%d ranks)" t name ctx
        size

(* Cached metric handles, resolved once at [create] so the hot paths do no
   name lookups. Present only when the caller supplied a metrics shard. *)
type rmetrics = {
  m_match_attempts : Obs.Metrics.counter;
  m_wildcard_candidates : Obs.Metrics.histogram;
  m_queue_depth : Obs.Metrics.histogram;
  m_deadlock_checks : Obs.Metrics.counter;
  m_env_pool_reuses : Obs.Metrics.counter;
  m_match_loop : Obs.Metrics.histogram option;
      (* [--profile]: wall time of each match-loop entry *)
}

(* Envelope free-list capacity. In-flight envelopes rarely exceed a few per
   rank; overflow simply falls back to fresh allocation. *)
let env_pool_cap = 256

type t = {
  np : int;
  sched : Coroutine.sched;
  vt : Vtime.t;
  cost : cost_model;
  oracle : oracle;
  mailboxes : Matching.mailbox array;
  comm_world : Comm.t;
  comm_by_ctx : comm_record option Dense.t;
  mutable comm_registry : comm_record list;  (* creation order *)
  mutable next_ctx : int;
  mutable next_uid : int;
  mutable next_req : int;
  chan_seq : int array Dense.t;
      (* ctx -> np*np dense counters, indexed [src * np + dst]; [[||]] until
         the context's first send *)
  mutable stray_seq : (int * int array) list;
      (* counters of contexts outside [0, next_ctx) *)
  pending_sync : Request.t Dense.t;
      (* send request uid -> the synchronous send awaiting its match *)
  mutable choose_fn : oracle;
      (* [consult_oracle rt] closed once at [create]; hot paths reuse it
         instead of re-building the partial application per receive *)
  env_pool : Envelope.t array;  (* free list of recycled envelopes *)
  mutable env_pool_top : int;
  stats : Stats.t;
  req_created : int array;
  req_released : int array;
  wildcard_recvs : int array;
  mutable fault : Fault.t;
  mutable interrupt_hook : (unit -> unit) option;
  mutable spawned : bool;
  trace_on : bool;
  mutable trace_events : event list;  (* reversed; only filled if trace_on *)
  metrics : rmetrics option;
}

(* The empty slot of [pending_sync]; never handed to a program. *)
let no_request =
  {
    Request.uid = -1;
    owner = -1;
    kind = Request.Send { dest = -1; tag = -1; ctx = -1; sync = true };
    complete = false;
    released = false;
    status = None;
    data = None;
    arrive_time = 0.0;
  }

let fresh_slot () =
  { op_name = ""; arrivals = []; results = [||]; gen = 0 }

(* Wildcard/probe oracle consultation, instrumented with the candidate-list
   width so the metrics expose how much non-determinism each run faced. *)
let consult_oracle rt envs =
  (match rt.metrics with
  | Some m ->
      Obs.Metrics.observe m.m_wildcard_candidates
        (float_of_int (List.length envs))
  | None -> ());
  rt.oracle envs

let register_comm rt comm =
  let record = { comm; coll = fresh_slot () } in
  Dense.set rt.comm_by_ctx (Comm.ctx comm) (Some record);
  rt.comm_registry <- record :: rt.comm_registry;
  record

let create ?(cost = default_cost) ?(oracle = default_oracle) ?(trace = false)
    ?metrics ?(profile = false) ?(fault = Fault.none) ~np () =
  if np <= 0 then invalid_arg "Runtime.create: np must be positive";
  let comm_world =
    Comm.make ~ctx:0 ~ranks:(Array.init np Fun.id) ~internal:false
      ~label:"world"
  in
  (* Placeholder filling the (initially empty) free-list slots; only entries
     below [env_pool_top] are ever read. *)
  let dummy_env =
    {
      Envelope.uid = -1;
      src = -1;
      dst = -1;
      tag = -1;
      ctx = -1;
      seq = -1;
      payload = Payload.Unit;
      send_time = 0.0;
      delay = 0.0;
      sync = false;
      send_req = -1;
    }
  in
  let rt =
    {
      np;
      sched = Coroutine.create ();
      vt = Vtime.create np;
      cost;
      oracle;
      mailboxes = Array.init np (fun _ -> Matching.create ());
      comm_world;
      comm_by_ctx = Dense.create ~capacity:8 None;
      comm_registry = [];
      next_ctx = 1;
      next_uid = 0;
      next_req = 0;
      chan_seq = Dense.create ~capacity:8 [||];
      stray_seq = [];
      pending_sync = Dense.create no_request;
      choose_fn = default_oracle;
      env_pool = Array.make env_pool_cap dummy_env;
      env_pool_top = 0;
      stats = Stats.create np;
      req_created = Array.make np 0;
      req_released = Array.make np 0;
      wildcard_recvs = Array.make np 0;
      fault;
      interrupt_hook = None;
      spawned = false;
      trace_on = trace;
      trace_events = [];
      metrics =
        Option.map
          (fun sh ->
            {
              m_match_attempts = Obs.Metrics.counter sh "mpi.match_attempts";
              m_wildcard_candidates =
                Obs.Metrics.histogram sh ~bounds:Obs.Metrics.count_bounds
                  "mpi.wildcard_candidates";
              m_queue_depth =
                Obs.Metrics.histogram sh ~bounds:Obs.Metrics.count_bounds
                  "mpi.queue_depth";
              m_deadlock_checks = Obs.Metrics.counter sh "mpi.deadlock_checks";
              m_env_pool_reuses =
                Obs.Metrics.counter sh "mpi.envelope_pool_reuses";
              m_match_loop =
                (if profile then
                   Some (Obs.Metrics.histogram sh "profile.match_loop_s")
                 else None);
            })
          metrics;
    }
  in
  ignore (register_comm rt comm_world);
  rt.choose_fn <- (fun envs -> consult_oracle rt envs);
  rt

(* Back to the state [create] left, with [fault] installed, keeping the
   storage: the context tables, the per-context channel counters (zeroed)
   and the free list's array. The free list itself starts empty, as on a
   fresh runtime, so [mpi.envelope_pool_reuses] counts the same whichever
   runtime a replay lands on. A replay that deadlocked or crashed leaves
   parked processes and queued envelopes behind; they are dropped here. *)
let reset rt ~fault =
  Coroutine.reset rt.sched;
  Vtime.reset rt.vt;
  Array.iter Matching.clear rt.mailboxes;
  for ctx = 0 to rt.next_ctx - 1 do
    let counters = Dense.get rt.chan_seq ctx in
    Array.fill counters 0 (Array.length counters) 0
  done;
  rt.stray_seq <- [];
  Dense.clear rt.comm_by_ctx;
  rt.comm_registry <- [];
  ignore (register_comm rt rt.comm_world);
  rt.next_ctx <- 1;
  rt.next_uid <- 0;
  rt.next_req <- 0;
  Dense.clear rt.pending_sync;
  rt.env_pool_top <- 0;
  Stats.reset rt.stats;
  List.iter
    (fun a -> Array.fill a 0 rt.np 0)
    [ rt.req_created; rt.req_released; rt.wildcard_recvs ];
  rt.fault <- fault;
  rt.interrupt_hook <- None;
  rt.spawned <- false;
  rt.trace_events <- []

let np rt = rt.np
let comm_world rt = rt.comm_world
let stats rt = rt.stats
let current rt = Coroutine.current rt.sched
let clock rt pid = Vtime.now rt.vt pid
let advance_clock rt pid dt = Vtime.advance rt.vt pid dt
let makespan rt = Vtime.makespan rt.vt
let set_interrupt_hook rt f = rt.interrupt_hook <- Some f

(* An injected wedge: spin forever, cooperatively. Each turn polls the
   interrupt hook (the verifier's poison path) so a watchdog upstream can
   break the loop by raising; yielding keeps sibling ranks runnable, so the
   scheduler never quiesces into a (false) deadlock verdict. Without a hook
   nothing could ever interrupt the spin, so degrade to a kill. *)
let wedge rt pid =
  match rt.interrupt_hook with
  | None -> raise (Fault.Wedged pid)
  | Some hook ->
      let rec spin () =
        hook ();
        Coroutine.yield ();
        spin ()
      in
      spin ()

(* Fault consultation at a blocking call site (waits, probes, collectives). *)
let fault_call_site rt =
  if Fault.active rt.fault then begin
    let me = current rt in
    match Fault.on_call rt.fault ~pid:me with
    | Fault.Call_ok -> ()
    | Fault.Call_kill -> raise (Fault.Rank_killed me)
    | Fault.Call_wedge -> wedge rt me
  end

(* Call sites guard on [rt.trace_on] BEFORE building the event, so a
   trace-off runtime never allocates an event record at all. *)
let record_event rt ev = rt.trace_events <- ev :: rt.trace_events

let trace rt = List.rev rt.trace_events

let count_match_attempt rt =
  match rt.metrics with
  | Some m -> Obs.Metrics.incr m.m_match_attempts
  | None -> ()

let observe_queue_depth rt dst =
  match rt.metrics with
  | Some m ->
      Obs.Metrics.observe m.m_queue_depth
        (float_of_int (Matching.unexpected_count rt.mailboxes.(dst)))
  | None -> ()

let comm_of_ctx rt ctx =
  match Dense.get rt.comm_by_ctx ctx with
  | Some r -> r.comm
  | None -> Types.mpi_errorf "unknown communicator context %d" ctx

let record_of_comm rt comm =
  match Dense.get rt.comm_by_ctx (Comm.ctx comm) with
  | Some r -> r
  | None ->
      Types.mpi_errorf "communicator %s(ctx=%d) is not registered"
        (Comm.label comm) (Comm.ctx comm)

(* Park the current process until [pred] holds; whoever makes it hold must
   wake us. Spurious wake-ups simply re-check. Each re-check of a blocked
   predicate is one potential-deadlock probe, counted as such.

   [reason] is a thunk the scheduler keeps with the parked process and
   renders only for a deadlock verdict (or an observer), so a block that is
   later woken never pays for string formatting. Rendering late is exact:
   completing a request always wakes its owner, so a rank still parked at
   the verdict holds its request in the state it blocked on. *)
let wait_until rt ~reason pred =
  while not (pred ()) do
    (match rt.metrics with
    | Some m -> Obs.Metrics.incr m.m_deadlock_checks
    | None -> ());
    Coroutine.block reason
  done

let fresh_req rt ~owner ~kind =
  let uid = rt.next_req in
  rt.next_req <- uid + 1;
  rt.req_created.(owner) <- rt.req_created.(owner) + 1;
  {
    Request.uid;
    owner;
    kind;
    complete = false;
    released = false;
    status = None;
    data = None;
    arrive_time = 0.0;
  }

let release rt (req : Request.t) =
  if not req.released then begin
    req.released <- true;
    rt.req_released.(req.owner) <- rt.req_released.(req.owner) + 1
  end

(* Transfer-complete timestamp of an envelope at the receiver. *)
let arrival_stamp rt (env : Envelope.t) =
  env.send_time +. rt.cost.latency +. env.delay
  +. (rt.cost.per_byte *. float_of_int (Payload.size_bytes env.payload))

(* Fill in a matched receive request from the envelope it consumed. *)
let complete_recv rt (req : Request.t) (env : Envelope.t) =
  let comm = comm_of_ctx rt env.ctx in
  let source = Comm.rank_of_world comm env.src in
  req.complete <- true;
  req.status <-
    Some
      {
        Types.source;
        tag = env.tag;
        count = Payload.size_bytes env.payload;
      };
  req.data <- Some env.payload;
  req.arrive_time <- arrival_stamp rt env;
  (match req.kind with
  | Request.Recv r -> r.src <- env.src
  | Request.Send _ -> assert false);
  if rt.trace_on then
    record_event rt
      (Ev_match
         {
           t = req.arrive_time;
           src = env.Envelope.src;
           dst = req.owner;
           tag = env.Envelope.tag;
           ctx = env.Envelope.ctx;
         });
  Coroutine.wake rt.sched req.owner;
  (* A synchronous-mode send completes when its message is matched. *)
  if env.sync then begin
    let sreq = Dense.get rt.pending_sync env.send_req in
    assert (sreq != no_request);
    Dense.set rt.pending_sync env.send_req no_request;
    sreq.complete <- true;
    sreq.arrive_time <-
      Float.max (arrival_stamp rt env) (Vtime.now rt.vt req.owner);
    Coroutine.wake rt.sched env.src
  end

(* ---- Point-to-point ---- *)

(* Per-channel sequence counters live in one dense np*np array per context,
   found by indexing the context table: bumping a counter hashes nothing and
   allocates nothing (the array itself is created once per (runtime,
   context)). A context this runtime never handed out (a hand-made
   communicator; its receive fails with "unknown communicator context")
   counts apart, so no id can size the table. *)
let fresh_counters rt = Array.make (rt.np * rt.np) 0

let next_chan_seq rt ~src ~dst ~ctx =
  let counters =
    if ctx >= 0 && ctx < rt.next_ctx then (
      match Dense.get rt.chan_seq ctx with
      | [||] ->
          let counters = fresh_counters rt in
          Dense.set rt.chan_seq ctx counters;
          counters
      | counters -> counters)
    else
      match List.assoc_opt ctx rt.stray_seq with
      | Some counters -> counters
      | None ->
          let counters = fresh_counters rt in
          rt.stray_seq <- (ctx, counters) :: rt.stray_seq;
          counters
  in
  let slot = (src * rt.np) + dst in
  let n = counters.(slot) in
  counters.(slot) <- n + 1;
  n

(* Envelope free list. An envelope is recyclable as soon as its matching
   receive has completed (the request copies everything it needs); probes
   never consume envelopes, and envelopes still queued at run end are simply
   dropped with the runtime. *)
let release_env rt (env : Envelope.t) =
  if rt.env_pool_top < Array.length rt.env_pool then begin
    env.payload <- Payload.Unit;  (* don't retain user payloads *)
    rt.env_pool.(rt.env_pool_top) <- env;
    rt.env_pool_top <- rt.env_pool_top + 1
  end

let acquire_env rt ~uid ~src ~dst ~tag ~ctx ~seq ~payload ~send_time ~delay
    ~sync ~send_req =
  if rt.env_pool_top > 0 then begin
    rt.env_pool_top <- rt.env_pool_top - 1;
    (match rt.metrics with
    | Some m -> Obs.Metrics.incr m.m_env_pool_reuses
    | None -> ());
    let e = rt.env_pool.(rt.env_pool_top) in
    e.Envelope.uid <- uid;
    e.src <- src;
    e.dst <- dst;
    e.tag <- tag;
    e.ctx <- ctx;
    e.seq <- seq;
    e.payload <- payload;
    e.send_time <- send_time;
    e.delay <- delay;
    e.sync <- sync;
    e.send_req <- send_req;
    e
  end
  else
    {
      Envelope.uid;
      src;
      dst;
      tag;
      ctx;
      seq;
      payload;
      send_time;
      delay;
      sync;
      send_req;
    }

(* Hand a freshly sent envelope to the destination mailbox; a completed
   match retires the envelope to the free list (the request has copied out
   everything it needs). *)
let deliver_arrival rt dst env =
  match Matching.on_arrival rt.mailboxes.(dst) env with
  | Matching.Delivered rreq ->
      complete_recv rt rreq env;
      release_env rt env
  | Matching.Queued -> ()

let check_member comm pid =
  if not (Comm.is_member comm pid) then
    Types.mpi_errorf "process %d is not in communicator %s" pid
      (Comm.label comm)

let check_live comm pid =
  if Comm.freed_by comm pid then
    Types.mpi_errorf "rank %d uses communicator %s(ctx=%d) after freeing it"
      pid (Comm.label comm) (Comm.ctx comm)

let post_send rt ?(tag = 0) ~dest ~sync comm payload =
  let me = current rt in
  check_member comm me;
  check_live comm me;
  if tag < 0 then Types.mpi_errorf "send with negative tag %d" tag;
  let dst = Comm.world_of_rank comm dest in
  Stats.record rt.stats me Stats.Send_recv;
  Vtime.advance rt.vt me rt.cost.local_op;
  let delay =
    if not (Fault.active rt.fault) then 0.0
    else
      match Fault.on_send rt.fault ~src:me with
      | Fault.Send_ok d -> d
      | Fault.Send_fail ->
          raise
            (Fault.Transient_send_failure
               (Printf.sprintf "send %d -> %d" me dst))
  in
  let ctx = Comm.ctx comm in
  let req =
    fresh_req rt ~owner:me ~kind:(Request.Send { dest = dst; tag; ctx; sync })
  in
  let uid = rt.next_uid in
  rt.next_uid <- uid + 1;
  let env =
    acquire_env rt ~uid ~src:me ~dst ~tag ~ctx
      ~seq:(next_chan_seq rt ~src:me ~dst ~ctx)
      ~payload
      ~send_time:(Vtime.now rt.vt me)
      ~delay ~sync ~send_req:req.uid
  in
  if sync then Dense.set rt.pending_sync req.uid req
  else req.complete <- true;
  if rt.trace_on then
    record_event rt
      (Ev_send
         {
           t = env.Envelope.send_time;
           src = me;
           dst;
           tag;
           ctx;
           bytes = Payload.size_bytes payload;
           sync;
         });
  count_match_attempt rt;
  (* Dispatch without wrapping the match in a closure: the [--profile]
     timing wrapper is only built when profiling is actually on. *)
  (match rt.metrics with
  | Some { m_match_loop = Some h; _ } ->
      Obs.Metrics.time h (fun () -> deliver_arrival rt dst env)
  | _ -> deliver_arrival rt dst env);
  observe_queue_depth rt dst;
  (* Always nudge the destination: it may be parked in a blocking probe. *)
  Coroutine.wake rt.sched dst;
  req

(* Posting side of the match loop: claim an already-arrived envelope if one
   matches, using the cached oracle closure ([rt.choose_fn]) rather than a
   fresh partial application per receive. *)
let claim_unexpected rt me (req : Request.t) =
  match Matching.post_recv rt.mailboxes.(me) req ~choose:rt.choose_fn with
  | Some env ->
      complete_recv rt req env;
      release_env rt env
  | None -> ()

let isend rt ?tag ~dest comm payload =
  post_send rt ?tag ~dest ~sync:false comm payload

let issend rt ?tag ~dest comm payload =
  post_send rt ?tag ~dest ~sync:true comm payload

let post_recv rt ?(src = Types.any_source) ?(tag = Types.any_tag) comm =
  let me = current rt in
  check_member comm me;
  check_live comm me;
  Stats.record rt.stats me Stats.Send_recv;
  Vtime.advance rt.vt me rt.cost.local_op;
  let wildcard = src = Types.any_source in
  if wildcard then rt.wildcard_recvs.(me) <- rt.wildcard_recvs.(me) + 1;
  let src_pid =
    if wildcard then Types.any_source else Comm.world_of_rank comm src
  in
  let req =
    fresh_req rt ~owner:me
      ~kind:
        (Request.Recv
           { src = src_pid; tag; ctx = Comm.ctx comm; posted_as_wildcard = wildcard })
  in
  if rt.trace_on then
    record_event rt
      (Ev_recv_post
         { t = Vtime.now rt.vt me; pid = me; src = src_pid; tag; ctx = Comm.ctx comm });
  count_match_attempt rt;
  (match rt.metrics with
  | Some { m_match_loop = Some h; _ } ->
      Obs.Metrics.time h (fun () -> claim_unexpected rt me req)
  | _ -> claim_unexpected rt me req);
  req

let irecv = post_recv

(* ---- Completion ---- *)

let observe_completion rt (req : Request.t) =
  let me = req.owner in
  Vtime.observe rt.vt me req.arrive_time;
  release rt req;
  match req.status with
  | Some st -> st
  | None -> { Types.source = -1; tag = -1; count = 0 }

let wait rt (req : Request.t) =
  let me = current rt in
  if req.owner <> me then
    Types.mpi_errorf "process %d waits on a request owned by %d" me req.owner;
  Stats.record rt.stats me Stats.Wait;
  Vtime.advance rt.vt me rt.cost.local_op;
  fault_call_site rt;
  wait_until rt
    ~reason:(fun () -> Format.asprintf "wait(%a)" Request.pp req)
    (fun () -> req.complete);
  observe_completion rt req

let test rt (req : Request.t) =
  let me = current rt in
  Stats.record rt.stats me Stats.Wait;
  Vtime.advance rt.vt me rt.cost.local_op;
  if req.complete then Some (observe_completion rt req)
  else begin
    (* Yield on a miss so that test-loops make global progress. *)
    Coroutine.yield ();
    None
  end

let waitall rt reqs =
  let me = current rt in
  Stats.record rt.stats me Stats.Wait;
  Vtime.advance rt.vt me rt.cost.local_op;
  fault_call_site rt;
  wait_until rt
    ~reason:(fun () -> "waitall")
    (fun () -> List.for_all (fun (r : Request.t) -> r.complete) reqs);
  List.map (observe_completion rt) reqs

let waitany rt reqs =
  if reqs = [] then invalid_arg "waitany: empty request list";
  let me = current rt in
  Stats.record rt.stats me Stats.Wait;
  Vtime.advance rt.vt me rt.cost.local_op;
  fault_call_site rt;
  wait_until rt
    ~reason:(fun () -> "waitany")
    (fun () ->
      List.exists (fun (r : Request.t) -> r.complete && not r.released) reqs);
  let rec find i = function
    | [] -> assert false
    | (r : Request.t) :: rest ->
        if r.complete && not r.released then (i, observe_completion rt r)
        else find (i + 1) rest
  in
  find 0 reqs

let testall rt reqs =
  let me = current rt in
  Stats.record rt.stats me Stats.Wait;
  Vtime.advance rt.vt me rt.cost.local_op;
  if List.for_all (fun (r : Request.t) -> r.complete) reqs then
    Some (List.map (observe_completion rt) reqs)
  else begin
    Coroutine.yield ();
    None
  end

let recv rt ?src ?tag comm =
  let req = post_recv rt ?src ?tag comm in
  let st = wait rt req in
  (Option.get req.data, st)

let send rt ?tag ~dest comm payload =
  let req = isend rt ?tag ~dest comm payload in
  ignore (wait rt req)

let ssend rt ?tag ~dest comm payload =
  let req = issend rt ?tag ~dest comm payload in
  ignore (wait rt req)

let recv_data (req : Request.t) =
  match req.data with
  | Some p -> p
  | None -> Types.mpi_errorf "recv_data: request %d has no data" req.uid

(* ---- Probe ---- *)

let status_of_candidate comm (env : Envelope.t) =
  {
    Types.source = Comm.rank_of_world comm env.src;
    tag = env.tag;
    count = Payload.size_bytes env.payload;
  }

let probe_candidates rt ?(src = Types.any_source) ?(tag = Types.any_tag) comm =
  let me = current rt in
  check_member comm me;
  check_live comm me;
  let src_pid =
    if src = Types.any_source then Types.any_source
    else Comm.world_of_rank comm src
  in
  Matching.candidates rt.mailboxes.(me) ~src:src_pid ~tag ~ctx:(Comm.ctx comm)

let iprobe rt ?src ?tag comm =
  let me = current rt in
  Stats.record rt.stats me Stats.Send_recv;
  Vtime.advance rt.vt me rt.cost.local_op;
  match probe_candidates rt ?src ?tag comm with
  | [] ->
      Coroutine.yield ();
      None
  | [ env ] -> Some (status_of_candidate comm env)
  | envs -> Some (status_of_candidate comm (consult_oracle rt envs))

let probe rt ?src ?tag comm =
  let me = current rt in
  Stats.record rt.stats me Stats.Send_recv;
  Vtime.advance rt.vt me rt.cost.local_op;
  fault_call_site rt;
  let result = ref None in
  wait_until rt
    ~reason:(fun () -> "probe")
    (fun () ->
      match probe_candidates rt ?src ?tag comm with
      | [] -> false
      | [ env ] ->
          result := Some env;
          true
      | envs ->
          result := Some (consult_oracle rt envs);
          true);
  let env = Option.get !result in
  Vtime.observe rt.vt me (arrival_stamp rt env);
  status_of_candidate comm env

(* ---- Collectives ---- *)

type coll_timing = Sync_all | Root_to_all of int | All_to_root of int

let coll_cost rt comm =
  rt.cost.coll_base
  +. (rt.cost.coll_per_log *. log (float_of_int (max 2 (Comm.size comm))))

let apply_coll_timing rt comm timing arrivals =
  let cost = coll_cost rt comm in
  let time_of rank =
    match List.find_opt (fun (r, _, _) -> r = rank) arrivals with
    | Some (_, _, t) -> t
    | None -> assert false
  in
  match timing with
  | Sync_all ->
      let members =
        List.init (Comm.size comm) (Comm.world_of_rank comm)
      in
      Vtime.synchronize rt.vt members cost
  | Root_to_all root ->
      let root_time = time_of root in
      for r = 0 to Comm.size comm - 1 do
        if r <> root then
          Vtime.observe rt.vt (Comm.world_of_rank comm r) (root_time +. cost)
      done
  | All_to_root root ->
      let peak =
        List.fold_left (fun acc (_, _, t) -> Float.max acc t) 0.0 arrivals
      in
      Vtime.observe rt.vt (Comm.world_of_rank comm root) (peak +. cost)

(* Generic rendezvous: contribute, block until the whole communicator has
   arrived, read back the per-rank result computed by [compute]. *)
let collective rt comm ~name ~contrib ~compute ~timing =
  let me = current rt in
  check_member comm me;
  check_live comm me;
  Stats.record rt.stats me Stats.Collective;
  Vtime.advance rt.vt me rt.cost.local_op;
  fault_call_site rt;
  let record = record_of_comm rt comm in
  let slot = record.coll in
  let my_rank = Comm.rank_of_world comm me in
  if slot.arrivals = [] then slot.op_name <- name
  else if not (String.equal slot.op_name name) then
    Types.mpi_errorf
      "collective mismatch on %s: rank %d calls %s while others are in %s"
      (Comm.label comm) my_rank name slot.op_name;
  let my_gen = slot.gen in
  slot.arrivals <- (my_rank, contrib, Vtime.now rt.vt me) :: slot.arrivals;
  if List.length slot.arrivals = Comm.size comm then begin
    let arrivals = List.rev slot.arrivals in
    if rt.trace_on then
      record_event rt
        (Ev_collective
           {
             t = Vtime.now rt.vt me;
             name;
             ctx = Comm.ctx comm;
             size = Comm.size comm;
           });
    slot.results <- compute arrivals;
    apply_coll_timing rt comm timing arrivals;
    slot.arrivals <- [];
    slot.gen <- my_gen + 1;
    Coroutine.wake_all rt.sched
      (Array.to_list (Array.init (Comm.size comm) (Comm.world_of_rank comm)));
    (* Step aside so participants resume in rank order rather than the last
       arriver racing ahead — the deterministic "native bias". *)
    Coroutine.yield ()
  end
  else
    wait_until rt
      ~reason:(fun () ->
        Printf.sprintf "collective %s on %s" name (Comm.label comm))
      (fun () -> slot.gen > my_gen);
  slot.results.(my_rank)

let contribs_in_rank_order arrivals =
  arrivals
  |> List.sort (fun (r1, _, _) (r2, _, _) -> compare r1 r2)
  |> List.map (fun (_, c, _) -> c)
  |> Array.of_list

let barrier rt comm =
  ignore
    (collective rt comm ~name:"barrier" ~contrib:Payload.Unit
       ~compute:(fun arrivals ->
         Array.make (List.length arrivals) Payload.Unit)
       ~timing:Sync_all)

let bcast rt ~root comm payload =
  collective rt comm ~name:"bcast" ~contrib:payload
    ~compute:(fun arrivals ->
      let contribs = contribs_in_rank_order arrivals in
      Array.make (Array.length contribs) contribs.(root))
    ~timing:(Root_to_all root)

let fold_combine op contribs =
  match Array.to_list contribs with
  | [] -> assert false
  | first :: rest -> List.fold_left (Payload.combine op) first rest

let reduce rt ~root ~op comm payload =
  let me = current rt in
  let result =
    collective rt comm ~name:"reduce" ~contrib:payload
      ~compute:(fun arrivals ->
        let contribs = contribs_in_rank_order arrivals in
        let combined = fold_combine op contribs in
        Array.init (Array.length contribs) (fun r ->
            if r = root then combined else Payload.Unit))
      ~timing:(All_to_root root)
  in
  if Comm.rank_of_world comm me = root then Some result else None

let allreduce rt ~op comm payload =
  collective rt comm ~name:"allreduce" ~contrib:payload
    ~compute:(fun arrivals ->
      let contribs = contribs_in_rank_order arrivals in
      Array.make (Array.length contribs) (fold_combine op contribs))
    ~timing:Sync_all

let gather rt ~root comm payload =
  let me = current rt in
  let result =
    collective rt comm ~name:"gather" ~contrib:payload
      ~compute:(fun arrivals ->
        let contribs = contribs_in_rank_order arrivals in
        Array.init (Array.length contribs) (fun r ->
            if r = root then Payload.Arr contribs else Payload.Unit))
      ~timing:(All_to_root root)
  in
  if Comm.rank_of_world comm me = root then Some (Payload.to_arr result)
  else None

let allgather rt comm payload =
  Payload.to_arr
    (collective rt comm ~name:"allgather" ~contrib:payload
       ~compute:(fun arrivals ->
         let contribs = contribs_in_rank_order arrivals in
         Array.make (Array.length contribs) (Payload.Arr contribs))
       ~timing:Sync_all)

let scatter rt ~root comm payloads =
  let me = current rt in
  let contrib =
    if Comm.rank_of_world comm me = root then
      match payloads with
      | Some arr ->
          if Array.length arr <> Comm.size comm then
            Types.mpi_errorf "scatter: root provides %d items for %d ranks"
              (Array.length arr) (Comm.size comm);
          Payload.Arr arr
      | None -> Types.mpi_errorf "scatter: root must provide the payload array"
    else Payload.Unit
  in
  collective rt comm ~name:"scatter" ~contrib
    ~compute:(fun arrivals ->
      let contribs = contribs_in_rank_order arrivals in
      Payload.to_arr contribs.(root))
    ~timing:(Root_to_all root)

let alltoall rt comm payloads =
  if Array.length payloads <> Comm.size comm then
    Types.mpi_errorf "alltoall: %d items for %d ranks" (Array.length payloads)
      (Comm.size comm);
  Payload.to_arr
    (collective rt comm ~name:"alltoall" ~contrib:(Payload.Arr payloads)
       ~compute:(fun arrivals ->
         let contribs =
           Array.map Payload.to_arr (contribs_in_rank_order arrivals)
         in
         let n = Array.length contribs in
         Array.init n (fun r ->
             Payload.Arr (Array.init n (fun s -> contribs.(s).(r)))))
       ~timing:Sync_all)

let scan rt ~op comm payload =
  let me = current rt in
  let my_rank = Comm.rank_of_world comm me in
  let result =
    collective rt comm ~name:"scan" ~contrib:payload
      ~compute:(fun arrivals ->
        let contribs = contribs_in_rank_order arrivals in
        let n = Array.length contribs in
        let out = Array.make n contribs.(0) in
        for r = 1 to n - 1 do
          out.(r) <- Payload.combine op out.(r - 1) contribs.(r)
        done;
        out)
      ~timing:Sync_all
  in
  ignore my_rank;
  result

(* Exclusive prefix reduction: rank 0 receives the identity-less "nothing"
   (modelled as the rank-0 contribution per MPI_Exscan's undefined-at-root
   convention we pin down as Unit), rank r > 0 the reduction over 0..r-1. *)
let exscan rt ~op comm payload =
  collective rt comm ~name:"exscan" ~contrib:payload
    ~compute:(fun arrivals ->
      let contribs = contribs_in_rank_order arrivals in
      let n = Array.length contribs in
      let out = Array.make n Payload.Unit in
      let acc = ref None in
      for r = 0 to n - 1 do
        (match !acc with Some a -> out.(r) <- a | None -> ());
        acc :=
          Some
            (match !acc with
            | None -> contribs.(r)
            | Some a -> Payload.combine op a contribs.(r))
      done;
      out)
    ~timing:Sync_all

(* Reduce + scatter of equal blocks: every rank contributes an np-element
   array; rank r gets the element-wise reduction of slot r. *)
let reduce_scatter_block rt ~op comm payloads =
  if Array.length payloads <> Comm.size comm then
    Types.mpi_errorf "reduce_scatter_block: %d items for %d ranks"
      (Array.length payloads) (Comm.size comm);
  collective rt comm ~name:"reduce_scatter_block"
    ~contrib:(Payload.Arr payloads)
    ~compute:(fun arrivals ->
      let contribs =
        Array.map Payload.to_arr (contribs_in_rank_order arrivals)
      in
      let n = Array.length contribs in
      Array.init n (fun slot ->
          let acc = ref contribs.(0).(slot) in
          for s = 1 to n - 1 do
            acc := Payload.combine op !acc contribs.(s).(slot)
          done;
          !acc))
    ~timing:Sync_all

let sendrecv rt ?(stag = 0) ?(rtag = Types.any_tag) ~dest ~src comm payload =
  let sreq = isend rt ~tag:stag ~dest comm payload in
  let rreq = post_recv rt ~src ~tag:rtag comm in
  let statuses = waitall rt [ sreq; rreq ] in
  match statuses with
  | [ _; rstatus ] -> (Option.get rreq.Request.data, rstatus)
  | _ -> assert false

(* ---- Communicator management ---- *)

(* The new communicator's label is built inside [compute], which runs once
   per collective, not in every member's call. *)
let comm_dup rt ?(internal = false) comm =
  let ctx_payload =
    collective rt comm ~name:"comm_dup" ~contrib:Payload.Unit
      ~compute:(fun arrivals ->
        let ctx = rt.next_ctx in
        rt.next_ctx <- ctx + 1;
        let ranks =
          Array.init (Comm.size comm) (fun r -> Comm.world_of_rank comm r)
        in
        let label = "dup(" ^ Comm.label comm ^ ")" in
        ignore (register_comm rt (Comm.make ~ctx ~ranks ~internal ~label));
        Array.make (List.length arrivals) (Payload.Int ctx))
      ~timing:Sync_all
  in
  comm_of_ctx rt (Payload.to_int ctx_payload)

let comm_split rt ~color ~key comm =
  let ctx_payload =
    collective rt comm ~name:"comm_split" ~contrib:(Payload.pair (Payload.int color) (Payload.int key))
      ~compute:(fun arrivals ->
        let n = List.length arrivals in
        let label = "split(" ^ Comm.label comm ^ ")" in
        (* (rank, color, key) triples, grouped by color. *)
        let triples =
          List.map
            (fun (r, contrib, _) ->
              let c, k = Payload.to_pair contrib in
              (r, Payload.to_int c, Payload.to_int k))
            arrivals
        in
        let colors =
          List.sort_uniq compare (List.map (fun (_, c, _) -> c) triples)
        in
        let result = Array.make n (Payload.Int (-1)) in
        List.iter
          (fun color ->
            let members =
              triples
              |> List.filter (fun (_, c, _) -> c = color)
              |> List.sort (fun (r1, _, k1) (r2, _, k2) ->
                     compare (k1, r1) (k2, r2))
              |> List.map (fun (r, _, _) -> r)
            in
            let ctx = rt.next_ctx in
            rt.next_ctx <- ctx + 1;
            let ranks =
              Array.of_list
                (List.map (fun r -> Comm.world_of_rank comm r) members)
            in
            ignore
              (register_comm rt (Comm.make ~ctx ~ranks ~internal:false ~label));
            List.iter (fun r -> result.(r) <- Payload.Int ctx) members)
          colors;
        result)
      ~timing:Sync_all
  in
  comm_of_ctx rt (Payload.to_int ctx_payload)

let comm_group (_ : t) comm = Group.of_comm comm

(* Collective over [comm]: members of [group] obtain a new communicator,
   other ranks get None. All ranks must pass equal groups (checked). *)
let comm_create rt comm group =
  let me = current rt in
  Array.iter
    (fun pid ->
      if not (Comm.is_member comm pid) then
        Types.mpi_errorf
          "comm_create: group member %d is not in the parent communicator" pid)
    (Group.members group);
  let contrib =
    Payload.Arr (Array.map (fun m -> Payload.Int m) (Group.members group))
  in
  let ctx_payload =
    collective rt comm ~name:"comm_create" ~contrib
      ~compute:(fun arrivals ->
        let groups = contribs_in_rank_order arrivals in
        Array.iter
          (fun g ->
            if not (Payload.equal g groups.(0)) then
              Types.mpi_errorf
                "comm_create: ranks passed different groups on %s"
                (Comm.label comm))
          groups;
        let ranks = Array.map Payload.to_int (Payload.to_arr groups.(0)) in
        let n = List.length arrivals in
        if Array.length ranks = 0 then Array.make n (Payload.Int (-1))
        else begin
          let ctx = rt.next_ctx in
          rt.next_ctx <- ctx + 1;
          let label = "create(" ^ Comm.label comm ^ ")" in
          ignore (register_comm rt (Comm.make ~ctx ~ranks ~internal:false ~label));
          Array.init n (fun r ->
              let pid = Comm.world_of_rank comm r in
              if Array.exists (fun m -> m = pid) ranks then Payload.Int ctx
              else Payload.Int (-1))
        end)
      ~timing:Sync_all
  in
  match Payload.to_int ctx_payload with
  | -1 -> None
  | ctx ->
      ignore me;
      Some (comm_of_ctx rt ctx)

let comm_free rt comm =
  let me = current rt in
  if Comm.ctx comm = 0 then Types.mpi_errorf "cannot free the world communicator";
  Stats.record rt.stats me Stats.Collective;
  Vtime.advance rt.vt me rt.cost.local_op;
  Comm.mark_freed comm me

(* ---- Misc ---- *)

let pcontrol _rt _level = ()

let wtime rt = Vtime.now rt.vt (current rt)

(* ---- Driving a program ---- *)

let spawn_ranks rt body =
  if rt.spawned then invalid_arg "Runtime.spawn_ranks: already spawned";
  rt.spawned <- true;
  for rank = 0 to rt.np - 1 do
    ignore (Coroutine.spawn rt.sched (fun () -> body rank))
  done

let run rt = Coroutine.run rt.sched

(* ---- Finalize-time reports ---- *)

type leaked_comm = { leaked_ctx : int; leaked_label : string }

type leak_report = {
  comm_leaks : (int * leaked_comm list) list;
      (** (world pid, communicators it helped create but never freed);
          tool-internal and world communicators excluded *)
  req_leaks : int array;  (** per-pid count of never-released requests *)
  internal_ctxs : int list;  (** contexts of tool-internal communicators *)
}

let leak_report rt =
  let user_comms =
    List.filter
      (fun r -> (not (Comm.is_internal r.comm)) && Comm.ctx r.comm <> 0)
      rt.comm_registry
  in
  let comm_leaks =
    List.init rt.np (fun pid ->
        let leaked =
          List.filter_map
            (fun r ->
              if Comm.is_member r.comm pid && not (Comm.freed_by r.comm pid)
              then
                Some
                  { leaked_ctx = Comm.ctx r.comm; leaked_label = Comm.label r.comm }
              else None)
            user_comms
        in
        (pid, leaked))
    |> List.filter (fun (_, l) -> l <> [])
  in
  let req_leaks =
    Array.init rt.np (fun pid -> rt.req_created.(pid) - rt.req_released.(pid))
  in
  let internal_ctxs =
    List.filter_map
      (fun r -> if Comm.is_internal r.comm then Some (Comm.ctx r.comm) else None)
      rt.comm_registry
  in
  { comm_leaks; req_leaks; internal_ctxs }

let wildcard_count rt = Array.fold_left ( + ) 0 rt.wildcard_recvs
