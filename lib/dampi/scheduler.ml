(* One locked LIFO stack + Domain pool. See scheduler.mli for the contract.

   Every piece of queue state lives under the one mutex [m]: claiming an
   item (pop, then set the worker's in-flight slot) and finishing one (push
   its children, then clear the slot) are each one critical section, so
   {!snapshot} reads a consistent cut by taking [m] alone. A worker that
   finds the stack empty while a peer is still executing waits on
   [wakeup]. Pushes and cancellation broadcast it, and so does a finish
   that publishes children or leaves nothing in flight while a worker
   waits. Metric writes also happen under [m], so a single shard keeps the
   single-writer discipline. *)

type order = Lifo

type worker_stats = {
  worker_id : int;
  mutable items_run : int;
  mutable queue_waits : int;
  mutable wait_seconds : float;
}

type smetrics = {
  m_queue_wait : Obs.Metrics.histogram;
  m_frontier : Obs.Metrics.histogram;
  m_sched_wait : Obs.Metrics.histogram option;
      (* [--profile]: same observations as [sched.queue_wait_s], published
         under the uniform [profile.*] namespace the profiler exports *)
}

type 'a t = {
  jobs : int;
  budget : int;
  m : Mutex.t;
  wakeup : Condition.t;
  mutable stack : 'a list;  (* the head pops next *)
  mutable size : int;  (* [List.length stack] *)
  current : 'a option array;  (* each worker's in-flight item *)
  mutable busy : int;  (* workers executing an item *)
  mutable sleepers : int;  (* workers waiting on [wakeup] *)
  mutable claimed : int;  (* items handed to workers; capped by [budget] *)
  mutable is_cancelled : bool;
  mutable ran : bool;
  stats : worker_stats array;
  metrics : smetrics option;
  admit : 'a -> bool;
      (* enqueue filter: an item it rejects is never inserted. Runs outside
         [m] on whichever worker publishes, so it must be thread-safe. *)
}

let create ?order:(_ = Lifo) ~jobs ?(budget = max_int) ?metrics
    ?(profile = false) ?(admit = fun _ -> true) () =
  let jobs = max 1 jobs in
  {
    jobs;
    budget = max 0 budget;
    m = Mutex.create ();
    wakeup = Condition.create ();
    stack = [];
    size = 0;
    current = Array.make jobs None;
    busy = 0;
    sleepers = 0;
    claimed = 0;
    is_cancelled = false;
    ran = false;
    stats =
      Array.init jobs (fun worker_id ->
          { worker_id; items_run = 0; queue_waits = 0; wait_seconds = 0.0 });
    metrics =
      (* Declared eagerly so the series exist even for a run with no waits
         (a jobs=1 exploration has none). *)
      Option.map
        (fun sh ->
          {
            m_queue_wait = Obs.Metrics.histogram sh "sched.queue_wait_s";
            m_frontier =
              Obs.Metrics.histogram sh ~bounds:Obs.Metrics.count_bounds
                "sched.frontier_size";
            m_sched_wait =
              (if profile then
                 Some (Obs.Metrics.histogram sh "profile.sched_wait_s")
               else None);
          })
        metrics;
    admit;
  }

(* Put an admitted batch on top of the stack in order, so its head pops
   first. Caller holds [m]. *)
let insert_locked t = function
  | [] -> ()
  | items ->
      t.stack <- items @ t.stack;
      t.size <- t.size + List.length items;
      Option.iter
        (fun ms -> Obs.Metrics.observe ms.m_frontier (float_of_int t.size))
        t.metrics

let push_batch t items =
  let items = List.filter t.admit items in
  if items <> [] then
    Mutex.protect t.m (fun () ->
        insert_locked t items;
        Condition.broadcast t.wakeup)

let push t x = push_batch t [ x ]

let cancel t =
  Mutex.protect t.m (fun () ->
      t.is_cancelled <- true;
      Condition.broadcast t.wakeup)

let cancelled t = Mutex.protect t.m (fun () -> t.is_cancelled)
let pending t = Mutex.protect t.m (fun () -> t.size)
let executed t = Mutex.protect t.m (fun () -> t.claimed)
let stats t = Array.to_list t.stats

(* Each in-flight item appears because its children are not published yet;
   a resume that re-runs it regenerates exactly its subtree. *)
let snapshot t =
  Mutex.protect t.m (fun () ->
      Array.fold_right
        (fun c acc -> match c with Some x -> x :: acc | None -> acc)
        t.current t.stack)

let observe_wait t waited =
  match t.metrics with
  | None -> ()
  | Some ms ->
      Obs.Metrics.observe ms.m_queue_wait waited;
      Option.iter (fun h -> Obs.Metrics.observe h waited) ms.m_sched_wait

(* Claim the next item: pop the top of the stack and mark it in flight, or
   wait while the stack is empty but a peer is still executing (its
   children may refill it). [None] on cancellation, exhausted budget, or
   quiescence (nothing queued, nothing in flight). *)
let claim t (ws : worker_stats) =
  Mutex.lock t.m;
  let rec go () =
    if t.is_cancelled || t.claimed >= t.budget then None
    else
      match t.stack with
      | x :: rest ->
          t.stack <- rest;
          t.size <- t.size - 1;
          t.claimed <- t.claimed + 1;
          t.busy <- t.busy + 1;
          t.current.(ws.worker_id) <- Some x;
          Some x
      | [] when t.busy = 0 -> None
      | [] ->
          ws.queue_waits <- ws.queue_waits + 1;
          let t0 = Unix.gettimeofday () in
          t.sleepers <- t.sleepers + 1;
          Condition.wait t.wakeup t.m;
          t.sleepers <- t.sleepers - 1;
          let waited = Unix.gettimeofday () -. t0 in
          ws.wait_seconds <- ws.wait_seconds +. waited;
          observe_wait t waited;
          go ()
  in
  let item = go () in
  Mutex.unlock t.m;
  item

(* Publish a completed item's children and clear its in-flight slot in one
   critical section. Children are pushed even after cancellation: nothing
   will claim them ([claim] checks the flag first), but a checkpoint taken
   after [run] returns must see the child frontier of every completed
   replay, or resuming would silently drop those subtrees. *)
let finish t ~worker children =
  let children = List.filter t.admit children in
  Mutex.lock t.m;
  insert_locked t children;
  t.current.(worker) <- None;
  t.busy <- t.busy - 1;
  (* Wake waiters for the children or, when nothing is left in flight, for
     the quiescence they are waiting on. *)
  if t.sleepers > 0 && (children <> [] || t.busy = 0) then
    Condition.broadcast t.wakeup;
  Mutex.unlock t.m

let worker_loop t ws f =
  let rec go () =
    match claim t ws with
    | None -> ()
    | Some item -> (
        match f ~worker:ws.worker_id item with
        | children ->
            ws.items_run <- ws.items_run + 1;
            finish t ~worker:ws.worker_id children;
            go ()
        | exception exn ->
            (* Capture the backtrace before [finish] overwrites it, and
               clear the slot so peers terminate instead of waiting forever
               on a worker that died. *)
            let bt = Printexc.get_raw_backtrace () in
            finish t ~worker:ws.worker_id [];
            Printexc.raise_with_backtrace exn bt)
  in
  go ()

let run t f =
  let ran, empty =
    Mutex.protect t.m (fun () ->
        let ran = t.ran in
        t.ran <- true;
        (ran, t.stack = []))
  in
  if ran then invalid_arg "Scheduler.run: already ran";
  if empty then ()
  else if t.jobs = 1 then worker_loop t t.stats.(0) f
  else begin
    let others =
      Array.init (t.jobs - 1) (fun i ->
          let ws = t.stats.(i + 1) in
          Domain.spawn (fun () -> worker_loop t ws f))
    in
    (* Worker exceptions propagate with the backtrace captured at the catch
       site ([Domain.join] already re-raises with the spawned domain's
       backtrace; the main worker's is captured here). *)
    let main_exn =
      match worker_loop t t.stats.(0) f with
      | () -> None
      | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          (* Unblock the pool before joining, or the join deadlocks. *)
          cancel t;
          Some (exn, bt)
    in
    let join_exn =
      Array.fold_left
        (fun acc d ->
          match Domain.join d with
          | () -> acc
          | exception exn ->
              let bt = Printexc.get_raw_backtrace () in
              cancel t;
              (match acc with None -> Some (exn, bt) | Some _ -> acc))
        None others
    in
    match (main_exn, join_exn) with
    | Some (exn, bt), _ | None, Some (exn, bt) ->
        Printexc.raise_with_backtrace exn bt
    | None, None -> ()
  end
