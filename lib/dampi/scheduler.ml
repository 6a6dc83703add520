(* Per-worker stealing deques + Domain pool. See scheduler.mli for the
   contract.

   Layout (Chase-Lev in shape, locks in mechanism): every worker owns one
   deque. The owner pushes and pops at the *near* end (LIFO, giving
   depth-first locality: a replay's children run next on the same worker);
   a thief steals from the *far* end (the oldest — shallowest — item,
   whose subtree is the largest, so one steal moves the most work). Each
   deque has its own small mutex, so the hot path (owner push/pop) never
   touches shared state; only stealing, snapshots, and the idle path cross
   deques.

   Locking discipline:
   - A worker takes at most one deque lock at a time (its own, or one
     victim's while stealing), so deque locks never nest and cannot
     deadlock.
   - [snapshot]/[pending] take *all* deque locks in index order; combined
     with "every queue/in-flight mutation holds some deque lock", that
     makes them a consistent cut.
   - The global [m]/[wakeup] pair serves only the idle path (blocked
     thieves) and carries no queue state.

   Counters shared across workers ([live], [claimed], [sleepers], per-deque
   sizes) are Atomics, so the idle path can scan them without taking deque
   locks; OCaml's SC atomics make the sleep/wake handshake sound (see
   [idle_wait]). *)

type order = Lifo

type worker_stats = {
  worker_id : int;
  mutable items_run : int;
  mutable steals : int;
  mutable queue_waits : int;
  mutable wait_seconds : float;
}

(* Metric writes are serialized by [mmet] (frontier size, steals — written
   under assorted deque locks) or by [m] (queue waits — the idle path), so a
   single shard keeps the single-writer discipline. *)
type smetrics = {
  mmet : Mutex.t;
  m_queue_wait : Obs.Metrics.histogram;
  m_frontier : Obs.Metrics.histogram;
  m_steals : Obs.Metrics.counter;
  m_sched_wait : Obs.Metrics.histogram option;
      (* [--profile]: same observations as [sched.queue_wait_s], published
         under the uniform [profile.*] namespace the profiler exports *)
}

(* One worker's deque. The logical sequence is [front @ List.rev back]; the
   owner pops the head of [front] (refilling from [back] when empty), a
   thief pops the head of [back] (refilling from [front]). [current] is the
   item the owner is executing — it lives here so that "pop + set current"
   and "push children + clear current" are each atomic under one lock,
   which is what keeps {!snapshot} a duplicate-free cut. [dsize] mirrors
   the queue length for lock-free scans by idle thieves. *)
type 'a deque = {
  lock : Mutex.t;
  mutable front : 'a list;
  mutable back : 'a list;
  dsize : int Atomic.t;
  mutable current : 'a option;
}

type 'a t = {
  jobs : int;
  budget : int;
  deques : 'a deque array;
  live : int Atomic.t;  (* items queued or in flight; 0 = quiescent *)
  claimed : int Atomic.t;  (* items handed to workers; capped by [budget] *)
  sleepers : int Atomic.t;  (* workers blocked in [idle_wait] *)
  is_cancelled : bool Atomic.t;
  mutable ran : bool;
  m : Mutex.t;  (* guards [ran] and the idle path *)
  wakeup : Condition.t;
  stats : worker_stats array;
  metrics : smetrics option;
  admit : 'a -> bool;
      (* enqueue filter: an item it rejects is never inserted (duplicate
         schedules, in the explorer's use). Must be thread-safe — it runs
         on whichever worker publishes. *)
}

let create ?order:(_ = Lifo) ~jobs ?(budget = max_int) ?metrics
    ?(profile = false) ?(admit = fun _ -> true) () =
  let jobs = max 1 jobs in
  {
    jobs;
    budget = max 0 budget;
    deques =
      Array.init jobs (fun _ ->
          {
            lock = Mutex.create ();
            front = [];
            back = [];
            dsize = Atomic.make 0;
            current = None;
          });
    live = Atomic.make 0;
    claimed = Atomic.make 0;
    sleepers = Atomic.make 0;
    is_cancelled = Atomic.make false;
    ran = false;
    m = Mutex.create ();
    wakeup = Condition.create ();
    stats =
      Array.init jobs (fun worker_id ->
          {
            worker_id;
            items_run = 0;
            steals = 0;
            queue_waits = 0;
            wait_seconds = 0.0;
          });
    metrics =
      (* Declared eagerly so the series exist even for a run with no waits
         or steals (a jobs=1 exploration has neither). *)
      Option.map
        (fun sh ->
          {
            mmet = Mutex.create ();
            m_queue_wait = Obs.Metrics.histogram sh "sched.queue_wait_s";
            m_frontier =
              Obs.Metrics.histogram sh ~bounds:Obs.Metrics.count_bounds
                "sched.frontier_size";
            m_steals = Obs.Metrics.counter sh "sched.steals";
            m_sched_wait =
              (if profile then
                 Some (Obs.Metrics.histogram sh "profile.sched_wait_s")
               else None);
          })
        metrics;
    admit;
  }

let total_size t =
  let n = ref 0 in
  Array.iter (fun d -> n := !n + Atomic.get d.dsize) t.deques;
  !n

let observe_frontier t =
  match t.metrics with
  | None -> ()
  | Some ms ->
      Mutex.lock ms.mmet;
      Obs.Metrics.observe ms.m_frontier (float_of_int (total_size t));
      Mutex.unlock ms.mmet

(* Wake blocked thieves. Pushers call this after publishing; the SC-atomic
   handshake with [idle_wait] (sleepers incremented under [m] before the
   re-scan, checked here after the publish) guarantees that either the
   re-scan sees the new item or this sees the sleeper. *)
let notify t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.m;
    Condition.broadcast t.wakeup;
    Mutex.unlock t.m
  end

(* ---- deque primitives (caller holds [d.lock]) ---- *)

(* Insert a batch preserving the documented pop order: the batch goes on
   top of the owner's stack in order (head pops first). [live] is bumped
   *before* insertion so an idle scanner never observes items the counter
   has not admitted to exist. *)
let insert_locked t d items n =
  Atomic.fetch_and_add t.live n |> ignore;
  d.front <- items @ d.front;
  Atomic.fetch_and_add d.dsize n |> ignore

let pop_near_locked d =
  (match d.front with
  | [] ->
      d.front <- List.rev d.back;
      d.back <- []
  | _ :: _ -> ());
  match d.front with
  | [] -> None
  | x :: tl ->
      d.front <- tl;
      Atomic.decr d.dsize;
      Some x

let pop_far_locked d =
  (match d.back with
  | [] ->
      d.back <- List.rev d.front;
      d.front <- []
  | _ :: _ -> ());
  match d.back with
  | [] -> None
  | x :: tl ->
      d.back <- tl;
      Atomic.decr d.dsize;
      Some x

(* ---- public queue operations ---- *)

(* External pushes (seeding, before [run]) land on worker 0's deque; the
   pool redistributes by stealing. This keeps the documented batch pop
   order exact for the jobs=1 sequential walk. *)
let push_batch t items =
  let items = List.filter t.admit items in
  let n = List.length items in
  if n > 0 then begin
    let d = t.deques.(0) in
    Mutex.lock d.lock;
    insert_locked t d items n;
    Mutex.unlock d.lock;
    observe_frontier t;
    notify t
  end

let push t x = push_batch t [ x ]

let cancel t =
  Atomic.set t.is_cancelled true;
  Mutex.lock t.m;
  Condition.broadcast t.wakeup;
  Mutex.unlock t.m

let cancelled t = Atomic.get t.is_cancelled

let lock_all t = Array.iter (fun d -> Mutex.lock d.lock) t.deques
let unlock_all t = Array.iter (fun d -> Mutex.unlock d.lock) t.deques

let pending t =
  lock_all t;
  let n = total_size t in
  unlock_all t;
  n

let executed t = Atomic.get t.claimed
let stats t = Array.to_list t.stats

(* A consistent cut of the outstanding work: everything queued on any deque
   plus everything any worker is executing, read with every deque lock held.
   Each transition (claim: pop + set [current]; finish: push children +
   clear [current]) happens under a single deque lock, so the cut sees each
   item exactly once — an in-flight item appears because its children are
   not published yet, and a resume that re-runs it regenerates exactly its
   subtree. *)
let snapshot t =
  lock_all t;
  let acc =
    Array.fold_left
      (fun acc d ->
        let acc =
          match d.current with Some x -> x :: acc | None -> acc
        in
        List.rev_append d.front (List.rev_append (List.rev d.back) acc))
      [] t.deques
  in
  unlock_all t;
  List.rev acc

(* ---- claiming ---- *)

(* Reserve one unit of budget. The caller must already hold the lock of the
   deque it is about to pop, and must not consume the reservation unless
   the pop succeeds. *)
let reserve_budget t =
  let rec go () =
    let c = Atomic.get t.claimed in
    if c >= t.budget then false
    else if Atomic.compare_and_set t.claimed c (c + 1) then true
    else go ()
  in
  go ()

let budget_exhausted t = Atomic.get t.claimed >= t.budget

(* Claim from one deque: budget-reserve, pop, and publish the in-flight
   item in one lock acquisition. *)
let try_claim t d ~worker ~near =
  Mutex.lock d.lock;
  let item =
    if Atomic.get d.dsize = 0 then None
    else if not (reserve_budget t) then None
    else
      match (if near then pop_near_locked d else pop_far_locked d) with
      | Some x ->
          t.deques.(worker).current <- Some x;
          Some x
      | None ->
          (* dsize said non-empty but the pop found nothing: impossible
             (both are under the lock), but keep the budget honest. *)
          Atomic.decr t.claimed;
          None
  in
  Mutex.unlock d.lock;
  item

(* Wait for new work to appear, or for the pool to quiesce. Returns [`Done]
   when the worker should exit, [`Retry] when a scan is worth repeating.

   Soundness of the sleep: [sleepers] is incremented (SC atomic) before the
   re-scan of the deque sizes; a pusher increments [dsize] before reading
   [sleepers] in [notify]. By sequential consistency, if the re-scan missed
   the pusher's item then the pusher's [sleepers] read sees this waiter and
   broadcasts — and since this waiter holds [m] from the increment until
   [Condition.wait] releases it, the broadcast cannot fire in the gap. *)
let idle_wait t (ws : worker_stats) =
  Mutex.lock t.m;
  Atomic.incr t.sleepers;
  let rec await () =
    if
      Atomic.get t.is_cancelled || budget_exhausted t
      || Atomic.get t.live = 0
    then `Done
    else if total_size t > 0 then `Retry
    else begin
      ws.queue_waits <- ws.queue_waits + 1;
      let t0 = Unix.gettimeofday () in
      Condition.wait t.wakeup t.m;
      let waited = Unix.gettimeofday () -. t0 in
      ws.wait_seconds <- ws.wait_seconds +. waited;
      (match t.metrics with
      | Some ms ->
          Obs.Metrics.observe ms.m_queue_wait waited;
          (match ms.m_sched_wait with
          | Some h -> Obs.Metrics.observe h waited
          | None -> ())
      | None -> ());
      await ()
    end
  in
  let r = await () in
  Atomic.decr t.sleepers;
  Mutex.unlock t.m;
  r

(* Claim the next item: own deque first (near end — depth-first), then one
   steal sweep over the victims (far end), then the idle path. Returns
   [None] on quiescence, exhausted budget, or cancellation. *)
let next t (ws : worker_stats) =
  let w = ws.worker_id in
  let rec claim () =
    if Atomic.get t.is_cancelled || budget_exhausted t then None
    else
      match try_claim t t.deques.(w) ~worker:w ~near:true with
      | Some _ as it -> it
      | None -> steal 1
  and steal k =
    if k >= t.jobs then
      if Atomic.get t.live = 0 then None
      else begin
        match idle_wait t ws with `Done -> None | `Retry -> claim ()
      end
    else
      let v = (w + k) mod t.jobs in
      (* A thief takes the far (oldest, shallowest) end — classic work
         stealing. *)
      match try_claim t t.deques.(v) ~worker:w ~near:false with
      | Some _ as it ->
          ws.steals <- ws.steals + 1;
          (match t.metrics with
          | Some ms ->
              Mutex.lock ms.mmet;
              Obs.Metrics.incr ms.m_steals;
              Mutex.unlock ms.mmet
          | None -> ());
          it
      | None -> steal (k + 1)
  in
  claim ()

(* Publish a completed item's children on the worker's own deque and clear
   its in-flight slot in one lock acquisition. Children are pushed even
   after cancellation: nothing will claim them ([next] checks the flag
   first), but a checkpoint taken after [run] returns must see the child
   frontier of every completed replay, or resuming would silently drop
   those subtrees. *)
let finish t ~worker children =
  let d = t.deques.(worker) in
  let children = List.filter t.admit children in
  let n = List.length children in
  Mutex.lock d.lock;
  if n > 0 then insert_locked t t.deques.(worker) children n;
  d.current <- None;
  Mutex.unlock d.lock;
  (* The finished item leaves [live] only after its children entered it, so
     the counter never dips to zero while its subtree is unpublished. *)
  Atomic.decr t.live;
  if n > 0 then observe_frontier t;
  (* Wake idle thieves for the children, and — when [live] hit zero — for
     the quiescence they are waiting on. *)
  notify t

let worker_loop t ws f =
  let rec go () =
    match next t ws with
    | None -> ()
    | Some item ->
        let children =
          match f ~worker:ws.worker_id item with
          | children -> children
          | exception exn ->
              (* Capture the backtrace before [finish] runs any code that
                 would overwrite it, and keep [live] honest so peers
                 terminate instead of waiting forever on a worker that
                 died. *)
              let bt = Printexc.get_raw_backtrace () in
              finish t ~worker:ws.worker_id [];
              Printexc.raise_with_backtrace exn bt
        in
        ws.items_run <- ws.items_run + 1;
        finish t ~worker:ws.worker_id children;
        go ()
  in
  go ()

let run t f =
  Mutex.lock t.m;
  if t.ran then begin
    Mutex.unlock t.m;
    invalid_arg "Scheduler.run: already ran"
  end;
  t.ran <- true;
  Mutex.unlock t.m;
  if pending t = 0 then ()
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
