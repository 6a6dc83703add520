(* The execution layer under the exploration walk: run context, robustness
   envelope, and the one function that runs a frontier item (cache lookup,
   watchdog/retry attempt loop, expansion). Shared verbatim by the
   in-process pool, the self run and the distributed remote workers, so an
   item behaves identically wherever it executes. See executor.mli. *)

type checkpoint_cfg = { path : string; every : int; label : string }

type robustness = {
  replay_timeout : float option;
  max_replay_steps : int option;
  max_retries : int;
  retry_backoff : float;
  fault : Mpi.Fault.spec option;
  net_fault : Mpi.Fault.Net.spec option;
  checkpoint : checkpoint_cfg option;
  interrupt_after : int option;
}

let default_robustness =
  {
    replay_timeout = None;
    max_replay_steps = None;
    max_retries = 0;
    retry_backoff = 0.0;
    fault = None;
    net_fault = None;
    checkpoint = None;
    interrupt_after = None;
  }

type run_ctx = {
  worker : int;
  metrics : Obs.Metrics.shard option;
  poison : (unit -> bool) option;
  salt : int;
}

let null_ctx = { worker = 0; metrics = None; poison = None; salt = 0 }

type runner =
  ctx:run_ctx -> Decisions.plan -> fork_index:int -> Report.run_record

type result = {
  run : Wire.run_result;
  poisoned : bool;
  replayed : bool;
  wildcards : int;
}

let run ~rb ~runner ?cache ~prune ~worker ~metrics ~need_poison
    ~external_poison ~abort_retries ?(wrap = fun ~attempt:_ f -> f ()) ~np
    ~key ~sleep schedule =
  let timeouts = ref 0 in
  let retries = ref 0 in
  let transients = ref 0 in
  let result ?(poisoned = false) ?(replayed = false) ?(wildcards = 0) payload =
    let run =
      { Wire.key; payload; timeouts = !timeouts; retries = !retries;
        transients = !transients }
    in
    { run; poisoned; replayed; wildcards }
  in
  (* A cache hit and an executed replay count and expand through the same
     artifact, so their children are identical. *)
  let counted ~replayed (entry : Prefix_cache.entry) =
    let exp =
      Prune.expand ~key ~prune ~sleep ~plan_decisions:schedule
        entry.Prefix_cache.epochs
    in
    result ~replayed ~wildcards:entry.Prefix_cache.wildcards
      (Some
         {
           Wire.vtime = entry.Prefix_cache.vtime;
           bounded = Prefix_cache.bounded entry;
           pruned = exp.Prune.suppressed;
           errors = entry.Prefix_cache.errors;
           children = exp.Prune.items;
         })
  in
  match Option.bind cache (fun pc -> Prefix_cache.find pc ~key schedule) with
  | Some entry -> counted ~replayed:false entry
  | None -> (
      let plan = Decisions.of_decisions ~np schedule in
      let fork_index = List.length schedule - 1 in
      let rec attempt ~n =
        let timed_out = ref false in
        let steps = ref 0 in
        let deadline =
          Option.map (fun s -> Unix.gettimeofday () +. s) rb.replay_timeout
        in
        let poison =
          if not need_poison then None
          else
            Some
              (fun () ->
                if external_poison () then true
                else begin
                  incr steps;
                  let hit =
                    (match rb.max_replay_steps with
                    | Some limit -> !steps > limit
                    | None -> false)
                    ||
                    (* The wall check costs a syscall; poll it every 64
                       steps. The step budget stays exact (deterministic). *)
                    match deadline with
                    | Some d -> !steps land 63 = 0 && Unix.gettimeofday () > d
                    | None -> false
                  in
                  if hit then timed_out := true;
                  hit
                end)
        in
        let ctx =
          { worker; metrics; poison; salt = Mpi.Fault.salt_of_schedule ~attempt:n key }
        in
        let record = wrap ~attempt:n (fun () -> runner ~ctx plan ~fork_index) in
        let retry () =
          incr retries;
          if rb.retry_backoff > 0.0 then
            (* Capped exponential backoff; pure wall-clock politeness, no
               effect on what the retry explores. *)
            Unix.sleepf
              (Float.min 1.0 (rb.retry_backoff *. Float.pow 2.0 (float_of_int n)));
          attempt ~n:(n + 1)
        in
        if record.Report.cancelled then
          if !timed_out then begin
            incr timeouts;
            if n < rb.max_retries && not (abort_retries ()) then retry ()
            else `Gave_up
          end
          else `Poisoned
        else
          match record.Report.outcome with
          | Sim.Coroutine.Crashed (_, exn, _)
            when Mpi.Fault.is_transient exn
                 && n < rb.max_retries
                 && not (abort_retries ()) ->
              (* An injected environment fault, not a program bug: retry
                 under a fresh salt. Once retries are exhausted the crash is
                 counted and recorded like any other (the message names the
                 fault). *)
              incr transients;
              retry ()
          | _ -> `Completed record
      in
      match attempt ~n:0 with
      | `Gave_up -> result None
      | `Poisoned -> result ~poisoned:true None
      | `Completed record ->
          let entry = Prefix_cache.entry_of_record record in
          Option.iter (fun pc -> Prefix_cache.add pc ~key schedule entry) cache;
          counted ~replayed:true entry)

type drive_outcome =
  | Drained
  | Lost of { reason : string; leftover : Checkpoint.item list }

type t = {
  drive : unit -> drive_outcome;
  snapshot : unit -> Checkpoint.item list;
  stats : unit -> Report.worker_stat list;
  fence_epoch : unit -> int;
}
