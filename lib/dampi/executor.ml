(* The execution layer under the exploration walk: run context, robustness
   envelope, and the watchdog/retry attempt loop. Shared verbatim by the
   in-process pool and the distributed remote workers, so a replay behaves
   identically wherever it executes. See executor.mli. *)

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

type event =
  | Attempt_wall of float
  | Timed_out
  | Retried
  | Transient_fault
  | Cancelled

type outcome =
  | Completed of Report.run_record
  | Poisoned
  | Gave_up

let run_attempts ~rb ~runner ~worker ~metrics ~need_poison ~external_poison
    ~abort_retries ~wrap ~on_event ~key plan ~fork_index =
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
                (* The wall check costs a syscall; poll it every 64 steps.
                   The step budget stays exact (deterministic). *)
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
    let t0 = Unix.gettimeofday () in
    let record = wrap ~attempt:n (fun () -> runner ~ctx plan ~fork_index) in
    on_event (Attempt_wall (Unix.gettimeofday () -. t0));
    let retry () =
      on_event Retried;
      if rb.retry_backoff > 0.0 then
        (* Capped exponential backoff; pure wall-clock politeness, no effect
           on what the retry explores. *)
        Unix.sleepf
          (Float.min 1.0 (rb.retry_backoff *. Float.pow 2.0 (float_of_int n)));
      attempt ~n:(n + 1)
    in
    if record.Report.cancelled then
      if !timed_out then begin
        on_event Timed_out;
        if n < rb.max_retries && not (abort_retries ()) then retry ()
        else Gave_up
      end
      else begin
        on_event Cancelled;
        Poisoned
      end
    else
      match record.Report.outcome with
      | Sim.Coroutine.Crashed (_, exn, _)
        when Mpi.Fault.is_transient exn
             && n < rb.max_retries
             && not (abort_retries ()) ->
          (* An injected environment fault, not a program bug: retry under a
             fresh salt. Once retries are exhausted the crash is counted and
             recorded like any other (the message names the fault). *)
          on_event Transient_fault;
          retry ()
      | _ -> Completed record
  in
  attempt ~n:0

type drive_outcome =
  | Drained
  | Lost of { reason : string; leftover : Checkpoint.item list }

type t = {
  drive : unit -> drive_outcome;
  snapshot : unit -> Checkpoint.item list;
  stats : unit -> Report.worker_stat list;
  fence_epoch : unit -> int;
}
