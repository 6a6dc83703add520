type pid = int

type blocked_info = { pid : pid; reason : string }

type outcome =
  | All_finished
  | Deadlock of blocked_info list
  | Crashed of pid * exn * Printexc.raw_backtrace

type state =
  | Ready
  | Running
  | Blocked of (unit -> string)
      (* the block reason, rendered only by [blocked_processes] *)
  | Finished
  | Crashed_st of exn * Printexc.raw_backtrace

type proc = {
  id : pid;
  body : unit -> unit;
  mutable state : state;
  mutable resume : (unit, unit) Effect.Deep.continuation option;
}

type sched = {
  mutable procs : proc array;
  mutable spawned : proc list;  (* reversed; frozen into [procs] at [run] *)
  ready : pid Queue.t;
  mutable current : pid;
  mutable started : bool;
  mutable crash : (pid * exn * Printexc.raw_backtrace) option;
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Block : (unit -> string) -> unit Effect.t

let create () =
  {
    procs = [||];
    spawned = [];
    ready = Queue.create ();
    current = -1;
    started = false;
    crash = None;
  }

let spawn sched body =
  if sched.started then invalid_arg "Coroutine.spawn: scheduler already running";
  let id = List.length sched.spawned in
  let p = { id; body; state = Ready; resume = None } in
  sched.spawned <- p :: sched.spawned;
  Queue.add id sched.ready;
  id

let current sched =
  if sched.current < 0 then
    invalid_arg "Coroutine.current: called outside a process body";
  sched.current

let yield () = Effect.perform Yield
let block reason = Effect.perform (Block reason)

let wake sched pid =
  let p = sched.procs.(pid) in
  match p.state with
  | Blocked _ ->
      p.state <- Ready;
      Queue.add pid sched.ready
  | Ready | Running | Finished | Crashed_st _ -> ()

let wake_all sched pids = List.iter (wake sched) pids

let blocked_processes sched =
  Array.to_list sched.procs
  |> List.filter_map (fun p ->
         match p.state with
         | Blocked reason -> Some { pid = p.id; reason = reason () }
         | Ready | Running | Finished | Crashed_st _ -> None)

(* Run one process until it yields control back (by finishing, blocking,
   yielding, or crashing). The handler stores the continuation in the process
   record; the scheduler resumes it later. [current] names the process for
   the duration of the step and is reset once control is back here.

   The handler record (and its four closures) is needed only at the first
   dispatch: the deep handler installed by [match_with] stays in force for
   every resumed continuation, where a plain [continue] suffices. Building
   it inside the first-start branch keeps the resume path — the replay hot
   path, entered once per block/yield — allocation-free. *)
let step sched (p : proc) =
  p.state <- Running;
  sched.current <- p.id;
  (match p.resume with
  | Some k ->
      p.resume <- None;
      Effect.Deep.continue k ()
  | None ->
      let handler : (unit, unit) Effect.Deep.handler =
        {
          retc = (fun () -> p.state <- Finished);
          exnc =
            (fun exn ->
              let bt = Printexc.get_raw_backtrace () in
              p.state <- Crashed_st (exn, bt);
              sched.crash <- Some (p.id, exn, bt));
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Yield ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      p.state <- Ready;
                      p.resume <-
                        Some (k : (unit, unit) Effect.Deep.continuation);
                      Queue.add p.id sched.ready)
              | Block reason ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      p.state <- Blocked reason;
                      p.resume <-
                        Some (k : (unit, unit) Effect.Deep.continuation))
              | _ -> None);
        }
      in
      Effect.Deep.match_with p.body () handler);
  sched.current <- -1

let run sched =
  if sched.started then invalid_arg "Coroutine.run: scheduler already ran";
  sched.started <- true;
  sched.procs <- Array.of_list (List.rev sched.spawned);
  sched.spawned <- [];
  let rec loop () =
    match sched.crash with
    | Some (pid, exn, bt) -> Crashed (pid, exn, bt)
    | None -> (
        match Queue.take_opt sched.ready with
        | Some pid ->
            let p = sched.procs.(pid) in
            (* A pid can sit in the queue twice only through API misuse
               ([wake] guards against it); re-check state defensively. *)
            (match p.state with
            | Ready -> step sched p
            | Running | Blocked _ | Finished | Crashed_st _ -> ());
            loop ()
        | None -> (
            match blocked_processes sched with
            | [] -> All_finished
            | blocked -> Deadlock blocked))
  in
  loop ()
