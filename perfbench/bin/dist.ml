(* The distributed workload's processes: one [Remote_worker.serve] worker,
   forked from the coordinator's process and connected over a socketpair,
   as a [verify --distribute 1] worker is a separate process with its own
   GC. The traced run puts the relay of {!Wire_probe} on that link. *)

open Dampi

type t = {
  setup : Coordinator.setup;
  coord : Unix.file_descr;  (* the coordinator's end of the link *)
  worker : Proc.child;
  relay : Proc.child option;
  down : string;  (* captured coordinator-to-worker bytes (traced run) *)
  up : string;  (* captured worker-to-coordinator bytes *)
}

let pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

(* Fork the worker (and, traced, the relay). [close] lists descriptors of
   the calling process the children must drop; [worker] is the body run on
   the worker's end of the link. *)
let start w ~dir ~traced ~close ~worker =
  let coord_end, far_end = pair () in
  let worker_end, relay_end =
    if traced then
      let a, b = pair () in
      (a, Some (far_end, b))
    else (far_end, None)
  in
  let ours = coord_end :: worker_end :: (match relay_end with Some (x, y) -> [ x; y ] | None -> []) in
  let without keep = List.filter (fun fd -> not (List.memq fd keep)) ours in
  let worker_child =
    Proc.fork ~close:(close @ without [ worker_end ]) (worker ~fd:worker_end)
  in
  let down = Filename.concat dir "wire.down" and up = Filename.concat dir "wire.up" in
  let relay =
    Option.map
      (fun (coord, work) ->
        Proc.fork
          ~close:(close @ without [ coord; work ] @ [ Unix.descr_of_in_channel worker_child.Proc.ic ])
          (fun _oc -> Wire_probe.relay ~coord ~worker:work ~down ~up))
      relay_end
  in
  List.iter Unix.close (without [ coord_end ]);
  let setup =
    {
      Coordinator.attach = Coordinator.Fds [ coord_end ];
      job = Workload.job w;
      lease_size = Coordinator.default_lease_size;
      heartbeat_timeout = Coordinator.default_heartbeat_timeout;
      join_timeout = Coordinator.default_join_timeout;
      rejoin_grace = Coordinator.default_rejoin_grace;
      auth = None;
      net_fault = None;
      outq_budget = Coordinator.default_outq_budget;
    }
  in
  { setup; coord = coord_end; worker = worker_child; relay; down; up }

(* Reap the relay (if any) and the worker; the worker's report lines. *)
let finish t =
  let relay_ok =
    match t.relay with
    | None -> Ok ()
    | Some r -> (
        (* the relay reports no verdict; only its exit status counts *)
        match snd (Unix.waitpid [] r.Proc.pid) with
        | Unix.WEXITED 0 ->
            close_in r.Proc.ic;
            Ok ()
        | _ ->
            close_in r.Proc.ic;
            Error "relay failed")
  in
  let w = Proc.finish t.worker in
  match relay_ok with
  | Ok () -> w
  | Error e ->
      {
        w with
        Proc.outcome =
          (match w.Proc.outcome with Ok () -> Error e | Error x -> Error (x ^ "; " ^ e));
      }
