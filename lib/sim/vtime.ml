type t = { clocks : float array }

let create n =
  if n <= 0 then invalid_arg "Vtime.create: need at least one process";
  { clocks = Array.make n 0.0 }

let reset t = Array.fill t.clocks 0 (Array.length t.clocks) 0.0
let now t pid = t.clocks.(pid)

let advance t pid dt =
  assert (dt >= 0.0);
  t.clocks.(pid) <- t.clocks.(pid) +. dt

let observe t pid stamp =
  if stamp > t.clocks.(pid) then t.clocks.(pid) <- stamp

let synchronize t pids cost =
  let peak = List.fold_left (fun acc pid -> Float.max acc t.clocks.(pid)) 0.0 pids in
  let finish = peak +. cost in
  List.iter (fun pid -> t.clocks.(pid) <- finish) pids

let makespan t = Array.fold_left Float.max 0.0 t.clocks

module Server = struct
  type server = {
    service : float;
    mutable busy_until : float;
    mutable served : int;
  }

  let create ~service = { service; busy_until = 0.0; served = 0 }

  let serve srv ~arrival =
    let start = Float.max srv.busy_until arrival in
    let finish = start +. srv.service in
    srv.busy_until <- finish;
    srv.served <- srv.served + 1;
    finish

  let served srv = srv.served

  let reset srv =
    srv.busy_until <- 0.0;
    srv.served <- 0
end
