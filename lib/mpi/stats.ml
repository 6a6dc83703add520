(** MPI operation census, per process and per class.

    Reproduces the classification of the paper's Table I: Send-Recv (all
    point-to-point posts), Collective, and Wait (all completion calls).
    Local operations (datatype creation, etc.) are not modelled and hence not
    counted, matching the paper's methodology. *)

type op_class = Send_recv | Collective | Wait

type t = {
  send_recv : int array;
  collective : int array;
  wait : int array;
}

let create np =
  {
    send_recv = Array.make np 0;
    collective = Array.make np 0;
    wait = Array.make np 0;
  }

let reset t =
  List.iter (fun a -> Array.fill a 0 (Array.length a) 0) [ t.send_recv; t.collective; t.wait ]

let record t pid = function
  | Send_recv -> t.send_recv.(pid) <- t.send_recv.(pid) + 1
  | Collective -> t.collective.(pid) <- t.collective.(pid) + 1
  | Wait -> t.wait.(pid) <- t.wait.(pid) + 1

let sum = Array.fold_left ( + ) 0
let total_send_recv t = sum t.send_recv
let total_collective t = sum t.collective
let total_wait t = sum t.wait
let total t = total_send_recv t + total_collective t + total_wait t

let per_proc_avg counts =
  if Array.length counts = 0 then 0.0
  else float_of_int (sum counts) /. float_of_int (Array.length counts)

let send_recv_per_proc t = per_proc_avg t.send_recv
let collective_per_proc t = per_proc_avg t.collective
let wait_per_proc t = per_proc_avg t.wait

let all_per_proc t =
  send_recv_per_proc t +. collective_per_proc t +. wait_per_proc t

let pp ppf t =
  Format.fprintf ppf
    "@[<v>All %d (%.0f/proc)@ Send-Recv %d (%.0f/proc)@ Collective %d \
     (%.1f/proc)@ Wait %d (%.0f/proc)@]"
    (total t) (all_per_proc t) (total_send_recv t) (send_recv_per_proc t)
    (total_collective t) (collective_per_proc t) (total_wait t)
    (wait_per_proc t)
