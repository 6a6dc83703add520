(* The wire layer of the distributed workload, measured on captured bytes.

   In the traced run only, a relay process sits between the coordinator
   and the worker. It forwards every byte both ways and keeps a copy; once
   both sides have closed, it writes the two streams out. Afterwards the
   frames are decoded with the protocol's own readers ([Wire.read_to_worker]
   for the coordinator's stream, the [Wire.feed] assembler for the
   worker's) and re-encoded with its writers, each call timed. *)

open Dampi
module Span = Perfbench.Span

let write_all fd buf n =
  let rec go off =
    if off < n then
      match Unix.write fd buf off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

let save path buf =
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

(* Forward between [coord] and [worker] until both ends close, then write
   the coordinator-to-worker stream to [down] and the reverse to [up]. *)
let relay ~coord ~worker ~down ~up =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let to_worker = Buffer.create (1 lsl 20) and to_coord = Buffer.create (1 lsl 20) in
  let chunk = Bytes.create 65536 in
  let live = ref [ coord; worker ] in
  while !live <> [] do
    let ready, _, _ =
      try Unix.select !live [] [] (-1.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let from_coord = fd == coord in
        let dst = if from_coord then worker else coord in
        let n =
          try Unix.read fd chunk 0 (Bytes.length chunk)
          with Unix.Unix_error _ -> 0
        in
        if n = 0 then begin
          live := List.filter (fun x -> x != fd) !live;
          try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()
        end
        else begin
          Buffer.add_subbytes (if from_coord then to_worker else to_coord) chunk 0 n;
          write_all dst chunk n
        end)
      ready
  done;
  save down to_worker;
  save up to_coord

type wire = {
  bytes : int;
  frames : int;
  leases : int;
  leased_items : int;
  decode_s : float;
  encode_s : float;
  malformed : int;
}

let file_size path = (Unix.stat path).Unix.st_size

let analyse sp ~down ~up =
  let l_decode = Span.layer sp "wire.decode" and l_encode = Span.layer sp "wire.encode" in
  (* coordinator -> worker: one blocking read per frame *)
  let ic = open_in_bin down in
  let rec read acc =
    match Span.around sp l_decode (fun () -> Wire.read_to_worker ic) with
    | Ok m -> read (m :: acc)
    | Error _ -> List.rev acc
  in
  let downs = read [] in
  let clean_end = pos_in ic = in_channel_length ic in
  close_in ic;
  (* worker -> coordinator: the select loop's assembler, fed in chunks *)
  let a = Wire.assembler () in
  let data = In_channel.with_open_bin up In_channel.input_all in
  let chunk = 65536 in
  let ups = ref [] and malformed = ref (if clean_end then 0 else 1) in
  let off = ref 0 in
  while !off < String.length data do
    let n = min chunk (String.length data - !off) in
    let buf = Bytes.of_string (String.sub data !off n) in
    List.iter
      (function Ok m -> ups := m :: !ups | Error _ -> incr malformed)
      (Span.around sp l_decode (fun () -> Wire.feed a buf n));
    off := !off + n
  done;
  let ups = List.rev !ups in
  List.iter (fun m -> ignore (Span.around sp l_encode (fun () -> Wire.to_worker_string m))) downs;
  List.iter (fun m -> ignore (Span.around sp l_encode (fun () -> Wire.to_coord_string m))) ups;
  let leases, leased_items =
    List.fold_left
      (fun (l, n) -> function
        | Wire.Lease { items; _ } -> (l + 1, n + List.length items)
        | _ -> (l, n))
      (0, 0) downs
  in
  {
    bytes = file_size down + file_size up;
    frames = List.length downs + List.length ups;
    leases;
    leased_items;
    decode_s = fst (Span.layer_total sp "wire.decode");
    encode_s = fst (Span.layer_total sp "wire.encode");
    malformed = !malformed;
  }
