(* Wall-clock timing of calls into the program, taken from outside it.

   Two forms. A recorded span keeps its start, stop, layer and an explicit
   parent id, so self time (duration minus the durations of its direct
   children) stays right when spans of different simulated ranks interleave:
   a rank suspended inside a call does not adopt the calls other ranks make
   meanwhile, which a begin/end stack would. An accumulator keeps only a sum
   and a count, for calls too frequent to keep one span each; the start time
   lives on the caller's own stack, so a call that suspends while other
   ranks run still adds exactly its own duration. *)

let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Seconds. Replaceable so tests can drive a fake clock. *)
let clock = ref monotonic
let now () = !clock ()

(* ---- accumulators ---- *)

type acc = { sum : float array; mutable calls : int }

let acc () = { sum = [| 0.0 |]; calls = 0 }
let total a = a.sum.(0)
let calls a = a.calls

let add a dt =
  a.sum.(0) <- a.sum.(0) +. dt;
  a.calls <- a.calls + 1

let timed a f =
  let t0 = now () in
  match f () with
  | v ->
      add a (now () -. t0);
      v
  | exception e ->
      add a (now () -. t0);
      raise e

(* ---- recorded spans ---- *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;  (* layer id -> name *)
  mutable nlayers : int;
  mutable layer : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable len : int;
}

let create () =
  {
    ids = Hashtbl.create 16;
    names = Array.make 16 "";
    nlayers = 0;
    layer = Array.make 1024 0;
    parent = Array.make 1024 (-1);
    start = Array.make 1024 0.0;
    stop = Array.make 1024 0.0;
    len = 0;
  }

(* The id of a layer name, registering it on first use. *)
let layer t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = t.nlayers in
      if id = Array.length t.names then
        t.names <- Array.append t.names (Array.make id "");
      t.names.(id) <- name;
      t.nlayers <- id + 1;
      Hashtbl.replace t.ids name id;
      id

let grow t =
  let n = 2 * Array.length t.layer in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.layer <- extend t.layer 0;
  t.parent <- extend t.parent (-1);
  t.start <- extend t.start 0.0;
  t.stop <- extend t.stop 0.0

let record t ?(parent = -1) layer ~start ~stop =
  if t.len = Array.length t.layer then grow t;
  let id = t.len in
  t.layer.(id) <- layer;
  t.parent.(id) <- parent;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.len <- id + 1;
  id

let enter t ?parent layer =
  let now = now () in
  record t ?parent layer ~start:now ~stop:now

let leave t id = t.stop.(id) <- now ()
let duration t id = t.stop.(id) -. t.start.(id)

(* Run [f] inside a span of [layer]. *)
let around t ?parent layer f =
  let id = enter t ?parent layer in
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

(* Per layer, in registration order: (name, summed self time, span count). *)
let self_times t =
  let children = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- children.(p) +. duration t i
  done;
  let self = Array.make t.nlayers 0.0 in
  let count = Array.make t.nlayers 0 in
  for i = 0 to t.len - 1 do
    let l = t.layer.(i) in
    self.(l) <- self.(l) +. (duration t i -. children.(i));
    count.(l) <- count.(l) + 1
  done;
  List.init t.nlayers (fun l -> (t.names.(l), self.(l), count.(l)))

(* Summed self time and span count of one layer (0 when it never ran). *)
let layer_total t name =
  match List.find_opt (fun (n, _, _) -> n = name) (self_times t) with
  | Some (_, s, c) -> (s, c)
  | None -> (0.0, 0)

(* Mean self time of one layer's spans, in µs. *)
let layer_mean_us t name =
  match layer_total t name with
  | _, 0 -> 0.0
  | s, c -> 1e6 *. s /. float_of_int c

(* One span per line: id, parent, layer, start and stop in seconds. *)
let output oc t =
  output_string oc "id\tparent\tlayer\tstart_s\tstop_s\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" i t.parent.(i)
      t.names.(t.layer.(i)) t.start.(i) t.stop.(i)
  done
