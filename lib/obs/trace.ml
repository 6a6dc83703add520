(* Sharded span/event collector. See trace.mli for the contract. Timestamps
   come from one gettimeofday epoch shared by all sinks so cross-worker
   spans line up in the exported timeline; ids are deterministic
   (seq * shards + worker) so span trees are reproducible. *)

type arg = Str of string | Int of int | Float of float

type event = {
  id : int;
  parent : int;
  name : string;
  worker : int;
  t_us : float;
  dur_us : float;
  args : (string * arg) list;
}

type sink = {
  sk_worker : int;
  stride : int;  (* total shard count, for id spacing *)
  epoch : float;
  mutable seq : int;
  mutable log : event list;  (* reversed *)
}

type t = { sinks : sink array }

let create ~shards () =
  let shards = max 1 shards in
  let epoch = Unix.gettimeofday () in
  {
    sinks =
      Array.init shards (fun sk_worker ->
          { sk_worker; stride = shards; epoch; seq = 0; log = [] });
  }

let sink t i = t.sinks.(i)

let fresh_id sk =
  let id = (sk.seq * sk.stride) + sk.sk_worker in
  sk.seq <- sk.seq + 1;
  id

let now_us sk = (Unix.gettimeofday () -. sk.epoch) *. 1e6

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_args : (string * arg) list;
  sp_t0 : float;
}

let begin_span sk ?(parent = -1) ?(args = []) name =
  { sp_id = fresh_id sk; sp_parent = parent; sp_name = name; sp_args = args;
    sp_t0 = now_us sk }

let end_span sk sp =
  sk.log <-
    {
      id = sp.sp_id;
      parent = sp.sp_parent;
      name = sp.sp_name;
      worker = sk.sk_worker;
      t_us = sp.sp_t0;
      dur_us = Float.max 0.0 (now_us sk -. sp.sp_t0);
      args = sp.sp_args;
    }
    :: sk.log

let with_span sk ?parent ?args name f =
  let sp = begin_span sk ?parent ?args name in
  Fun.protect ~finally:(fun () -> end_span sk sp) f

let span_id sp = sp.sp_id

let events t =
  Array.to_list t.sinks
  |> List.concat_map (fun sk -> List.rev sk.log)
  |> List.sort (fun a b ->
         let c = compare a.t_us b.t_us in
         if c <> 0 then c else compare a.id b.id)

(* ---- Export ---- *)

let buf_args b args =
  Buffer.add_char b '{';
  let emit i (k, v) =
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b "\"%s\":" (Metrics.json_escape k);
    match v with
    | Str s -> Printf.bprintf b "\"%s\"" (Metrics.json_escape s)
    | Int n -> Printf.bprintf b "%d" n
    | Float f -> Buffer.add_string b (Metrics.json_float f)
  in
  List.iteri emit args;
  Buffer.add_char b '}'

let to_chrome evs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      Printf.bprintf b
        "{\"name\":\"%s\",\"cat\":\"dampi\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"ph\":\"X\",\"dur\":%s,\"args\":"
        (Metrics.json_escape ev.name) ev.worker
        (Metrics.json_float ev.t_us)
        (Metrics.json_float ev.dur_us);
      buf_args b (("id", Int ev.id) :: ("parent", Int ev.parent) :: ev.args);
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(* ---- Span trees ---- *)

type tree = { t_name : string; t_args : (string * arg) list; t_children : tree list }

let span_forest evs =
  let evs = List.sort (fun a b -> compare a.id b.id) evs in
  let children = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      Hashtbl.replace children ev.parent
        (ev :: Option.value ~default:[] (Hashtbl.find_opt children ev.parent)))
    evs;
  let rec build ev =
    {
      t_name = ev.name;
      t_args = ev.args;
      t_children =
        Option.value ~default:[] (Hashtbl.find_opt children ev.id)
        |> List.sort (fun a b -> compare a.id b.id)
        |> List.map build;
    }
  in
  let ids = Hashtbl.create 64 in
  List.iter (fun ev -> Hashtbl.replace ids ev.id ()) evs;
  evs
  |> List.filter (fun ev -> ev.parent < 0 || not (Hashtbl.mem ids ev.parent))
  |> List.map build
