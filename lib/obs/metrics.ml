(* Sharded metrics. Each shard is single-writer (a worker domain, or a
   subsystem that already serializes its writes under a lock), so recording
   is a plain store with no synchronization; reads happen only after the
   writers have quiesced (end of an exploration, or after a Domain.join) and
   merge shard-by-shard. *)

type hist = {
  h_bounds : float array;  (* ascending upper bounds *)
  h_counts : int array;  (* length = bounds + 1: last is overflow *)
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_max : float;
}

type counter = { mutable c : int }
type gauge = { mutable g : float }
type histogram = hist

type value = V_counter of counter | V_gauge of gauge | V_hist of hist

type shard = { table : (string, value) Hashtbl.t }
type t = { all : shard array }

let seconds_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
let count_bounds = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]

let create ~shards () =
  let shards = max 1 shards in
  {
    all =
      Array.init shards (fun _ -> { table = Hashtbl.create 32 });
  }

let shard t i = t.all.(i)

let mismatch name =
  invalid_arg (Printf.sprintf "Obs.Metrics: %S registered with another kind" name)

let counter sh name =
  match Hashtbl.find_opt sh.table name with
  | Some (V_counter c) -> c
  | Some _ -> mismatch name
  | None ->
      let c = { c = 0 } in
      Hashtbl.replace sh.table name (V_counter c);
      c

let add c n = c.c <- c.c + n
let incr c = add c 1

let gauge_set sh name v =
  match Hashtbl.find_opt sh.table name with
  | Some (V_gauge g) -> g.g <- v
  | Some _ -> mismatch name
  | None -> Hashtbl.replace sh.table name (V_gauge { g = v })

let histogram sh ?(bounds = seconds_bounds) name =
  match Hashtbl.find_opt sh.table name with
  | Some (V_hist h) -> h
  | Some _ -> mismatch name
  | None ->
      let h =
        {
          h_bounds = Array.copy bounds;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_sum = 0.0;
          h_count = 0;
          h_max = neg_infinity;
        }
      in
      Hashtbl.replace sh.table name (V_hist h);
      h

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  if v > h.h_max then h.h_max <- v

let time h f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  observe h (Unix.gettimeofday () -. t0);
  r

(* ---- Snapshots ---- *)

type hist_view = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
  max_value : float;
}

type sample = Counter of int | Gauge of float | Histogram of hist_view

type snapshot = (string * sample) list

let view_of_hist h =
  {
    bounds = Array.copy h.h_bounds;
    counts = Array.copy h.h_counts;
    sum = h.h_sum;
    count = h.h_count;
    max_value = (if h.h_count = 0 then 0.0 else h.h_max);
  }

let sample_of_value = function
  | V_counter c -> Counter c.c
  | V_gauge g -> Gauge g.g
  | V_hist h -> Histogram (view_of_hist h)

let merge_samples name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (Float.max x y)
  | Histogram x, Histogram y ->
      if x.bounds <> y.bounds then mismatch name
      else
        Histogram
          {
            bounds = x.bounds;
            counts = Array.mapi (fun i c -> c + y.counts.(i)) x.counts;
            sum = x.sum +. y.sum;
            count = x.count + y.count;
            max_value = Float.max x.max_value y.max_value;
          }
  | _ -> mismatch name

let merge snapshots =
  let acc = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, s) ->
         match Hashtbl.find_opt acc name with
         | None -> Hashtbl.replace acc name s
         | Some prev -> Hashtbl.replace acc name (merge_samples name prev s)))
    snapshots;
  Hashtbl.fold (fun name s l -> (name, s) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let raw_shard_snapshot sh =
  Hashtbl.fold (fun name v l -> (name, sample_of_value v) :: l) sh.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let shard_snapshot t i = raw_shard_snapshot t.all.(i)

let snapshot t =
  merge (Array.to_list (Array.map raw_shard_snapshot t.all))

let find snap name =
  Option.map snd (List.find_opt (fun (n, _) -> String.equal n name) snap)

let counter_value snap name =
  match find snap name with Some (Counter n) -> n | _ -> 0

(* ---- Deltas ----

   A delta is itself a snapshot: counter values and histogram buckets hold
   the (clamped-monotone) increase since [prev]; gauges hold the current
   value. Deltas that carry no information are dropped so a quiet interval
   ships an empty frame. *)

let sample_is_zero = function
  | Counter 0 -> true
  | Histogram h -> h.count = 0 && Array.for_all (fun c -> c = 0) h.counts
  | _ -> false

let sample_delta prev cur =
  match (prev, cur) with
  | None, s -> s
  | Some (Counter p), Counter c -> Counter (max 0 (c - p))
  | Some (Gauge _), Gauge g -> Gauge g
  | Some (Histogram p), Histogram c when p.bounds = c.bounds ->
      Histogram
        {
          bounds = c.bounds;
          counts = Array.mapi (fun i v -> max 0 (v - p.counts.(i))) c.counts;
          sum = Float.max 0.0 (c.sum -. p.sum);
          count = max 0 (c.count - p.count);
          max_value = c.max_value;
        }
  | Some _, s -> s (* kind changed under us: ship the absolute value *)

let to_delta ~prev cur =
  List.filter_map
    (fun (name, s) ->
      let d = sample_delta (find prev name) s in
      if sample_is_zero d then None else Some (name, d))
    cur

(* Applying a delta to an accumulated snapshot: counters and histogram
   buckets add; gauges take the delta's (latest) value; a bounds mismatch
   keeps the accumulated series rather than raising — telemetry must never
   be fatal. *)
let merge_delta base delta =
  let acc = Hashtbl.create 64 in
  List.iter (fun (name, s) -> Hashtbl.replace acc name s) base;
  List.iter
    (fun (name, s) ->
      match (Hashtbl.find_opt acc name, s) with
      | None, _ -> Hashtbl.replace acc name s
      | Some (Counter x), Counter y -> Hashtbl.replace acc name (Counter (x + y))
      | Some (Gauge _), Gauge y -> Hashtbl.replace acc name (Gauge y)
      | Some (Histogram x), Histogram y when x.bounds = y.bounds ->
          Hashtbl.replace acc name
            (Histogram
               {
                 bounds = x.bounds;
                 counts = Array.mapi (fun i c -> c + y.counts.(i)) x.counts;
                 sum = x.sum +. y.sum;
                 count = x.count + y.count;
                 max_value = Float.max x.max_value y.max_value;
               })
      | Some _, _ -> () (* kind or bounds mismatch: keep what we had *))
    delta;
  Hashtbl.fold (fun name s l -> (name, s) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- Wire encoding ----

   Space-free tokens so a sample fits in one field of a line-oriented
   protocol. Floats travel as OCaml hex floats ([%h]) for exact
   round-trips. *)

let hexf = Printf.sprintf "%h"

let sample_to_wire = function
  | Counter n -> Printf.sprintf "c:%d" n
  | Gauge v -> Printf.sprintf "g:%s" (hexf v)
  | Histogram h ->
      let b = Buffer.create 96 in
      Printf.bprintf b "h:%d:%s:%s:" h.count (hexf h.sum) (hexf h.max_value);
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (hexf v))
        h.bounds;
      Buffer.add_char b ':';
      Array.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int c))
        h.counts;
      Buffer.contents b

let parse_floats s =
  if s = "" then Some [||]
  else
    let parts = String.split_on_char ',' s in
    let arr = Array.make (List.length parts) 0.0 in
    let ok = ref true in
    List.iteri
      (fun i p ->
        match float_of_string_opt p with
        | Some v -> arr.(i) <- v
        | None -> ok := false)
      parts;
    if !ok then Some arr else None

let parse_ints s =
  if s = "" then Some [||]
  else
    let parts = String.split_on_char ',' s in
    let arr = Array.make (List.length parts) 0 in
    let ok = ref true in
    List.iteri
      (fun i p ->
        match int_of_string_opt p with
        | Some v when v >= 0 -> arr.(i) <- v
        | _ -> ok := false)
      parts;
    if !ok then Some arr else None

let sample_of_wire s =
  let after_prefix p =
    String.sub s (String.length p) (String.length s - String.length p)
  in
  if String.length s >= 2 && String.sub s 0 2 = "c:" then
    match int_of_string_opt (after_prefix "c:") with
    | Some n when n >= 0 -> Some (Counter n)
    | _ -> None
  else if String.length s >= 2 && String.sub s 0 2 = "g:" then
    Option.map (fun v -> Gauge v) (float_of_string_opt (after_prefix "g:"))
  else if String.length s >= 2 && String.sub s 0 2 = "h:" then
    match String.split_on_char ':' (after_prefix "h:") with
    | [ count; sum; max_v; bounds; counts ] -> (
        match
          ( int_of_string_opt count,
            float_of_string_opt sum,
            float_of_string_opt max_v,
            parse_floats bounds,
            parse_ints counts )
        with
        | Some count, Some sum, Some max_value, Some bounds, Some counts
          when count >= 0 && Array.length counts = Array.length bounds + 1 ->
            Some (Histogram { bounds; counts; sum; count; max_value })
        | _ -> None)
    | _ -> None
  else None

(* ---- Export ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let sample_json b = function
  | Counter n -> Printf.bprintf b "{\"type\":\"counter\",\"value\":%d}" n
  | Gauge v ->
      Printf.bprintf b "{\"type\":\"gauge\",\"value\":%s}" (json_float v)
  | Histogram h ->
      Printf.bprintf b
        "{\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"max\":%s,\"buckets\":["
        h.count (json_float h.sum) (json_float h.max_value);
      Array.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char b ',';
          if i < Array.length h.bounds then
            Printf.bprintf b "{\"le\":%s,\"count\":%d}"
              (json_float h.bounds.(i)) c
          else Printf.bprintf b "{\"le\":\"+inf\",\"count\":%d}" c)
        h.counts;
      Buffer.add_string b "]}"

let snapshot_json b snap =
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":" (json_escape name);
      sample_json b s)
    snap;
  Buffer.add_char b '}'

let to_json ?(workers = []) snap =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"metrics\": ";
  snapshot_json b snap;
  if workers <> [] then begin
    Buffer.add_string b ",\n  \"workers\": [";
    List.iteri
      (fun i (w, s) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "\n    {\"worker\": \"%s\", \"metrics\": "
          (json_escape w);
        snapshot_json b s;
        Buffer.add_char b '}')
      workers;
    Buffer.add_string b "\n  ]"
  end;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* ---- OpenMetrics text format ---- *)

let om_name name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char b '_';
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let om_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let om_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

(* One sample line set. [labels] is the pre-rendered [k="v"] list (without
   braces) shared by every line of the sample; histograms append [le]. *)
let om_sample b name labels = function
  | Counter n ->
      let l = if labels = "" then "" else "{" ^ labels ^ "}" in
      Printf.bprintf b "%s_total%s %d\n" name l n
  | Gauge v ->
      let l = if labels = "" then "" else "{" ^ labels ^ "}" in
      Printf.bprintf b "%s%s %s\n" name l (om_float v)
  | Histogram h ->
      let le v =
        if labels = "" then Printf.sprintf "{le=\"%s\"}" v
        else Printf.sprintf "{%s,le=\"%s\"}" labels v
      in
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          let bound =
            if i < Array.length h.bounds then om_float h.bounds.(i) else "+Inf"
          in
          Printf.bprintf b "%s_bucket%s %d\n" name (le bound) !cum)
        h.counts;
      let l = if labels = "" then "" else "{" ^ labels ^ "}" in
      Printf.bprintf b "%s_sum%s %s\n" name l (om_float h.sum);
      Printf.bprintf b "%s_count%s %d\n" name l h.count

let om_type = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let to_openmetrics ?(workers = []) snap =
  let b = Buffer.create 4096 in
  (* All samples of one family must be contiguous: for each aggregate
     series, emit the unlabeled total then every worker-labeled series of
     the same name and kind. *)
  List.iter
    (fun (name, s) ->
      let om = om_name name in
      Printf.bprintf b "# TYPE %s %s\n" om (om_type s);
      om_sample b om "" s;
      List.iter
        (fun (w, wsnap) ->
          match find wsnap name with
          | Some ws when om_type ws = om_type s ->
              om_sample b om
                (Printf.sprintf "worker=\"%s\"" (om_label_value w))
                ws
          | _ -> ())
        workers)
    snap;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let pp ppf snap =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Format.pp_print_cut ppf ();
      match s with
      | Counter n -> Format.fprintf ppf "%-28s %d" name n
      | Gauge v -> Format.fprintf ppf "%-28s %g" name v
      | Histogram h ->
          Format.fprintf ppf "%-28s count=%d sum=%g max=%g" name h.count h.sum
            h.max_value)
    snap;
  Format.pp_close_box ppf ()
