module Explorer = Dampi.Explorer
module Report = Dampi.Report
module Registry = Workloads.Registry

type engine = Dampi | Isp
type clock = Lamport | Vector

type t = {
  workload : string;
  np : int;
  engine : engine;
  clock : clock;
  k : int option;
  dual : bool;
  prune : bool;
  prefix_cache : int option;
  max_runs : int;
  jobs : int;
  stop_first : bool;
  quiet : bool;
  profile : bool;
  checkpoint_every : int;
  replay_timeout : float option;
  max_replay_steps : int option;
  max_retries : int;
  retry_backoff : float;
  fault_seed : int option;
  fault_spec : string option;
  net_fault_seed : int option;
  net_fault_spec : string option;
}

let defaults =
  {
    workload = "";
    np = 0;
    engine = Dampi;
    clock = Lamport;
    k = None;
    dual = false;
    prune = true;
    prefix_cache = None;
    max_runs = 100_000;
    jobs = 1;
    stop_first = false;
    quiet = false;
    profile = false;
    checkpoint_every = 25;
    replay_timeout = None;
    max_replay_steps = None;
    max_retries = 2;
    retry_backoff = 0.0;
    fault_seed = None;
    fault_spec = None;
    net_fault_seed = None;
    net_fault_spec = None;
  }

let unknown_workload w =
  Error
    (Printf.sprintf
       "unknown workload %S (try `dampi list` for the available ones)" w)

let default workload =
  match Registry.find workload with
  | Some e -> Ok { defaults with workload = e.key; np = e.default_np }
  | None -> unknown_workload workload

let engine_name = function Dampi -> "dampi" | Isp -> "isp"
let clock_name = function Lamport -> "lamport" | Vector -> "vector"

let engine_of_string = function
  | "dampi" -> Ok Dampi
  | "isp" -> Ok Isp
  | other -> Error (Printf.sprintf "unknown engine %S (dampi|isp)" other)

let clock_of_string = function
  | "lamport" -> Ok Lamport
  | "vector" -> Ok Vector
  | other -> Error (Printf.sprintf "unknown clock %S (lamport|vector)" other)

let fault j =
  match (j.fault_seed, j.fault_spec) with
  | None, None -> Ok None
  | seed, text ->
      Mpi.Fault.of_string ?seed (Option.value text ~default:"")
      |> Result.map Option.some
      |> Result.map_error (( ^ ) "bad fault spec: ")

let net_fault j =
  match (j.net_fault_seed, j.net_fault_spec) with
  | None, None -> Ok None
  | seed, text ->
      Mpi.Fault.Net.of_string ?seed (Option.value text ~default:"")
      |> Result.map Option.some
      |> Result.map_error (( ^ ) "bad net-fault spec: ")

let check j =
  let violates ok = Option.fold ~none:false ~some:(fun v -> not (ok v)) in
  let fail msg = Error msg in
  if Registry.find j.workload = None then unknown_workload j.workload
  else if j.np < 1 then fail "--np must be at least 1"
  else if violates (fun k -> k >= 0) j.k then
    fail "--mixing-bound must be at least 0 (omit it for an unbounded window)"
  else if violates (fun b -> b >= 1) j.prefix_cache then
    fail "--prefix-cache needs a positive byte budget"
  else if j.engine = Isp && ((not j.prune) || j.prefix_cache <> None) then
    fail
      "--no-prune and --prefix-cache only apply to the dampi engine (the isp \
       baseline explores unpruned by construction)"
  else if j.max_runs < 1 then fail "--max-runs must be at least 1"
  else if j.jobs < 1 then fail "--jobs must be at least 1"
  else if j.checkpoint_every < 0 then
    fail "--checkpoint-every must be at least 0"
  else if violates (fun s -> s > 0. && Float.is_finite s) j.replay_timeout then
    fail "--replay-timeout must be a positive number of seconds"
  else if violates (fun n -> n >= 1) j.max_replay_steps then
    fail "--max-replay-steps must be at least 1"
  else if j.max_retries < 0 then fail "--max-retries must be at least 0"
  else if not (j.retry_backoff >= 0. && Float.is_finite j.retry_backoff) then
    fail "--retry-backoff must be a non-negative number of seconds"
  else
    match (fault j, net_fault j) with
    | Error msg, _ | _, Error msg -> Error msg
    | Ok _, Ok _ -> Ok j

(* ---- the params codec: one row per key ---- *)

type row = {
  key : string;
  show : t -> string option;  (** [None]: the key is absent *)
  read : string -> t -> t option;  (** [None]: the text does not parse *)
}

let field key (print, parse) get set =
  {
    key;
    show = (fun j -> Some (print (get j)));
    read = (fun v j -> Option.map (set j) (parse v));
  }

let opt_field key (print, parse) get set =
  {
    key;
    show = (fun j -> Option.map print (get j));
    read = (fun v j -> Option.map (fun x -> set j (Some x)) (parse v));
  }

let int_c = (string_of_int, int_of_string_opt)
let bool_c = (string_of_bool, bool_of_string_opt)
let string_c = (Fun.id, Option.some)
let of_result f v = Result.to_option (f v)
let engine_c = (engine_name, of_result engine_of_string)
let clock_c = (clock_name, of_result clock_of_string)

(* Short decimal when it reads back exactly, else lossless hex. *)
let float_c =
  ( (fun f ->
      let s = string_of_float f in
      if float_of_string s = f then s else Printf.sprintf "%h" f),
    float_of_string_opt )

let workload_key = "workload"
let np_key = "np"

let rows =
  [
    field np_key int_c (fun j -> j.np) (fun j np -> { j with np });
    field "engine" engine_c
      (fun j -> j.engine)
      (fun j engine -> { j with engine });
    field "clock" clock_c (fun j -> j.clock) (fun j clock -> { j with clock });
    opt_field "k" int_c (fun j -> j.k) (fun j k -> { j with k });
    field "dual" bool_c (fun j -> j.dual) (fun j dual -> { j with dual });
    field "prune" bool_c (fun j -> j.prune) (fun j prune -> { j with prune });
    opt_field "prefix-cache" int_c
      (fun j -> j.prefix_cache)
      (fun j prefix_cache -> { j with prefix_cache });
    field "max-runs" int_c
      (fun j -> j.max_runs)
      (fun j max_runs -> { j with max_runs });
    field "jobs" int_c (fun j -> j.jobs) (fun j jobs -> { j with jobs });
    field "stop-first" bool_c
      (fun j -> j.stop_first)
      (fun j stop_first -> { j with stop_first });
    field "quiet" bool_c (fun j -> j.quiet) (fun j quiet -> { j with quiet });
    field "profile" bool_c
      (fun j -> j.profile)
      (fun j profile -> { j with profile });
    field "checkpoint-every" int_c
      (fun j -> j.checkpoint_every)
      (fun j checkpoint_every -> { j with checkpoint_every });
    opt_field "replay-timeout" float_c
      (fun j -> j.replay_timeout)
      (fun j replay_timeout -> { j with replay_timeout });
    opt_field "max-replay-steps" int_c
      (fun j -> j.max_replay_steps)
      (fun j max_replay_steps -> { j with max_replay_steps });
    field "max-retries" int_c
      (fun j -> j.max_retries)
      (fun j max_retries -> { j with max_retries });
    field "retry-backoff" float_c
      (fun j -> j.retry_backoff)
      (fun j retry_backoff -> { j with retry_backoff });
    opt_field "fault-seed" int_c
      (fun j -> j.fault_seed)
      (fun j fault_seed -> { j with fault_seed });
    opt_field "fault-spec" string_c
      (fun j -> j.fault_spec)
      (fun j fault_spec -> { j with fault_spec });
    opt_field "net-fault-seed" int_c
      (fun j -> j.net_fault_seed)
      (fun j net_fault_seed -> { j with net_fault_seed });
    opt_field "net-fault-spec" string_c
      (fun j -> j.net_fault_spec)
      (fun j net_fault_spec -> { j with net_fault_spec });
  ]

let to_params j =
  let d = Result.value (default j.workload) ~default:j in
  (workload_key, j.workload)
  :: List.filter_map
       (fun r ->
         match r.show j with
         | Some v when Some v <> r.show d -> Some (r.key, v)
         | _ -> None)
       rows

let of_params params =
  let ( let* ) = Result.bind in
  let* w =
    Option.to_result ~none:"submit needs workload=<key>"
      (List.assoc_opt workload_key params)
  in
  let* d = default w in
  let* j =
    List.fold_left
      (fun acc (key, v) ->
        let* j = acc in
        if key = workload_key then Ok j
        else
          match List.find_opt (fun r -> r.key = key) rows with
          | None -> Error (Printf.sprintf "unknown job parameter %S" key)
          | Some r ->
              Option.to_result
                ~none:(Printf.sprintf "bad %s=%S" key v)
                (r.read v j))
      (Ok d) params
  in
  check j

let to_wire j =
  {
    Dampi.Wire.workload = j.workload;
    np = j.np;
    params =
      List.filter
        (fun (k, _) -> k <> workload_key && k <> np_key)
        (to_params j);
  }

let of_wire (w : Dampi.Wire.job) =
  of_params
    ((workload_key, w.workload) :: (np_key, string_of_int w.np) :: w.params)

(* The label pins everything that shapes the exploration: resuming under
   another configuration would silently diverge, so it is refused. Prune
   is pinned too, since a pruned frontier's sleep sets only mean something
   to a resume that prunes the same way. *)
let prunes j = j.engine = Dampi && j.prune

let label j =
  Printf.sprintf "%s %s np=%d clock=%s k=%d dual=%b prune=%b"
    (engine_name j.engine) j.workload j.np (clock_name j.clock)
    (Option.value j.k ~default:(-1))
    j.dual (prunes j)

let get = function Ok v -> v | Error msg -> invalid_arg msg

let to_config ?checkpoint j =
  let clock =
    match j.clock with
    | Lamport -> (module Clocks.Lamport : Clocks.Clock_intf.S)
    | Vector -> (module Clocks.Vector)
  in
  {
    Explorer.default_config with
    state_config =
      Dampi.State.make_config ~clock ?mixing_bound:j.k ~dual_clock:j.dual ();
    max_runs = j.max_runs;
    stop_on_first_error = j.stop_first;
    jobs = j.jobs;
    prune = prunes j;
    prefix_cache = j.prefix_cache;
    profile = j.profile;
    robustness =
      {
        Explorer.replay_timeout = j.replay_timeout;
        max_replay_steps = j.max_replay_steps;
        max_retries = j.max_retries;
        retry_backoff = j.retry_backoff;
        fault = get (fault j);
        net_fault = get (net_fault j);
        checkpoint =
          Option.map
            (fun path ->
              { Explorer.path; every = j.checkpoint_every; label = label j })
            checkpoint;
        interrupt_after = None;
      };
  }

let resume j path =
  if not (Sys.file_exists path) then Ok None
  else
    match Dampi.Checkpoint.load path with
    | Error msg -> Error (Printf.sprintf "cannot resume from %s: %s" path msg)
    | Ok c when c.label <> label j ->
        Error
          (Printf.sprintf
             "cannot resume from %s: it belongs to a different configuration \
              (%s, this run is %s)"
             path c.label (label j))
    | Ok c when c.np <> j.np ->
        Error
          (Printf.sprintf
             "cannot resume from %s: np mismatch (checkpoint %d, this run %d)"
             path c.np j.np)
    | Ok c -> Ok (Some c)

let program j =
  match Registry.find j.workload with
  | Some e -> e.build ()
  | None -> invalid_arg (Printf.sprintf "unknown workload %S" j.workload)

let render j (r : Report.t) =
  if j.quiet then
    Printf.sprintf "%s np=%d: %d interleavings, %d findings\n" j.workload j.np
      r.interleavings (List.length r.findings)
  else Format.asprintf "%a@." Report.pp r

(* The one place an engine becomes a runner: the ISP baseline is the DAMPI
   runner with its scheduler layer on top. *)
let runner config j =
  let layer =
    match j.engine with Dampi -> None | Isp -> Some Isp.Engine.layer
  in
  Explorer.dampi_runner ?layer config ~np:j.np (program j)

let run ?progress ?(trace = false) ?checkpoint ?resume ?distribute
    ?fallback_local j =
  let config = { (to_config ?checkpoint j) with trace; progress } in
  let report =
    Explorer.explore ~config ?resume ?distribute ?fallback_local ~np:j.np
      (runner config j)
  in
  (report, render j report)

let resolve wire =
  Result.map
    (fun j ->
      let config = to_config j in
      {
        Dampi.Remote_worker.np = j.np;
        runner = runner config j;
        rb = config.robustness;
        prune = config.prune;
      })
    (of_wire wire)

let admit params = Result.map label (of_params params)

let serve_job ~ckpt ~label:_ ~params ~progress =
  let j = get (of_params params) in
  let resume = Result.value (resume j ckpt) ~default:None in
  let report, text = run ~progress ~checkpoint:ckpt ?resume j in
  if report.interrupted then Dampi.Serve.Checkpointed
  else
    Dampi.Serve.Completed
      { report = text; code = (if Report.has_errors report then 1 else 0) }
