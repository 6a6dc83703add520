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

(* ---- the row table: one row per key, with its flag, doc and bound ---- *)

type shape = Value of string | Presence of string | Vopt of string * string

type flag = {
  key : string;
  names : string list;
  doc : string;
  shape : shape;
  absent : string;
  bound : string option;
}

type row = {
  flag : flag;
  show : t -> string option;  (** [None]: the key is absent *)
  read : string -> t -> (t, string) result;
  within : t -> (unit, string) result;  (** the row's bound *)
}

(* A codec prints a value and parses it back, naming the key on failure. *)
let scalar print parse =
  ( print,
    fun key v ->
      Option.to_result ~none:(Printf.sprintf "bad %s=%S" key v) (parse v) )

let int_c = scalar string_of_int int_of_string_opt
let bool_c = scalar string_of_bool bool_of_string_opt
let string_c = (Fun.id, fun _ v -> Ok v)

(* Short decimal when it reads back exactly, else lossless hex. *)
let float_c =
  scalar
    (fun f ->
      let s = string_of_float f in
      if float_of_string s = f then s else Printf.sprintf "%h" f)
    float_of_string_opt

let enum_c cases =
  ( (fun x -> fst (List.find (fun (_, y) -> y = x) cases)),
    fun key v ->
      Option.to_result
        ~none:
          (Printf.sprintf "unknown %s %S (%s)" key v
             (String.concat "|" (List.map fst cases)))
        (List.assoc_opt v cases) )

let engine_c = enum_c [ ("dampi", Dampi); ("isp", Isp) ]
let clock_c = enum_c [ ("lamport", Lamport); ("vector", Vector) ]

(* A key whose value may be absent ([get] is [None]); [bound] refuses a
   present value, [show_default] puts the default in the help. *)
let opt_field ?bound ?(show_default = false) key (print, parse) get set
    (names, shape, doc) =
  {
    flag =
      {
        key;
        names;
        doc;
        shape;
        absent =
          (match get defaults with
          | Some v when show_default -> print v
          | _ -> "");
        bound = Option.map snd bound;
      };
    show = (fun j -> Option.map print (get j));
    read = (fun v j -> Result.map (set j) (parse key v));
    within =
      (fun j ->
        match (bound, get j) with
        | Some (ok, msg), Some v when not (ok v) -> Error msg
        | _ -> Ok ());
  }

let field ?bound ?show_default key codec get set cli =
  opt_field ?bound ?show_default key codec (fun j -> Some (get j)) set cli

(* The command-line shapes: a flag taking a value shown as [docv], a bare
   flag whose presence sets [v], and a flag whose value is [bare] when given
   bare. CI reads the job flags' spellings from these calls. *)
let value names docv doc = (names, Value docv, doc)
let presence names v doc = (names, Presence v, doc)
let vopt names docv bare doc = (names, Vopt (docv, bare), doc)

let workload_key = "workload"
let np_key = "np"

let np_row =
  field np_key int_c
    (fun j -> j.np)
    (fun j np -> { j with np })
    ~bound:((fun np -> np >= 1), "--np must be at least 1")
    (value [ "np"; "n" ] "N" "Number of simulated MPI ranks.")

let rows =
  [
    np_row;
    field "engine" engine_c
      (fun j -> j.engine)
      (fun j engine -> { j with engine })
      (value [ "engine" ] "ENGINE"
         "Verification engine: $(b,dampi) (decentralized, the default) or \
          $(b,isp) (centralized baseline; same coverage, different virtual \
          cost).");
    field "clock" clock_c
      (fun j -> j.clock)
      (fun j clock -> { j with clock })
      (value [ "clock" ] "CLOCK"
         "Clock algebra: $(b,lamport) (scalable, the default) or $(b,vector) \
          (precise).");
    opt_field "k" int_c
      (fun j -> j.k)
      (fun j k -> { j with k = Some k })
      ~bound:
        ( (fun k -> k >= 0),
          "--mixing-bound must be at least 0 (omit it for an unbounded window)"
        )
      (value [ "k"; "mixing-bound" ] "K"
         "Bounded-mixing window (default: unbounded).");
    field "dual" bool_c
      (fun j -> j.dual)
      (fun j dual -> { j with dual })
      (presence [ "dual-clock" ] "true"
         "Use the dual (lagging-transmission) Lamport clock that covers the \
          paper's Fig. 10 limitation pattern (SS V future work).");
    field "prune" bool_c
      (fun j -> j.prune)
      (fun j prune -> { j with prune })
      (presence [ "no-prune" ] "false"
         "Disable sleep-set schedule pruning and explore the full \
          interleaving tree. Pruning only suppresses runs whose fork \
          provably commutes (disjoint rank footprints on one communicator) \
          with an already-explored sibling, so the canonical report is the \
          same either way — this flag exists for differential checks and \
          benchmarking.");
    opt_field "prefix-cache" int_c
      (fun j -> j.prefix_cache)
      (fun j b -> { j with prefix_cache = Some b })
      ~bound:((fun b -> b >= 1), "--prefix-cache needs a positive byte budget")
      (vopt [ "prefix-cache" ] "BYTES"
         (string_of_int Dampi.Prefix_cache.default_budget_bytes)
         "Memoize each explored schedule's replay artifact under an LRU \
          budget of $(docv) bytes (default 64 MiB when the flag is given \
          bare). Re-discovered schedules — chiefly the expand-only re-runs of \
          a $(b,--checkpoint) resume, warmed from the checkpoint's \
          $(b,.cache) sidecar — then skip execution entirely; replay \
          determinism keeps the report identical. A submitted job's sidecar \
          lives in the daemon's state dir, so a repeat submission of the same \
          configuration starts warm.");
    field "max-runs" int_c
      (fun j -> j.max_runs)
      (fun j max_runs -> { j with max_runs })
      ~bound:((fun n -> n >= 1), "--max-runs must be at least 1")
      ~show_default:true
      (value [ "max-runs" ] "N" "Interleaving budget.");
    field "jobs" int_c
      (fun j -> j.jobs)
      (fun j jobs -> { j with jobs })
      ~bound:((fun n -> n >= 1), "--jobs must be at least 1")
      ~show_default:true
      (value [ "j"; "jobs" ] "N"
         "Worker domains exploring interleavings in parallel (guided replays \
          are independent re-executions, so any $(docv) finds the same \
          interleavings and findings on an exhaustive search).");
    field "stop-first" bool_c
      (fun j -> j.stop_first)
      (fun j stop_first -> { j with stop_first })
      (presence [ "stop-first" ] "true"
         "Stop exploring after the first deadlock or crash finding.");
    field "quiet" bool_c
      (fun j -> j.quiet)
      (fun j quiet -> { j with quiet })
      (presence [ "q"; "quiet" ] "true" "One-line summary only.");
    field "profile" bool_c
      (fun j -> j.profile)
      (fun j profile -> { j with profile })
      (presence [ "profile" ] "true"
         "Enable the lightweight replay profiler: phase-timing histograms \
          ($(b,profile.match_loop_s), $(b,profile.clock_merge_s), \
          $(b,profile.sched_wait_s), $(b,profile.wire_io_s)) exported \
          through $(b,--metrics-out). Remote workers spawned by this run \
          inherit the flag through the job parameters.");
    field "checkpoint-every" int_c
      (fun j -> j.checkpoint_every)
      (fun j checkpoint_every -> { j with checkpoint_every })
      ~bound:((fun n -> n >= 0), "--checkpoint-every must be at least 0")
      ~show_default:true
      (value [ "checkpoint-every" ] "N"
         "Completed replays between periodic checkpoint writes (0 writes only \
          on interrupt and completion). The serve daemon always checkpoints \
          its jobs, and a drain flushes the frontier regardless, so there \
          the cadence only bounds what a hard kill can lose.");
    opt_field "replay-timeout" float_c
      (fun j -> j.replay_timeout)
      (fun j s -> { j with replay_timeout = Some s })
      ~bound:
        ( (fun s -> s > 0. && Float.is_finite s),
          "--replay-timeout must be a positive number of seconds" )
      (value [ "replay-timeout" ] "SECONDS"
         "Wall-clock watchdog per replay attempt; a wedged replay is \
          cancelled, counted as timed out, and retried per \
          $(b,--max-retries) without stalling other workers.");
    opt_field "max-replay-steps" int_c
      (fun j -> j.max_replay_steps)
      (fun j n -> { j with max_replay_steps = Some n })
      ~bound:((fun n -> n >= 1), "--max-replay-steps must be at least 1")
      (value [ "max-replay-steps" ] "N"
         "Deterministic per-attempt budget of verifier steps (interposed MPI \
          events); exceeding it counts as a timeout.");
    field "max-retries" int_c
      (fun j -> j.max_retries)
      (fun j max_retries -> { j with max_retries })
      ~bound:((fun n -> n >= 0), "--max-retries must be at least 0")
      ~show_default:true
      (value [ "max-retries" ] "N"
         "Retries per replay after a timeout or an injected transient fault, \
          each under a fresh fault salt.");
    field "retry-backoff" float_c
      (fun j -> j.retry_backoff)
      (fun j retry_backoff -> { j with retry_backoff })
      ~bound:
        ( (fun b -> b >= 0. && Float.is_finite b),
          "--retry-backoff must be a non-negative number of seconds" )
      ~show_default:true
      (value [ "retry-backoff" ] "SECONDS"
         "Base of the capped exponential backoff between retry attempts (0 \
          retries immediately).");
    opt_field "fault-seed" int_c
      (fun j -> j.fault_seed)
      (fun j s -> { j with fault_seed = Some s })
      (value [ "fault-seed" ] "SEED"
         "Enable deterministic fault injection with the default rates under \
          $(docv); the same seed reproduces the same fault schedule.");
    opt_field "fault-spec" string_c
      (fun j -> j.fault_spec)
      (fun j s -> { j with fault_spec = Some s })
      (value [ "fault-spec" ] "SPEC"
         "Fault-injection spec as comma-separated key=value pairs (keys: \
          $(b,seed), $(b,delay), $(b,max-delay), $(b,sendfail), $(b,crash), \
          $(b,wedge), $(b,rank)), e.g. $(b,seed=7,delay=0.1,sendfail=0.05).");
    opt_field "net-fault-seed" int_c
      (fun j -> j.net_fault_seed)
      (fun j s -> { j with net_fault_seed = Some s })
      (value [ "net-fault-seed" ] "SEED"
         "Enable deterministic transport chaos with the default (stall-free) \
          rates under $(docv): wire-level delay, duplicate and reorder \
          injection on every distributed connection, both directions. The \
          same seed reproduces the same injection schedule, and the \
          canonical report stays identical to a clean run — the point of the \
          flag is rehearsing degraded networks.");
    opt_field "net-fault-spec" string_c
      (fun j -> j.net_fault_spec)
      (fun j s -> { j with net_fault_spec = Some s })
      (value [ "net-fault-spec" ] "SPEC"
         "Transport-chaos spec as comma-separated key=value pairs (keys: \
          $(b,seed), $(b,drop), $(b,delay), $(b,max-delay), $(b,dup), \
          $(b,reorder), $(b,corrupt), $(b,truncate), $(b,partition), \
          $(b,partition-frames), $(b,bandwidth), $(b,write-fail)), e.g. \
          $(b,seed=7,drop=0.1,dup=0.2). $(b,write-fail) injects ENOSPC into \
          checkpoint writes (local too); under drop/partition set \
          $(b,--heartbeat-timeout) low enough that recovery beats your \
          patience.");
  ]

let flags = List.map (fun r -> r.flag) rows
let np_flag = np_row.flag

(* Each row's bound, then the rules that span keys. *)
let check j =
  let ( let* ) = Result.bind in
  let* () =
    if Registry.find j.workload = None then unknown_workload j.workload
    else Ok ()
  in
  let* () =
    List.fold_left (fun acc r -> Result.bind acc (fun () -> r.within j))
      (Ok ()) rows
  in
  let* () =
    if j.engine = Isp && ((not j.prune) || j.prefix_cache <> None) then
      Error
        "--no-prune and --prefix-cache only apply to the dampi engine (the \
         isp baseline explores unpruned by construction)"
    else Ok ()
  in
  let* _ = fault j in
  let* _ = net_fault j in
  Ok j

let to_params j =
  let d = Result.value (default j.workload) ~default:j in
  (workload_key, j.workload)
  :: List.filter_map
       (fun r ->
         match r.show j with
         | Some v when Some v <> r.show d -> Some (r.flag.key, v)
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
          match List.find_opt (fun r -> r.flag.key = key) rows with
          | None -> Error (Printf.sprintf "unknown job parameter %S" key)
          | Some r -> r.read v j)
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
    (fst engine_c j.engine) j.workload j.np (fst clock_c j.clock)
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
