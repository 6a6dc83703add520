(* The traced run's probes, all placed around calls into public functions.

   - A reconstruction of [Explorer.dampi_runner] with a timing layer below
     [Interpose.Wrap] (every call it makes into the bound runtime) and one
     above it (every call the program makes into the wrapped module), and
     spans around runtime set-up, [Runtime.run] and the post-run analysis.
     Each record it returns is captured, and afterwards compared with what
     the shipped runner returns for the same plan.
   - A re-drive of the walk: [Prune.expand], [Checkpoint.schedule_key],
     [Prune.Seen] and [Prefix_cache.find] called one at a time on the
     inputs the verification produced, and [Scheduler.run] at jobs=1 over
     the same items with a body that only returns the captured children. *)

open Dampi
module Runtime = Mpi.Runtime
module Span = Perfbench.Span

(* ---- timing layers around an MPI module ---- *)

module Timed
    (M : Mpi.Mpi_intf.MPI_CORE) (A : sig
      val acc : Span.acc
    end) :
  Mpi.Mpi_intf.MPI_CORE
    with type comm = M.comm
     and type request = M.request
     and type prequest = M.prequest = struct
  type comm = M.comm
  type request = M.request
  type prequest = M.prequest

  let t f = Span.timed A.acc f
  let any_source = M.any_source
  let any_tag = M.any_tag
  let comm_world = M.comm_world
  let rank c = t (fun () -> M.rank c)
  let size c = t (fun () -> M.size c)
  let comm_id c = t (fun () -> M.comm_id c)
  let world_rank () = t M.world_rank
  let world_size () = t M.world_size
  let isend ?tag ~dest c p = t (fun () -> M.isend ?tag ~dest c p)
  let issend ?tag ~dest c p = t (fun () -> M.issend ?tag ~dest c p)
  let send ?tag ~dest c p = t (fun () -> M.send ?tag ~dest c p)
  let ssend ?tag ~dest c p = t (fun () -> M.ssend ?tag ~dest c p)
  let irecv ?src ?tag c = t (fun () -> M.irecv ?src ?tag c)
  let recv ?src ?tag c = t (fun () -> M.recv ?src ?tag c)

  let sendrecv ?stag ?rtag ~dest ~src c p =
    t (fun () -> M.sendrecv ?stag ?rtag ~dest ~src c p)

  let send_init ?tag ~dest c p = t (fun () -> M.send_init ?tag ~dest c p)
  let recv_init ?src ?tag c = t (fun () -> M.recv_init ?src ?tag c)
  let start p = t (fun () -> M.start p)
  let startall ps = t (fun () -> M.startall ps)
  let wait r = t (fun () -> M.wait r)
  let test r = t (fun () -> M.test r)
  let waitall rs = t (fun () -> M.waitall rs)
  let waitany rs = t (fun () -> M.waitany rs)
  let testall rs = t (fun () -> M.testall rs)
  let recv_data r = t (fun () -> M.recv_data r)
  let request_id r = t (fun () -> M.request_id r)
  let probe ?src ?tag c = t (fun () -> M.probe ?src ?tag c)
  let iprobe ?src ?tag c = t (fun () -> M.iprobe ?src ?tag c)
  let barrier c = t (fun () -> M.barrier c)
  let bcast ~root c p = t (fun () -> M.bcast ~root c p)
  let reduce ~root ~op c p = t (fun () -> M.reduce ~root ~op c p)
  let allreduce ~op c p = t (fun () -> M.allreduce ~op c p)
  let gather ~root c p = t (fun () -> M.gather ~root c p)
  let allgather c p = t (fun () -> M.allgather c p)
  let scatter ~root c ps = t (fun () -> M.scatter ~root c ps)
  let alltoall c ps = t (fun () -> M.alltoall c ps)
  let scan ~op c p = t (fun () -> M.scan ~op c p)
  let exscan ~op c p = t (fun () -> M.exscan ~op c p)

  let reduce_scatter_block ~op c ps =
    t (fun () -> M.reduce_scatter_block ~op c ps)

  let comm_group c = t (fun () -> M.comm_group c)
  let comm_create c g = t (fun () -> M.comm_create c g)
  let comm_dup c = t (fun () -> M.comm_dup c)
  let comm_split ~color ~key c = t (fun () -> M.comm_split ~color ~key c)
  let comm_free c = t (fun () -> M.comm_free c)
  let pcontrol l = t (fun () -> M.pcontrol l)
  let wtime () = t M.wtime
  let work dt = t (fun () -> M.work dt)
end

(* ---- the traced runner ---- *)

type capture = {
  schedule : Decisions.decision list;
  fork_index : int;
  entry : Prefix_cache.entry;
  outcome : string option;  (* [None]: compare the artifact only *)
}

type probe = {
  spans : Span.t;
  above : Span.acc;  (* calls the program makes into the wrapped module *)
  below : Span.acc;  (* calls the interposition layer makes into the runtime *)
  replay_wall : Span.acc;
  capture_time : Span.acc;  (* tracing's own bookkeeping, not a layer *)
  captured : (string, capture) Hashtbl.t;
  l_replay : int;
  l_setup : int;
  l_run : int;
  l_interpose : int;
  l_post : int;
}

let probe () =
  let spans = Span.create () in
  {
    spans;
    above = Span.acc ();
    below = Span.acc ();
    replay_wall = Span.acc ();
    capture_time = Span.acc ();
    captured = Hashtbl.create 4096;
    l_replay = Span.layer spans "replay";
    l_setup = Span.layer spans "replay.setup";
    l_run = Span.layer spans "runtime.run";
    l_interpose = Span.layer spans "interpose";
    l_post = Span.layer spans "replay.post";
  }

let outcome_tag = function
  | Sim.Coroutine.All_finished -> "finished"
  | Sim.Coroutine.Deadlock blocked ->
      "deadlock "
      ^ String.concat ","
          (List.map
             (fun (b : Sim.Coroutine.blocked_info) -> string_of_int b.Sim.Coroutine.pid)
             blocked)
  | Sim.Coroutine.Crashed (pid, exn, _) ->
      Printf.sprintf "crash %d %s" pid (Printexc.to_string exn)

(* [Explorer.dampi_runner], step for step, with the timing layers in. Set-up
   time excludes instantiating the timing layers themselves. *)
let runner (p : probe) (config : Explorer.config) ~np
    (program : Mpi.Mpi_intf.program) : Explorer.runner =
 fun ~ctx plan ~fork_index ->
  let t0 = Span.now () in
  let fault = Explorer.fault_of_ctx ctx config.Explorer.robustness.Explorer.fault in
  let rt =
    Runtime.create ~cost:config.Explorer.cost ?metrics:ctx.Explorer.metrics
      ~profile:config.Explorer.profile ~fault ~np ()
  in
  let st =
    State.create ~config:config.Explorer.state_config
      ?metrics:ctx.Explorer.metrics ~profile:config.Explorer.profile
      ?poison:ctx.Explorer.poison ~np ~plan ~fork_index ()
  in
  Runtime.set_interrupt_hook rt (fun () -> State.check_poison st);
  let module B = Mpi.Bind.Make (struct
    let rt = rt
  end) in
  let t1 = Span.now () in
  let module Below =
    Timed
      (B)
      (struct
        let acc = p.below
      end)
  in
  let t2 = Span.now () in
  let module W =
    Interpose.Wrap
      (Below)
      (struct
        let st = st
      end)
  in
  let t3 = Span.now () in
  let module Above = struct
    include
      Timed
        (W)
        (struct
          let acc = p.above
        end)

    let init_tool () = Span.timed p.above W.init_tool
    let finalize_tool () = Span.timed p.above W.finalize_tool
  end in
  let t4 = Span.now () in
  let module P = (val program) in
  let module Prog = P (Above) in
  Runtime.spawn_ranks rt (fun _rank ->
      Above.init_tool ();
      Prog.main ();
      Above.finalize_tool ());
  let above0 = Span.total p.above and below0 = Span.total p.below in
  let t5 = Span.now () in
  let outcome = Runtime.run rt in
  let t6 = Span.now () in
  let interposed =
    Span.total p.above -. above0 -. (Span.total p.below -. below0)
  in
  State.flush_metrics st;
  let cancelled =
    match outcome with
    | Sim.Coroutine.Crashed (_, State.Replay_cancelled, _) -> true
    | _ -> false
  in
  let leaks = Runtime.leak_report rt in
  let record =
    {
      Report.run_plan = plan;
      outcome;
      makespan = Runtime.makespan rt;
      new_epochs = (if cancelled then [] else State.completed_epochs st);
      run_errors =
        (if cancelled then []
         else
           Explorer.errors_of_run ~check_leaks:config.Explorer.check_leaks
             ~outcome ~leaks ~shadow_ctxs:(W.shadow_ctxs ()) ~st);
      wildcards = State.wildcard_events st;
      cancelled;
    }
  in
  let t7 = Span.now () in
  let sp = p.spans in
  let replay = Span.record sp p.l_replay ~start:t0 ~stop:t7 in
  let setup = t1 -. t0 +. (t3 -. t2) +. (t5 -. t4) in
  ignore (Span.record sp ~parent:replay p.l_setup ~start:t0 ~stop:(t0 +. setup));
  let run = Span.record sp ~parent:replay p.l_run ~start:t5 ~stop:t6 in
  ignore
    (Span.record sp ~parent:run p.l_interpose ~start:t5 ~stop:(t5 +. interposed));
  ignore (Span.record sp ~parent:replay p.l_post ~start:t6 ~stop:t7);
  Span.add p.replay_wall (t7 -. t0);
  let schedule = plan.Decisions.decisions in
  Hashtbl.replace p.captured
    (Checkpoint.schedule_key schedule)
    {
      schedule;
      fork_index;
      entry = Prefix_cache.entry_of_record record;
      outcome = Some (outcome_tag outcome);
    };
  Span.add p.capture_time (Span.now () -. t7);
  record

(* ---- fidelity: the shipped runner must produce the same records ---- *)

let same_entry (a : Prefix_cache.entry) (b : Prefix_cache.entry) =
  Int64.equal
    (Int64.bits_of_float a.Prefix_cache.vtime)
    (Int64.bits_of_float b.Prefix_cache.vtime)
  && a.Prefix_cache.wildcards = b.Prefix_cache.wildcards
  && a.Prefix_cache.errors = b.Prefix_cache.errors
  && List.equal Epoch.summary_equal a.Prefix_cache.epochs b.Prefix_cache.epochs

type fidelity = {
  checked : int;
  mismatches : string list;  (* schedule keys, first few *)
  walls : float array;  (* shipped-runner wall per replay, seconds *)
  minor_words : float;  (* summed over the checked replays *)
}

(* Run the shipped runner on each (key, capture) and compare. *)
let fidelity (config : Explorer.config) ~np program captures =
  let real = Explorer.dampi_runner config ~np program in
  let ctx =
    {
      Explorer.null_ctx with
      metrics = Some (Obs.Metrics.shard (Obs.Metrics.create ~shards:1 ()) 0);
    }
  in
  let n = List.length captures in
  let walls = Array.make n 0.0 in
  let words = ref 0.0 and bad = ref [] and nbad = ref 0 in
  List.iteri
    (fun i (key, c) ->
      let plan = Decisions.of_decisions ~np c.schedule in
      let w0 = Gc.minor_words () in
      let t0 = Span.now () in
      let record = real ~ctx plan ~fork_index:c.fork_index in
      walls.(i) <- Span.now () -. t0;
      words := !words +. (Gc.minor_words () -. w0);
      if
        not
          (same_entry (Prefix_cache.entry_of_record record) c.entry
          && Option.fold ~none:true
               ~some:(String.equal (outcome_tag record.Report.outcome))
               c.outcome)
      then begin
        incr nbad;
        if !nbad <= 3 then bad := key :: !bad
      end)
    captures;
  {
    checked = n;
    mismatches =
      (if !nbad > 3 then Printf.sprintf "(%d in all)" !nbad :: !bad else !bad);
    walls;
    minor_words = !words;
  }

(* ---- the walk, re-driven one call at a time ---- *)

type walk = {
  items : int;  (* frontier items executed (every run but the self run) *)
  suppressed : int;
  duplicates : int;
  missing : int;  (* items whose artifact the capture lacks *)
  order_ok : bool;  (* the scheduler-only pass visited the same items *)
  visited : (Decisions.decision list * Prefix_cache.entry) list;
}

(* [lookup ~key schedule] yields the artifact the verification produced for
   a schedule; [root] is the self run's. The budget and order are the ones
   the explorer gives its jobs=1 pool. *)
let redrive sp ~prune ~budget ~(root : Prefix_cache.entry) ~lookup =
  (* The verification's own garbage would otherwise be marked on the
     re-driven calls' time. *)
  Gc.full_major ();
  let l_key = Span.layer sp "checkpoint.schedule_key" in
  let l_expand = Span.layer sp "prune.expand" in
  let l_seen = Span.layer sp "prune.seen" in
  let l_sched = Span.layer sp "scheduler" in
  let expand ~sleep ~plan_decisions (e : Prefix_cache.entry) =
    Span.around sp l_expand (fun () ->
        Prune.expand ~prune ~sleep ~plan_decisions e.Prefix_cache.epochs)
  in
  let root_exp = expand ~sleep:[] ~plan_decisions:[] root in
  (* pass 1: expansion, keys and lookups, timed call by call *)
  let seen = Prune.Seen.create () in
  let duplicates = ref 0 in
  let admit it =
    Prune.Seen.admit seen it
    ||
    (incr duplicates;
     false)
  in
  let s1 = Scheduler.create ~order:Scheduler.Lifo ~jobs:1 ~budget ~admit () in
  Scheduler.push_batch s1 root_exp.Prune.items;
  let trail = ref [] and visited = ref [ ([], root) ] in
  let suppressed = ref root_exp.Prune.suppressed and missing = ref 0 in
  Scheduler.run s1 (fun ~worker:_ (it : Checkpoint.item) ->
      let decisions = it.Checkpoint.prefix @ [ it.Checkpoint.choice ] in
      let key = Span.around sp l_key (fun () -> Checkpoint.schedule_key decisions) in
      let children =
        match lookup ~key decisions with
        | None ->
            incr missing;
            []
        | Some entry ->
            visited := (decisions, entry) :: !visited;
            let exp =
              expand ~sleep:it.Checkpoint.sleep ~plan_decisions:decisions entry
            in
            suppressed := !suppressed + exp.Prune.suppressed;
            exp.Prune.items
      in
      trail := (it, children) :: !trail;
      children);
  (* pass 2: the scheduler alone, its admission filter timed apart *)
  let trail = Array.of_list (List.rev !trail) in
  let seen2 = Prune.Seen.create () in
  let sched = Span.enter sp l_sched in
  let admit2 it =
    Span.around sp ~parent:sched l_seen (fun () -> Prune.Seen.admit seen2 it)
  in
  let s2 =
    Scheduler.create ~order:Scheduler.Lifo ~jobs:1 ~budget ~admit:admit2 ()
  in
  Scheduler.push_batch s2 root_exp.Prune.items;
  let i = ref 0 and order_ok = ref true in
  Scheduler.run s2 (fun ~worker:_ it ->
      if !i >= Array.length trail then begin
        order_ok := false;
        []
      end
      else begin
        let expected, children = trail.(!i) in
        incr i;
        if it != expected then order_ok := false;
        children
      end);
  Span.leave sp sched;
  {
    items = Array.length trail;
    suppressed = !suppressed;
    duplicates = !duplicates;
    missing = !missing;
    order_ok = !order_ok && !i = Array.length trail;
    visited = List.rev !visited;
  }

(* ---- per-layer figures from one process's probe ---- *)

let per_replay total n = if n = 0 then 0.0 else total /. float_of_int n

(* Replay-layer metrics, as (name, value). Times per replay in µs. *)
let replay_metrics (p : probe) (f : fidelity) =
  let n = Span.calls p.replay_wall in
  let sum name = fst (Span.layer_total p.spans name) in
  let us name = 1e6 *. per_replay (sum name) n in
  let interpose = us "interpose" in
  let walls = Array.map (fun w -> w *. 1e6) f.walls in
  [
    ("replay.count", float_of_int n);
    ("replay.us_p50", Perfbench.Stats.percentile walls 50.0);
    ("replay.us_p99", Perfbench.Stats.percentile walls 99.0);
    ("replay.setup_us", us "replay.setup");
    ("runtime.run_us", 1e6 *. per_replay (sum "runtime.run" +. sum "interpose") n);
    ("runtime.self_us", us "runtime.run");
    ("interpose.self_us", interpose);
    ("replay.post_us", us "replay.post");
    ("replay.minor_words", per_replay f.minor_words f.checked);
    ("interpose.calls", per_replay (float_of_int (Span.calls p.above)) n);
    ("runtime.calls", per_replay (float_of_int (Span.calls p.below)) n);
    ("trace.fidelity_checked", float_of_int f.checked);
  ]

(* Σ self time of the layers the coverage figure counts. *)
let named_layers =
  [
    "replay.setup";
    "runtime.run";
    "interpose";
    "replay.post";
    "checkpoint.schedule_key";
    "prune.expand";
    "prune.seen";
    "scheduler";
    "cache.find";
    "cache.load";
    "cache.save";
    "checkpoint.save";
  ]

let walk_metrics sp (w : walk) =
  let mean = Span.layer_mean_us sp in
  [
    ("prune.expand_us", mean "prune.expand");
    ("prune.seen_us", mean "prune.seen");
    ("prune.children_suppressed", float_of_int w.suppressed);
    ("prune.duplicates", float_of_int w.duplicates);
    ("checkpoint.schedule_key_us", mean "checkpoint.schedule_key");
    ("scheduler.item_us", 1e6 *. per_replay (fst (Span.layer_total sp "scheduler")) w.items);
    ("cache.find_us", mean "cache.find");
  ]

(* (layer, Σ self seconds) for the layers [named_layers] lists that ran. *)
let layer_sums sp =
  List.filter_map
    (fun name ->
      match Span.layer_total sp name with
      | _, 0 -> None
      | s, _ -> Some (name, s))
    named_layers

(* Write the recorded spans out once the measured work is over. *)
let write_spans sp path =
  let oc = open_out path in
  Span.output oc sp;
  close_out oc
