(** Per-run verifier state shared by all ranks' interposition layers.

    Holds the logical clocks (behind a first-class clock module, so Lamport
    and vector variants share all verifier code), the epochs recorded during
    the run, the guided-replay plan, and the bounding-heuristic knobs.

    Clocks are stored {e encoded} (as [int array]) and mutated in place
    through the clock module's [tick_into]/[merge_into]/[is_late_enc]
    block — no decode/apply/encode round trip, no allocation per operation.
    This keeps every other DAMPI module monomorphic and the replay hot path
    allocation-free (see DESIGN.md, "Hot path & allocation discipline").
    Piggyback payload buffers come from a per-state free list recycled by
    the interposition layer once a received clock has been merged. *)

type mode = Self_run | Guided_run

type piggyback_mode =
  | Separate  (** shadow-communicator messages — the paper's choice (§II-D) *)
  | Inline  (** pack the clock into the user payload (datatype packing) *)

type config = {
  clock : (module Clocks.Clock_intf.S);
  mixing_bound : int option;
      (** bounded mixing [k] (§III-B2); [None] = unbounded *)
  piggyback : piggyback_mode;
  dual_clock : bool;
      (** the paper's §V future-work mechanism: keep a second, {e lagging}
          clock for transmission. The analysis clock ticks at every
          non-deterministic event as usual; the transmitted clock picks the
          ticks up only at Wait/Test. A send issued between a wildcard
          [Irecv] and its completion then carries a clock that predates the
          epoch and is correctly judged late — covering the Fig. 10 pattern
          the baseline algorithm misses. *)
  epoch_cost : float;
      (** virtual CPU seconds DAMPI burns per non-deterministic event
          (RecordEpochData, logging, deferred-piggyback setup) *)
  late_check_cost : float;
      (** virtual CPU seconds per received message for the piggyback
          extraction + late-message analysis *)
}

let make_config ?(clock = (module Clocks.Lamport : Clocks.Clock_intf.S))
    ?mixing_bound ?(piggyback = Separate) ?(dual_clock = false)
    ?(epoch_cost = 4.5e-5) ?(late_check_cost = 1.2e-6) () =
  { clock; mixing_bound; piggyback; dual_clock; epoch_cost; late_check_cost }

let default_config = make_config ()

exception Replay_cancelled
(** Raised from inside a simulated rank when the scheduler has poisoned the
    run (an error was already found elsewhere and [--stop-first] is on). *)

(* Cached metric handles, resolved once at [create]. *)
type smetrics = {
  m_piggyback_bytes : Obs.Metrics.counter;
  m_piggyback_msgs : Obs.Metrics.counter;
  m_clock_merges : Obs.Metrics.counter;
  m_epochs_recorded : Obs.Metrics.counter;
  m_epochs_completed : Obs.Metrics.counter;
  m_clock_buf_reuses : Obs.Metrics.counter;
      (* piggyback encode buffers served from the free list *)
  m_clock_merge_t : Obs.Metrics.histogram option;
      (* [--profile]: wall time of each clock merge *)
}

type monitor_warning = {
  warn_pid : int;
  warn_epoch_id : int;
  warn_op : string;  (** the clock-transmitting operation that triggered it *)
}

type t = {
  np : int;
  config : config;
  mutable plan : Decisions.plan;
  clocks : int array array;  (** per world pid, encoded *)
  xmit_clocks : int array array;
      (** dual-clock mode: the lagging clocks that piggybacks carry *)
  mode : mode array;
  epochs : Epoch.t list array;
      (** per pid, newest first — "existing local wildcard receives" that
          late messages are matched against *)
  mutable completed : Epoch.t list;  (** global completion order, reversed *)
  mutable completed_count : int;
  mutable fork_index : int;
      (** global index of the decision this run re-forces; -1 on the initial
          self run. Bounded mixing measures depth from here. *)
  pcontrol_depth : int array;
      (** loop-abstraction nesting (§III-B1); epochs recorded while > 0 are
          not expandable *)
  open_wildcards : (int * Epoch.t) list array;
      (** per owner, newest first: (user request uid, epoch) of the wildcard
          receives posted but not yet completed — the §V limitation
          monitor's watch set *)
  open_by_uid : Epoch.t Mpi.Dense.t;
      (** user request uid -> its open epoch; [no_epoch] when none *)
  mutable open_count : int;
  mutable open_high : int;
      (** most receives ever open at once: fixes {!monitor_clock_escape}'s
          warning order ({!Bucket_order}) *)
  mutable warnings : monitor_warning list;
  mutable divergences : int;
      (** guided-mode wildcard events with no decision in the plan — replay
          divergence, should be zero for deterministic programs *)
  obs : smetrics option;
  mutable poison : (unit -> bool) option;
      (** polled at every interposed call; [true] cancels the replay *)
  clock_width : int;  (** cells per encoded clock, [C.width ~np] *)
  pb_pool : int array array;
      (** free list of piggyback encode buffers (a fixed-capacity stack:
          push/pop never allocates); slots above [pb_pool_top] are dead *)
  mutable pb_pool_top : int;
  mutable pb_reuses : int;
  mutable pending_pb_msgs : int;
      (** piggyback counts batched locally; {!flush_metrics} pushes them to
          the shard once per replay instead of twice per message *)
  mutable pending_pb_bytes : int;
}

(* The empty slot of [open_by_uid]; never recorded or reported. *)
let no_epoch =
  Epoch.make ~owner:(-1) ~id:(-1) ~kind:Epoch.Wildcard_recv ~ctx:(-1)
    ~tag:(-1) ~clock_enc:[||]

let create ?(config = default_config) ?metrics ?(profile = false) ?poison ~np
    ~plan ~fork_index () =
  let module C = (val config.clock) in
  {
    np;
    config;
    plan;
    clocks = Array.init np (fun _ -> C.make_enc ~np);
    xmit_clocks = Array.init np (fun _ -> C.make_enc ~np);
    mode =
      Array.init np (fun pid ->
          if plan.Decisions.guided_epoch.(pid) >= 0 then Guided_run
          else Self_run);
    epochs = Array.make np [];
    completed = [];
    completed_count = Decisions.length plan;
    fork_index;
    pcontrol_depth = Array.make np 0;
    open_wildcards = Array.make np [];
    open_by_uid = Mpi.Dense.create no_epoch;
    open_count = 0;
    open_high = 0;
    warnings = [];
    divergences = 0;
    obs =
      Option.map
        (fun sh ->
          {
            m_piggyback_bytes = Obs.Metrics.counter sh "dampi.piggyback_bytes";
            m_piggyback_msgs = Obs.Metrics.counter sh "dampi.piggyback_msgs";
            m_clock_merges = Obs.Metrics.counter sh "dampi.clock_merges";
            m_epochs_recorded = Obs.Metrics.counter sh "dampi.epochs_recorded";
            m_epochs_completed =
              Obs.Metrics.counter sh "dampi.epochs_completed";
            m_clock_buf_reuses = Obs.Metrics.counter sh "dampi.clock_buf_reuses";
            m_clock_merge_t =
              (if profile then
                 Some (Obs.Metrics.histogram sh "profile.clock_merge_s")
               else None);
          })
        metrics;
    poison;
    clock_width = C.width ~np;
    pb_pool = Array.make ((4 * np) + 16) [||];
    pb_pool_top = 0;
    pb_reuses = 0;
    pending_pb_msgs = 0;
    pending_pb_bytes = 0;
  }

(* Back to the state [create] left, for the run of [plan], keeping the
   storage. Both free lists start empty, as on a fresh state, so
   [dampi.clock_buf_reuses] counts the same on either. *)
let reset st ~plan ~fork_index ~poison =
  let module C = (val st.config.clock) in
  let zero = C.make_enc ~np:st.np in
  let restart clocks = Array.iter (fun c -> Array.blit zero 0 c 0 st.clock_width) clocks in
  restart st.clocks;
  restart st.xmit_clocks;
  st.plan <- plan;
  for pid = 0 to st.np - 1 do
    st.mode.(pid) <-
      (if plan.Decisions.guided_epoch.(pid) >= 0 then Guided_run else Self_run)
  done;
  Array.fill st.epochs 0 st.np [];
  st.completed <- [];
  st.completed_count <- Decisions.length plan;
  st.fork_index <- fork_index;
  Array.fill st.pcontrol_depth 0 st.np 0;
  Array.fill st.open_wildcards 0 st.np [];
  Mpi.Dense.clear st.open_by_uid;
  st.open_count <- 0;
  st.open_high <- 0;
  st.warnings <- [];
  st.divergences <- 0;
  st.poison <- poison;
  st.pb_pool_top <- 0;
  st.pb_reuses <- 0;
  st.pending_pb_msgs <- 0;
  st.pending_pb_bytes <- 0

(* The in-replay poison check: polled at every interposed MPI call so a
   poisoned replay aborts at its next call instead of running to the end. *)
let check_poison st =
  match st.poison with
  | Some f when f () -> raise Replay_cancelled
  | Some _ | None -> ()

let count_piggyback st ~bytes =
  st.pending_pb_msgs <- st.pending_pb_msgs + 1;
  st.pending_pb_bytes <- st.pending_pb_bytes + bytes

(* Push the locally batched counts to the metrics shard. The runner calls
   this once per replay, after the runtime returns (on every outcome), so
   the end-of-run totals are identical to per-message counting. *)
let flush_metrics st =
  match st.obs with
  | Some m ->
      if st.pending_pb_msgs > 0 then begin
        Obs.Metrics.add m.m_piggyback_msgs st.pending_pb_msgs;
        Obs.Metrics.add m.m_piggyback_bytes st.pending_pb_bytes;
        st.pending_pb_msgs <- 0;
        st.pending_pb_bytes <- 0
      end;
      if st.pb_reuses > 0 then begin
        Obs.Metrics.add m.m_clock_buf_reuses st.pb_reuses;
        st.pb_reuses <- 0
      end
  | None -> ()

(* ---- Clock operations (in place on the encodings) ---- *)

let scalar st me =
  let module C = (val st.config.clock) in
  C.scalar_enc ~me st.clocks.(me)

(* Piggyback buffer free list: a send needs a snapshot of the current clock
   that survives until the receiver merges it, so the payload cannot alias
   the live clock. The interposition layer returns each consumed buffer via
   [release_clock_buf]; steady state allocates nothing. *)
let alloc_clock_buf st =
  if st.pb_pool_top > 0 then begin
    st.pb_pool_top <- st.pb_pool_top - 1;
    st.pb_reuses <- st.pb_reuses + 1;
    st.pb_pool.(st.pb_pool_top)
  end
  else Array.make st.clock_width 0

let release_clock_buf st buf =
  if
    Array.length buf = st.clock_width
    && st.pb_pool_top < Array.length st.pb_pool
  then begin
    st.pb_pool.(st.pb_pool_top) <- buf;
    st.pb_pool_top <- st.pb_pool_top + 1
  end

(* What goes on the wire: the lagging clock under dual-clock mode. *)
let clock_payload st me =
  let enc =
    if st.config.dual_clock then st.xmit_clocks.(me) else st.clocks.(me)
  in
  let buf = alloc_clock_buf st in
  Array.blit enc 0 buf 0 st.clock_width;
  Mpi.Payload.Ints buf

let clock_of_payload (_ : t) payload =
  match payload with
  | Mpi.Payload.Ints arr -> arr
  | Mpi.Payload.Arr arr -> Array.map Mpi.Payload.to_int arr
  | p ->
      Mpi.Types.mpi_errorf "malformed piggyback payload (%d bytes)"
        (Mpi.Payload.size_bytes p)

let merge_in st me enc =
  (match st.obs with
  | Some m -> Obs.Metrics.incr m.m_clock_merges
  | None -> ());
  let module C = (val st.config.clock) in
  match st.obs with
  | Some { m_clock_merge_t = Some h; _ } ->
      Obs.Metrics.time h (fun () ->
          C.merge_into ~into:st.clocks.(me) enc;
          if st.config.dual_clock then
            C.merge_into ~into:st.xmit_clocks.(me) enc)
  | _ ->
      C.merge_into ~into:st.clocks.(me) enc;
      if st.config.dual_clock then
        C.merge_into ~into:st.xmit_clocks.(me) enc

(* Dual-clock synchronization point ("when a Wait/Test is encountered",
   §V): the transmitted clock catches up with the analysis clock. *)
let sync_xmit st me =
  if st.config.dual_clock then
    let module C = (val st.config.clock) in
    C.merge_into ~into:st.xmit_clocks.(me) st.clocks.(me)

(* ---- Epoch lifecycle ---- *)

(* Record a new epoch at a self-run wildcard event: returns it, having
   ticked the owner's clock (RecordEpochData + LCi++ of Algorithm 1). *)
let record_epoch st ~me ~kind ~ctx ~tag =
  let module C = (val st.config.clock) in
  let pre = st.clocks.(me) in
  (* The epoch keeps its clock for the run's lifetime: this is the one
     intentional per-epoch allocation on the hot path. *)
  let clock_enc = Array.make st.clock_width 0 in
  C.epoch_clock_into ~me ~pre ~into:clock_enc;
  let epoch =
    Epoch.make ~owner:me ~id:(C.scalar_enc ~me pre) ~kind ~ctx ~tag ~clock_enc
  in
  C.tick_into ~me st.clocks.(me);
  st.epochs.(me) <- epoch :: st.epochs.(me);
  (match st.obs with
  | Some m -> Obs.Metrics.incr m.m_epochs_recorded
  | None -> ());
  epoch

(* Tick without recording — a guided (forced) wildcard event must keep the
   clock evolution identical to the parent run's. *)
let tick st me =
  let module C = (val st.config.clock) in
  C.tick_into ~me st.clocks.(me)

(* An epoch completes when its match becomes known. Assigns the global
   completion index and applies the bounded-mixing window: on a forked run,
   only epochs within [k] decisions of the fork stay expandable. *)
let complete_epoch st (epoch : Epoch.t) ~matched_src =
  Epoch.set_matched epoch matched_src;
  epoch.Epoch.global_index <- st.completed_count;
  st.completed_count <- st.completed_count + 1;
  (match st.config.mixing_bound with
  | Some k when st.fork_index >= 0 ->
      if epoch.Epoch.global_index - st.fork_index > k then
        epoch.Epoch.expandable <- false
  | Some _ | None -> ());
  (match st.obs with
  | Some m -> Obs.Metrics.incr m.m_epochs_completed
  | None -> ());
  st.completed <- epoch :: st.completed

(* ---- Late-message analysis (FindPotentialMatches of Algorithm 1) ---- *)

(* A message from [src_rank] (on [ctx] with [tag]) carrying send-clock
   [send_enc] completed at process [me]: every epoch of [me] whose spec it
   satisfies and with respect to which it is late gains [src_rank] as a
   potential match. With an imprecise scalar clock the scan prunes on the
   epoch id (epochs with id <= send scalar cannot be "greater"). *)
let find_potential_matches st ~me ~src_rank ~ctx ~tag ~send_enc =
  let module C = (val st.config.clock) in
  let send_scalar = C.scalar_enc ~me send_enc in
  let rec scan = function
    | [] -> ()
    | (e : Epoch.t) :: rest ->
        if (not C.precise) && e.Epoch.id < send_scalar then
          (* Scalar lateness is [send <= id]; the epochs list is
             newest-first, so ids only decrease from here: stop. *)
          ()
        else begin
          if
            Epoch.spec_matches e ~ctx ~tag
            && C.is_late_enc ~send:send_enc ~epoch:e.Epoch.clock_enc
          then Epoch.add_potential e src_rank;
          scan rest
        end
  in
  scan st.epochs.(me)

(* ---- Guided replay ---- *)

(* Mode transition at each non-deterministic event (Algorithm 1's check at
   MPI_Irecv entry): past the guided window the process rediscovers. *)
let refresh_mode st me =
  if st.mode.(me) = Guided_run then
    if not (Decisions.in_guided_window st.plan ~owner:me ~epoch_id:(scalar st me))
    then st.mode.(me) <- Self_run

let guided_src st me ~kind =
  match
    Decisions.forced_src st.plan ~owner:me ~epoch_id:(scalar st me) ~kind
  with
  | Some src -> Some src
  | None ->
      (* Probes that failed in the parent run leave no decision; only count
         a missing receive decision as replay divergence. *)
      if kind = Epoch.Wildcard_recv then st.divergences <- st.divergences + 1;
      None

(* ---- §V limitation monitor ---- *)

(* Request uids are unique within a run, so a uid is watched at most
   once. *)
let watch_wildcard st ~req_uid (epoch : Epoch.t) =
  Mpi.Dense.set st.open_by_uid req_uid epoch;
  st.open_wildcards.(epoch.owner) <-
    (req_uid, epoch) :: st.open_wildcards.(epoch.owner);
  st.open_count <- st.open_count + 1;
  if st.open_count > st.open_high then st.open_high <- st.open_count

let rec drop_watch uid = function
  | [] -> []
  | ((u, _) as w) :: rest -> if u = uid then rest else w :: drop_watch uid rest

let unwatch_wildcard st ~req_uid =
  let epoch = Mpi.Dense.get st.open_by_uid req_uid in
  if epoch != no_epoch then begin
    Mpi.Dense.set st.open_by_uid req_uid no_epoch;
    st.open_wildcards.(epoch.owner) <-
      drop_watch req_uid st.open_wildcards.(epoch.owner);
    st.open_count <- st.open_count - 1
  end

(* Called before any operation that transmits the clock (send, collective):
   if [me] has an open wildcard receive whose tick is already folded into
   the clock being sent, the run exhibits the pattern DAMPI cannot handle
   (Fig. 10); flag it. The watch set was once a uid-keyed table created
   with 16 buckets; the warnings keep that table's visiting order. *)
let monitor_clock_escape st ~me ~op =
  match st.open_wildcards.(me) with
  | [] -> ()
  | open_here ->
      List.iter
        (fun (_, (e : Epoch.t)) ->
          let dup =
            List.exists
              (fun w -> w.warn_pid = me && w.warn_epoch_id = e.Epoch.id)
              st.warnings
          in
          if not dup then
            st.warnings <-
              { warn_pid = me; warn_epoch_id = e.Epoch.id; warn_op = op }
              :: st.warnings)
        (Bucket_order.sort ~initial:16 ~high_water:st.open_high fst open_here)

(* ---- Loop iteration abstraction (§III-B1) ---- *)

let pcontrol st me level =
  match level with
  | 1 -> st.pcontrol_depth.(me) <- st.pcontrol_depth.(me) + 1
  | 0 -> st.pcontrol_depth.(me) <- max 0 (st.pcontrol_depth.(me) - 1)
  | _ -> ()

let in_abstracted_loop st me = st.pcontrol_depth.(me) > 0

(* ---- End-of-run summary ---- *)

let completed_epochs st = List.rev st.completed
let all_epochs st = Array.to_list st.epochs |> List.concat
let wildcard_events st = List.length (all_epochs st)
let warnings st = List.rev st.warnings
