(** The DAMPI interposition layer (Algorithm 1 + §II-D piggyback protocol).

    [Wrap (M) (Cfg)] produces an {!Mpi.Mpi_intf.MPI_CORE} that behaves like
    [M] while maintaining logical clocks, exchanging them through piggyback
    messages on shadow communicators, recording epochs and potential
    matches, enforcing guided-replay decisions, and running the §V
    limitation monitor. Target programs instantiate against the wrapped
    module unmodified — the OCaml analogue of relinking against PnMPI.

    Piggyback protocol (§II-D, "separate messages" mechanism):
    - every user communicator has a {e shadow} communicator, created
      collectively when the user communicator is created;
    - every send posts a second send of the encoded clock on the shadow,
      with the user message's tag;
    - a deterministic receive posts its shadow receive immediately;
    - a {e wildcard} receive defers the shadow receive until [wait]/[test]
      reveals the matched source — posting it blindly could pair with the
      wrong sender and deadlock the tool (reproduced in the test suite). *)

module Payload = Mpi.Payload
module Types = Mpi.Types

module type WRAPPED = sig
  include Mpi.Mpi_intf.MPI_CORE

  val init_tool : unit -> unit
  (** Collective tool prologue: every rank must call it before any other
      MPI operation (creates the world shadow communicator). *)

  val finalize_tool : unit -> unit
  (** Tool epilogue; runs the end-of-execution checks local to each rank. *)

  val shadow_ctxs : unit -> int list
  (** Contexts of tool-created communicators, for leak-report filtering. *)

  val reset : unit -> unit
  (** Forget every communicator and request of the previous run, so the
      instance serves the next run of its state after {!State.reset}. *)
end

module Wrap
    (M : Mpi.Mpi_intf.MPI_CORE) (Cfg : sig
      val st : State.t
    end) : WRAPPED with type comm = M.comm and type request = M.request =
struct
  type comm = M.comm
  type request = M.request

  let st = Cfg.st
  let any_source = M.any_source
  let any_tag = M.any_tag
  let comm_world = M.comm_world
  let rank = M.rank
  let size = M.size
  let comm_id = M.comm_id
  let world_rank = M.world_rank
  let world_size = M.world_size
  let request_id = M.request_id
  let wtime = M.wtime
  let work = M.work

  (* ---- Shadow communicators ---- *)

  (* Tables keyed by the ids the runtime hands out itself — communicator
     contexts and request uids, both small and dense — are arrays indexed by
     the id ({!Mpi.Dense}): a per-call lookup hashes nothing. *)
  let shadow : M.comm option Mpi.Dense.t = Mpi.Dense.create ~capacity:8 None

  let shadow_of comm =
    match Mpi.Dense.get shadow (M.comm_id comm) with
    | Some s -> s
    | None ->
        Types.mpi_errorf
          "DAMPI: no shadow communicator for ctx %d (init_tool not called?)"
          (M.comm_id comm)

  (* Contexts of the shadows made so far. *)
  let shadow_ids : int list ref = ref []

  (* User communicators seen so far and not yet freed, for the
     finalize-time drain: (ctx, comm), newest first, and the most ever held
     at once. *)
  let user_comms : (int * M.comm) list ref = ref []
  let user_high = ref 0

  (* Collective: every member of [user_comm] must enter. All ranks obtain
     the same shadow and user objects; the writes are idempotent. A member
     that resumes after another already freed the communicator lists it
     again, as every member's write stores it. *)
  let make_shadow user_comm =
    let s = M.comm_dup user_comm in
    let ctx = M.comm_id user_comm in
    if Option.is_none (Mpi.Dense.get shadow ctx) then begin
      Mpi.Dense.set shadow ctx (Some s);
      shadow_ids := M.comm_id s :: !shadow_ids
    end;
    if not (List.mem_assoc ctx !user_comms) then begin
      user_comms := (ctx, user_comm) :: !user_comms;
      user_high := max !user_high (List.length !user_comms)
    end

  let shadow_ctxs () = !shadow_ids

  let init_tool () = make_shadow M.comm_world

  (* ---- Per-request bookkeeping ---- *)

  type req_info = {
    ri_comm : M.comm;
    ri_pb : M.request option;  (* posted shadow receive/send, if any *)
    ri_epoch : Epoch.t option;  (* for self-run wildcard receives *)
    ri_recv : bool;
    ri_wildcard : bool;  (* posted with any_source (self or guided) *)
  }

  (* The empty slot of [info]: the request is not (or no longer) tracked. *)
  let no_info =
    {
      ri_comm = M.comm_world;
      ri_pb = None;
      ri_epoch = None;
      ri_recv = false;
      ri_wildcard = false;
    }

  (* request uid -> bookkeeping of the user requests not yet completed *)
  let info : req_info Mpi.Dense.t = Mpi.Dense.create ~capacity:64 no_info

  let reset () =
    Mpi.Dense.clear shadow;
    shadow_ids := [];
    user_comms := [];
    user_high := 0;
    Mpi.Dense.clear info

  (* ---- Clock piggyback helpers ---- *)

  let me () = M.world_rank ()
  let inline_mode = st.State.config.State.piggyback = State.Inline

  (* In-replay poison check: every interposed MPI call polls the scheduler's
     cancellation flag, so a poisoned replay aborts at its next call instead
     of running to the end (raises [State.Replay_cancelled]). *)
  let check () = State.check_poison st

  (* Wire size of one piggybacked clock, to hide it from user-visible
     statuses under inline packing. Probed through a throwaway payload whose
     buffer goes straight back to the free list. *)
  let clock_bytes =
    let p = State.clock_payload st 0 in
    let bytes = Payload.size_bytes p in
    State.release_clock_buf st (State.clock_of_payload st p);
    bytes

  let pb_send ~tag ~dest comm =
    State.count_piggyback st ~bytes:clock_bytes;
    M.isend ~tag ~dest (shadow_of comm) (State.clock_payload st (me ()))

  (* Split an inline-packed payload into (clock, user part). *)
  let unpack_inline payload =
    match payload with
    | Payload.Pair (clock, user) -> (clock, user)
    | _ -> Types.mpi_errorf "DAMPI: inline piggyback missing on message"

  (* ---- Sends ---- *)

  let wrap_send ~sync ?(tag = 0) ~dest comm payload =
    check ();
    let me = me () in
    State.monitor_clock_escape st ~me ~op:(if sync then "ssend" else "send");
    let send = if sync then M.issend else M.isend in
    let req, pb =
      if inline_mode then begin
        (* Datatype-packing mechanism: the clock rides inside the user
           message; costs extra bytes on the wire, no extra message. *)
        State.count_piggyback st ~bytes:clock_bytes;
        ( send ~tag ~dest comm
            (Payload.Pair (State.clock_payload st me, payload)),
          None )
      end
      else
        let req = send ~tag ~dest comm payload in
        (req, Some (pb_send ~tag ~dest comm))
    in
    Mpi.Dense.set info (M.request_id req)
      {
        ri_comm = comm;
        ri_pb = pb;
        ri_epoch = None;
        ri_recv = false;
        ri_wildcard = false;
      };
    req

  let isend ?tag ~dest comm payload = wrap_send ~sync:false ?tag ~dest comm payload
  let issend ?tag ~dest comm payload = wrap_send ~sync:true ?tag ~dest comm payload

  (* ---- Receives ---- *)

  let post_plain_recv ?src ?tag comm ~wildcard ~epoch =
    let req = M.irecv ?src ?tag comm in
    let pb =
      if inline_mode || wildcard then None
        (* inline: the clock arrives with the message itself;
           separate + wildcard: deferred to wait/test (§II-D) *)
      else Some (M.irecv ?src ?tag (shadow_of comm))
    in
    Mpi.Dense.set info (M.request_id req)
      { ri_comm = comm; ri_pb = pb; ri_epoch = epoch; ri_recv = true; ri_wildcard = wildcard };
    (match epoch with
    | Some e -> State.watch_wildcard st ~req_uid:(M.request_id req) e
    | None -> ());
    req

  let irecv ?(src = Types.any_source) ?(tag = Types.any_tag) comm =
    check ();
    let me = me () in
    if src = Types.any_source then begin
      (* Tool CPU cost of handling a non-deterministic event. *)
      M.work st.State.config.State.epoch_cost;
      State.refresh_mode st me;
      match st.State.mode.(me) with
      | State.Guided_run -> (
          match State.guided_src st me ~kind:Epoch.Wildcard_recv with
          | Some forced ->
              (* Determinize: issue as a specific-source receive, but keep
                 the clock evolution of the parent run. *)
              State.tick st me;
              post_plain_recv ~src:forced ~tag comm ~wildcard:true ~epoch:None
          | None ->
              (* Replay divergence (recorded); fall back to self-run. *)
              let epoch =
                State.record_epoch st ~me ~kind:Epoch.Wildcard_recv
                  ~ctx:(M.comm_id comm) ~tag
              in
              if State.in_abstracted_loop st me then
                epoch.Epoch.expandable <- false;
              post_plain_recv ~src ~tag comm ~wildcard:true ~epoch:(Some epoch))
      | State.Self_run ->
          let epoch =
            State.record_epoch st ~me ~kind:Epoch.Wildcard_recv
              ~ctx:(M.comm_id comm) ~tag
          in
          if State.in_abstracted_loop st me then
            epoch.Epoch.expandable <- false;
          post_plain_recv ~src ~tag comm ~wildcard:true ~epoch:(Some epoch)
    end
    else post_plain_recv ~src ~tag comm ~wildcard:false ~epoch:None

  (* ---- Persistent requests: each activation goes through the wrapped
     primitives, so every start is instrumented like a fresh post ---- *)

  type prequest =
    | Send_template of { tag : int; dest : int; pcomm : comm; payload : Payload.t }
    | Recv_template of { src : int; tag : int; pcomm : comm }

  let send_init ?(tag = 0) ~dest comm payload =
    Send_template { tag; dest; pcomm = comm; payload }

  let recv_init ?(src = Types.any_source) ?(tag = Types.any_tag) comm =
    Recv_template { src; tag; pcomm = comm }

  (* ---- Completion ---- *)

  (* Post-process one completed request: collect its piggyback clock, merge,
     run the late-message analysis, and close its epoch. Returns the status
     as the user should see it (inline packing hides the clock bytes). *)
  let on_completion req (status : Types.status) =
    let uid = M.request_id req in
    let ri = Mpi.Dense.get info uid in
    if ri == no_info then
      status (* already processed (waitany + later waitall, etc.) *)
    else begin
        Mpi.Dense.set info uid no_info;
        if not ri.ri_recv then begin
          (* Send: just retire the piggyback send. *)
          (match ri.ri_pb with Some pb -> ignore (M.wait pb) | None -> ());
          status
        end
        else begin
          let my = me () in
          let pb_payload =
            match ri.ri_pb with
            | Some pb ->
                ignore (M.wait pb);
                M.recv_data pb
            | None ->
                if inline_mode then fst (unpack_inline (M.recv_data req))
                else
                  (* Deferred wildcard piggyback: now that the source is
                     known, receive it deterministically (§II-D). *)
                  let data, _ =
                    M.recv ~src:status.Types.source ~tag:status.Types.tag
                      (shadow_of ri.ri_comm)
                  in
                  data
          in
          let send_enc = State.clock_of_payload st pb_payload in
          (* Tool CPU cost of piggyback extraction + analysis. *)
          M.work st.State.config.State.late_check_cost;
          (* FindPotentialMatches: match this message against the epochs it
             arrived too late for. *)
          State.find_potential_matches st ~me:my ~src_rank:status.Types.source
            ~ctx:(M.comm_id ri.ri_comm) ~tag:status.Types.tag ~send_enc;
          State.merge_in st my send_enc;
          (* The piggyback buffer is consumed: each point-to-point clock
             message is completed exactly once (the [info] table guards
             re-processing), so its buffer can rejoin the free list.
             Collective clock payloads are NOT released — the simulator may
             hand every rank the same merged object. *)
          State.release_clock_buf st send_enc;
          State.unwatch_wildcard st ~req_uid:uid;
          (match ri.ri_epoch with
          | Some epoch ->
              State.complete_epoch st epoch ~matched_src:status.Types.source
          | None -> ());
          if inline_mode then
            { status with Types.count = status.Types.count - clock_bytes }
          else status
        end
    end

  let recv_data req =
    let data = M.recv_data req in
    if inline_mode then snd (unpack_inline data) else data

  (* Encountering any Wait/Test synchronizes the dual clocks (§V). *)
  let wait req =
    check ();
    State.sync_xmit st (me ());
    let status = M.wait req in
    on_completion req status

  let test req =
    check ();
    State.sync_xmit st (me ());
    match M.test req with
    | None -> None
    | Some status -> Some (on_completion req status)

  let waitall reqs = List.map wait reqs

  let waitany reqs =
    check ();
    State.sync_xmit st (me ());
    let i, status = M.waitany reqs in
    (i, on_completion (List.nth reqs i) status)

  let testall reqs =
    check ();
    State.sync_xmit st (me ());
    match M.testall reqs with
    | None -> None
    | Some statuses -> Some (List.map2 on_completion reqs statuses)

  let recv ?src ?tag comm =
    let req = irecv ?src ?tag comm in
    let status = wait req in
    (recv_data req, status)

  let sendrecv ?(stag = 0) ?(rtag = Types.any_tag) ~dest ~src comm payload =
    (* Composed from the wrapped primitives so every piece is instrumented;
       note [src] here is a concrete rank (MPI allows ANY_SOURCE, and so do
       we — it then behaves as a wildcard receive). *)
    let sreq = isend ~tag:stag ~dest comm payload in
    let rreq = irecv ~src ~tag:rtag comm in
    let statuses = waitall [ sreq; rreq ] in
    match statuses with
    | [ _; rstatus ] -> (recv_data rreq, rstatus)
    | _ -> assert false

  let send ?tag ~dest comm payload =
    ignore (wait (isend ?tag ~dest comm payload))

  let ssend ?tag ~dest comm payload =
    ignore (wait (issend ?tag ~dest comm payload))

  let start = function
    | Send_template { tag; dest; pcomm; payload } ->
        isend ~tag ~dest pcomm payload
    | Recv_template { src; tag; pcomm } -> irecv ~src ~tag pcomm

  let startall ps = List.map start ps

  (* ---- Probes (§II-E: wildcard probes are epochs; no piggyback) ---- *)

  let record_probe_epoch comm ~tag =
    let me = me () in
    let epoch =
      State.record_epoch st ~me ~kind:Epoch.Wildcard_probe
        ~ctx:(M.comm_id comm) ~tag
    in
    if State.in_abstracted_loop st me then epoch.Epoch.expandable <- false;
    epoch

  let probe ?(src = Types.any_source) ?(tag = Types.any_tag) comm =
    check ();
    let me = me () in
    if src = Types.any_source then begin
      State.refresh_mode st me;
      let forced =
        match st.State.mode.(me) with
        | State.Guided_run -> State.guided_src st me ~kind:Epoch.Wildcard_probe
        | State.Self_run -> None
      in
      match forced with
      | Some fsrc ->
          State.tick st me;
          M.probe ~src:fsrc ~tag comm
      | None ->
          let epoch = record_probe_epoch comm ~tag in
          let status = M.probe ~src ~tag comm in
          State.complete_epoch st epoch ~matched_src:status.Types.source;
          status
    end
    else M.probe ~src ~tag comm

  let iprobe ?(src = Types.any_source) ?(tag = Types.any_tag) comm =
    check ();
    let me = me () in
    if src = Types.any_source then begin
      State.refresh_mode st me;
      let forced =
        match st.State.mode.(me) with
        | State.Guided_run -> State.guided_src st me ~kind:Epoch.Wildcard_probe
        | State.Self_run -> None
      in
      match forced with
      | Some fsrc -> (
          match M.iprobe ~src:fsrc ~tag comm with
          | Some status ->
              State.tick st me;
              Some status
          | None -> None)
      | None -> (
          (* Only a successful non-blocking probe is an epoch (§II-E). *)
          match M.iprobe ~src ~tag comm with
          | Some status ->
              let epoch = record_probe_epoch comm ~tag in
              State.complete_epoch st epoch ~matched_src:status.Types.source;
              Some status
          | None -> None)
    end
    else M.iprobe ~src ~tag comm

  (* ---- Collectives: clock exchange mirrors each operation's semantics
     (§II-E "MPI Collectives") ---- *)

  let clock_allreduce comm =
    let my = me () in
    State.monitor_clock_escape st ~me:my ~op:"collective";
    State.count_piggyback st ~bytes:clock_bytes;
    let merged =
      M.allreduce ~op:Types.Max (shadow_of comm) (State.clock_payload st my)
    in
    State.merge_in st my (State.clock_of_payload st merged)

  let clock_bcast ~root comm =
    let my = me () in
    if M.rank comm = root then begin
      State.monitor_clock_escape st ~me:my ~op:"bcast";
      State.count_piggyback st ~bytes:clock_bytes
    end;
    let root_clock =
      M.bcast ~root (shadow_of comm) (State.clock_payload st my)
    in
    if M.rank comm <> root then
      State.merge_in st my (State.clock_of_payload st root_clock)

  let clock_reduce ~root comm =
    let my = me () in
    if M.rank comm <> root then begin
      State.monitor_clock_escape st ~me:my ~op:"reduce";
      State.count_piggyback st ~bytes:clock_bytes
    end;
    match M.reduce ~root ~op:Types.Max (shadow_of comm) (State.clock_payload st my) with
    | Some merged -> State.merge_in st my (State.clock_of_payload st merged)
    | None -> ()

  let barrier comm =
    check ();
    M.barrier comm;
    clock_allreduce comm

  let bcast ~root comm payload =
    check ();
    let result = M.bcast ~root comm payload in
    clock_bcast ~root comm;
    result

  let reduce ~root ~op comm payload =
    check ();
    let result = M.reduce ~root ~op comm payload in
    clock_reduce ~root comm;
    result

  let allreduce ~op comm payload =
    check ();
    let result = M.allreduce ~op comm payload in
    clock_allreduce comm;
    result

  let gather ~root comm payload =
    check ();
    let result = M.gather ~root comm payload in
    clock_reduce ~root comm;
    result

  let allgather comm payload =
    check ();
    let result = M.allgather comm payload in
    clock_allreduce comm;
    result

  let scatter ~root comm payloads =
    check ();
    let result = M.scatter ~root comm payloads in
    clock_bcast ~root comm;
    result

  let alltoall comm payloads =
    check ();
    let result = M.alltoall comm payloads in
    clock_allreduce comm;
    result

  let exscan ~op comm payload =
    check ();
    let result = M.exscan ~op comm payload in
    (* Rank r receives from ranks 0..r-1: the exclusive Max scan of the
       clocks is the exact prefix merge; rank 0 receives nothing. *)
    let my = me () in
    (* Ranks below the last transmit their clock to higher ranks. *)
    if M.rank comm < M.size comm - 1 then begin
      State.monitor_clock_escape st ~me:my ~op:"exscan";
      State.count_piggyback st ~bytes:clock_bytes
    end;
    (match M.exscan ~op:Types.Max (shadow_of comm) (State.clock_payload st my) with
    | Payload.Unit -> () (* rank 0 *)
    | merged -> State.merge_in st my (State.clock_of_payload st merged));
    result

  let reduce_scatter_block ~op comm payloads =
    check ();
    let result = M.reduce_scatter_block ~op comm payloads in
    (* Everyone receives a slice reduced over everyone: full exchange. *)
    clock_allreduce comm;
    result

  let scan ~op comm payload =
    check ();
    let result = M.scan ~op comm payload in
    (* Rank r effectively receives from ranks 0..r-1: an inclusive Max scan
       of the clocks delivers exactly the prefix merge. *)
    let my = me () in
    State.monitor_clock_escape st ~me:my ~op:"scan";
    State.count_piggyback st ~bytes:clock_bytes;
    let merged =
      M.scan ~op:Types.Max (shadow_of comm) (State.clock_payload st my)
    in
    State.merge_in st my (State.clock_of_payload st merged);
    result

  (* ---- Communicator management ---- *)

  let comm_group = M.comm_group

  let comm_create comm group =
    check ();
    let user = M.comm_create comm group in
    (* Only the new communicator's members create its shadow (collective
       over the new comm); everyone exchanged clocks over the parent. *)
    (match user with Some c -> make_shadow c | None -> ());
    clock_allreduce comm;
    user

  let comm_dup comm =
    check ();
    let user = M.comm_dup comm in
    make_shadow user;
    clock_allreduce comm;
    user

  let comm_split ~color ~key comm =
    check ();
    let user = M.comm_split ~color ~key comm in
    (* Collective over the new sub-communicator: all its members are here. *)
    make_shadow user;
    clock_allreduce comm;
    user

  let comm_free comm =
    let ctx = M.comm_id comm in
    (match Mpi.Dense.get shadow ctx with
    | Some s -> M.comm_free s
    | None -> ());
    user_comms := List.filter (fun (c, _) -> c <> ctx) !user_comms;
    M.comm_free comm

  (* ---- Misc ---- *)

  let pcontrol level =
    State.pcontrol st (me ()) level;
    M.pcontrol level

  (* Finalize-time drain: a late message the application never receives
     (e.g. P2's send in the paper's Fig. 3, where P1 posts a single
     wildcard receive) still defines alternate matches. At finalize every
     rank synchronizes — in the simulator all in-flight messages are then
     queued — and probes off every remaining message together with its
     piggyback, feeding the late-message analysis. *)
  let drain_comm comm =
    let my = me () in
    let rec loop () =
      match M.iprobe ~src:M.any_source ~tag:M.any_tag comm with
      | None -> ()
      | Some status ->
          let data, _ =
            M.recv ~src:status.Types.source ~tag:status.Types.tag comm
          in
          let pb =
            if inline_mode then fst (unpack_inline data)
            else
              fst
                (M.recv ~src:status.Types.source ~tag:status.Types.tag
                   (shadow_of comm))
          in
          let send_enc = State.clock_of_payload st pb in
          State.find_potential_matches st ~me:my
            ~src_rank:status.Types.source ~ctx:(M.comm_id comm)
            ~tag:status.Types.tag ~send_enc;
          State.release_clock_buf st send_enc;
          loop ()
    in
    loop ()

  (* The drain visits communicators in the order of the ctx-keyed table
     (created with 8 buckets) that once held them: message order decides
     the drained ranks' virtual times. *)
  let finalize_tool () =
    M.barrier (shadow_of M.comm_world);
    List.iter
      (fun (_, comm) -> drain_comm comm)
      (Bucket_order.sort ~initial:8 ~high_water:!user_high fst !user_comms)
end
