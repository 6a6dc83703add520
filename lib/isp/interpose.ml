(** ISP's interposition layer: every MPI call synchronizes with the central
    scheduler before (and, for completion calls, after) executing.

    The functor layers over any [MPI_CORE] — in the ISP engine it sits above
    the match-discovery layer, so exploration coverage is identical to
    DAMPI's and only the per-run cost differs, which is exactly the
    comparison the paper's Figs. 5 and 6 make. *)

module Types = Mpi.Types

module Wrap
    (M : Mpi.Mpi_intf.MPI_CORE) (Cfg : sig
      val rt : Mpi.Runtime.t
      val model : Model.t
      val server : Sim.Vtime.Server.server
    end) : Mpi.Mpi_intf.MPI_CORE with type comm = M.comm and type request = M.request =
struct
  type comm = M.comm
  type request = M.request

  let rt = Cfg.rt

  (* One synchronous exchange with the scheduler: the caller's clock jumps
     to the round-trip completion. *)
  let scheduler_sync ?(nd = false) () =
    let me = Mpi.Runtime.current rt in
    let now = Mpi.Runtime.clock rt me in
    let finish = Model.round_trip Cfg.model Cfg.server ~now ~nd in
    Mpi.Runtime.advance_clock rt me (finish -. now)

  let any_source = M.any_source
  let any_tag = M.any_tag
  let comm_world = M.comm_world
  let rank = M.rank
  let size = M.size
  let comm_id = M.comm_id
  let world_rank = M.world_rank
  let world_size = M.world_size
  let request_id = M.request_id
  let recv_data = M.recv_data
  let wtime = M.wtime
  let work = M.work (* computation is not intercepted *)

  let isend ?tag ~dest comm payload =
    scheduler_sync ();
    M.isend ?tag ~dest comm payload

  let issend ?tag ~dest comm payload =
    scheduler_sync ();
    M.issend ?tag ~dest comm payload

  let send ?tag ~dest comm payload =
    scheduler_sync ();
    M.send ?tag ~dest comm payload

  let ssend ?tag ~dest comm payload =
    scheduler_sync ();
    M.ssend ?tag ~dest comm payload

  let irecv ?(src = Types.any_source) ?tag comm =
    scheduler_sync ~nd:(src = Types.any_source) ();
    M.irecv ~src ?tag comm

  let recv ?(src = Types.any_source) ?tag comm =
    scheduler_sync ~nd:(src = Types.any_source) ();
    M.recv ~src ?tag comm

  let sendrecv ?stag ?rtag ~dest ~src comm payload =
    scheduler_sync ~nd:(src = Types.any_source) ();
    M.sendrecv ?stag ?rtag ~dest ~src comm payload

  type prequest = M.prequest

  let send_init ?tag ~dest comm payload =
    scheduler_sync ();
    M.send_init ?tag ~dest comm payload

  let recv_init ?(src = Types.any_source) ?tag comm =
    scheduler_sync ~nd:(src = Types.any_source) ();
    M.recv_init ~src ?tag comm

  let start p =
    scheduler_sync ();
    M.start p

  let startall ps =
    scheduler_sync ();
    M.startall ps

  let wait req =
    scheduler_sync ();
    M.wait req

  let test req =
    scheduler_sync ();
    M.test req

  let waitall reqs =
    scheduler_sync ();
    M.waitall reqs

  let waitany reqs =
    scheduler_sync ();
    M.waitany reqs

  let testall reqs =
    scheduler_sync ();
    M.testall reqs

  let probe ?(src = Types.any_source) ?tag comm =
    scheduler_sync ~nd:(src = Types.any_source) ();
    M.probe ~src ?tag comm

  let iprobe ?(src = Types.any_source) ?tag comm =
    scheduler_sync ~nd:(src = Types.any_source) ();
    M.iprobe ~src ?tag comm

  let barrier comm =
    scheduler_sync ();
    M.barrier comm

  let bcast ~root comm payload =
    scheduler_sync ();
    M.bcast ~root comm payload

  let reduce ~root ~op comm payload =
    scheduler_sync ();
    M.reduce ~root ~op comm payload

  let allreduce ~op comm payload =
    scheduler_sync ();
    M.allreduce ~op comm payload

  let gather ~root comm payload =
    scheduler_sync ();
    M.gather ~root comm payload

  let allgather comm payload =
    scheduler_sync ();
    M.allgather comm payload

  let scatter ~root comm payloads =
    scheduler_sync ();
    M.scatter ~root comm payloads

  let alltoall comm payloads =
    scheduler_sync ();
    M.alltoall comm payloads

  let scan ~op comm payload =
    scheduler_sync ();
    M.scan ~op comm payload

  let exscan ~op comm payload =
    scheduler_sync ();
    M.exscan ~op comm payload

  let reduce_scatter_block ~op comm payloads =
    scheduler_sync ();
    M.reduce_scatter_block ~op comm payloads

  let comm_group comm = M.comm_group comm

  let comm_create comm group =
    scheduler_sync ();
    M.comm_create comm group

  let comm_dup comm =
    scheduler_sync ();
    M.comm_dup comm

  let comm_split ~color ~key comm =
    scheduler_sync ();
    M.comm_split ~color ~key comm

  let comm_free comm =
    scheduler_sync ();
    M.comm_free comm

  let pcontrol level =
    scheduler_sync ();
    M.pcontrol level
end

(* [Wrap] as a first-class layer over a runtime's MPI core, the shape
   {!Dampi.Explorer.dampi_runner}'s [?layer] instantiates the program on. *)
let layer ~model ~server rt (module M : Mpi.Mpi_intf.MPI_CORE) :
    (module Mpi.Mpi_intf.MPI_CORE) =
  (module Wrap (M) (struct
    let rt = rt
    let model = model
    let server = server
  end))
