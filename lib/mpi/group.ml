(** Process groups ([MPI_Group]): ordered sets of world pids, the local
    (non-collective) half of communicator construction. *)

type t = { members : int array }

let of_comm comm = { members = Array.init (Comm.size comm) (Comm.world_of_rank comm) }
let members t = Array.copy t.members
let size t = Array.length t.members

let rank_opt t pid =
  let found = ref None in
  Array.iteri (fun i m -> if m = pid && !found = None then found := Some i) t.members;
  !found

let is_member t pid = rank_opt t pid <> None

(** [incl t ranks] — the subgroup of [t] at positions [ranks], in that
    order (like [MPI_Group_incl]). *)
let incl t ranks =
  {
    members =
      Array.map
        (fun r ->
          if r < 0 || r >= size t then
            Types.mpi_errorf "Group.incl: rank %d out of range (size %d)" r
              (size t)
          else t.members.(r))
        (Array.of_list ranks);
  }

(** [excl t ranks] — [t] without the positions in [ranks], order kept. *)
let excl t ranks =
  let drop = List.sort_uniq compare ranks in
  List.iter
    (fun r ->
      if r < 0 || r >= size t then
        Types.mpi_errorf "Group.excl: rank %d out of range (size %d)" r (size t))
    drop;
  let keep = ref [] in
  Array.iteri
    (fun i m -> if not (List.mem i drop) then keep := m :: !keep)
    t.members;
  { members = Array.of_list (List.rev !keep) }

(** Union keeps the order of [a], then the members of [b] not in [a]. *)
let union a b =
  let extra =
    Array.to_list b.members |> List.filter (fun m -> not (is_member a m))
  in
  { members = Array.append a.members (Array.of_list extra) }

(** Intersection in the order of [a]. *)
let inter a b =
  {
    members =
      Array.to_list a.members
      |> List.filter (fun m -> is_member b m)
      |> Array.of_list;
  }

(** Difference in the order of [a]. *)
let diff a b =
  {
    members =
      Array.to_list a.members
      |> List.filter (fun m -> not (is_member b m))
      |> Array.of_list;
  }

let equal a b = a.members = b.members
