(** Communicators.

    A communicator is a context id plus an ordered list of member world pids.
    The context id isolates matching: messages only match receives posted on
    the same context. Rank translation (communicator rank <-> world pid) is
    precomputed in both directions as dense arrays, so a membership test on
    the per-call path is a bounds check and a load.

    Freeing is tracked per member rank so that the finalize-time leak check
    can report, per process, communicators it helped create but never freed
    (the "C-leak" column of the paper's Table II). Tool-internal
    communicators (DAMPI's piggyback shadows) carry [internal = true] and are
    exempt from user-facing leak reports. *)

type t = {
  ctx : int;
  ranks : int array;  (** comm rank -> world pid *)
  of_world : int array;  (** world pid -> comm rank, -1 for a non-member *)
  freed : bool array;  (** per comm rank *)
  internal : bool;
  label : string;  (** for reports, e.g. "world", "dup(world)" *)
}

let make ~ctx ~ranks ~internal ~label =
  let of_world = Array.make (Array.fold_left max (-1) ranks + 1) (-1) in
  Array.iteri (fun r pid -> of_world.(pid) <- r) ranks;
  { ctx; ranks; of_world; freed = Array.make (Array.length ranks) false; internal; label }

let size t = Array.length t.ranks
let ctx t = t.ctx
let label t = t.label
let is_internal t = t.internal

(* Comm rank of [pid], or -1 when it is not a member (pid out of range
   included). *)
let lookup t pid =
  if pid >= 0 && pid < Array.length t.of_world then t.of_world.(pid) else -1

let rank_of_world t pid =
  let r = lookup t pid in
  if r >= 0 then r
  else
    Types.mpi_errorf "process %d is not a member of communicator %s(ctx=%d)"
      pid t.label t.ctx

let world_of_rank t r =
  if r < 0 || r >= Array.length t.ranks then
    Types.mpi_errorf "rank %d out of range for communicator %s of size %d" r
      t.label (Array.length t.ranks)
  else t.ranks.(r)

let is_member t pid = lookup t pid >= 0

let mark_freed t pid =
  let r = rank_of_world t pid in
  if t.freed.(r) then
    Types.mpi_errorf "communicator %s(ctx=%d) freed twice by rank %d" t.label
      t.ctx r;
  t.freed.(r) <- true

let freed_by t pid =
  let r = lookup t pid in
  r < 0 || t.freed.(r)

let pp ppf t =
  Format.fprintf ppf "%s(ctx=%d, size=%d%s)" t.label t.ctx (size t)
    (if t.internal then ", internal" else "")
