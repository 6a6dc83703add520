(** Epochs (§II-B).

    Every non-deterministic event — a wildcard receive or a wildcard probe —
    starts an epoch on its issuing process. The epoch is identified by
    [(owner, id)] where [id] is the owner's scalar clock at the event
    ([RecordEpochData(LCi)] in Algorithm 1), and it accumulates the
    {e potential matches}: sources whose late messages could have matched
    this event in an alternative execution. *)

type kind = Wildcard_recv | Wildcard_probe

type t = {
  owner : int;  (** world pid of the issuing process *)
  id : int;  (** scalar clock at the event — the epoch identifier *)
  kind : kind;
  ctx : int;  (** communicator context the event was posted on *)
  tag : int;  (** tag spec (may be [any_tag]) *)
  clock_enc : int array;  (** encoded epoch clock, for the lateness test *)
  mutable matched_src : int;
      (** communicator rank actually matched in this run; -1 until known *)
  mutable potentials : int list;
      (** communicator ranks of discovered alternate matches (no duplicates,
          never contains [matched_src]) *)
  mutable completed : bool;
  mutable global_index : int;
      (** position in the run's global completion order; -1 until completed *)
  mutable expandable : bool;
      (** false when a bounding heuristic (loop abstraction, bounded mixing)
          rules this epoch out of further exploration *)
}

let make ~owner ~id ~kind ~ctx ~tag ~clock_enc =
  {
    owner;
    id;
    kind;
    ctx;
    tag;
    clock_enc;
    matched_src = -1;
    potentials = [];
    completed = false;
    global_index = -1;
    expandable = true;
  }

(** Could a message with this (ctx, tag) have been posted to this epoch's
    receive, ignoring causality? *)
let spec_matches t ~ctx ~tag =
  t.ctx = ctx && (t.tag = Mpi.Types.any_tag || t.tag = tag)

let add_potential t src =
  if src <> t.matched_src && not (List.mem src t.potentials) then
    t.potentials <- src :: t.potentials

(** Record the actual match; drops the matched source from the potential set
    (re-forcing the observed match would replay an explored interleaving). *)
let set_matched t src =
  t.matched_src <- src;
  t.completed <- true;
  t.potentials <- List.filter (fun s -> s <> src) t.potentials

let alternatives t = List.sort compare t.potentials

type summary = {
  s_owner : int;
  s_id : int;
  s_kind : kind;
  s_ctx : int;
  s_tag : int;
  s_matched : int;
  s_alternatives : int list;
  s_expandable : bool;
}

let summarize t =
  {
    s_owner = t.owner;
    s_id = t.id;
    s_kind = t.kind;
    s_ctx = t.ctx;
    s_tag = t.tag;
    s_matched = t.matched_src;
    s_alternatives = alternatives t;
    s_expandable = t.expandable;
  }

let summary_equal (a : summary) (b : summary) = a = b

let pp_kind ppf = function
  | Wildcard_recv -> Format.pp_print_string ppf "recv(*)"
  | Wildcard_probe -> Format.pp_print_string ppf "probe(*)"
