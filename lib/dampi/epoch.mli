(** Epochs (§II-B of the paper).

    Every non-deterministic event — a wildcard receive or probe — starts an
    epoch on its issuing process, identified by [(owner, id)] where [id] is
    the owner's scalar clock at the event. The epoch accumulates the
    {e potential matches}: sources whose late messages could have matched it
    in an alternative execution. *)

type kind = Wildcard_recv | Wildcard_probe

type t = {
  owner : int;  (** world pid of the issuing process *)
  id : int;  (** scalar clock at the event — the epoch identifier *)
  kind : kind;
  ctx : int;  (** communicator context the event was posted on *)
  tag : int;  (** tag spec (may be [any_tag]) *)
  clock_enc : int array;  (** encoded epoch clock, for the lateness test *)
  mutable matched_src : int;  (** matched communicator rank; -1 until known *)
  mutable potentials : int list;
  mutable completed : bool;
  mutable global_index : int;  (** completion-order position; -1 until then *)
  mutable expandable : bool;
      (** false when a bounding heuristic rules this epoch out *)
}

val make :
  owner:int -> id:int -> kind:kind -> ctx:int -> tag:int -> clock_enc:int array -> t

val spec_matches : t -> ctx:int -> tag:int -> bool
(** Could a message with this (ctx, tag) have been posted to this epoch's
    receive, ignoring causality? *)

val add_potential : t -> int -> unit
(** Record an alternate source (idempotent; the matched source is never
    added). *)

val set_matched : t -> int -> unit
(** Record the actual match; drops it from the potential set. *)

val alternatives : t -> int list
(** Unexplored alternate sources, sorted. *)

(** The immutable footprint of a completed epoch — what pruning, caching,
    and the wire need to remember about it after the replay that produced
    it is gone. Built once per epoch by {!summarize}, so two summaries are
    equal exactly when the epochs were observed identically. *)
type summary = {
  s_owner : int;
  s_id : int;
  s_kind : kind;
  s_ctx : int;
  s_tag : int;
  s_matched : int;  (** matched communicator rank *)
  s_alternatives : int list;  (** sorted, as {!alternatives} returns *)
  s_expandable : bool;
}

val summarize : t -> summary

val summary_equal : summary -> summary -> bool
(** Structural equality on every field — "the same epoch rediscovered
    unchanged". *)

val pp_kind : Format.formatter -> kind -> unit
