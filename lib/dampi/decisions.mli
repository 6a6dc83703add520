(** Epoch Decisions (§II-B, §II-E of the paper).

    Between replays the schedule generator emits the set of match decisions
    to force: for each process, wildcard events up to its guided epoch are
    determinized to a recorded source, after which the process reverts to
    SELF_RUN. A {!plan} is the in-memory form of the paper's "Epoch
    Decisions file"; {!save}/{!load} give it the on-disk form. *)

type decision = {
  owner : int;  (** world pid *)
  epoch_id : int;  (** scalar clock identifying the epoch *)
  src : int;  (** communicator rank to force as the match *)
  kind : Epoch.kind;
}

type plan = {
  decisions : decision list;
      (** in global completion order of the parent run *)
  by_owner : decision list array;
      (** per owner, latest first: the later of two decisions on one epoch
          wins {!forced_src} *)
  guided_epoch : int array;  (** per owner; -1 when nothing is forced *)
}

val empty : np:int -> plan
val of_decisions : np:int -> decision list -> plan
val length : plan -> int

val forced_src : plan -> owner:int -> epoch_id:int -> kind:Epoch.kind -> int option
(** [GetSrcFromEpoch] of Algorithm 1. The event kind must agree: a failed
    probe does not tick the clock, so a probe and a receive can share a
    clock value. *)

val in_guided_window : plan -> owner:int -> epoch_id:int -> bool

(** {1 Independence} *)

val compare_decision : decision -> decision -> int
(** Canonical total order: owner, then epoch id, then source, then kind. *)

val commutes : decision -> decision -> bool
(** Two decisions commute when they govern different (owner, epoch) keys:
    plans built from either order force identically. Decisions on the same
    epoch conflict (the later one wins {!forced_src}) and never commute. *)

val normal_form : plan -> decision list
(** The order-insensitive identity of a plan's decision set (sorted,
    deduplicated). [commutes]-related reorderings share a normal form. *)

(** {1 Schedule files} *)

val kind_to_string : Epoch.kind -> string
val kind_of_string : string -> Epoch.kind option

val to_string : plan -> string
val of_string : string -> (plan, string) result
(** [Error] for a malformed file, an [np] below 1, or a decision whose
    owner lies outside [[0, np)]. *)

val save : plan -> string -> unit
(** Raises [Sys_error] when the file cannot be written; the channel is
    closed either way. *)

val load : string -> (plan, string) result
(** [Error] for an unreadable file as for a malformed one. *)

(** {1 Printing} *)

val pp : Format.formatter -> plan -> unit
