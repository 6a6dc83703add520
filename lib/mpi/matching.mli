(** The message-matching engine: one {!mailbox} per destination process.

    Implements MPI's matching rules — context/tag/source agreement modulo
    wildcards, earliest-posted receive wins on arrival, and the
    non-overtaking rule: taking the {e earliest} matching envelope per
    source means a wildcard receive has at most one eligible envelope per
    source, which is exactly the candidate set DAMPI reasons about
    (§II-C of the paper).

    Invariant: no envelope in the unexpected queue matches any request in
    the posted queue. *)

type mailbox

type arrival_result =
  | Delivered of Request.t  (** matched the earliest posted receive *)
  | Queued  (** appended to the unexpected queue *)

val create : unit -> mailbox

val clear : mailbox -> unit
(** Empty both queues, as {!create} left them. *)

val on_arrival : mailbox -> Envelope.t -> arrival_result
(** Deliver an envelope to the earliest posted matching receive, if any.
    The caller completes the returned request. *)

val post_recv :
  mailbox -> Request.t -> choose:(Envelope.t list -> Envelope.t) -> Envelope.t option
(** Post a receive: claims an unexpected envelope if one matches. [choose]
    is the match oracle, consulted only when two or more per-source
    candidates exist. [None] means the request was queued as posted. *)

val candidates : mailbox -> src:int -> tag:int -> ctx:int -> Envelope.t list
(** Earliest matching envelope per source, in arrival order — what a
    (wildcard) receive or probe with this spec could match right now. *)

val cancel_posted : mailbox -> Request.t -> unit
val unexpected_count : mailbox -> int
val posted_count : mailbox -> int
val unexpected : mailbox -> Envelope.t list
