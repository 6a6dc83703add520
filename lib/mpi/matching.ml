(** The message-matching engine.

    One [mailbox] per destination process. It holds the *unexpected queue*
    (arrived envelopes no receive has claimed yet, in arrival order) and the
    *posted queue* (pending receive requests, in post order).

    MPI's matching rules implemented here:

    - a receive matches an envelope when context ids are equal and source/tag
      agree modulo wildcards;
    - {b non-overtaking}: two messages on the same (source, destination,
      context) channel that both match a receive must be consumed in send
      order. Because envelopes arrive in per-channel send order and are kept
      in arrival order, taking the {e earliest} matching envelope per source
      preserves the rule; a wildcard receive therefore has at most one
      eligible envelope {e per source} — exactly the candidate set DAMPI
      reasons about (§II-C of the paper);
    - an arriving envelope is delivered to the {e earliest} posted matching
      receive.

    Invariant: no envelope in the unexpected queue matches any request in the
    posted queue (arrivals are matched eagerly; posts sweep the queue). *)

type mailbox = {
  mutable unexpected : Envelope.t list;  (* arrival order *)
  mutable posted : Request.t list;  (* post order *)
}

type arrival_result = Delivered of Request.t | Queued

let create () = { unexpected = []; posted = [] }

let clear mbox =
  mbox.unexpected <- [];
  mbox.posted <- []

let req_matches (req : Request.t) (env : Envelope.t) =
  match req.kind with
  | Request.Recv r -> Envelope.matches env ~src:r.src ~tag:r.tag ~ctx:r.ctx
  | Request.Send _ -> false

(* Earliest matching envelope per source, in arrival order of those
   representatives. This is the candidate set for a (possibly wildcard)
   receive: non-overtaking forbids skipping an earlier same-channel match.

   Allocation discipline: the common cases (empty queue; fixed source, where
   every match shares one channel so only the earliest is eligible) build at
   most one list cell. The wildcard sweep dedups sources by scanning the
   accumulated representatives — candidate sets are as wide as the source
   count at most, so the quadratic scan is cheaper than a per-call table. *)
let candidates mbox ~src ~tag ~ctx =
  match mbox.unexpected with
  | [] -> []
  | unexpected when src <> Types.any_source ->
      let rec first = function
        | [] -> []
        | (env : Envelope.t) :: rest ->
            if Envelope.matches env ~src ~tag ~ctx then [ env ] else first rest
      in
      first unexpected
  | unexpected ->
      let rec collect acc = function
        | [] -> List.rev acc
        | (env : Envelope.t) :: rest ->
            if
              Envelope.matches env ~src ~tag ~ctx
              && not
                   (List.exists
                      (fun (seen : Envelope.t) -> seen.src = env.src)
                      acc)
            then collect (env :: acc) rest
            else collect acc rest
      in
      collect [] unexpected

(* Drop the one envelope with [uid], keeping the order of the rest. Uids
   are unique, so the walk stops at the first hit and shares the cells
   after it: removing the queue head (the common case) allocates nothing. *)
let rec drop_env uid = function
  | [] -> []
  | (e : Envelope.t) :: rest -> if e.uid = uid then rest else e :: drop_env uid rest

let remove_unexpected mbox (env : Envelope.t) =
  mbox.unexpected <- drop_env env.uid mbox.unexpected

(* Deliver [env] to the earliest posted matching receive, if any. *)
let on_arrival mbox (env : Envelope.t) =
  let rec find acc = function
    | [] -> None
    | req :: rest ->
        if req_matches req env then (
          mbox.posted <- List.rev_append acc rest;
          Some req)
        else find (req :: acc) rest
  in
  match find [] mbox.posted with
  | Some req -> Delivered req
  | None ->
      mbox.unexpected <- mbox.unexpected @ [ env ];
      Queued

(* Post a receive: try to claim an unexpected envelope first. [choose] picks
   among the per-source candidates (the runtime's match oracle); it is only
   consulted when there are two or more. *)
let post_recv mbox (req : Request.t) ~choose =
  match req.kind with
  | Request.Send _ -> invalid_arg "Matching.post_recv: send request"
  | Request.Recv r -> (
      match candidates mbox ~src:r.src ~tag:r.tag ~ctx:r.ctx with
      | [] ->
          mbox.posted <- mbox.posted @ [ req ];
          None
      | [ env ] ->
          remove_unexpected mbox env;
          Some env
      | envs ->
          let env = choose envs in
          remove_unexpected mbox env;
          Some env)

let rec drop_req uid = function
  | [] -> []
  | (r : Request.t) :: rest -> if r.uid = uid then rest else r :: drop_req uid rest

let cancel_posted mbox (req : Request.t) =
  mbox.posted <- drop_req req.uid mbox.posted

let unexpected_count mbox = List.length mbox.unexpected
let posted_count mbox = List.length mbox.posted
let unexpected mbox = mbox.unexpected
