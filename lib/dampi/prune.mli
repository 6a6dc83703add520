(** Sleep-set / independence pruning of the schedule space.

    {b Independence.} Two completed epochs are {e independent} when their
    match footprints are disjoint ({!footprint_disjoint}): same
    communicator context, different owners, and no rank shared among
    [{owner, matched source, alternate sources}]. Re-forcing one such
    epoch cannot change what the other could have matched, so exploring
    the alternatives of both — in both orders — replays equivalent
    interleavings twice. This is the classic DPOR / sleep-set insight the
    POE line descends from; the differential harness
    ([test/test_pruning.ml]) asserts, for every registry workload, that
    pruned and unpruned exploration reach the same canonical report.

    {b Sleep sets.} Each frontier item carries the epochs whose
    alternatives a sibling subtree already owns ({!Checkpoint.item}[.sleep]).
    At expansion, an epoch rediscovered {e unchanged} (structural equality
    on the whole summary — owner, kind, context, tag, match, alternatives,
    expandability) is not expanded again; anything observed differently
    escapes the sleep set and is explored in full. Sleep sets travel with
    the items, so pruning decisions are identical across worker counts,
    transports, and resumes.

    {b No duplicates.} Every schedule is a node of one tree: a child
    differs from its siblings, and from its parent's other descendants,
    in one decision's source. Refunded leases return items that never
    ran, a pool snapshot sees a finished item or its children but never
    both, and fencing settles each results frame once — so the frontier
    never holds two items with the same {!Checkpoint.item_key}, and the
    explorer keeps no duplicate filter. *)

val footprint_disjoint : Epoch.summary -> Epoch.summary -> bool
(** Symmetric; conservatively false across communicator contexts. *)

type expansion = {
  items : Checkpoint.item list;
      (** deepest epoch first, alternatives ascending — the historical
          expansion order *)
  suppressed : int;
      (** alternatives not enqueued because their epoch slept *)
}

val expand :
  prune:bool ->
  sleep:Epoch.summary list ->
  plan_decisions:Decisions.decision list ->
  Epoch.summary list ->
  expansion
(** The child frontier of a completed replay, given its epochs in
    completion order. [prune:false] reproduces the unpruned expansion
    exactly (no suppression, empty child sleep sets), so every call site
    shares one expansion function and cached or remote expansion is
    bit-identical to local. *)

(** A thread-safe set of schedule keys. The explorer does not use it (see
    {b No duplicates} above); it stays only because the benchmark's traced
    re-drive ([perfbench/bin/traced.ml]) times its [admit] calls. *)
module Seen : sig
  type t

  val create : unit -> t

  val admit : t -> Checkpoint.item -> bool
  (** True the first time a schedule key is offered, false after. *)
end
