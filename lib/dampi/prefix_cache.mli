(** Memoized replay artifacts keyed by schedule, with an LRU byte budget.

    Ranks are effect-based coroutines ({!Sim.Coroutine}) whose one-shot
    continuations cannot be snapshotted, so "prefix resume" here does not
    freeze a half-run program. Instead it leans on the property the whole
    verifier is built on: guided replay is {e deterministic}, so the
    complete artifact of a schedule — epoch summaries, errors, makespan,
    wildcard count — is a pure function of its {!Checkpoint.schedule_key}.
    The cache memoizes those artifacts; a hit skips the replay outright
    (the entry suffices both for counting the run and for expanding its
    children via {!Prune.expand}), and on a miss the deepest cached prefix
    is recorded as the depth a snapshot-based scheme would have resumed
    from ([cache.resume_depth]).

    The big win is warm re-verification: {!Explorer} persists the cache as
    a sidecar next to the checkpoint and loads it on any start whose
    checkpoint label matches, so re-verifying a completed exploration of
    the same configuration becomes pure cache hits.

    Thread-safe (internal mutex); metric writes happen under it, so give
    the cache its own {!Obs.Metrics} shard. *)

type entry = {
  vtime : float;  (** simulated makespan of the replay *)
  wildcards : int;  (** wildcard receives observed *)
  errors : Report.error list;  (** errors this schedule exposes *)
  epochs : Epoch.summary list;  (** completed epochs, in completion order *)
}

val entry_of_record : Report.run_record -> entry

val bounded : entry -> int
(** Epochs completed but not expandable (depth/alternative-bounded) — the
    per-run delta {!Explorer} feeds its coverage counters. *)

type t

val default_budget_bytes : int
(** 64 MiB — what a bare [--prefix-cache] means. *)

val create :
  ?metrics:Obs.Metrics.shard -> ?label:string -> budget_bytes:int -> unit -> t
(** [metrics] gains [cache.hits], [cache.misses], [cache.evictions],
    [cache.bytes] (gauge), and the [cache.resume_depth] histogram.

    [label] (default [""]) is the workload+config identity — the checkpoint
    label. Schedule keys carry no workload in them, so sidecar loads are
    refused unless the stored label matches: a stale sidecar from another
    workload must cost warmth, never correctness. *)

val find : t -> ?key:string -> Decisions.decision list -> entry option
(** [find t ~key decisions] looks up the schedule whose
    {!Checkpoint.schedule_key} is [key] (computed from [decisions] when
    omitted); a caller that already holds the key passes it, so a hit is a
    hash lookup with no encoding. Refreshes LRU recency and records
    hit/miss plus the resumed-depth observation: the schedule's length on
    a hit, the deepest cached prefix on a miss (its prefix keys are cut
    from [key] and probed longest first, stopping at the first hit). *)

val add : t -> ?key:string -> Decisions.decision list -> entry -> unit
(** Insert (refreshes recency if present — replays are deterministic, so
    a re-add carries the same artifact). [key] is as for {!find}. An
    entry's cost is its serialized line length plus the newline
    ([String.length (entry_line ~key e) + 1]); entries are evicted
    least-recently-used until the budget holds, and an entry larger than
    the whole budget is not admitted. *)

val deepest_prefix : t -> Decisions.decision list -> int
(** Length of the longest cached prefix of [decisions] (0 when none, the
    full length when the schedule itself is cached). *)

val stats : t -> int * int * int * int
(** [(hits, misses, bytes, evictions)]. *)

(** {1 Sidecar persistence}

    A line-oriented text format reusing the {!Checkpoint} codecs.
    {!Explorer} saves it next to the checkpoint (at
    [checkpoint_path ^ ".cache"]) on every checkpoint write, which rewrites
    the file only when the cache changed ({!save}), and loads it at the
    start of every checkpointed run. *)

val entry_line : key:string -> entry -> string
(** The sidecar line of one entry, without its newline. *)

val to_string : t -> string
(** The sidecar text: header, label, then one {!entry_line} per entry,
    least-recently-used first (so loading it back restores recency). *)

val load_into : t -> string -> (unit, string) result
(** Insert every entry of a sidecar text. Each line is taken as read: its
    key is the stored key and its cost is the line's own length plus the
    newline — for any line {!to_string} wrote, exactly what {!add} charged,
    so eviction under a budget is unchanged by a save/load cycle. A line
    whose key or entry does not parse is skipped; a foreign header or a
    label other than the cache's is refused with [Error].

    Cost model: one pass over the text. A line costs a substring for each
    of its key, float, count and epochs field, one hash lookup of the
    epochs field and one hash insert. The key is checked in place without
    building its decisions ({!Checkpoint.is_schedule_key}). Each distinct
    epochs field is parsed once per load, and the entries that share it
    share its summaries. An error field other than [-] (a finding's run,
    rare) takes the slower split parse. *)

val save : ?fault:(unit -> bool) -> t -> string -> Checkpoint.write_outcome
(** {!Checkpoint.atomic_write} of {!to_string} (tempfile + fsync + rename,
    write failures classified into [Degraded] rather than raised), made
    only when the file would change: unless an entry was inserted or
    evicted since the last successful {!load} from [path] or save to it,
    [save] returns [Written] and leaves the file as it was. A {!load} that
    skipped a line, met a duplicate key or evicted, or that was refused,
    leaves the cache unsaved, so the next save rewrites the file clean.
    Hits and re-adds only refresh recency: the file keeps the recency
    order of its last write. [fault] is consulted once per call whether or
    not the cache changed, so a chaos run's draws do not depend on it; a
    fired fault is [Degraded] and the cache stays unsaved. *)

val load : t -> string -> (unit, string) result
(** [Error] on unreadable file or foreign format; entries on malformed
    lines are skipped (a corrupt sidecar costs warmth, not correctness).
    A load into an empty cache that takes every line as written marks the
    cache as saved at [path] (see {!save}). *)
