(** Memoized replay artifacts keyed by schedule: an append-only table
    under a byte budget, stored as its own sidecar lines.

    Ranks are effect-based coroutines ({!Sim.Coroutine}) whose one-shot
    continuations cannot be snapshotted, so "prefix resume" here does not
    freeze a half-run program. Instead it leans on the property the whole
    verifier is built on: guided replay is {e deterministic}, so the
    complete artifact of a schedule — epoch summaries, errors, makespan,
    wildcard count — is a pure function of its {!Checkpoint.schedule_key}.
    The cache memoizes those artifacts; a hit skips the replay outright
    (the entry suffices both for counting the run and for expanding its
    children via {!Prune.expand}).

    The walk is depth-first, so the table sees one kind of traffic: a
    cold walk fills it in DFS order and a re-verification reads it back
    in the same order. It therefore never evicts: entries stay in
    insertion order, and a full cache refuses a new entry. Under a tight
    budget a warm re-walk hits the first part of the walk, where a
    recency policy would evict each entry just before its turn came.

    The table is its sidecar. One growable buffer holds the kept entry
    lines as the sidecar writes them (a loaded file's text, adopted as it
    was read, then each line {!add} appended). A line is the key and its
    result tail ([VTIME WILDCARDS EPOCHS ERRORS]); a walk repeats few
    results (adlb2: 2,934 distinct tails over 32,118 lines), so each
    distinct tail is parsed into one shared {!entry} and a line records
    only the number of its tail's entry. Two open-addressing indexes map
    a key's hash to a line and a tail's hash to its entry. A probe
    compares bytes in place in the buffer, and only when the stored hash
    matches, so equal hashes never merge two keys or two tails. A lookup
    tries the entry after the last hit first, and probes only when its
    key differs: a warm walk asks for the entries in the order a cold
    walk of the same configuration added them. Saving writes the kept
    lines' bytes back; no entry is encoded twice.

    The big win is warm re-verification: {!Explorer} persists the cache as
    a sidecar next to the checkpoint, once per run with its final cut, and
    loads it on any start whose checkpoint label matches, so re-verifying a completed exploration of
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
(** [metrics] gains [cache.hits], [cache.misses] and [cache.bytes]
    (gauge).

    [label] (default [""]) is the workload+config identity — the checkpoint
    label. Schedule keys carry no workload in them, so sidecar loads are
    refused unless the stored label matches: a stale sidecar from another
    workload must cost warmth, never correctness. *)

val find : t -> ?key:string -> Decisions.decision list -> entry option
(** [find t ~key decisions] looks up the schedule whose
    {!Checkpoint.schedule_key} is [key] (computed from [decisions] when
    omitted); a caller that already holds the key passes it, so a lookup
    encodes nothing. The key is first compared, in place, with the key of
    the entry after the last hit (length, then bytes): if they are equal,
    that entry is the hit, with no hash and no probe. Otherwise the key is
    hashed and the index probed, and a hit there moves the cursor to the
    entry after it. Keys are unique in the table, so both ways give the
    same answer in any call order. Records a hit or a miss; the entries
    are left as they were. *)

val add : t -> ?key:string -> Decisions.decision list -> entry -> unit
(** Append the entry unless its key is present (replays are
    deterministic, so a re-add carries the same artifact and is a no-op).
    [key] is as for {!find}. An entry's cost is its serialized line length
    plus the newline ([String.length (entry_line ~key e) + 1]); an entry
    that does not fit in what is left of the budget is refused, and no
    entry is ever removed. The line built to charge the cost is the one
    kept: [add] appends it to the buffer, and {!to_string} writes it as
    it is. Its result tail goes through the table of distinct tails, so
    {!find} returns the entry first kept with the same tail bytes — the
    same artifact, since the tail encodes every field. *)

val stats : t -> int * int * int
(** [(hits, misses, bytes)]. *)

(** {1 Sidecar persistence}

    A line-oriented text format reusing the {!Checkpoint} codecs.
    {!Explorer} saves it next to the checkpoint (at
    [checkpoint_path ^ ".cache"]) with the run's final cut, finished or
    interrupted, and loads it at the start of every checkpointed run.
    Periodic cuts write only the checkpoint: resuming needs none of the
    sidecar, so a hard-killed run loses warmth, not correctness. *)

val entry_line : key:string -> entry -> string
(** The sidecar line of one entry, without its newline. *)

val to_string : t -> string
(** The sidecar text: header, label, then each kept entry's line with a
    newline, in insertion order (so loading it back restores the table as
    it was). The lines are copied from the buffer, not re-encoded: an
    added entry's line is its {!entry_line}, a loaded entry's line is the
    line as read. A loaded last line that lacked its newline gets one. *)

val load_into : t -> string -> (unit, string) result
(** Insert every entry of a sidecar text. Each line is taken as read: its
    key is the stored key and its cost is the line's own length plus the
    newline (a last line without its newline is charged one too) — for
    any line {!to_string} wrote, exactly what {!add} charged, so which
    entries a budget admits is unchanged by a save/load cycle. A line
    whose key or entry does not parse is skipped; a foreign header or a
    label other than the cache's is refused with [Error].

    Cost model: one pass over the text, which becomes the buffer — adopted
    without a copy into a cache that holds nothing yet, appended to the
    buffer otherwise. The key index is sized from the text's length. A
    line pays for the bytes it adds to the line before it, not for its
    length:
    - {b Key.} The key is compared a word at a time with the previous
      line's key. If that key passed the check, only the decisions after
      the last [,] before the first differing byte are checked
      ({!Checkpoint.is_schedule_key}, without building them): a key is
      [-] or [,]-joined decisions, each valid on its own, so the shared
      ones were checked with the previous key. After the first line, a
      line that is not an entry or a key that failed, the whole key is
      checked. A DFS walk's consecutive keys share most of their bytes
      (adlb2: 91%). The key is then hashed where it lies, with no
      substring of it: a key's hash mixes its words from a fixed seed and
      its length last, so the hash goes on from the previous key's state
      after the whole words the two share, and reads only the words
      after them.
    - {b Result.} The tail is hashed and looked up among the tails met so
      far, comparing bytes in place. Only a tail met for the first time
      is parsed: its fields are cut out and parsed (an error field other
      than [-], a finding's run, takes the slower split parse), and its
      entry is shared by every line with the same tail.
    Indexing a line allocates nothing in the minor heap; the tables grow
    by doubling. Lines the load does not keep stay in the buffer,
    unreferenced. *)

val save : ?fault:(unit -> bool) -> t -> string -> Checkpoint.write_outcome
(** {!Checkpoint.atomic_write} of {!to_string} (tempfile + fsync + rename,
    write failures classified into [Degraded] rather than raised): the
    kept lines' bytes, one copy each. It is made only when the file
    would change: unless an entry was appended since the last successful
    {!load} from [path] or save to it, [save] returns [Written] and leaves
    the file as it was. A {!load} that skipped a
    line, met a duplicate key, refused an entry over the budget or read a
    last line without its newline, or that was refused, leaves the cache
    unsaved, so the next save rewrites the file clean. [fault] is consulted once per call whether or
    not the cache changed, so a chaos run's draws do not depend on it; a
    fired fault is [Degraded] and the cache stays unsaved. *)

val load : t -> string -> (unit, string) result
(** {!load_into} of the file, read with one read of the length it has
    when opened. [Error] on unreadable file or foreign format; entries on
    malformed lines are skipped (a corrupt sidecar costs warmth, not
    correctness). A load into an empty cache that takes every line as
    written, the last one ending in its newline, marks the cache as saved
    at [path] (see {!save}). *)
