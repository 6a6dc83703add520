(** On-disk checkpoint of an interrupted exploration.

    A checkpoint is a consistent cut of the depth-first walk: the canonical
    counters and findings accumulated over the counted replays, and the
    outstanding frontier, which holds only uncounted work. The walk is
    stateless (every interleaving is a full re-execution), so nothing else
    is needed: resuming runs every frontier item fresh under the same
    configuration, and the resumed exploration converges to the same
    canonical report as an uninterrupted run. A cut that catches an item
    already counted but not yet expanded writes that item's children in its
    place.

    The format is versioned line-oriented text ({!load} rejects any other
    version with a clear error), written atomically (temp file + rename in
    the same directory), and self-contained: its item lines are also the
    items of the distributed wire protocol. Version 3 writes the prefix of
    a run of consecutive items that share it once (see {!add_item_line}),
    so a frontier of K siblings under a D-decision prefix costs O(D + K)
    bytes. *)

(** One pending guided run, mirroring the explorer's work item. Private:
    {!make_item} and {!item_of_line} build items, so [prefix_key] is
    always [schedule_key prefix]. *)
type item = private {
  prefix : Decisions.decision list;
  prefix_key : string;
      (** [schedule_key prefix]. Siblings share this one string as they
          share [prefix]; every key of the item and of its children grows
          from it instead of encoding the prefix again. *)
  choice : Decisions.decision;
  sleep : Epoch.summary list;
      (** sleep set inherited from the ancestors that created this item:
          completed epochs whose alternatives a sibling subtree already
          covers. Travels with the item — in checkpoints and over the
          wire — so sleep-set pruning makes identical suppression
          decisions wherever (and whenever) the item executes. Omitted
          from the text when empty; 2-field item lines from older
          checkpoints parse with an empty sleep set. *)
}

(** The canonical counters of an exploration, accumulated over counted
    replays (plus the host-side attempt counters). The explorer mutates one
    record under its counting lock, a checkpoint carries it, and the report
    is filled from it. Each is one header line in the file. *)
type totals = {
  mutable runs : int;  (** counted interleavings *)
  mutable cancelled : int;  (** replays cut by stop-first or an interrupt *)
  mutable timed_out : int;  (** attempts the watchdog cut *)
  mutable retried : int;  (** re-attempts after timeouts or transient faults *)
  mutable crashed : int;  (** injected-fault crashes absorbed by retries *)
  mutable alerts : int;  (** monitor-alert findings recorded *)
  mutable bounded : int;  (** non-expandable epochs *)
  mutable wildcards : int;  (** the self run's wildcard receives *)
  mutable first_makespan : float;  (** the self run's virtual makespan *)
  mutable total_vtime : float;
  mutable pruned : int;
      (** schedules the independence analysis suppressed; omitted from the
          text when zero *)
}

val zero_totals : unit -> totals
(** A fresh record of zeroes. *)

type t = {
  label : string;  (** workload identity; validated by the CLI on resume *)
  np : int;
  complete : bool;  (** exploration finished; resuming just re-reports *)
  totals : totals;
  findings : Report.finding list;
  frontier : item list;  (** uncounted items, queued or in flight at the cut *)
  epoch : int;
      (** highest fencing epoch the coordinator granted before the cut
          (distributed mode — see {!Coordinator}); [0] for runs that were
          never distributed. A restarted coordinator starts granting at
          [epoch + 1], so sessions admitted before the crash are fenced.
          The field is omitted from the text when zero, keeping old
          readers and non-distributed checkpoints unchanged. *)
}

val schedule_key : Decisions.decision list -> string
(** Canonical textual key of a forced schedule (["-"] for the self run).
    Pure function of the decisions, so keys agree across processes. *)

val schedule_of_key : string -> Decisions.decision list option
(** Inverse of {!schedule_key}. *)

val make_item :
  ?prefix_key:string ->
  prefix:Decisions.decision list ->
  choice:Decisions.decision ->
  sleep:Epoch.summary list ->
  unit ->
  item
(** [prefix_key] defaults to [schedule_key prefix]; a caller that passes it
    (as {!Prune.expand} does, growing it from the parent's key) must pass
    exactly that. *)

val item_key : item -> string
(** [schedule_key (prefix @ [choice])] — the schedule the item would run:
    [prefix_key] and the choice, with no decision of the prefix encoded. *)

val same_schedule : item -> item -> bool
(** [item_key a = item_key b], without building either key: the choices
    first, then the prefix keys (one pointer test for siblings). *)

(** {2 Serialization primitives}

    Exposed for the distributed wire protocol ({!Wire}), which frames the
    same encodings over sockets instead of a checkpoint file. *)

val enc : string -> string
(** Percent-encode (RFC 3986 unreserved set): the result contains no
    whitespace, newlines, or delimiter characters, whatever the input. *)

val add_enc : Buffer.t -> string -> unit
(** Append {!enc} to a buffer. *)

val dec : string -> string
(** Inverse of {!enc}. *)

val add_hex_float : Buffer.t -> float -> unit
(** Append the float as [Printf "%h"] prints it (exact round trip through
    [float_of_string]). *)

val decision_to_key : Decisions.decision -> string

val add_decision : Buffer.t -> Decisions.decision -> unit
(** Append {!decision_to_key}: what a child's key adds to its parent's. *)

val summary_to_key : Epoch.summary -> string
(** One whitespace-free token per epoch summary (sleep-set element). *)

val sleep_key : Epoch.summary list -> string
(** [;]-joined {!summary_to_key}s, ["-"] for the empty set. *)

val add_sleep_key : Buffer.t -> Epoch.summary list -> unit
(** Append {!sleep_key} to a buffer. Like every key encoder here it avoids
    Printf: keys are built per frontier item and per cache entry. *)

val sleep_of_key : string -> Epoch.summary list option

val is_schedule_key : string -> int -> int -> bool
(** [is_schedule_key s i j]: {!schedule_of_key} of [s.[i .. j-1]] is not
    [None]. Reads the field in place and builds no decision: the check a
    sidecar load makes on every key. It walks the digits directly and
    hands a key with any field it does not read that way (not an optional
    [-] and 1 to 18 digits) to the parser, so it accepts the same
    language.

    The key parsers ({!schedule_of_key}, {!sleep_of_key}, {!item_of_line}
    and this one) read in one pass, with no substring per field and no
    list of parts. They accept exactly what splitting at the delimiters
    and reading each number with [int_of_string_opt] accepts, with the
    same values: a field of an optional [-] and 1 to 18 decimal digits is
    read directly, any other goes to [int_of_string_opt]. *)

val add_item_line : ?prev:item -> Buffer.t -> item -> unit
(** Append [item PREFIX CHOICE [SLEEP]] and a newline: the line that
    carries one pending item in a checkpoint's frontier and in the wire's
    lease and result frames. [SLEEP] is omitted when the set is empty.
    PREFIX is [prefix_key], copied. Given the item written just before
    ([prev], the checkpoint's grouping; the wire never passes it), PREFIX
    is [=] when the two prefix keys are equal. *)

val item_of_line : ?prev:item -> string -> (item, string) result
(** Inverse of {!add_item_line} (one line, no newline). A line without the
    sleep field parses with an empty sleep set. A PREFIX of [=] is [prev]'s
    prefix, shared, and is malformed without [prev]. *)

val error_to_line : Report.error -> string
(** [tag payload] form, whitespace-safe; parsed back by {!error_of_line}. *)

val error_of_line : string -> string -> Report.error option
(** [error_of_line tag payload] inverts {!error_to_line} (the line split at
    its first space). *)

val to_string : t -> string
val of_string : string -> (t, string) result

type write_outcome =
  | Written
  | Degraded of string
      (** the write failed (ENOSPC, EIO, …); the previous on-disk document,
          if any, is intact, and the temp file has been cleaned up *)

val atomic_write : ?fault:(unit -> bool) -> string -> string -> write_outcome
(** [atomic_write path text]: tempfile + fsync + rename in [path]'s
    directory, so a reader or a crash mid-write only ever observes a
    complete document and the replace is durable. Never raises: every I/O
    failure is classified into [Degraded]. [?fault] is consulted before the
    write; returning [true] simulates an ENOSPC (chaos testing). Also used
    by {!Prefix_cache.save} for the sidecar. *)

val save : ?fault:(unit -> bool) -> t -> string -> write_outcome
(** {!atomic_write} of {!to_string}. *)

val load : string -> (t, string) result
