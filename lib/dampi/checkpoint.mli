(** On-disk checkpoint of an interrupted exploration.

    A checkpoint is a consistent cut of the depth-first walk: the canonical
    counters and findings accumulated over {e completed} replays, the
    {!schedule_key}s of those replays, and the outstanding frontier (every
    queued or in-flight fork item at the cut). Resuming replays the frontier
    under the same configuration; frontier items whose key is already in
    [completed] are re-run {e expand-only} (their children are regenerated,
    deterministically identical, but nothing is re-counted), so the resumed
    exploration provably converges to the same canonical report as an
    uninterrupted run.

    The format is versioned line-oriented text ({!load} rejects any other
    version with a clear error), written atomically (temp file + rename in
    the same directory), and self-contained: it is the wire format the
    distributed mode will ship between workers. *)

(** One pending guided run, mirroring the explorer's work item. *)
type item = {
  prefix : Decisions.decision list;
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
  completed : string list;  (** {!schedule_key}s of counted replays *)
  frontier : item list;
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

val item_key : item -> string
(** [schedule_key (prefix @ [choice])] — the schedule the item would run. *)

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
val decision_of_key : string -> Decisions.decision option

val summary_to_key : Epoch.summary -> string
(** One whitespace-free token per epoch summary (sleep-set element). *)

val sleep_key : Epoch.summary list -> string
(** [;]-joined {!summary_to_key}s, ["-"] for the empty set. *)

val add_sleep_key : Buffer.t -> Epoch.summary list -> unit
(** Append {!sleep_key} to a buffer. Like every key encoder here it avoids
    Printf: keys are built per frontier item and per cache entry. *)

val sleep_of_key : string -> Epoch.summary list option

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
