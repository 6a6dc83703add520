(** Domain-safe metrics registry: monotonic counters, gauges, and
    fixed-bucket histograms.

    Writes go through a {!shard}; each shard is owned by exactly one writer
    (one worker domain, or one lock-protected subsystem), so recording is a
    plain unsynchronized store. Reading merges all shards: counters sum,
    gauges take the maximum, histograms add bucket-wise. The merged view of
    a [jobs = N] exploration therefore equals the [jobs = 1] view for every
    series whose value is a property of the run set rather than of worker
    scheduling.

    Handles ({!counter}, {!histogram}) are resolved once by name and then
    written through directly, keeping instrumented hot paths free of hash
    lookups. *)

type t
(** A registry: a fixed array of shards. *)

type shard
type counter
type histogram

val create : shards:int -> unit -> t
(** [create ~shards ()] builds a registry with [shards] independent write
    shards (at least 1). *)

val shard : t -> int -> shard

(** {1 Recording} *)

val counter : shard -> string -> counter
(** Resolve (creating if needed) the named counter in this shard. Resolving
    an existing name returns the same underlying cell. *)

val add : counter -> int -> unit
val incr : counter -> unit

val gauge_set : shard -> string -> float -> unit
(** Set the named gauge; the merged view keeps the maximum across shards. *)

val histogram : shard -> ?bounds:float array -> string -> histogram
(** Resolve (creating if needed) the named histogram. [bounds] are ascending
    bucket upper bounds, used only on first creation (default
    {!seconds_bounds}); an implicit overflow bucket is always appended. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f ()] and observes its wall-clock duration (seconds)
    into [h] — the phase-timing helper behind [--profile]. Nothing is
    recorded if [f] raises. *)

val seconds_bounds : float array
(** Decades from 1µs to 10s — for wall/virtual durations. *)

val count_bounds : float array
(** Powers of two from 1 to 1024 — for queue depths and candidate counts. *)

(** {1 Snapshots} *)

type hist_view = {
  bounds : float array;
  counts : int array;  (** length = [Array.length bounds + 1] (overflow) *)
  sum : float;
  count : int;
  max_value : float;
}

type sample = Counter of int | Gauge of float | Histogram of hist_view

type snapshot = (string * sample) list
(** Sorted by metric name. *)

val snapshot : t -> snapshot
(** Merged over all shards. *)

val shard_snapshot : t -> int -> snapshot
val merge : snapshot list -> snapshot

val counter_value : snapshot -> string -> int
(** 0 when absent or not a counter. *)

val find : snapshot -> string -> sample option

(** {1 Deltas}

    A delta is itself a {!snapshot}: counters and histogram buckets hold
    the monotone increase since the previous snapshot (clamped at 0),
    gauges hold the current value. Deltas are what workers ship over the
    wire; the receiving side folds them in with {!merge_delta}. *)

val to_delta : prev:snapshot -> snapshot -> snapshot
(** [to_delta ~prev cur] — series whose delta carries no information
    (zero counters, empty histogram increments) are dropped, so a quiet
    interval yields [[]]. *)

val merge_delta : snapshot -> snapshot -> snapshot
(** [merge_delta base delta] adds counter/histogram increments into
    [base]; gauges take the delta's (latest) value. Mismatched kinds or
    histogram bounds keep [base]'s series — never raises. *)

(** {1 Wire encoding}

    Space-free sample tokens for line-oriented protocols: [c:N],
    [g:HEXFLOAT], [h:COUNT:SUM:MAX:B0,B1,..:C0,C1,..] (floats as OCaml
    hex floats for exact round-trips). *)

val sample_to_wire : sample -> string

val sample_of_wire : string -> sample option
(** [None] on any malformed token — telemetry parsing never raises. *)

(** {1 Export} *)

val to_json : ?workers:(string * snapshot) list -> snapshot -> string
(** A single JSON object: [{"metrics": {...}, "workers": [...]}]. Counters
    as integers, histograms with per-bucket counts ([le] upper bounds, the
    overflow bucket as ["+inf"]). [workers] entries are labeled snapshots
    (["w0"], ["sched"], a remote session id, ...). *)

val to_openmetrics : ?workers:(string * snapshot) list -> snapshot -> string
(** OpenMetrics text format: metric names sanitized to
    [[a-zA-Z0-9_:]], counters as [name_total], histograms as cumulative
    [name_bucket{le="..."}] plus [name_sum]/[name_count], terminated by
    [# EOF]. Worker-labeled series ride along as
    [name{worker="..."} ...] within the same family. *)

val pp : Format.formatter -> snapshot -> unit
(** Deterministic one-line-per-metric listing (for [dampi stats]). *)

(** {1 JSON helpers} (shared with {!Trace}) *)

val json_escape : string -> string
val json_float : float -> string
