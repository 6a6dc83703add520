(** Span tracer with explicit parent ids.

    Like {!Metrics}, recording is sharded: each {!sink} is owned by one
    writer (a worker domain), so closing a span is lock-free; the merged
    event stream is read only after the writers have quiesced. Span ids
    are globally unique and deterministic ([seq * shards +
    worker]), so two [jobs = 1] runs of the same deterministic workload
    produce identical span {e trees} — only the timestamps differ.

    Exported as Chrome's [trace_event] JSON (load the file in
    [about://tracing] / [ui.perfetto.dev]); {!span_forest} gives the
    timestamp-free structure the determinism tests compare. *)

type t
type sink

type arg = Str of string | Int of int | Float of float

type event = {
  id : int;
  parent : int;  (** parent span id, [-1] for roots *)
  name : string;
  worker : int;
  t_us : float;  (** start, microseconds since the collector's epoch *)
  dur_us : float;  (** span duration *)
  args : (string * arg) list;
}

val create : shards:int -> unit -> t
val sink : t -> int -> sink

(** {1 Recording} *)

type span

val begin_span :
  sink -> ?parent:int -> ?args:(string * arg) list -> string -> span

val end_span : sink -> span -> unit

val with_span :
  sink ->
  ?parent:int ->
  ?args:(string * arg) list ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span; the span closes even if the thunk raises. *)

val span_id : span -> int
(** For parenting children (possibly recorded on other sinks). *)

(** {1 Reading and export} *)

val events : t -> event list
(** All shards merged, sorted by start time then id. *)

val to_chrome : event list -> string
(** Chrome [trace_event] JSON: spans as ["ph": "X"] complete events, one
    thread lane per worker. *)

(** {1 Span trees} *)

type tree = { t_name : string; t_args : (string * arg) list; t_children : tree list }

val span_forest : event list -> tree list
(** Structure only — timestamps and ids dropped, children in id order. The
    determinism test's modulo-timestamps comparison object. *)
