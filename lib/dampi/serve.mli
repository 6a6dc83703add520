(** Verification as a service: a crash-isolated, backpressured job daemon.

    [dampi serve] turns the one-shot CLI into a resident verifier: a
    single-threaded select loop accepts line-oriented job requests from
    many clients, queues them FIFO with per-client fairness, and runs each
    admitted job in a {e forked child process}. Its transport is
    {!Wire}'s, as the coordinator's is: {!Wire.listen}, {!Wire.accept},
    the {!Wire.readable} select step, {!Wire.Lines} bounded line
    splitting, and the {!Wire} line codec for requests, events, the
    daemon's pipe to each job child and the journal.
    Fork-per-job is the crash-isolation mechanism: a job whose replay
    raises — or segfaults, or is OOM-killed — takes down only its child;
    the daemon classifies the death from the exit status plus whatever
    final frame the child managed to write, reports it to the submitting
    client with the backtrace, and keeps serving.

    Client protocol (serve proto=1, one request per line, free-form text
    percent-encoded via {!Checkpoint.enc}; every daemon line is
    {!event_to_string} of one {!event}):
    {v
      client: submit workload=<enc> [np=<n>] [k=<enc>] ... [on-disconnect=cancel|detach]
      serve:  accepted id=<n>
              — or — reject queue-full | reject client-cap | reject draining
              — or — error proto=1 <enc reason>
      serve:  progress id=<n> <key>=<enc> ...        (streamed while running)
      serve:  report id=<n> <nlines> / nlines x l <enc-line> / end
      serve:  done id=<n> status=<s> code=<n> msg=<enc> backtrace=<enc>
      client: fetch <id>
      serve:  report/done as above (a parked report, consumed by the fetch)
              — or — pending id=<n> state=queued|running
              — or — error proto=1 <enc reason>
    v}

    Terminal statuses: [completed] (code 0 clean, 1 findings),
    [checkpointed] (code 3: daemon drained; the job is journaled and will
    resume on restart), [crashed] (code 1 or 2: classified failure, [msg]
    and [backtrace] carry the cause), [cancelled].

    {b Admission control.} The queue is bounded in jobs and bytes and
    each client has an in-flight cap; a submit past any bound gets a
    one-line reject and nothing else changes. Garbage request lines get a
    versioned [error proto=1] line (connection stays up); a single
    unterminated line past [limits.max_line] gets the error and the
    connection closed. None of these can terminate the daemon.

    {b Client lifecycle.} A client that disconnects mid-job triggers its
    jobs' [on-disconnect] policy: [cancel] (default) SIGTERMs the child
    and drops queued jobs; [detach] lets the job finish and parks its
    report on disk for a later [fetch] by id. A failed progress/report
    write to a vanished client marks the client gone and applies the same
    policy — EPIPE never kills the daemon.

    {b Drain and recovery.} SIGTERM stops admission and SIGTERMs running
    children, whose Explorer checkpoint machinery snapshots the frontier;
    [serve] then returns 0. Two SIGINTs force: children are SIGKILLed and
    [serve] returns 130. Every admitted-but-unfinished job spec lives in
    an atomic-write journal ({!Checkpoint.atomic_write}) in [state_dir],
    so a restarted daemon re-admits lost jobs exactly once (as detached
    jobs — their submitters are gone) and resumes checkpointed ones. *)

val proto : int
(** serve protocol version (1). *)

type on_disconnect = Cancel | Detach

val on_disconnect_of_string : string -> (on_disconnect, string) result
(** ["cancel" | "detach"]; anything else is [Error]. *)

(** What a job run produced, as reported by the child. *)
type outcome =
  | Completed of { report : string; code : int }
      (** rendered report text (what the client receives line by line)
          plus the exit code a standalone [dampi verify] would use *)
  | Checkpointed
      (** the run was interrupted (daemon drain) and snapshotted; the
          job stays journaled for the next daemon instance *)

type limits = {
  parallel : int;  (** concurrent job children *)
  max_queue : int;  (** queued (not yet running) jobs *)
  max_queue_bytes : int;  (** summed encoded spec bytes of queued jobs *)
  max_client_inflight : int;  (** queued+running jobs per client *)
  max_line : int;  (** request-line byte cap, {!Wire.Lines} *)
}

val default_limits : limits
(** parallel 2, queue 32 jobs / 1 MiB, 4 in-flight per client,
    {!Wire.default_max_line}-byte lines. *)

type config = {
  addr : Wire.addr;
  state_dir : string;
      (** journal, per-job checkpoints (+ prefix-cache sidecars, which
          survive job completion and make repeat submissions warm), and
          parked reports. Created if missing. *)
  limits : limits;
  validate : (string * string) list -> (string, string) result;
      (** Admission-time check of a submit's key/value params, run in the
          daemon: [Ok label] yields the canonical job label (which also
          keys the checkpoint path, so identically-labelled jobs share
          warm state and are never run concurrently); [Error] is sent to
          the client as [error proto=1]. Must not raise. *)
  run :
    ckpt:string ->
    label:string ->
    params:(string * string) list ->
    progress:((string * string) list -> unit) ->
    outcome;
      (** Executes one job, in the forked child. [ckpt] is the job's
          checkpoint path inside [state_dir]: the runner should arm
          Explorer checkpointing on it (drain depends on that) and resume
          from it when it exists. [progress] frames are forwarded to the
          submitting client. Raising is safe — it is what the
          crash-isolation path classifies. *)
  metrics : Obs.Metrics.shard option;
      (** serve.jobs_{accepted,rejected,completed,crashed,cancelled}
          counters, serve.queue_depth gauge, serve.job_wall_s
          histogram. *)
  ready : (Wire.addr -> unit) option;
      (** called once the listen socket is bound. *)
}

val serve : config -> (int, string) result
(** Runs the daemon until drained. [Ok 0]: graceful drain (SIGTERM or
    SIGINT) with every in-flight job finished or checkpointed; [Ok 130]:
    forced shutdown (second SIGINT). [Error] on bind/journal failures.
    Ignores SIGPIPE ({!Wire.with_sigpipe_ignored}) and installs
    SIGTERM/SIGINT handlers for the duration (restored on return). *)

(** {2 Client side}

    Blocking helpers for thin clients ([dampi submit] / [dampi fetch])
    and tests; they keep the encoding and its parse in one module. *)

type event =
  | Accepted of int
  | Rejected of string
  | Errored of { proto : int; reason : string }
  | Progress of int * (string * string) list
  | Report of int * string list  (** decoded report lines *)
  | Done of {
      id : int;
      status : string;
      code : int;
      msg : string;
      backtrace : string;
    }
  | Pending of { id : int; state : string }

val submit_line :
  params:(string * string) list -> on_disconnect:on_disconnect -> string
(** The [submit] request line (no trailing newline). *)

val fetch_line : int -> string

val event_to_string : event -> string
(** The daemon's encoding of an event: one newline-terminated line, or
    the [report] frame's lines. *)

val read_event : in_channel -> (event, string) result
(** Blocking read of one daemon frame through {!Wire.read_frame}: the
    inverse of {!event_to_string}. [Error] on EOF, malformed input or a
    line past {!Wire.default_max_line} bytes. *)
