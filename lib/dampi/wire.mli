(** The transport of both line protocols, and the distributed mode's own
    protocol (proto=2).

    {b Transport.} The coordinator, the workers, the serve daemon and the
    CLI open every socket, wait on select and handle SIGPIPE through
    here; the {!Lines} splitter and the line codec serve proto=2 and the
    serve daemon's proto=1 ({!Serve}) alike.

    {b Proto=2.} A coordinator (the process running {!Explorer.explore})
    speaks to worker processes ({!Remote_worker}) over Unix-domain or TCP
    sockets. Every message is one line of whitespace-delimited fields —
    free-form text travels percent-encoded via {!Checkpoint.enc} — except
    leases and result deltas, which are multi-line frames with a declared
    element count and a closing [end] line, reusing {!Checkpoint}'s item,
    schedule, and error encodings verbatim.

    Conversation, worker-initiated after connect:
    {v
      worker: hello proto=2 id=<enc> session=<enc> epoch=<n> [pending=<id>]
      coord:  challenge <nonce>          (only when --auth-token is set)
      worker: auth <hmac>
      coord:  welcome epoch=<n>          (or: reject proto=2 <enc reason>)
      coord:  job <key>=<enc-value> ...
      worker: ready                      (or: fail <enc reason>)
      coord:  lease <id> <n> / n x item ... / end
      worker: hb                         (heartbeats, during long replays)
      worker: telemetry <n> / n x t <name> <sample> / end   (optional)
      worker: results <epoch> <id> <n> / n x run-groups / end
      ...                                (more leases)
      coord:  shutdown                   (exploration complete: exit)
              — or —
      coord:  detach                     (session over, run continues:
                                          redial / keep listening)
    v}

    {b Sessions and fencing.} A worker identifies itself by a stable
    session id that survives reconnects. Each (re)admission of a session
    is stamped with a monotonically increasing {e fencing epoch}, granted
    by the coordinator in [welcome] and echoed by the worker on every
    [results] frame. A worker that reconnects while its previous lease is
    still intact (same epoch, [pending=] names that lease) resumes it;
    any other reconnect gets a fresh epoch, and results frames carrying a
    stale epoch — a fenced zombie flushing work the coordinator already
    re-leased — are read to completion and discarded, preserving
    exactly-once counting across crashes and restarts.

    {b Version negotiation.} A [hello] with [proto<>2] is answered with a
    one-line [reject proto=2 <reason>] and the connection is closed — old
    peers get a versioned refusal, not a hang. The assembler therefore
    parses proto=1 hellos leniently (empty session, epoch 0).

    A worker that disconnects, fails, or goes silent past the heartbeat
    timeout forfeits its outstanding lease once the rejoin grace period
    expires; the coordinator re-leases those items to another worker.
    Results are ingested only as complete, current-epoch frames, so a
    re-leased item is never double-counted. *)

val proto_version : int

(** {2 Addresses} *)

type addr =
  | Unix_sock of string  (** [unix:/path/to.sock] *)
  | Tcp of string * int  (** [tcp:host:port] *)

val addr_of_string : string -> (addr, string) result
val addr_to_string : addr -> string

(** {2 Transport} *)

type listener

val listen : addr -> (listener, string) result
(** Resolve, remove a stale unix socket file (or set [SO_REUSEADDR]),
    bind and listen. [Error] is one [cannot resolve ADDR: …] or
    [cannot listen on ADDR: …] line, with no descriptor left open. *)

val listener_fd : listener -> Unix.file_descr
val accept : listener -> Unix.file_descr option
val close_quietly : Unix.file_descr -> unit

val close_listener : listener -> unit
(** Close, and unlink the unix socket path. *)

type dial_error =
  [ `Unresolved
  | `Gone of Unix.error
    (** nobody listens there ([ENOENT], [ECONNREFUSED]): the peer never
        started, or already finished *)
  | `Failed of Unix.error ]

val dial : addr -> (Unix.file_descr, dial_error) result
(** Never raises; no descriptor is left open on [Error]. *)

val dial_error_message : dial_error -> string

val readable : Unix.file_descr list -> float -> Unix.file_descr list
(** The select step: which of [fds] are readable within [timeout]
    seconds; [[]] when a signal interrupts the wait. *)

val with_sigpipe_ignored : (unit -> 'a) -> 'a
(** Run [f] with SIGPIPE ignored, so a write to a closed peer raises
    [EPIPE] instead of killing the process. Nested and concurrent holders
    (a coordinator and in-process worker domains) share one ignore; the
    last to leave restores the disposition the first one found. *)

(** {2 Line codec} *)

val fields : string -> string list

val kv_fields : string list -> (string * string) list
(** The [k=v] tokens, key and value percent-decoded. *)

val kvs_line : (string * string) list -> string
(** The inverse of {!kv_fields}. *)

val int_field : string -> (string * string) list -> int option
val read_line_opt : in_channel -> string option

val read_block :
  in_channel ->
  what:string ->
  string ->
  (string -> ('a, string) result) ->
  ('a list, string) result
(** [read_block ic ~what count line]: the [count] lines of a counted
    frame, each parsed by [line], then its closing [end]. *)

(** {2 Authentication}

    An HMAC-style challenge/response over a shared secret loaded from a
    file ([--auth-token FILE] on both sides). The MAC is HMAC-MD5 built
    on the stdlib [Digest] — this keeps strangers and misconfigured peers
    off a cross-host TCP coordinator; it is an authentication handshake,
    not transport encryption, and MD5 is not a defence against a
    determined cryptanalyst. The challenge nonce is fresh per connection;
    the response covers both the nonce and the claimed session id so a
    captured response cannot be replayed for another session. *)

val auth_mac : secret:string -> nonce:string -> session:string -> string
(** The response a worker sends to a [challenge]. *)

val gen_nonce : unit -> string
(** A fresh unpredictable-enough hex nonce (time/pid/counter seeded). *)

val load_token : string -> (string, string) result
(** [load_token path] reads and trims the shared secret from [path].
    [Error] on unreadable or empty files. *)

(** {2 Job description}

    What a worker needs to reconstruct the runner: an opaque workload name
    plus free-form parameters, both sides interpreted by the CLI's (or the
    test harness's) resolve function — the protocol does not constrain
    them. *)

type job = { workload : string; np : int; params : (string * string) list }

(** {2 Messages} *)

(** One leased item's outcome, as shipped back by a worker. *)
type run_result = {
  key : string;  (** {!Checkpoint.item_key} of the leased item *)
  payload : run_payload option;  (** [None]: every attempt hit the watchdog *)
  timeouts : int;  (** attempts the watchdog cut *)
  retries : int;  (** re-attempts after timeouts or transient faults *)
  transients : int;  (** injected-fault crashes absorbed by retries *)
}

and run_payload = {
  vtime : float;  (** virtual makespan (exact: hex-float on the wire) *)
  bounded : int;  (** non-expandable epochs this replay produced *)
  pruned : int;
      (** alternatives the sleep-set analysis suppressed at expansion *)
  errors : Report.error list;
  children : Checkpoint.item list;
}

type to_worker =
  | Challenge of string  (** auth nonce; reply with [Auth] *)
  | Welcome of { epoch : int }  (** admission + fencing epoch grant *)
  | Reject of { proto : int; reason : string }
      (** refusal (version or auth); [proto] is what the coordinator
          speaks. The connection closes after this line. *)
  | Job of job
  | Lease of { lease_id : int; items : Checkpoint.item list }
  | Progress of (string * string) list
      (** periodic aggregate progress, streamed to [role=observer]
          connections ([dampi top]): a [top <n>] frame of percent-encoded
          key/value pairs. Never sent to workers. *)
  | Detach
      (** this session is over but the exploration is not (coordinator
          interrupted or erroring out): reconnecting later may succeed *)
  | Shutdown  (** exploration complete: the worker should exit *)

type to_coord =
  | Hello of {
      proto : int;
      id : string;
      session : string;  (** stable across reconnects; fresh = new worker *)
      epoch : int;  (** last granted fencing epoch (0 = never admitted) *)
      pending : int option;
          (** lease id of an unacknowledged results frame the worker still
              holds, if any — the coordinator uses it to decide between
              resuming the lease and fencing *)
      role : string option;
          (** [Some "observer"]: a read-only client ([dampi top]) that
              receives [Progress] frames and no leases. [None] (the
              default, and what older peers send) means worker. *)
    }
  | Auth of string  (** response to [Challenge] *)
  | Ready
  | Heartbeat
  | Telemetry of (string * Obs.Metrics.sample) list
      (** metric deltas ({!Obs.Metrics.to_delta}) shipped piggybacked on
          heartbeats and ahead of results frames. Advisory: malformed
          samples are skipped and corrupt or truncated frames dropped
          whole by the assembler — telemetry never poisons a
          connection. *)
  | Results of { epoch : int; lease_id : int; runs : run_result list }
  | Failed of string

(** {2 Writing} *)

val to_worker_string : to_worker -> string
(** The full serialized frame (newline-terminated, possibly multi-line).
    Exposed so the chaos layer can drop/duplicate/corrupt/truncate whole
    frames at the send boundary. *)

val to_coord_string : to_coord -> string

val send : out_channel -> string -> bool
(** Write and flush; [false] when the peer is gone. *)

val write_to_coord : out_channel -> to_coord -> unit
(** Writes the full frame and flushes; raises when the peer is gone. *)

(** {2 Reading}

    The worker side blocks on a single coordinator connection and reads
    whole frames. The coordinator side is select-driven, so it feeds raw
    bytes into a per-connection assembler that yields complete messages as
    they close. *)

val default_max_line : int
(** Default cap on the bytes a single unterminated line may buffer
    (65536). A peer that streams data without a ['\n'] is cut off once
    its partial line passes this bound instead of growing the assembler
    without limit. *)

(** Incremental, bounded line splitting — the byte-level layer under
    {!assembler}, exposed so other line-oriented select loops
    ({!Serve}) share the same backpressure discipline. *)
module Lines : sig
  type t

  val create : ?limit:int -> unit -> t
  (** [create ?limit ()] is a fresh splitter capping unterminated input
      at [limit] bytes (default {!default_max_line}, floor 1). *)

  val feed : t -> bytes -> int -> string list * bool
  (** [feed t buf n] consumes [n] bytes and returns the lines they
      complete (without ['\n']), in order, plus an overflow flag. The
      flag is [true] once the buffered unterminated remainder exceeds
      the cap: the splitter is then dead — its buffer is dropped and
      every later feed yields [([], true)]. Callers should answer with
      one error and close the connection. *)
end

val read_to_worker : in_channel -> (to_worker, string) result
(** Blocking read of one coordinator frame. [Error] on malformed input or
    EOF. *)

type assembler

val assembler : unit -> assembler

val feed : assembler -> bytes -> int -> (to_coord, string) result list
(** [feed a buf n] consumes [n] bytes read from a worker's socket and
    returns every message completed by them, in order. A malformed line or
    frame yields [Error] (the coordinator drops the worker) — except
    telemetry, which is dropped silently (see {!to_coord.Telemetry}). An
    unterminated line past {!default_max_line} bytes yields a final
    [Error] after any completed messages; the assembler is dead from then
    on and the caller should close the connection. *)
