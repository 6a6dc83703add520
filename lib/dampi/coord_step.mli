(** The coordinator's rules as a pure state machine: leases, sessions,
    fencing, the rejoin grace, refunds, the claim budget and heartbeats.
    {!step} reads no clock (events carry their time), does no I/O, draws
    no nonce (the shell draws one per connection) and writes no metric
    (the state counts; the socket shell, {!Coordinator}, publishes). The
    state is immutable, so test/test_coordinator_model.ml branches from
    any state to explore the interleavings of model workers under bounded
    failures. Connections are named by the shell's connection counter. *)

type config = {
  job : Wire.job;
  lease_size : int;
  heartbeat_timeout : float;
  join_timeout : float;  (** applies while [listening] *)
  rejoin_grace : float;
  auth : string option;
  budget : int;  (** cap on items leased, net of refunds *)
  listening : bool;
}

type lease = { lease_id : int; items : Checkpoint.item list; sent_at : float }

(** A worker identity: survives reconnects, owns the outstanding lease. *)
type session = {
  sid : string;
  epoch : int;  (** current fencing epoch *)
  lease : lease option;
  bound : int option;  (** its connection, if any *)
  lost_at : float option;  (** when its connection went away *)
  seen_ready : bool;
  last_settled : (int * int) option;  (** (epoch, lease id) last ingested *)
}

type hello

type phase =
  | Greeting of string  (** awaiting hello; the challenge nonce *)
  | Challenged of string * hello  (** awaiting auth *)
  | Jobbed of string  (** sent welcome and job; awaiting ready *)
  | Bound of string  (** leases flow to the session *)
  | Observer  (** read-only [dampi top] client *)

type conn = { name : string; phase : phase; last_seen : float }

type state = private {
  cfg : config;
  started : float;
  frontier : Checkpoint.item list;  (** a stack *)
  claimed : int;
  conns : (int * conn) list;  (** open connections only *)
  sessions : (string * session) list;
  next_epoch : int;
  next_lease : int;
  anon : int;
  workers_seen : int;
  leases : int;
  results : int;
  releases : int;  (** items refunded *)
  reconnects : int;
  fenced : int;
  dup_results : int;
  backpressure : int;
}

type event =
  | Opened of { conn : int; now : float; nonce : string }
  | Frame of { conn : int; now : float; msg : (Wire.to_coord, string) result }
  | Closed of { conn : int; now : float }  (** EOF, read or write error *)
  | Tick of { now : float; ready : int list }
      (** one loop turn: expire heartbeats and graces, then lease to the
          [ready] connections, those whose out-queue is within budget *)

type action =
  | Send of int * Wire.to_worker
  | Close of int * string  (** with the reason *)
  | Ingest of { runs : (Checkpoint.item * Wire.run_result) list; rtt : float }
      (** a settled results frame: each leased item with its run *)

val init : config -> first_epoch:int -> now:float -> state
val push : state -> Checkpoint.item list -> state
val step : state -> event -> state * action list

val snapshot : state -> Checkpoint.item list
(** Frontier plus every item on an outstanding lease. *)

val current_epoch : state -> int

val session_of : state -> int -> string option
(** The session a welcomed worker connection speaks for. *)

val verdict : state -> now:float -> (unit, string) result option
(** [Some (Ok ())] once no work remains; [Some (Error _)] when work
    remains but no worker is connected or inside its grace (and one has
    been seen, or joining is over); [None] while the run goes on. *)
