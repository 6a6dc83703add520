(** Logical-clock algebra.

    DAMPI's late-message analysis is parametric in the clock implementation
    (§II-C of the paper): Lamport clocks scale (one integer piggybacked per
    message) but over-order concurrent events, losing completeness on the
    rare cross-coupled pattern of the paper's Fig. 4; vector clocks are
    precise but cost O(np) per message. Implementations of {!S} plug into
    [Dampi.Make] so both variants — and the ablation comparing them — share
    all verifier code. *)

module type S = sig
  type t

  val name : string
  (** "lamport" or "vector" — used in reports and bench labels. *)

  val make : np:int -> t
  (** The zero clock for a system of [np] processes. *)

  val tick : me:int -> t -> t
  (** Local visible event on process [me]. *)

  val merge : t -> t -> t
  (** Receive-side join: componentwise maximum. The Lamport variant is the
      scalar maximum ({e without} the +1 — DAMPI ticks only at
      non-deterministic events, per Algorithm 1). *)

  val epoch_clock : me:int -> t -> t
  (** The clock value to record for a wildcard receive's lateness judgement,
      given the process clock {e before} the event's tick. Lamport records
      the pre-tick scalar (Algorithm 1 records [LCi] and then increments);
      vector clocks record the event clock itself (post-tick), which is what
      the happened-before comparison needs. *)

  val is_late : send:t -> epoch:t -> bool
  (** The judgement at the heart of the algorithm: is a message whose
      piggybacked send-clock is [send] {e not causally after} the wildcard
      receive whose epoch clock is [epoch]? If so, the message is a
      {e late} message — a potential alternate match.

      - Lamport: [send < epoch]; sound but incomplete (a concurrent send can
        carry a clock >= the epoch and be missed).
      - Vector: [not (epoch < send)] in the vector partial order; sound and
        complete. *)

  val precise : bool
  (** Whether [is_late] is exact (vector) or an under-approximation that can
      miss concurrent sends (lamport). *)

  val encode : t -> int array
  (** Wire format for piggyback messages. *)

  val decode : np:int -> int array -> t

  val scalar : me:int -> t -> int
  (** A scalar view used for epoch identifiers: the Lamport value, or [me]'s
      own component for vector clocks. Strictly increasing across the
      non-deterministic events of process [me], and identical across replays
      of the same execution prefix — the property epoch ids rely on. *)

  val pp : Format.formatter -> t -> unit

  (** {2 Encoded hot-path operations}

      The replay hot path stores clocks directly in their wire encoding —
      an [int array] of [width ~np] cells — and mutates them in place,
      so a tick or a receive-side merge costs zero allocations instead of
      a decode/apply/encode round trip. The pure API above remains the
      specification: every [*_enc]/[*_into] operation must behave exactly
      like encode-compose-decode of its pure counterpart (QCheck holds the
      two to account in [test_clocks], and the tests' [Clock_reference.Make]
      derives this block from the pure block for differential runs). Buffer ownership
      rules live in DESIGN.md, "Hot path & allocation discipline". *)

  val width : np:int -> int
  (** Cells in the encoded form for a system of [np] processes. *)

  val make_enc : np:int -> int array
  (** The zero clock, encoded. Fresh storage owned by the caller. *)

  val tick_into : me:int -> int array -> unit
  (** In-place [tick] on an encoded clock. *)

  val merge_into : into:int array -> int array -> unit
  (** In-place receive-side join: [into <- merge into src]; [src] is read
      only. The arguments must not alias. *)

  val epoch_clock_into : me:int -> pre:int array -> into:int array -> unit
  (** Write the epoch clock derived from the {e pre-tick} encoded process
      clock [pre] into [into]. [pre] is read only; the arguments must not
      alias. *)

  val is_late_enc : send:int array -> epoch:int array -> bool
  (** [is_late] computed directly on encodings — no decode, no allocation. *)

  val scalar_enc : me:int -> int array -> int
  (** [scalar] computed directly on an encoding. *)
end
