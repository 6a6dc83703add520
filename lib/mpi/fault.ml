(* Deterministic, seed-driven fault injection. See fault.mli for the model.

   Determinism contract: a [t] built from the same (spec, salt) pair injects
   at the same consultation indices with the same parameters, regardless of
   which OS thread or domain drives the run. All randomness flows through a
   private Splitmix stream derived from (spec.seed, salt); the per-run
   injection points are drawn once at [make] so that the decision "this run
   fails its Nth send" does not depend on how many delay coins were flipped
   before it. *)

exception Transient_send_failure of string
exception Rank_killed of int
exception Wedged of int

let () =
  Printexc.register_printer (function
    | Transient_send_failure site ->
        Some (Printf.sprintf "Mpi.Fault.Transient_send_failure(%S)" site)
    | Rank_killed pid -> Some (Printf.sprintf "Mpi.Fault.Rank_killed(%d)" pid)
    | Wedged pid -> Some (Printf.sprintf "Mpi.Fault.Wedged(%d)" pid)
    | _ -> None)

let is_transient = function
  | Transient_send_failure _ | Rank_killed _ | Wedged _ -> true
  | _ -> false

type spec = {
  seed : int;
  delay_prob : float;
  max_delay : float;
  sendfail_prob : float;
  crash_prob : float;
  wedge_prob : float;
  target_rank : int option;
}

let inert =
  {
    seed = 0;
    delay_prob = 0.0;
    max_delay = 1e-5;
    sendfail_prob = 0.0;
    crash_prob = 0.0;
    wedge_prob = 0.0;
    target_rank = None;
  }

let default_spec ~seed =
  { inert with seed; delay_prob = 0.05; sendfail_prob = 0.02 }

let is_inert spec =
  spec.delay_prob = 0.0 && spec.sendfail_prob = 0.0 && spec.crash_prob = 0.0
  && spec.wedge_prob = 0.0

let to_string spec =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "seed=%d" spec.seed);
  let fld name v = if v > 0.0 then Buffer.add_string b (Printf.sprintf ",%s=%g" name v) in
  fld "delay" spec.delay_prob;
  if spec.delay_prob > 0.0 then
    Buffer.add_string b (Printf.sprintf ",max-delay=%g" spec.max_delay);
  fld "sendfail" spec.sendfail_prob;
  fld "crash" spec.crash_prob;
  fld "wedge" spec.wedge_prob;
  (match spec.target_rank with
  | Some r -> Buffer.add_string b (Printf.sprintf ",rank=%d" r)
  | None -> ());
  Buffer.contents b

let of_string ?seed text =
  let text = String.trim text in
  let base =
    match seed with Some s -> default_spec ~seed:s | None -> inert
  in
  if text = "" then
    if seed = None then Error "empty fault spec (and no fault seed given)"
    else Ok base
  else begin
    (* An explicit spec starts from all-zero probabilities; --fault-seed then
       only provides the seed, not the default mild injection mix. *)
    let spec = ref { inert with seed = base.seed } in
    let err = ref None in
    let prob name v =
      match float_of_string_opt v with
      | Some p when p >= 0.0 && p <= 1.0 -> Some p
      | _ ->
          err := Some (Printf.sprintf "%s must be a probability in [0,1], got %S" name v);
          None
    in
    List.iter
      (fun pair ->
        if !err = None then
          match String.split_on_char '=' (String.trim pair) with
          | [ "seed"; v ] -> (
              match int_of_string_opt v with
              | Some s when seed = None -> spec := { !spec with seed = s }
              | Some _ -> () (* --fault-seed wins over seed= in the spec *)
              | None -> err := Some (Printf.sprintf "bad seed %S" v))
          | [ "delay"; v ] -> (
              match prob "delay" v with
              | Some p -> spec := { !spec with delay_prob = p }
              | None -> ())
          | [ "max-delay"; v ] -> (
              match float_of_string_opt v with
              | Some d when d >= 0.0 -> spec := { !spec with max_delay = d }
              | _ -> err := Some (Printf.sprintf "bad max-delay %S" v))
          | [ "sendfail"; v ] -> (
              match prob "sendfail" v with
              | Some p -> spec := { !spec with sendfail_prob = p }
              | None -> ())
          | [ "crash"; v ] -> (
              match prob "crash" v with
              | Some p -> spec := { !spec with crash_prob = p }
              | None -> ())
          | [ "wedge"; v ] -> (
              match prob "wedge" v with
              | Some p -> spec := { !spec with wedge_prob = p }
              | None -> ())
          | [ "rank"; v ] -> (
              match int_of_string_opt v with
              | Some r -> spec := { !spec with target_rank = Some r }
              | None -> err := Some (Printf.sprintf "bad rank %S" v))
          | _ ->
              err :=
                Some
                  (Printf.sprintf
                     "bad fault spec entry %S (expected key=value with key in \
                      seed|delay|max-delay|sendfail|crash|wedge|rank)"
                     pair))
      (String.split_on_char ',' text);
    match !err with Some e -> Error e | None -> Ok !spec
  end

(* ---- per-run instances ---- *)

(* At most one abortive injection per kind per run, at a pre-drawn
   consultation index. [horizon] bounds how deep into the run an injection
   can land; runs shorter than the drawn index simply see no injection, runs
   longer see exactly one. The bounded count is what makes retries converge:
   a retry re-draws under a fresh salt, so each attempt fails independently
   with the spec's probability rather than once per call site. *)
let horizon = 256

type call_kind = No_call_fault | Kill_at of int | Wedge_at of int

type t = {
  spec : spec;
  rng : Sim.Splitmix.t;  (* delay coin flips, in consultation order *)
  mutable send_countdown : int;  (* consultations until a send failure; -1 = never *)
  mutable call_fault : call_kind;
  mutable call_count : int;
}

let none =
  {
    spec = inert;
    rng = Sim.Splitmix.create 0;
    send_countdown = -1;
    call_fault = No_call_fault;
    call_count = 0;
  }

let make spec ~salt =
  if is_inert spec then none
  else begin
    let rng = Sim.Splitmix.derive spec.seed ~salt in
    let send_countdown =
      if spec.sendfail_prob > 0.0 && Sim.Splitmix.float rng 1.0 < spec.sendfail_prob
      then Sim.Splitmix.int rng horizon
      else -1
    in
    let call_fault =
      if spec.crash_prob +. spec.wedge_prob <= 0.0 then No_call_fault
      else begin
        let r = Sim.Splitmix.float rng 1.0 in
        if r < spec.crash_prob then Kill_at (Sim.Splitmix.int rng horizon)
        else if r < spec.crash_prob +. spec.wedge_prob then
          Wedge_at (Sim.Splitmix.int rng horizon)
        else No_call_fault
      end
    in
    { spec; rng; send_countdown; call_fault; call_count = 0 }
  end

let active t = not (is_inert t.spec)

let targets t pid =
  match t.spec.target_rank with None -> true | Some r -> r = pid

type send_action = Send_ok of float | Send_fail
type call_action = Call_ok | Call_kill | Call_wedge

let on_send t ~src =
  if not (active t && targets t src) then Send_ok 0.0
  else begin
    let fail = t.send_countdown = 0 in
    if t.send_countdown >= 0 then t.send_countdown <- t.send_countdown - 1;
    if fail then Send_fail
    else if
      t.spec.delay_prob > 0.0
      && Sim.Splitmix.float t.rng 1.0 < t.spec.delay_prob
    then Send_ok (Sim.Splitmix.float t.rng t.spec.max_delay)
    else Send_ok 0.0
  end

let on_call t ~pid =
  if not (active t && targets t pid) then Call_ok
  else begin
    let n = t.call_count in
    t.call_count <- n + 1;
    match t.call_fault with
    | Kill_at i when i = n -> Call_kill
    | Wedge_at i when i = n -> Call_wedge
    | _ -> Call_ok
  end

(* Per-replay salt: a pure function of the forced schedule and the attempt
   number, so the fault stream a replay sees is independent of worker count
   and execution order, while retries draw fresh faults. [Hashtbl.hash] is
   deterministic on immutable structural values across runs of the same
   binary, which is all checkpoint resume needs (the schedule itself, not the
   salt, is what goes on disk). *)
let salt_of_schedule ~attempt schedule =
  Hashtbl.hash (attempt, schedule)

(* ---- transport-layer faults ---- *)

module Net = struct
  type spec = {
    seed : int;
    drop : float;
    delay : float;
    max_delay : float;
    dup : float;
    reorder : float;
    corrupt : float;
    truncate : float;
    partition : float;
    partition_frames : int;
    bandwidth : int;
    write_fail : float;
  }

  let inert =
    {
      seed = 0;
      drop = 0.0;
      delay = 0.0;
      max_delay = 0.01;
      dup = 0.0;
      reorder = 0.0;
      corrupt = 0.0;
      truncate = 0.0;
      partition = 0.0;
      partition_frames = 8;
      bandwidth = 0;
      write_fail = 0.0;
    }

  (* The default mix behind [--net-fault-seed] alone is stall-free: delays,
     duplicates and reorders are absorbed inline by the protocol, whereas
     drops / truncations / partitions recover through heartbeat timeouts and
     redials, which under the default 30s heartbeat would make a smoke run
     crawl. The aggressive kinds are opt-in via the spec text. *)
  let default_spec ~seed =
    { inert with seed; delay = 0.2; max_delay = 0.02; dup = 0.15; reorder = 0.1 }

  let wire_inert spec =
    spec.drop = 0.0 && spec.delay = 0.0 && spec.dup = 0.0 && spec.reorder = 0.0
    && spec.corrupt = 0.0 && spec.truncate = 0.0 && spec.partition = 0.0
    && spec.bandwidth = 0

  let of_string ?seed text =
    let text = String.trim text in
    let base = match seed with Some s -> default_spec ~seed:s | None -> inert in
    if text = "" then
      if seed = None then Error "empty net fault spec (and no net fault seed given)"
      else Ok base
    else begin
      let spec = ref { inert with seed = base.seed } in
      let err = ref None in
      let prob name v =
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 1.0 -> Some p
        | _ ->
            err := Some (Printf.sprintf "%s must be a probability in [0,1], got %S" name v);
            None
      in
      let set_prob name v f =
        match prob name v with Some p -> spec := f !spec p | None -> ()
      in
      List.iter
        (fun pair ->
          if !err = None then
            match String.split_on_char '=' (String.trim pair) with
            | [ "seed"; v ] -> (
                match int_of_string_opt v with
                | Some s when seed = None -> spec := { !spec with seed = s }
                | Some _ -> () (* --net-fault-seed wins over seed= in the spec *)
                | None -> err := Some (Printf.sprintf "bad seed %S" v))
            | [ "drop"; v ] -> set_prob "drop" v (fun s p -> { s with drop = p })
            | [ "delay"; v ] -> set_prob "delay" v (fun s p -> { s with delay = p })
            | [ "max-delay"; v ] -> (
                match float_of_string_opt v with
                | Some d when d >= 0.0 -> spec := { !spec with max_delay = d }
                | _ -> err := Some (Printf.sprintf "bad max-delay %S" v))
            | [ "dup"; v ] -> set_prob "dup" v (fun s p -> { s with dup = p })
            | [ "reorder"; v ] -> set_prob "reorder" v (fun s p -> { s with reorder = p })
            | [ "corrupt"; v ] -> set_prob "corrupt" v (fun s p -> { s with corrupt = p })
            | [ "truncate"; v ] -> set_prob "truncate" v (fun s p -> { s with truncate = p })
            | [ "partition"; v ] ->
                set_prob "partition" v (fun s p -> { s with partition = p })
            | [ "partition-frames"; v ] -> (
                match int_of_string_opt v with
                | Some n when n > 0 -> spec := { !spec with partition_frames = n }
                | _ -> err := Some (Printf.sprintf "bad partition-frames %S" v))
            | [ "bandwidth"; v ] -> (
                match int_of_string_opt v with
                | Some n when n >= 0 -> spec := { !spec with bandwidth = n }
                | _ -> err := Some (Printf.sprintf "bad bandwidth %S" v))
            | [ "write-fail"; v ] ->
                set_prob "write-fail" v (fun s p -> { s with write_fail = p })
            | _ ->
                err :=
                  Some
                    (Printf.sprintf
                       "bad net fault spec entry %S (expected key=value with key in \
                        seed|drop|delay|max-delay|dup|reorder|corrupt|truncate|\
                        partition|partition-frames|bandwidth|write-fail)"
                       pair))
        (String.split_on_char ',' text);
      match !err with Some e -> Error e | None -> Ok !spec
    end

  (* ---- per-connection instances ----

     Mirrors the replay-fault idiom above: each one-shot kind pre-draws a
     single consultation index at [make], bounded by a small horizon, so every
     connection instance suffers at most one injection per kind and chaos
     quiesces — a redial is a fresh instance under a fresh salt, which re-draws
     independently, so with probabilities < 1 a lossy link makes progress with
     probability 1 while staying a pure function of (spec, salt).

     Frame classes gate which kinds may strike where:
     - [Control] (handshake, job setup, shutdown): only delayed or swallowed by
       a partition window. Dropping or corrupting exactly one of these in
       isolation would not add coverage — the recovery path (connection death,
       redial) is the same one a partition already exercises — while silently
       breaking invariants the protocol state machine is entitled to (e.g. a
       reordered lease-before-job is a permanent protocol error, not a fault).
     - [Chatter] (heartbeats, telemetry, progress): additionally corruptible —
       they parse-fail loudly and poison the connection, exercising detection.
     - [Payload] (leases, results): the frames exactly-once delivery is about;
       drop/dup/reorder/truncate target these. *)

  let payload_horizon = 4
  let frame_horizon = 16

  type klass = Control | Chatter | Payload

  type action =
    | Deliver of { delay : float; copies : int }
    | Drop_frame
    | Corrupt_frame
    | Truncate_sever
    | Hold_back

  type t = {
    spec : spec;
    rng : Sim.Splitmix.t;
    on_inject : string -> unit;
    drop_at : int;      (* payload-frame index; -1 = never *)
    dup_at : int;
    hold_at : int;
    corrupt_at : int;   (* non-control-frame index *)
    truncate_at : int;
    part_start : int;   (* any-frame index; -1 = never *)
    part_len : int;
    mutable payloads : int;
    mutable noncontrol : int;
    mutable frames : int;
    mutable held : string option;  (* reorder: waits for the next frame *)
  }

  let none =
    {
      spec = inert;
      rng = Sim.Splitmix.create 0;
      on_inject = ignore;
      drop_at = -1;
      dup_at = -1;
      hold_at = -1;
      corrupt_at = -1;
      truncate_at = -1;
      part_start = -1;
      part_len = 0;
      payloads = 0;
      noncontrol = 0;
      frames = 0;
      held = None;
    }

  let make ?(on_inject = ignore) spec ~salt =
    if wire_inert spec then none
    else begin
      let rng = Sim.Splitmix.derive spec.seed ~salt in
      let draw p horizon =
        if p > 0.0 && Sim.Splitmix.float rng 1.0 < p then Sim.Splitmix.int rng horizon
        else -1
      in
      let drop_at = draw spec.drop payload_horizon in
      let dup_at = draw spec.dup payload_horizon in
      let hold_at = draw spec.reorder payload_horizon in
      let corrupt_at = draw spec.corrupt frame_horizon in
      let truncate_at = draw spec.truncate frame_horizon in
      let part_start = draw spec.partition frame_horizon in
      {
        spec;
        rng;
        on_inject;
        drop_at;
        dup_at;
        hold_at;
        corrupt_at;
        truncate_at;
        part_start;
        part_len = spec.partition_frames;
        payloads = 0;
        noncontrol = 0;
        frames = 0;
        held = None;
      }
    end

  let active t = not (wire_inert t.spec)

  let on_frame t ~klass ~size =
    if not (active t) then Deliver { delay = 0.0; copies = 1 }
    else begin
      let f = t.frames in
      t.frames <- f + 1;
      let nc =
        match klass with
        | Control -> -1
        | Chatter | Payload ->
            let n = t.noncontrol in
            t.noncontrol <- n + 1;
            n
      in
      let p =
        match klass with
        | Payload ->
            let n = t.payloads in
            t.payloads <- n + 1;
            n
        | Control | Chatter -> -1
      in
      (* The delay coin is flipped unconditionally so the consultation stream
         stays aligned across frame classes. *)
      let coin =
        t.spec.delay > 0.0 && Sim.Splitmix.float t.rng 1.0 < t.spec.delay
      in
      let jitter = if coin then Sim.Splitmix.float t.rng t.spec.max_delay else 0.0 in
      if t.part_start >= 0 && f >= t.part_start && f < t.part_start + t.part_len
      then begin
        t.on_inject "partition";
        Drop_frame
      end
      else if nc >= 0 && nc = t.truncate_at then begin
        t.on_inject "truncate";
        Truncate_sever
      end
      else if nc >= 0 && nc = t.corrupt_at then begin
        t.on_inject "corrupt";
        Corrupt_frame
      end
      else if p >= 0 && p = t.drop_at then begin
        t.on_inject "drop";
        Drop_frame
      end
      else if p >= 0 && p = t.hold_at then begin
        t.on_inject "reorder";
        Hold_back
      end
      else begin
        let copies = if p >= 0 && p = t.dup_at then 2 else 1 in
        if copies = 2 then t.on_inject "dup";
        let shaping =
          if t.spec.bandwidth > 0 then float_of_int size /. float_of_int t.spec.bandwidth
          else 0.0
        in
        let delay = jitter +. shaping in
        if delay > 0.0 then t.on_inject "delay";
        Deliver { delay; copies }
      end
    end

  (* A detectably-corrupt frame: the leading verb byte becomes an unprintable
     control character, so the receiver's line parser rejects the frame
     ("unexpected … line") instead of silently ingesting mangled payload.
     Undetectable mid-payload corruption is out of scope until the wire grows
     checksummed framing (see ROADMAP: transport security). *)
  let corrupt_bytes frame =
    if String.length frame = 0 then frame
    else begin
      let b = Bytes.of_string frame in
      Bytes.set b 0 '\x01';
      Bytes.to_string b
    end

  let truncate frame =
    let n = String.length frame in
    if n <= 1 then frame else String.sub frame 0 (n / 2)

  (* Writes only when something is held: [none] is shared by every clean
     connection, so its (empty) slot is never written. *)
  let release t =
    match t.held with
    | None -> None
    | Some _ as h ->
        t.held <- None;
        h

  type shaped = { writes : (float * string) list; sever : bool }

  (* The one mapping from an injector decision to bytes, shared by the
     coordinator (which queues each write at its due time) and the worker
     (which sleeps, then writes). *)
  let shape t ~klass frame =
    let plain writes = { writes; sever = false } in
    let at delay held = List.map (fun h -> (delay, h)) (Option.to_list held) in
    match on_frame t ~klass ~size:(String.length frame) with
    | Deliver { delay; copies } ->
        (* An injected reorder resolves here: the held frame goes out
           behind the one that overtook it. *)
        plain (List.init copies (fun _ -> (delay, frame)) @ at delay (release t))
    | Drop_frame -> plain []
    | Corrupt_frame -> plain [ (0.0, corrupt_bytes frame) ]
    | Truncate_sever -> { writes = [ (0.0, truncate frame) ]; sever = true }
    | Hold_back ->
        (* One frame held at a time; a second hold releases the first in
           arrival order. *)
        let released = at 0.0 (release t) in
        t.held <- Some frame;
        plain released

  let fs_fault spec ~salt =
    if spec.write_fail <= 0.0 then fun () -> false
    else begin
      let rng = Sim.Splitmix.derive spec.seed ~salt:(salt lxor 0x5f5f) in
      fun () -> Sim.Splitmix.float rng 1.0 < spec.write_fail
    end
end
