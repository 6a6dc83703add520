(* Verification-as-a-service daemon. Single-threaded select loop in the
   Coordinator's idiom; every admitted job runs in a forked child so a
   raising (or segfaulting) replay can only ever take down its own
   process — the parent classifies the death from the exit status plus
   whatever final frame the child managed to write, and keeps serving.
   See serve.mli for the protocol and the robustness contract. *)

let src = Obs.Log.src "dampi.serve"

module Log = (val Obs.Log.src_log src : Obs.Log.LOG)

let proto = 1

type on_disconnect = Cancel | Detach

let on_disconnect_of_string = function
  | "cancel" -> Ok Cancel
  | "detach" -> Ok Detach
  | s -> Error (Printf.sprintf "bad on-disconnect %S (cancel|detach)" s)

let on_disconnect_to_string = function Cancel -> "cancel" | Detach -> "detach"

type outcome = Completed of { report : string; code : int } | Checkpointed

type limits = {
  parallel : int;
  max_queue : int;
  max_queue_bytes : int;
  max_client_inflight : int;
  max_line : int;
}

let default_limits =
  {
    parallel = 2;
    max_queue = 32;
    max_queue_bytes = 1 lsl 20;
    max_client_inflight = 4;
    max_line = Wire.default_max_line;
  }

type config = {
  addr : Wire.addr;
  state_dir : string;
  limits : limits;
  validate : (string * string) list -> (string, string) result;
  run :
    ckpt:string ->
    label:string ->
    params:(string * string) list ->
    progress:((string * string) list -> unit) ->
    outcome;
  metrics : Obs.Metrics.shard option;
  ready : (Wire.addr -> unit) option;
}

(* ---- encoding ---- *)

let submit_line ~params ~on_disconnect =
  "submit "
  ^ Wire.kvs_line
      (params @ [ ("on-disconnect", on_disconnect_to_string on_disconnect) ])

let fetch_line id = Printf.sprintf "fetch %d" id

type event =
  | Accepted of int
  | Rejected of string
  | Errored of { proto : int; reason : string }
  | Progress of int * (string * string) list
  | Report of int * string list
  | Done of {
      id : int;
      status : string;
      code : int;
      msg : string;
      backtrace : string;
    }
  | Pending of { id : int; state : string }

let event_to_string ev =
  (match ev with
  | Accepted id -> Printf.sprintf "accepted id=%d" id
  | Rejected what -> "reject " ^ what
  | Errored { proto; reason } ->
      Printf.sprintf "error proto=%d %s" proto (Checkpoint.enc reason)
  | Progress (id, kvs) ->
      Printf.sprintf "progress id=%d %s" id (Wire.kvs_line kvs)
  | Report (id, lines) ->
      String.concat "\n"
        ((Printf.sprintf "report id=%d %d" id (List.length lines)
         :: List.map (fun l -> "l " ^ Checkpoint.enc l) lines)
        @ [ "end" ])
  | Done { id; status; code; msg; backtrace } ->
      Printf.sprintf "done id=%d %s" id
        (Wire.kvs_line
           [ ("status", status); ("code", string_of_int code); ("msg", msg);
             ("backtrace", backtrace) ])
  | Pending { id; state } ->
      Printf.sprintf "pending id=%d %s" id (Wire.kvs_line [ ("state", state) ]))
  ^ "\n"

(* ---- client side ---- *)

let read_event ic =
  match Wire.read_line_opt ic with
  | None -> Error "connection closed"
  | Some line -> (
      let id_of tok = Wire.int_field "id" (Wire.kv_fields [ tok ]) in
      match Wire.fields line with
      | [ "accepted"; idkv ] -> (
          match id_of idkv with
          | Some id -> Ok (Accepted id)
          | None -> Error (Printf.sprintf "malformed accepted %S" line))
      | "reject" :: rest -> Ok (Rejected (String.concat " " rest))
      | "error" :: protokv :: rest -> (
          match Wire.int_field "proto" (Wire.kv_fields [ protokv ]) with
          | Some proto ->
              Ok
                (Errored
                   { proto; reason = Checkpoint.dec (String.concat " " rest) })
          | None -> Error (Printf.sprintf "malformed error %S" line))
      | "progress" :: idkv :: rest -> (
          match id_of idkv with
          | Some id -> Ok (Progress (id, Wire.kv_fields rest))
          | None -> Error (Printf.sprintf "malformed progress %S" line))
      | [ "pending"; idkv; statekv ] -> (
          match
            (id_of idkv, List.assoc_opt "state" (Wire.kv_fields [ statekv ]))
          with
          | Some id, Some state -> Ok (Pending { id; state })
          | _ -> Error (Printf.sprintf "malformed pending %S" line))
      | [ "report"; idkv; n ] -> (
          match id_of idkv with
          | Some id ->
              Wire.read_block ic ~what:"report" n (fun l ->
                  match Wire.fields l with
                  | [ "l"; e ] -> Ok (Checkpoint.dec e)
                  | _ -> Error (Printf.sprintf "malformed report line %S" l))
              |> Result.map (fun ls -> Report (id, ls))
          | None -> Error (Printf.sprintf "malformed report header %S" line))
      | "done" :: rest -> (
          let kvs = Wire.kv_fields rest in
          let text k = Option.value (List.assoc_opt k kvs) ~default:"" in
          match
            (Wire.int_field "id" kvs, List.assoc_opt "status" kvs,
             Wire.int_field "code" kvs)
          with
          | Some id, Some status, Some code ->
              Ok
                (Done
                   {
                     id;
                     status;
                     code;
                     msg = text "msg";
                     backtrace = text "backtrace";
                   })
          | _ -> Error (Printf.sprintf "malformed done %S" line))
      | _ -> Error (Printf.sprintf "unexpected daemon line %S" line))

(* ---- daemon state ---- *)

type client = {
  cid : int;
  cfd : Unix.file_descr;
  coc : out_channel;
  clines : Wire.Lines.t;
  mutable calive : bool;
}

type final = {
  f_status : string;
  f_code : int;
  f_report : string;
  f_msg : string;
  f_bt : string;
}

(* A finished job, from the child's [done] line or a parked report. *)
let final_of_kvs kvs =
  let text k = Option.value (List.assoc_opt k kvs) ~default:"" in
  {
    f_status = Option.value (List.assoc_opt "status" kvs) ~default:"crashed";
    f_code = Option.value (Wire.int_field "code" kvs) ~default:2;
    f_report = text "report";
    f_msg = text "msg";
    f_bt = text "backtrace";
  }

type child = {
  pid : int;
  rfd : Unix.file_descr;
  plines : Wire.Lines.t;
  mutable final : final option;
  mutable live : bool;
  started : float;
}

type phase = Queued | Running of child

type job = {
  jid : int;
  label : string;
  params : (string * string) list;
  spec_bytes : int;
  mutable ondisc : on_disconnect;
  mutable owner : client option;
  mutable phase : phase;
  mutable cancelling : bool;
}

type jmetrics = {
  m_accepted : Obs.Metrics.counter;
  m_rejected : Obs.Metrics.counter;
  m_completed : Obs.Metrics.counter;
  m_crashed : Obs.Metrics.counter;
  m_cancelled : Obs.Metrics.counter;
  m_wall : Obs.Metrics.histogram;
  m_shard : Obs.Metrics.shard;
}

type t = {
  cfg : config;
  listener : Wire.listener;
  rbuf : Bytes.t;
  m : jmetrics option;
  mutable clients : client list;
  mutable queue : job list;  (* FIFO; head oldest *)
  mutable running : job list;
  parked : (int, unit) Hashtbl.t;  (* report text lives on disk *)
  mutable next_id : int;
  mutable next_cid : int;
  mutable draining : bool;
  term : bool Atomic.t;
  ints : int Atomic.t;
}

let jincr t f = match t.m with Some m -> Obs.Metrics.incr (f m) | None -> ()

let gauge t =
  match t.m with
  | Some m ->
      Obs.Metrics.gauge_set m.m_shard "serve.queue_depth"
        (float_of_int (List.length t.queue))
  | None -> ()

let journal_path state_dir = Filename.concat state_dir "journal"
let report_path state_dir id = Filename.concat state_dir (Printf.sprintf "report-%d" id)

(* Checkpoints key on the canonical label, not the job id: a re-submitted
   workload resumes interrupted work and reuses the prefix-cache sidecar,
   and the same-label-never-concurrent rule below keeps the path unraced. *)
let ckpt_path state_dir label =
  Filename.concat state_dir ("job-" ^ Digest.to_hex (Digest.string label) ^ ".ck")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- journal ---- *)

let write_journal t =
  let b = Buffer.create 256 in
  Buffer.add_string b "# DAMPI serve journal\nversion 1\n";
  Buffer.add_string b (Printf.sprintf "next %d\n" t.next_id);
  let add_job j =
    Buffer.add_string b
      (String.concat " "
         ("job" :: string_of_int j.jid :: on_disconnect_to_string j.ondisc
         :: List.map (fun kv -> Wire.kvs_line [ kv ]) j.params)
      ^ "\n")
  in
  List.iter add_job t.queue;
  List.iter add_job t.running;
  Hashtbl.iter
    (fun id () -> Buffer.add_string b (Printf.sprintf "parked %d\n" id))
    t.parked;
  match Checkpoint.atomic_write (journal_path t.cfg.state_dir) (Buffer.contents b) with
  | Checkpoint.Written -> ()
  | Checkpoint.Degraded e ->
      Log.warn (fun m -> m "serve journal write degraded (%s); recovery may replay" e)

let load_journal state_dir =
  let path = journal_path state_dir in
  if not (Sys.file_exists path) then Ok (1, [], [])
  else
    match read_file path with
    | exception Sys_error e -> Error (Printf.sprintf "cannot read %s: %s" path e)
    | text -> (
        match String.split_on_char '\n' text with
        | "# DAMPI serve journal" :: "version 1" :: rest -> (
            let next = ref 1 and jobs = ref [] and parked = ref [] in
            let bad = ref None in
            List.iter
              (fun line ->
                if !bad = None && line <> "" then
                  match Wire.fields line with
                  | [ "next"; n ] -> (
                      match int_of_string_opt n with
                      | Some n when n >= 1 -> next := n
                      | _ -> bad := Some line)
                  | "job" :: id :: ondisc :: params -> (
                      match
                        (int_of_string_opt id, on_disconnect_of_string ondisc)
                      with
                      | Some id, Ok ondisc ->
                          jobs := (id, ondisc, Wire.kv_fields params) :: !jobs
                      | _ -> bad := Some line)
                  | [ "parked"; id ] -> (
                      match int_of_string_opt id with
                      | Some id -> parked := id :: !parked
                      | None -> bad := Some line)
                  | _ -> bad := Some line)
              rest;
            match !bad with
            | Some line ->
                Error (Printf.sprintf "corrupt serve journal %s: %S" path line)
            | None -> Ok (!next, List.rev !jobs, List.rev !parked))
        | _ -> Error (Printf.sprintf "corrupt serve journal %s: bad header" path))

(* ---- client plumbing ---- *)

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Disconnect (or first failed write): apply each owned job's policy.
   This is the only place a client's death touches job state, so an EPIPE
   on a progress write and a clean close behave identically. *)
let client_gone t c =
  if c.calive then begin
    c.calive <- false;
    Wire.close_quietly c.cfd;
    t.clients <- List.filter (fun c' -> c'.cid <> c.cid) t.clients;
    let owned j = match j.owner with Some o -> o.cid = c.cid | None -> false in
    let mine_q = List.filter owned t.queue in
    let mine_r = List.filter owned t.running in
    List.iter
      (fun j ->
        j.owner <- None;
        match j.ondisc with
        | Detach -> ()
        | Cancel ->
            t.queue <- List.filter (fun x -> x.jid <> j.jid) t.queue;
            jincr t (fun m -> m.m_cancelled);
            Log.info (fun m -> m "job %d cancelled (client gone)" j.jid))
      mine_q;
    List.iter
      (fun j ->
        j.owner <- None;
        match (j.ondisc, j.phase) with
        | Cancel, Running ch ->
            j.cancelling <- true;
            kill_quietly ch.pid Sys.sigterm
        | _ -> ())
      mine_r;
    if mine_q <> [] then write_journal t;
    gauge t
  end

let send t c ev =
  c.calive
  && (Wire.send c.coc (event_to_string ev)
     || begin
          client_gone t c;
          false
        end)

let error_event reason = Errored { proto; reason }

let done_event id f =
  Done
    { id; status = f.f_status; code = f.f_code; msg = f.f_msg;
      backtrace = f.f_bt }

(* A job's report and terminal line; the report frame carries the text's
   lines without its final newline. *)
let send_final t c id f =
  let lines = String.split_on_char '\n' f.f_report in
  let lines = match List.rev lines with "" :: r -> List.rev r | _ -> lines in
  (f.f_report = "" || send t c (Report (id, lines)))
  && send t c (done_event id f)

(* ---- parked reports ---- *)

let park t job f =
  let text =
    Printf.sprintf "status %s\ncode %d\nmsg %s\nbacktrace %s\nreport %s\n"
      f.f_status f.f_code (Checkpoint.enc f.f_msg) (Checkpoint.enc f.f_bt)
      (Checkpoint.enc f.f_report)
  in
  (match Checkpoint.atomic_write (report_path t.cfg.state_dir job.jid) text with
  | Checkpoint.Written -> Hashtbl.replace t.parked job.jid ()
  | Checkpoint.Degraded e ->
      Log.warn (fun m -> m "could not park report for job %d: %s" job.jid e))

let load_parked t id =
  match read_file (report_path t.cfg.state_dir id) with
  | exception Sys_error _ -> None
  | text ->
      Some
        (final_of_kvs
           (List.filter_map
              (fun line ->
                match Wire.fields line with
                | [ k; v ] -> Some (k, Checkpoint.dec v)
                | _ -> None)
              (String.split_on_char '\n' text)))

let deliver t job f =
  match job.owner with
  | Some c when c.calive -> if not (send_final t c job.jid f) then park t job f
  | _ -> park t job f

(* ---- running jobs ---- *)

let running_child j = match j.phase with Running ch -> Some ch | Queued -> None

(* Next job to start: FIFO, except (a) a label already running is held
   back (identical labels share a checkpoint path), and (b) among ready
   candidates the client with the fewest running jobs goes first, so one
   chatty submitter cannot starve the rest of the queue. *)
let pick_next t =
  let running_labels = List.map (fun j -> j.label) t.running in
  let okey j = match j.owner with Some c -> c.cid | None -> -1 in
  let load key =
    List.length (List.filter (fun j -> okey j = key) t.running)
  in
  List.fold_left
    (fun best j ->
      if List.mem j.label running_labels then best
      else
        match best with
        | Some b when load (okey b) <= load (okey j) -> best
        | _ -> Some j)
    None t.queue

let start t job =
  let rfd, wfd = Unix.pipe () in
  let ck = ckpt_path t.cfg.state_dir job.label in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* Job child. Sever every daemon fd and restore default signal
         disposition so Explorer's own checkpoint handlers see a clean
         slate (the daemon's handlers are inherited otherwise). *)
      Wire.close_quietly rfd;
      Wire.close_quietly (Wire.listener_fd t.listener);
      List.iter (fun c -> Wire.close_quietly c.cfd) t.clients;
      List.iter
        (fun j ->
          match running_child j with
          | Some ch -> Wire.close_quietly ch.rfd
          | None -> ())
        t.running;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      (* SIGPIPE stays ignored, as the daemon left it: a write to a dead
         pipe is an error here, not a signal. *)
      Printexc.record_backtrace true;
      let oc = Unix.out_channel_of_descr wfd in
      let send line = ignore (Wire.send oc (line ^ "\n")) in
      let progress kvs = send ("p " ^ Wire.kvs_line kvs) in
      let finish status code ?(report = "") ?(msg = "") ?(bt = "") () =
        send
          ("done "
          ^ Wire.kvs_line
              [ ("status", status); ("code", string_of_int code);
                ("report", report); ("msg", msg); ("backtrace", bt) ])
      in
      let code =
        match
          t.cfg.run ~ckpt:ck ~label:job.label ~params:job.params ~progress
        with
        | Completed { report; code } ->
            finish "completed" code ~report ();
            if code = 0 then 0 else 1
        | Checkpointed ->
            finish "checkpointed" 3 ();
            3
        | exception e ->
            let bt = Printexc.get_backtrace () in
            finish "crashed" 1 ~msg:(Printexc.to_string e) ~bt ();
            2
      in
      (* _exit: the parent's buffered channels were inherited by fork and
         must not be flushed a second time from here. *)
      Unix._exit code
  | pid ->
      Unix.close wfd;
      job.phase <-
        Running
          {
            pid;
            rfd;
            (* trusted pipe, but still bounded: a runaway report cannot
               balloon the daemon *)
            plines = Wire.Lines.create ~limit:(1 lsl 20) ();
            final = None;
            live = true;
            started = Unix.gettimeofday ();
          };
      t.queue <- List.filter (fun x -> x.jid <> job.jid) t.queue;
      t.running <- t.running @ [ job ];
      gauge t;
      Log.info (fun m -> m "job %d started (pid %d): %s" job.jid pid job.label)

let handle_child_line t job line =
  match Wire.fields line with
  | "p" :: rest -> (
      match job.owner with
      | Some c -> ignore (send t c (Progress (job.jid, Wire.kv_fields rest)))
      | None -> ())
  | "done" :: rest -> (
      match running_child job with
      | Some ch -> ch.final <- Some (final_of_kvs (Wire.kv_fields rest))
      | None -> ())
  | _ -> Log.debug (fun m -> m "job %d: stray pipe line %S" job.jid line)

(* Child pipe hit EOF: reap, classify, deliver or requeue. *)
let settle t job ch =
  if ch.live then begin
    ch.live <- false;
    Wire.close_quietly ch.rfd;
    let wstatus =
      try snd (Unix.waitpid [] ch.pid)
      with Unix.Unix_error _ -> Unix.WEXITED 0
    in
    t.running <- List.filter (fun j -> j.jid <> job.jid) t.running;
    (match t.m with
    | Some m ->
        Obs.Metrics.observe m.m_wall (Unix.gettimeofday () -. ch.started)
    | None -> ());
    let f =
      match ch.final with
      | Some f -> f
      | None ->
          let msg =
            match wstatus with
            | Unix.WSIGNALED sg ->
                Printf.sprintf "job runner killed by signal %d" sg
            | Unix.WEXITED n ->
                Printf.sprintf "job runner exited with code %d before reporting"
                  n
            | Unix.WSTOPPED _ -> "job runner stopped"
          in
          { f_status = "crashed"; f_code = 2; f_report = ""; f_msg = msg; f_bt = "" }
    in
    let drop_ckpt () =
      try Sys.remove (ckpt_path t.cfg.state_dir job.label)
      with Sys_error _ -> ()
    in
    (match f.f_status with
    | _ when job.cancelling ->
        jincr t (fun m -> m.m_cancelled);
        drop_ckpt ();
        Log.info (fun m -> m "job %d cancelled" job.jid);
        Option.iter
          (fun c ->
            ignore
              (send t c
                 (done_event job.jid
                    { f with f_status = "cancelled"; f_code = 3 })))
          job.owner
    | "completed" ->
        jincr t (fun m -> m.m_completed);
        (* the .cache prefix sidecar stays: that is the daemon-resident
           warm path for repeat submissions of this label *)
        drop_ckpt ();
        Log.info (fun m -> m "job %d completed (code %d)" job.jid f.f_code);
        deliver t job f
    | "checkpointed" ->
        (* SIGTERM reached the child (daemon drain, or a stray external
           interrupt): the Explorer snapshotted its frontier. Requeue —
           under drain the queue is what the journal persists for the
           next daemon; otherwise the job simply resumes here. *)
        job.phase <- Queued;
        t.queue <- t.queue @ [ job ];
        Log.info (fun m -> m "job %d checkpointed" job.jid);
        if t.draining then begin
          Option.iter
            (fun c ->
              ignore
                (send t c
                   (done_event job.jid { f with f_status = "checkpointed" })))
            job.owner;
          job.owner <- None
        end
    | _ ->
        jincr t (fun m -> m.m_crashed);
        drop_ckpt ();
        Log.warn (fun m -> m "job %d crashed: %s" job.jid f.f_msg);
        deliver t job { f with f_status = "crashed" });
    write_journal t;
    gauge t
  end

(* ---- admission ---- *)

let queue_bytes t = List.fold_left (fun a j -> a + j.spec_bytes) 0 t.queue

let inflight t c =
  let owned j = match j.owner with Some o -> o.cid = c.cid | None -> false in
  List.length (List.filter owned t.queue)
  + List.length (List.filter owned t.running)

let reject t c ev =
  jincr t (fun m -> m.m_rejected);
  ignore (send t c ev)

let handle_submit t c rest =
  let kvs = Wire.kv_fields rest in
  let ondisc =
    match List.assoc_opt "on-disconnect" kvs with
    | None -> Ok Cancel
    | Some s -> on_disconnect_of_string s
  in
  let params = List.filter (fun (k, _) -> k <> "on-disconnect") kvs in
  match ondisc with
  | Error e -> reject t c (error_event e)
  | Ok ondisc -> (
      if t.draining then reject t c (Rejected "draining")
      else
        match t.cfg.validate params with
        | Error e -> reject t c (error_event e)
        | Ok label ->
            let spec_bytes = String.length (Wire.kvs_line params) in
            if
              List.length t.queue >= t.cfg.limits.max_queue
              || queue_bytes t + spec_bytes > t.cfg.limits.max_queue_bytes
            then reject t c (Rejected "queue-full")
            else if inflight t c >= t.cfg.limits.max_client_inflight then
              reject t c (Rejected "client-cap")
            else begin
              let jid = t.next_id in
              t.next_id <- jid + 1;
              let job =
                {
                  jid;
                  label;
                  params;
                  spec_bytes;
                  ondisc;
                  owner = Some c;
                  phase = Queued;
                  cancelling = false;
                }
              in
              t.queue <- t.queue @ [ job ];
              jincr t (fun m -> m.m_accepted);
              gauge t;
              (* journal before acknowledging: "accepted" must imply the
                 job survives a daemon restart *)
              write_journal t;
              ignore (send t c (Accepted jid))
            end)

let handle_fetch t c id =
  if Hashtbl.mem t.parked id then begin
    match load_parked t id with
    | Some f ->
        if send_final t c id f then begin
          Hashtbl.remove t.parked id;
          (try Sys.remove (report_path t.cfg.state_dir id)
           with Sys_error _ -> ());
          write_journal t
        end
    | None ->
        Hashtbl.remove t.parked id;
        write_journal t;
        ignore
          (send t c
             (error_event
                (Printf.sprintf "parked report for job %d is gone" id)))
  end
  else
    let pending state = ignore (send t c (Pending { id; state })) in
    if List.exists (fun x -> x.jid = id) t.queue then pending "queued"
    else if List.exists (fun x -> x.jid = id) t.running then pending "running"
    else ignore (send t c (error_event (Printf.sprintf "unknown job %d" id)))

let handle_line t c line =
  if c.calive && line <> "" then
    let err fmt =
      Printf.ksprintf (fun e -> ignore (send t c (error_event e))) fmt
    in
    match Wire.fields line with
    | "submit" :: rest -> handle_submit t c rest
    | [ "fetch"; n ] -> (
        match int_of_string_opt n with
        | Some id -> handle_fetch t c id
        | None -> err "bad fetch id %S" n)
    | _ ->
        (* garbage gets a versioned error, never a crash or a close *)
        err "unexpected request line %S" line

(* ---- the select loop ---- *)

let accept_client t =
  match Wire.accept t.listener with
  | None -> ()
  | Some fd ->
      let c =
        {
          cid = t.next_cid;
          cfd = fd;
          coc = Unix.out_channel_of_descr fd;
          clines = Wire.Lines.create ~limit:t.cfg.limits.max_line ();
          calive = true;
        }
      in
      t.next_cid <- t.next_cid + 1;
      t.clients <- t.clients @ [ c ]

let read_client t c =
  if c.calive then
    match Unix.read c.cfd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> client_gone t c
    | exception Unix.Unix_error _ -> client_gone t c
    | n ->
        let lines, overflow = Wire.Lines.feed c.clines t.rbuf n in
        List.iter (handle_line t c) lines;
        if overflow && c.calive then begin
          ignore
            (send t c
               (error_event
                  (Printf.sprintf "request line exceeds %d bytes"
                     t.cfg.limits.max_line)));
          client_gone t c
        end

let read_child t job ch =
  if ch.live then
    match Unix.read ch.rfd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> settle t job ch
    | exception Unix.Unix_error _ -> settle t job ch
    | n ->
        let lines, _ = Wire.Lines.feed ch.plines t.rbuf n in
        List.iter (handle_child_line t job) lines

let drive t =
  let rec loop () =
    if Atomic.get t.ints >= 2 then begin
      (* forced shutdown: children die hard; the journal re-admits their
         jobs on the next start *)
      List.iter
        (fun j ->
          match running_child j with
          | Some ch ->
              kill_quietly ch.pid Sys.sigkill;
              (try ignore (Unix.waitpid [] ch.pid) with Unix.Unix_error _ -> ())
          | None -> ())
        t.running;
      write_journal t;
      Log.warn (fun m -> m "forced shutdown; %d jobs journaled for restart"
                   (List.length t.queue + List.length t.running));
      130
    end
    else begin
      if (Atomic.get t.term || Atomic.get t.ints >= 1) && not t.draining
      then begin
        t.draining <- true;
        Log.info (fun m ->
            m "draining: %d running, %d queued" (List.length t.running)
              (List.length t.queue));
        List.iter
          (fun j ->
            match running_child j with
            | Some ch -> kill_quietly ch.pid Sys.sigterm
            | None -> ())
          t.running;
        (* queued jobs ride the journal into the next daemon; unblock
           their submitters now *)
        List.iter
          (fun j ->
            Option.iter
              (fun c ->
                ignore
                  (send t c
                     (Done
                        { id = j.jid; status = "checkpointed"; code = 3;
                          msg = "daemon draining"; backtrace = "" })))
              j.owner;
            j.owner <- None)
          t.queue
      end;
      if t.draining && t.running = [] then begin
        write_journal t;
        0
      end
      else begin
        let rec fill () =
          if
            (not t.draining)
            && List.length t.running < t.cfg.limits.parallel
          then
            match pick_next t with
            | Some j ->
                start t j;
                fill ()
            | None -> ()
        in
        fill ();
        let cmap = List.map (fun c -> (c.cfd, c)) t.clients in
        let jmap =
          List.filter_map
            (fun j ->
              match running_child j with
              | Some ch -> Some (ch.rfd, (j, ch))
              | None -> None)
            t.running
        in
        let lfd = Wire.listener_fd t.listener in
        let watch =
          (if t.draining then [] else [ lfd ])
          @ List.map fst cmap @ List.map fst jmap
        in
        List.iter
          (fun fd ->
            if fd = lfd && not t.draining then accept_client t
            else
              match List.assq_opt fd cmap with
              | Some c -> read_client t c
              | None -> (
                  match List.assq_opt fd jmap with
                  | Some (j, ch) -> read_child t j ch
                  | None -> ()))
          (Wire.readable watch 0.2);
        loop ()
      end
    end
  in
  loop ()

let make_metrics = function
  | None -> None
  | Some sh ->
      Some
        {
          m_accepted = Obs.Metrics.counter sh "serve.jobs_accepted";
          m_rejected = Obs.Metrics.counter sh "serve.jobs_rejected";
          m_completed = Obs.Metrics.counter sh "serve.jobs_completed";
          m_crashed = Obs.Metrics.counter sh "serve.jobs_crashed";
          m_cancelled = Obs.Metrics.counter sh "serve.jobs_cancelled";
          m_wall =
            Obs.Metrics.histogram sh ~bounds:Obs.Metrics.seconds_bounds
              "serve.job_wall_s";
          m_shard = sh;
        }

let serve cfg =
  (try Unix.mkdir cfg.state_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Result.bind (load_journal cfg.state_dir) @@ fun (next, jobs, parked) ->
  Result.bind (Wire.listen cfg.addr) @@ fun listener ->
  let t =
    {
      cfg;
      listener;
      rbuf = Bytes.create 65536;
      m = make_metrics cfg.metrics;
      clients = [];
      queue = [];
      running = [];
      parked = Hashtbl.create 16;
      next_id = next;
      next_cid = 1;
      draining = false;
      term = Atomic.make false;
      ints = Atomic.make 0;
    }
  in
  (* journal recovery: re-admit every lost job exactly once. The
     submitters are gone, so the jobs run detached and park. *)
  List.iter
    (fun (jid, ondisc, params) ->
      match cfg.validate params with
      | Ok label ->
          t.queue <-
            t.queue
            @ [
                {
                  jid;
                  label;
                  params;
                  spec_bytes = String.length (Wire.kvs_line params);
                  ondisc;
                  owner = None;
                  phase = Queued;
                  cancelling = false;
                };
              ];
          t.next_id <- max t.next_id (jid + 1);
          Log.info (fun m -> m "re-admitted job %d from journal" jid)
      | Error e -> Log.warn (fun m -> m "dropping journaled job %d: %s" jid e))
    jobs;
  List.iter
    (fun id ->
      t.next_id <- max t.next_id (id + 1);
      Hashtbl.replace t.parked id ())
    parked;
  gauge t;
  write_journal t;
  (match cfg.ready with Some f -> f cfg.addr | None -> ());
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set t.term true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.incr t.ints))
  in
  Wire.with_sigpipe_ignored @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Wire.close_listener t.listener;
      List.iter (fun c -> Wire.close_quietly c.cfd) t.clients)
    (fun () -> Ok (drive t))
