(* Line-oriented wire protocol between the exploration coordinator and
   remote workers. See wire.mli for the conversation; the encodings for
   items, schedules, and errors are Checkpoint's, verbatim. *)

let proto_version = 2

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | None ->
      Error
        (Printf.sprintf "bad address %S (expected unix:PATH or tcp:HOST:PORT)" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error (Printf.sprintf "bad address %S: empty path" s)
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None ->
              Error (Printf.sprintf "bad address %S (expected tcp:HOST:PORT)" s)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 && host <> "" ->
                  Ok (Tcp (host, p))
              | _ ->
                  Error
                    (Printf.sprintf "bad address %S (expected tcp:HOST:PORT)" s)))
      | _ ->
          Error
            (Printf.sprintf
               "bad address %S (unknown scheme %S; expected unix: or tcp:)" s
               scheme))

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* ---- transport: resolve, listen, dial, wait ----

   Every socket the coordinator, the workers, the serve daemon and the CLI
   open goes through here, so address resolution, stale-socket cleanup
   and error text are the same everywhere. *)

let sockaddr_of_addr = function
  | Unix_sock p -> Some (Unix.ADDR_UNIX p)
  | Tcp (host, port) -> (
      let inet ip = Some (Unix.ADDR_INET (ip, port)) in
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] -> None
      | ips -> inet ips.(0)
      | exception Not_found -> (
          match Unix.inet_addr_of_string host with
          | ip -> inet ip
          | exception Failure _ -> None))

let socket sa = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_quietly path =
  try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()

type listener = { lfd : Unix.file_descr; lpath : string option }

let listen addr =
  let failed e =
    Error
      (Printf.sprintf "cannot listen on %s: %s" (addr_to_string addr)
         (Unix.error_message e))
  in
  match sockaddr_of_addr addr with
  | None ->
      Error
        (Printf.sprintf "cannot resolve %s: no such host or address"
           (addr_to_string addr))
  | Some sa -> (
      match socket sa with
      | exception Unix.Unix_error (e, _, _) -> failed e
      | fd -> (
          let lpath = match addr with Unix_sock p -> Some p | Tcp _ -> None in
          match
            (match lpath with
            | Some p -> unlink_quietly p
            | None -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
            Unix.bind fd sa;
            Unix.listen fd 16
          with
          | () -> Ok { lfd = fd; lpath }
          | exception Unix.Unix_error (e, _, _) ->
              close_quietly fd;
              failed e))

let listener_fd l = l.lfd

let accept l =
  match Unix.accept l.lfd with
  | fd, _ -> Some fd
  | exception Unix.Unix_error _ -> None

let close_listener l =
  close_quietly l.lfd;
  Option.iter unlink_quietly l.lpath

type dial_error = [ `Unresolved | `Gone of Unix.error | `Failed of Unix.error ]

let dial addr =
  match sockaddr_of_addr addr with
  | None -> Error `Unresolved
  | Some sa -> (
      match socket sa with
      | exception Unix.Unix_error (e, _, _) -> Error (`Failed e)
      | fd -> (
          match Unix.connect fd sa with
          | () -> Ok fd
          | exception Unix.Unix_error (e, _, _) ->
              close_quietly fd;
              Error
                (match e with
                | Unix.ENOENT | Unix.ECONNREFUSED -> `Gone e
                | e -> `Failed e)))

let dial_error_message = function
  | `Unresolved -> "no such host or address"
  | `Gone e | `Failed e -> Unix.error_message e

let readable fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* SIGPIPE's disposition is process-wide, but a coordinator and its workers
   may run on different domains of one process. Each saving and restoring
   it around its own connection let the first to finish restore the
   default while another still wrote to a closed peer, which killed the
   whole process. Holders now share one ignore: the first sets it, the last
   restores what the first found. *)
let sigpipe_m = Mutex.create ()
let sigpipe_holders = ref 0
let sigpipe_saved = ref None

let with_sigpipe_ignored f =
  Mutex.lock sigpipe_m;
  if !sigpipe_holders = 0 then
    sigpipe_saved :=
      (try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
       with Invalid_argument _ | Sys_error _ -> None);
  incr sigpipe_holders;
  Mutex.unlock sigpipe_m;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock sigpipe_m;
      decr sigpipe_holders;
      (if !sigpipe_holders = 0 then
         match !sigpipe_saved with
         | Some h -> (
             try Sys.set_signal Sys.sigpipe h
             with Invalid_argument _ | Sys_error _ -> ())
         | None -> ());
      Mutex.unlock sigpipe_m)

(* ---- authentication ---- *)

(* HMAC-MD5 (RFC 2104 two-pass construction over the stdlib Digest). MD5 is
   what the toolchain ships without extra dependencies; the goal is keeping
   strangers and misconfigured peers off a cross-host TCP coordinator, not
   resisting a cryptanalyst — the mli says so out loud. *)
let hmac ~secret msg =
  let block = 64 in
  let key =
    if String.length secret > block then Digest.string secret else secret
  in
  let key = key ^ String.make (block - String.length key) '\000' in
  let xored c = String.map (fun k -> Char.chr (Char.code k lxor c)) key in
  Digest.to_hex (Digest.string (xored 0x5c ^ Digest.string (xored 0x36 ^ msg)))

let auth_mac ~secret ~nonce ~session =
  hmac ~secret (nonce ^ "\n" ^ session)

(* Nonce freshness, not reproducibility, is what matters here; seed from
   volatile process state. *)
let nonce_counter = ref 0

let gen_nonce () =
  incr nonce_counter;
  let seed =
    Hashtbl.hash
      (Unix.gettimeofday (), Unix.getpid (), !nonce_counter, Sys.executable_name)
  in
  let g = Sim.Splitmix.derive seed ~salt:!nonce_counter in
  Printf.sprintf "%016Lx%016Lx" (Sim.Splitmix.next_int64 g)
    (Sim.Splitmix.next_int64 g)

let load_token path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      match String.trim text with
      | "" -> Error (Printf.sprintf "auth token file %s is empty" path)
      | secret -> Ok secret)
  | exception Sys_error msg -> Error msg

type job = { workload : string; np : int; params : (string * string) list }

type run_result = {
  key : string;
  payload : run_payload option;
  timeouts : int;
  retries : int;
  transients : int;
}

and run_payload = {
  vtime : float;
  bounded : int;
  pruned : int;
  errors : Report.error list;
  children : Checkpoint.item list;
}

type to_worker =
  | Challenge of string
  | Welcome of { epoch : int }
  | Reject of { proto : int; reason : string }
  | Job of job
  | Lease of { lease_id : int; items : Checkpoint.item list }
  | Progress of (string * string) list
  | Detach
  | Shutdown

type to_coord =
  | Hello of {
      proto : int;
      id : string;
      session : string;
      epoch : int;
      pending : int option;
      role : string option;
    }
  | Auth of string
  | Ready
  | Heartbeat
  | Telemetry of (string * Obs.Metrics.sample) list
  | Results of { epoch : int; lease_id : int; runs : run_result list }
  | Failed of string

(* ---- the line codec, shared by proto=2 and serve proto=1 ---- *)

let fields = String.split_on_char ' '

(* [k=v] tokens, both sides percent-encoded; tokens without '=' are
   skipped. *)
let kv_fields parts =
  List.filter_map
    (fun p ->
      match String.index_opt p '=' with
      | Some i ->
          Some
            ( Checkpoint.dec (String.sub p 0 i),
              Checkpoint.dec (String.sub p (i + 1) (String.length p - i - 1)) )
      | None -> None)
    parts

let kvs_line kvs =
  String.concat " "
    (List.map (fun (k, v) -> Checkpoint.enc k ^ "=" ^ Checkpoint.enc v) kvs)

let int_field k kvs = Option.bind (List.assoc_opt k kvs) int_of_string_opt

(* A SIGKILLed peer surfaces as ECONNRESET ([Sys_error] through the
   channel layer), not a clean EOF; both just mean the session is over. *)
let read_line_opt ic =
  try Some (input_line ic)
  with End_of_file | Sys_error _ -> None

let read_block ic ~what count line =
  let rec go acc k =
    match read_line_opt ic with
    | None -> Error ("connection closed mid-" ^ what)
    | Some "end" when k = 0 -> Ok (List.rev acc)
    | Some _ when k = 0 -> Error (what ^ " frame not closed by end")
    | Some l -> (
        match line l with Ok x -> go (x :: acc) (k - 1) | Error e -> Error e)
  in
  match int_of_string_opt count with
  | Some n when n >= 0 -> go [] n
  | _ -> Error (Printf.sprintf "bad %s count %S" what count)

(* ---- line building ---- *)

(* Frames are serialized to strings before hitting the socket so the
   chaos layer ([Mpi.Fault.Net]) can drop, duplicate, corrupt or truncate a
   whole frame at the send boundary on either side. *)

let to_worker_string msg =
  let b = Buffer.create 128 in
  (match msg with
  | Challenge nonce ->
      Buffer.add_string b (Printf.sprintf "challenge %s\n" (Checkpoint.enc nonce))
  | Welcome { epoch } -> Buffer.add_string b (Printf.sprintf "welcome epoch=%d\n" epoch)
  | Reject { proto; reason } ->
      Buffer.add_string b
        (Printf.sprintf "reject proto=%d %s\n" proto (Checkpoint.enc reason))
  | Job j ->
      Buffer.add_string b
        ("job "
        ^ kvs_line
            (("workload", j.workload) :: ("np", string_of_int j.np) :: j.params)
        ^ "\n")
  | Lease { lease_id; items } ->
      Buffer.add_string b (Printf.sprintf "lease %d %d\n" lease_id (List.length items));
      List.iter (Checkpoint.add_item_line b) items;
      Buffer.add_string b "end\n"
  | Progress kvs ->
      Buffer.add_string b (Printf.sprintf "top %d\n" (List.length kvs));
      List.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Printf.sprintf "s %s %s\n" (Checkpoint.enc k) (Checkpoint.enc v)))
        kvs;
      Buffer.add_string b "end\n"
  | Detach -> Buffer.add_string b "detach\n"
  | Shutdown -> Buffer.add_string b "shutdown\n");
  Buffer.contents b

let to_coord_string msg =
  let b = Buffer.create 256 in
  (match msg with
  | Hello { proto; id; session; epoch; pending; role } ->
      let kvs =
        [ ("proto", string_of_int proto); ("id", id); ("session", session);
          ("epoch", string_of_int epoch) ]
        @ (match pending with
          | Some l -> [ ("pending", string_of_int l) ]
          | None -> [])
        @ match role with Some r -> [ ("role", r) ] | None -> []
      in
      Buffer.add_string b ("hello " ^ kvs_line kvs ^ "\n")
  | Auth mac -> Buffer.add_string b (Printf.sprintf "auth %s\n" (Checkpoint.enc mac))
  | Ready -> Buffer.add_string b "ready\n"
  | Heartbeat -> Buffer.add_string b "hb\n"
  | Telemetry series ->
      Buffer.add_string b (Printf.sprintf "telemetry %d\n" (List.length series));
      List.iter
        (fun (name, s) ->
          Buffer.add_string b
            (Printf.sprintf "t %s %s\n" (Checkpoint.enc name)
               (Obs.Metrics.sample_to_wire s)))
        series;
      Buffer.add_string b "end\n"
  | Failed reason ->
      Buffer.add_string b (Printf.sprintf "fail %s\n" (Checkpoint.enc reason))
  | Results { epoch; lease_id; runs } ->
      Buffer.add_string b
        (Printf.sprintf "results %d %d %d\n" epoch lease_id (List.length runs));
      List.iter
        (fun r ->
          (match r.payload with
          | Some p ->
              (* %h hex-floats round-trip virtual time exactly; canonical
                 equality with the in-process pool depends on it. *)
              Buffer.add_string b
                (Printf.sprintf "run %s counted %h %d %d %d %d %d %d %d\n" r.key
                   p.vtime p.bounded p.pruned r.timeouts r.retries r.transients
                   (List.length p.errors) (List.length p.children));
              List.iter
                (fun e ->
                  Buffer.add_string b
                    (Printf.sprintf "err %s\n" (Checkpoint.error_to_line e)))
                p.errors;
              List.iter (Checkpoint.add_item_line b) p.children
          | None ->
              Buffer.add_string b
                (Printf.sprintf "run %s gaveup %d %d %d\n" r.key r.timeouts
                   r.retries r.transients)))
        runs;
      Buffer.add_string b "end\n");
  Buffer.contents b

let send oc data =
  match
    output_string oc data;
    flush oc
  with
  | () -> true
  | exception (Sys_error _ | Unix.Unix_error _) -> false

let write_to_coord oc msg =
  output_string oc (to_coord_string msg);
  flush oc

(* ---- parsing helpers ---- *)

let parse_job rest =
  let kvs = kv_fields rest in
  match (List.assoc_opt "workload" kvs, List.assoc_opt "np" kvs) with
  | Some workload, Some np_s -> (
      match int_of_string_opt np_s with
      | Some np when np > 0 ->
          Ok
            {
              workload;
              np;
              params =
                List.filter (fun (k, _) -> k <> "workload" && k <> "np") kvs;
            }
      | _ -> Error (Printf.sprintf "bad job np %S" np_s))
  | _ -> Error "job line missing workload/np"

(* "err <tag> <payload>" | "err <tag>" (empty payload) *)
let parse_err_line line =
  let body = String.sub line 4 (String.length line - 4) in
  let tag, payload =
    match String.index_opt body ' ' with
    | Some i ->
        ( String.sub body 0 i,
          String.sub body (i + 1) (String.length body - i - 1) )
    | None -> (body, "")
  in
  match Checkpoint.error_of_line tag payload with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "malformed err line %S" line)

(* First line of a run group; returns the header plus how many err/child
   lines follow it. *)
type run_header = { hdr : run_result; nerr : int; nchild : int }

let parse_run_line line =
  match fields line with
  | [ "run"; key; "counted"; vtime; bounded; pruned; timeouts; retries;
      transients; nerr; nchild ] -> (
      match
        ( float_of_string_opt vtime,
          int_of_string_opt bounded,
          int_of_string_opt pruned,
          int_of_string_opt timeouts,
          int_of_string_opt retries,
          int_of_string_opt transients,
          int_of_string_opt nerr,
          int_of_string_opt nchild )
      with
      | Some vtime, Some bounded, Some pruned, Some timeouts, Some retries,
        Some transients, Some nerr, Some nchild
        when nerr >= 0 && nchild >= 0 ->
          Ok
            {
              hdr =
                {
                  key;
                  payload =
                    Some { vtime; bounded; pruned; errors = []; children = [] };
                  timeouts;
                  retries;
                  transients;
                };
              nerr;
              nchild;
            }
      | _ -> Error (Printf.sprintf "malformed run line %S" line))
  | [ "run"; key; "gaveup"; timeouts; retries; transients ] -> (
      match
        ( int_of_string_opt timeouts,
          int_of_string_opt retries,
          int_of_string_opt transients )
      with
      | Some timeouts, Some retries, Some transients ->
          Ok
            {
              hdr = { key; payload = None; timeouts; retries; transients };
              nerr = 0;
              nchild = 0;
            }
      | _ -> Error (Printf.sprintf "malformed run line %S" line))
  | _ -> Error (Printf.sprintf "malformed run line %S" line)

(* ---- worker side: blocking frame reads ---- *)

let read_to_worker ic =
  match read_line_opt ic with
  | None -> Error "connection closed"
  | Some line -> (
      match fields line with
      | [ "challenge"; nonce ] -> Ok (Challenge (Checkpoint.dec nonce))
      | "welcome" :: rest -> (
          match int_field "epoch" (kv_fields rest) with
          | Some epoch -> Ok (Welcome { epoch })
          | None -> Error (Printf.sprintf "malformed welcome %S" line))
      | [ "reject"; proto_kv; reason ] -> (
          match int_field "proto" (kv_fields [ proto_kv ]) with
          | Some proto -> Ok (Reject { proto; reason = Checkpoint.dec reason })
          | None -> Error (Printf.sprintf "malformed reject %S" line))
      | "job" :: rest -> parse_job rest |> Result.map (fun j -> Job j)
      | [ "lease"; id; n ] -> (
          match int_of_string_opt id with
          | Some lease_id ->
              read_block ic ~what:"lease" n Checkpoint.item_of_line
              |> Result.map (fun items -> Lease { lease_id; items })
          | None -> Error (Printf.sprintf "malformed lease line %S" line))
      | [ "top"; n ] ->
          read_block ic ~what:"top" n (fun l ->
              match fields l with
              | [ "s"; key; v ] -> Ok (Checkpoint.dec key, Checkpoint.dec v)
              | _ -> Error (Printf.sprintf "malformed top line %S" l))
          |> Result.map (fun kvs -> Progress kvs)
      | [ "detach" ] -> Ok Detach
      | [ "shutdown" ] -> Ok Shutdown
      | _ -> Error (Printf.sprintf "unexpected coordinator line %S" line))

(* ---- incremental line splitting ---- *)

(* Cap on the bytes a single unterminated line may buffer. A peer that
   streams data without ever sending '\n' would otherwise grow the
   assembler without bound; reads arrive in chunks no larger than the
   caller's read buffer, so peak memory stays near [limit] + one chunk. *)
let default_max_line = 65536

module Lines = struct
  type t = { buf : Buffer.t; limit : int; mutable dead : bool }

  let create ?(limit = default_max_line) () =
    { buf = Buffer.create 256; limit = max 1 limit; dead = false }

  let limit t = t.limit

  let feed t bytes n =
    if t.dead then ([], true)
    else begin
      Buffer.add_subbytes t.buf bytes 0 n;
      let s = Buffer.contents t.buf in
      let lines = ref [] in
      let start = ref 0 in
      (try
         while true do
           let i = String.index_from s !start '\n' in
           lines := String.sub s !start (i - !start) :: !lines;
           start := i + 1
         done
       with Not_found -> ());
      Buffer.clear t.buf;
      Buffer.add_substring t.buf s !start (String.length s - !start);
      if Buffer.length t.buf > t.limit then begin
        t.dead <- true;
        Buffer.clear t.buf;
        (List.rev !lines, true)
      end
      else (List.rev !lines, false)
    end
end

(* ---- coordinator side: incremental assembly ---- *)

(* Mid-frame state of a results frame being assembled. *)
type partial = {
  p_epoch : int;
  p_lease_id : int;
  mutable p_want : int;  (* run groups still expected *)
  mutable p_runs : run_result list;  (* completed groups, reversed *)
  mutable p_cur : run_header option;  (* group whose err/child lines follow *)
  mutable p_errs : Report.error list;
  mutable p_children : Checkpoint.item list;
}

(* Mid-frame state of a telemetry frame. Unlike results frames, telemetry
   is advisory: malformed samples are skipped and a corrupt or truncated
   frame is dropped whole — it never poisons the connection. *)
type tpartial = {
  mutable t_want : int;
  mutable t_series : (string * Obs.Metrics.sample) list;  (* reversed *)
}

type frame_state = F_results of partial | F_telemetry of tpartial

type assembler = {
  lines : Lines.t;
  mutable frame : frame_state option;
  mutable overflowed : bool;
}

let assembler () =
  { lines = Lines.create (); frame = None; overflowed = false }

(* Bound what a single telemetry frame may claim, so a hostile header
   cannot make the assembler loop forever waiting for samples. *)
let max_telemetry_series = 4096

let close_group p (h : run_header) =
  let hdr = h.hdr in
  let payload =
    Option.map
      (fun pl ->
        {
          pl with
          errors = List.rev p.p_errs;
          children = List.rev p.p_children;
        })
      hdr.payload
  in
  p.p_runs <- { hdr with payload } :: p.p_runs;
  p.p_cur <- None;
  p.p_errs <- [];
  p.p_children <- [];
  p.p_want <- p.p_want - 1

(* One complete line, inside or outside a frame. *)
let rec line_msg a line =
  match a.frame with
  | Some (F_telemetry tp) -> (
      match fields line with
      | [ "end" ] ->
          a.frame <- None;
          Some (Ok (Telemetry (List.rev tp.t_series)))
      | "t" :: rest ->
          (match rest with
          | [ name; token ] when tp.t_want > 0 -> (
              tp.t_want <- tp.t_want - 1;
              match Obs.Metrics.sample_of_wire token with
              | Some s -> tp.t_series <- (Checkpoint.dec name, s) :: tp.t_series
              | None -> () (* malformed sample: skip it *))
          | _ -> () (* malformed or surplus sample: skip it *));
          None
      | ("hello" | "auth" | "ready" | "hb" | "fail" | "results" | "telemetry")
        :: _ ->
          (* The frame was truncated: drop it whole and let this line be
             whatever it claims to be at the top level. *)
          a.frame <- None;
          line_msg a line
      | _ -> None (* corrupt telemetry content: skip the line *))
  | Some (F_results p) -> (
      (* Inside a results frame: run headers, their err/child lines, end. *)
      let fill_cur () =
        match p.p_cur with
        | Some h
          when List.length p.p_errs >= h.nerr
               && List.length p.p_children >= h.nchild ->
            close_group p h
        | _ -> ()
      in
      match fields line with
      | "run" :: _ -> (
          match p.p_cur with
          | Some _ -> Some (Error "run group not completed before next run")
          | None -> (
              match parse_run_line line with
              | Error e -> Some (Error e)
              | Ok h ->
                  if h.nerr = 0 && h.nchild = 0 then begin
                    p.p_runs <- h.hdr :: p.p_runs;
                    p.p_want <- p.p_want - 1;
                    None
                  end
                  else begin
                    p.p_cur <- Some h;
                    None
                  end))
      | "err" :: _ -> (
          match p.p_cur with
          | None -> Some (Error "err line outside a run group")
          | Some _ -> (
              match parse_err_line line with
              | Error e -> Some (Error e)
              | Ok e ->
                  p.p_errs <- e :: p.p_errs;
                  fill_cur ();
                  None))
      | "item" :: _ -> (
          match p.p_cur with
          | None -> Some (Error "item line outside a run group")
          | Some _ -> (
              match Checkpoint.item_of_line line with
              | Error e -> Some (Error e)
              | Ok it ->
                  p.p_children <- it :: p.p_children;
                  fill_cur ();
                  None))
      | [ "end" ] ->
          a.frame <- None;
          if p.p_want = 0 && p.p_cur = None then
            Some
              (Ok
                 (Results
                    {
                      epoch = p.p_epoch;
                      lease_id = p.p_lease_id;
                      runs = List.rev p.p_runs;
                    }))
          else Some (Error "results frame closed with groups missing")
      | _ -> Some (Error (Printf.sprintf "unexpected line in results %S" line))
      )
  | None -> (
      match fields line with
      | "hello" :: rest -> (
          let kvs = kv_fields rest in
          match (int_field "proto" kvs, List.assoc_opt "id" kvs) with
          | Some proto, Some id ->
              (* session/epoch/pending are proto>=2 fields; a proto=1 hello
                 still parses so the coordinator can answer with a versioned
                 rejection instead of dropping the connection silently. *)
              let session =
                Option.value (List.assoc_opt "session" kvs) ~default:""
              in
              let epoch = Option.value (int_field "epoch" kvs) ~default:0 in
              let pending = int_field "pending" kvs in
              let role = List.assoc_opt "role" kvs in
              Some (Ok (Hello { proto; id; session; epoch; pending; role }))
          | _ -> Some (Error (Printf.sprintf "malformed hello %S" line)))
      | [ "auth"; mac ] -> Some (Ok (Auth (Checkpoint.dec mac)))
      | [ "ready" ] -> Some (Ok Ready)
      | [ "hb" ] -> Some (Ok Heartbeat)
      | [ "fail"; reason ] -> Some (Ok (Failed (Checkpoint.dec reason)))
      | [ "results"; epoch; id; n ] -> (
          match
            (int_of_string_opt epoch, int_of_string_opt id, int_of_string_opt n)
          with
          | Some epoch, Some lease_id, Some n when n >= 0 ->
              (* Even an empty frame closes with "end": enter frame state
                 unconditionally so the closing line is consumed there. *)
              a.frame <-
                Some
                  (F_results
                     {
                       p_epoch = epoch;
                       p_lease_id = lease_id;
                       p_want = n;
                       p_runs = [];
                       p_cur = None;
                       p_errs = [];
                       p_children = [];
                     });
              None
          | _ -> Some (Error (Printf.sprintf "malformed results line %S" line)))
      | "telemetry" :: rest -> (
          (* Telemetry is best-effort: a malformed header is dropped
             silently rather than poisoning the connection. *)
          match rest with
          | [ n ] -> (
              match int_of_string_opt n with
              | Some n when n >= 0 && n <= max_telemetry_series ->
                  a.frame <- Some (F_telemetry { t_want = n; t_series = [] });
                  None
              | _ -> None)
          | _ -> None)
      | _ -> Some (Error (Printf.sprintf "unexpected worker line %S" line)))

let line_msg a line =
  match line_msg a line with
  | Some (Error _ as e) ->
      (* A protocol error poisons the connection; stop assembling. *)
      a.frame <- None;
      Some e
  | r -> r

let feed a buf n =
  let lines, overflow = Lines.feed a.lines buf n in
  let msgs = List.filter_map (line_msg a) lines in
  if overflow && not a.overflowed then begin
    a.overflowed <- true;
    a.frame <- None;
    msgs
    @ [
        Error
          (Printf.sprintf "unterminated line exceeds %d bytes"
             (Lines.limit a.lines));
      ]
  end
  else msgs
