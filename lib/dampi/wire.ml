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

(* ---- line splitting ---- *)

(* Cap on the bytes a single line may buffer, on every reading side. A
   peer that streams data without ever sending '\n' would otherwise grow
   the reader without bound; reads arrive in chunks no larger than a read
   buffer, so peak memory stays near [limit] + one chunk. *)
let default_max_line = 65536

let over_cap limit = Printf.sprintf "line exceeds %d bytes" limit

module Lines = struct
  type t = { buf : Buffer.t; limit : int; mutable dead : bool }

  let create ?(limit = default_max_line) () =
    { buf = Buffer.create 256; limit = max 1 limit; dead = false }

  let feed t bytes n =
    if t.dead then ([], false)
    else begin
      Buffer.add_subbytes t.buf bytes 0 n;
      let rest, lines =
        match List.rev (String.split_on_char '\n' (Buffer.contents t.buf)) with
        | rest :: lines -> (rest, List.rev lines)
        | [] -> ("", [])
      in
      Buffer.clear t.buf;
      if String.length rest > t.limit then t.dead <- true
      else Buffer.add_string t.buf rest;
      (lines, t.dead)
    end
end

(* The channel primitive under [Stdlib.input_line]: the length of the next
   line in the channel's buffer, newline included, refilling it as needed;
   minus the bytes buffered when it holds no newline (full, or at end of
   input); 0 at end of input. *)
external scan_line : in_channel -> int = "caml_ml_input_scan_line"

(* [input_line] under [limit]: the line is copied out a buffer at a time,
   so an over-cap line is refused after at most [limit] + one buffer of
   bytes. A SIGKILLed peer surfaces as ECONNRESET ([Sys_error]), not a
   clean EOF; both just mean the session is over. *)
let input_line_capped ic limit =
  let b = Buffer.create 256 in
  let rec go () =
    match scan_line ic with
    | 0 -> if Buffer.length b = 0 then `Closed else `Line (Buffer.contents b)
    | n when n > 0 ->
        Buffer.add_channel b ic (n - 1);
        ignore (input_char ic);
        if Buffer.length b > limit then `Over else `Line (Buffer.contents b)
    | n ->
        Buffer.add_channel b ic (-n);
        if Buffer.length b > limit then `Over else go ()
  in
  try go () with End_of_file | Sys_error _ -> `Closed

(* ---- frames ----

   Each direction of each protocol has one frame grammar. A frame is one
   line, or a block: a header line whose verb opens it, body lines, and
   [end]. The collector only groups lines into frames; each direction's
   decoder reads a frame whole. *)

type body = Verbs of string list | Advisory of string list
type grammar = (string * body) list

let verb line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

(* An advisory block keeps at most this many body lines and skips the
   rest, as surplus samples are skipped, so a peer cannot grow it without
   bound. *)
let max_advisory_lines = 4096

(* A [Verbs] block's body closes as a malformed frame past this many
   lines, so a peer that opens a block and never ends it cannot grow the
   reader without bound. Sized from the largest block the product sends:
   a results frame answers a lease of at most 4 items (the coordinator's
   lease size) with a run line, its errors and its children each. Its
   children grow with the ranks: adlb with unbounded mixing measured 380
   lines at np=96 and 764 at np=192, about 4 per rank, so the cap holds
   np=1024 (the paper's largest) with over ten times to spare. A lease
   holds 4 items, and a top frame a few progress fields and one per
   worker session. A serve report frame is a job's report, which the
   daemon ends with a message naming this cap rather than send past
   it. *)
let max_block_lines = 65536

(* The open block's header, body lines (reversed) and their count, if
   any. *)
type collector = {
  grammar : grammar;
  mutable block : (string * string list * int) option;
}

let collector grammar = { grammar; block = None }

(* The frame [line] completes: its header and body lines, without the
   closing [end] (a one-line frame has no body). A [Verbs] block ends at a
   line of none of its verbs, which stays its last line for the decoder to
   report, and is an [Error] at its line past {!max_block_lines}; an
   [Advisory] block keeps any line but one of its cut verbs, which drops
   the block unread and is read afresh. *)
let rec push c line =
  match c.block with
  | None ->
      if List.mem_assoc (verb line) c.grammar then begin
        c.block <- Some (line, [], 0);
        None
      end
      else Some (Ok (line, []))
  | Some (header, body, n) -> (
      let close body =
        c.block <- None;
        Some (Ok (header, List.rev body))
      in
      let keep () =
        c.block <- Some (header, line :: body, n + 1);
        None
      in
      if line = "end" then close body
      else
        match List.assoc (verb header) c.grammar with
        | Verbs vs ->
            if not (List.mem (verb line) vs) then close (line :: body)
            else if n < max_block_lines then keep ()
            else begin
              c.block <- None;
              Some
                (Error
                   (Printf.sprintf "%s frame exceeds %d lines" (verb header)
                      max_block_lines))
            end
        | Advisory cuts ->
            if List.mem (verb line) cuts then begin
              c.block <- None;
              push c line
            end
            else if n < max_advisory_lines then keep ()
            else None)

let read_frame grammar ic =
  let c = collector grammar in
  let rec go () =
    match input_line_capped ic default_max_line with
    | `Line line -> ( match push c line with Some frame -> frame | None -> go ())
    | `Over -> Error (over_cap default_max_line)
    | `Closed -> (
        match c.block with
        | None -> Error "connection closed"
        | Some (header, _, _) -> Error ("connection closed mid-" ^ verb header))
  in
  go ()

(* ---- decoders: one pure function per direction, from a whole frame ---- *)

let ( let* ) = Result.bind

(* [n] lines off the front of [lines], each decoded by [f]. *)
let rec take ~what n f acc lines =
  if n = 0 then Ok (List.rev acc, lines)
  else
    match lines with
    | [] -> Error (what ^ " frame shorter than its header says")
    | l :: rest ->
        let* x = f l in
        take ~what (n - 1) f (x :: acc) rest

(* A block's body: exactly the [count] lines its header declares, each
   decoded by [f]. *)
let counted ~what count f body =
  match int_of_string_opt count with
  | Some n when n >= 0 -> (
      match take ~what n f [] body with
      | Ok (xs, []) -> Ok xs
      | Ok (_, l :: _) -> Error (Printf.sprintf "%s frame not closed by end: %S" what l)
      | Error e -> Error e)
  | _ -> Error (Printf.sprintf "bad %s count %S" what count)

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

let to_worker_grammar = [ ("lease", Verbs [ "item" ]); ("top", Verbs [ "s" ]) ]

let to_worker_of_frame (line, body) =
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
          counted ~what:"lease" n Checkpoint.item_of_line body
          |> Result.map (fun items -> Lease { lease_id; items })
      | None -> Error (Printf.sprintf "malformed lease line %S" line))
  | [ "top"; n ] ->
      counted ~what:"top" n
        (fun l ->
          match fields l with
          | [ "s"; key; v ] -> Ok (Checkpoint.dec key, Checkpoint.dec v)
          | _ -> Error (Printf.sprintf "malformed top line %S" l))
        body
      |> Result.map (fun kvs -> Progress kvs)
  | [ "detach" ] -> Ok Detach
  | [ "shutdown" ] -> Ok Shutdown
  | _ -> Error (Printf.sprintf "unexpected coordinator line %S" line)

(* "err <tag> <payload>" | "err <tag>" (empty payload) *)
let parse_err_line line =
  match fields line with
  | "err" :: tag :: payload -> (
      match Checkpoint.error_of_line tag (String.concat " " payload) with
      | Some e -> Ok e
      | None -> Error (Printf.sprintf "malformed err line %S" line))
  | _ -> Error (Printf.sprintf "malformed err line %S" line)

(* First line of a run group: the run, and how many err and item lines
   follow it. *)
let parse_run_line line =
  let malformed = Error (Printf.sprintf "malformed run line %S" line) in
  match fields line with
  | [ "run"; key; "counted"; vtime; bounded; pruned; timeouts; retries;
      transients; nerr; nchild ] -> (
      match
        ( float_of_string_opt vtime,
          List.map int_of_string_opt
            [ bounded; pruned; timeouts; retries; transients; nerr; nchild ] )
      with
      | Some vtime,
        [ Some bounded; Some pruned; Some timeouts; Some retries;
          Some transients; Some nerr; Some nchild ]
        when nerr >= 0 && nchild >= 0 ->
          let payload = { vtime; bounded; pruned; errors = []; children = [] } in
          Ok ({ key; payload = Some payload; timeouts; retries; transients }, nerr, nchild)
      | _ -> malformed)
  | [ "run"; key; "gaveup"; timeouts; retries; transients ] -> (
      match List.map int_of_string_opt [ timeouts; retries; transients ] with
      | [ Some timeouts; Some retries; Some transients ] ->
          Ok ({ key; payload = None; timeouts; retries; transients }, 0, 0)
      | _ -> malformed)
  | _ -> malformed

(* A results body: run groups, each a run line then its err and item
   lines, in that order. *)
let rec run_groups acc = function
  | [] -> Ok (List.rev acc)
  | line :: rest ->
      let* run, nerr, nchild = parse_run_line line in
      let* errors, rest = take ~what:"results" nerr parse_err_line [] rest in
      let* children, rest =
        take ~what:"results" nchild Checkpoint.item_of_line [] rest
      in
      let payload = Option.map (fun p -> { p with errors; children }) run.payload in
      run_groups ({ run with payload } :: acc) rest

let to_coord_grammar =
  [
    ("results", Verbs [ "run"; "err"; "item" ]);
    ( "telemetry",
      Advisory [ "hello"; "auth"; "ready"; "hb"; "fail"; "results"; "telemetry" ] );
  ]

(* [None] for a telemetry frame with a bad header: telemetry is advisory,
   so such a frame is dropped, and a bad sample in a good one skipped. *)
let to_coord_of_frame (line, body) =
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
  | [ "results"; epoch; id; n ] ->
      Some
        (match
           (int_of_string_opt epoch, int_of_string_opt id, int_of_string_opt n)
         with
        | Some epoch, Some lease_id, Some n when n >= 0 ->
            let* runs = run_groups [] body in
            if List.length runs = n then Ok (Results { epoch; lease_id; runs })
            else
              Error
                (Printf.sprintf "results frame holds %d run groups, not %d"
                   (List.length runs) n)
        | _ -> Error (Printf.sprintf "malformed results line %S" line))
  | [ "telemetry"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
          let samples =
            List.filter_map
              (fun l ->
                match fields l with
                | [ "t"; name; token ] -> Some (name, token)
                | _ -> None)
              body
            |> List.filteri (fun i _ -> i < n)
            |> List.filter_map (fun (name, token) ->
                   Option.map
                     (fun s -> (Checkpoint.dec name, s))
                     (Obs.Metrics.sample_of_wire token))
          in
          Some (Ok (Telemetry samples))
      | _ -> None)
  | "telemetry" :: _ -> None
  | _ -> Some (Error (Printf.sprintf "unexpected worker line %S" line))

(* ---- drivers: bytes to frames to messages ---- *)

let read_to_worker ic =
  Result.bind (read_frame to_worker_grammar ic) to_worker_of_frame

type assembler = { lines : Lines.t; frames : collector }

let assembler () = { lines = Lines.create (); frames = collector to_coord_grammar }

let feed a buf n =
  let lines, overflow = Lines.feed a.lines buf n in
  let msgs =
    List.filter_map
      (fun line ->
        Option.bind (push a.frames line) (function
          | Ok frame -> to_coord_of_frame frame
          | Error e -> Some (Error e)))
      lines
  in
  if overflow then msgs @ [ Error (over_cap default_max_line) ] else msgs
