(* The transport and line codecs of both protocols. Golden bytes pin the
   exact text of every proto=2 frame, serve request, serve event, journal
   and parked report; a QCheck round trip checks the daemon's event
   encoder against [Serve.read_event]; the shared listen and dial helpers
   are tested directly. And a QCheck fuzz of every frame reader — the
   coordinator's assembler of worker-controlled bytes, the worker's
   blocking [Wire.read_to_worker] and the serve client's
   [Serve.read_event] — four properties per direction:

   - a valid conversation survives ANY byte-boundary split of its
     serialization — the readers are framing-agnostic;
   - corrupting a line of a valid conversation yields [Error], never an
     exception and never a silently mis-parsed message;
   - arbitrary byte flips (including of newlines) never raise — malformed
     input is always an [Error] value the caller can act on;
   - a duplicated complete frame parses as two identical messages. *)

module Wire = Dampi.Wire
module Checkpoint = Dampi.Checkpoint
module Decisions = Dampi.Decisions

(* ---- generators ---- *)

let gen_text =
  (* free-form text fields: printable, spaces, percent signs, newlines —
     everything the percent-encoding must defuse *)
  QCheck.Gen.(
    string_size ~gen:(oneof [ printable; return ' '; return '%'; return '\n' ])
      (0 -- 24))

let gen_decision =
  QCheck.Gen.(
    map
      (fun (owner, epoch_id, src, k) ->
        {
          Decisions.owner;
          epoch_id;
          src;
          kind =
            (if k then Dampi.Epoch.Wildcard_recv
             else Dampi.Epoch.Wildcard_probe);
        })
      (quad (0 -- 7) (0 -- 99) (0 -- 7) bool))

let gen_summary =
  QCheck.Gen.(
    map
      (fun ((owner, id, k, ctx), (tag, matched, alts, expandable)) ->
        {
          Dampi.Epoch.s_owner = owner;
          s_id = id;
          s_kind =
            (if k then Dampi.Epoch.Wildcard_recv
             else Dampi.Epoch.Wildcard_probe);
          s_ctx = ctx;
          s_tag = tag;
          s_matched = matched;
          s_alternatives = List.sort_uniq compare alts;
          s_expandable = expandable;
        })
      (pair
         (quad (0 -- 7) (0 -- 99) bool (0 -- 3))
         (quad (int_range (-1) 9) (0 -- 7) (list_size (0 -- 3) (0 -- 7)) bool)))

let gen_item =
  (* sleep lists exercise the 3-field item codec; [] keeps the legacy
     2-field form in the mix *)
  QCheck.Gen.(
    map
      (fun (prefix, choice, sleep) -> Checkpoint.make_item ~prefix ~choice ~sleep ())
      (triple (list_size (0 -- 3) gen_decision) gen_decision
         (list_size (0 -- 2) gen_summary)))

let gen_run =
  QCheck.Gen.(
    map
      (fun (key, payload, (timeouts, retries, transients)) ->
        {
          Wire.key;
          payload;
          timeouts;
          retries;
          transients;
        })
      (triple
         (map Checkpoint.item_key gen_item)
         (oneof
            [
              return None;
              map
                (fun ((vtime, bounded, children), pruned) ->
                  Some { Wire.vtime; bounded; errors = []; children; pruned })
                (pair
                   (triple (float_bound_inclusive 1e6) (0 -- 9)
                      (list_size (0 -- 2) gen_item))
                   (0 -- 5));
            ])
         (triple (0 -- 3) (0 -- 3) (0 -- 3))))

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (id, session, epoch, pending) ->
            Wire.Hello
              {
                proto = Wire.proto_version;
                id;
                session;
                epoch;
                pending;
                role = None;
              })
          (quad gen_text gen_text (0 -- 9)
             (oneof [ return None; map Option.some (0 -- 9) ]));
        map (fun mac -> Wire.Auth mac) gen_text;
        return Wire.Ready;
        return Wire.Heartbeat;
        map
          (fun (epoch, lease_id, runs) -> Wire.Results { epoch; lease_id; runs })
          (triple (0 -- 9) (0 -- 99) (list_size (0 -- 4) gen_run));
        map (fun reason -> Wire.Failed reason) gen_text;
      ])

let serialize msgs =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  List.iter (Wire.write_to_coord oc) msgs;
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  let b = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents b

(* Feed [raw] to a fresh assembler in chunks cut at [cuts] (sorted byte
   offsets); returns every yielded result. *)
let feed_chunks raw cuts =
  let a = Wire.assembler () in
  let out = ref [] in
  let emit from upto =
    if upto > from then begin
      let b = Bytes.of_string (String.sub raw from (upto - from)) in
      out := List.rev_append (Wire.feed a b (Bytes.length b)) !out
    end
  in
  let last = List.fold_left (fun from cut -> emit from cut; cut) 0 cuts in
  emit last (String.length raw);
  List.rev !out

(* One direction of a protocol: its messages, one message's frame, a
   conversation's bytes as its writer sends them, and its reader fed
   those bytes in chunks cut at sorted byte offsets. *)
type 'm direction = {
  gen_msg : 'm QCheck.Gen.t;
  frame : 'm -> string;
  serialize : 'm list -> string;
  read : string -> int list -> ('m, string) result list;
}

let to_coord =
  {
    gen_msg;
    frame = Wire.to_coord_string;
    serialize;
    read = feed_chunks;
  }

let conversation d = QCheck.Gen.(list_size (1 -- 6) d.gen_msg)

let arb_split d =
  QCheck.make
    ~print:(fun (msgs, _) -> string_of_int (List.length msgs) ^ " message(s)")
    QCheck.Gen.(
      conversation d >>= fun msgs ->
      let raw = d.serialize msgs in
      let n = String.length raw in
      map
        (fun cuts -> (msgs, List.sort_uniq compare cuts))
        (list_size (0 -- 12) (0 -- n)))

let prop_splits_reassemble d =
  QCheck.Test.make ~name:"any byte-boundary split reassembles intact"
    ~count:300 (arb_split d) (fun (msgs, cuts) ->
      let raw = d.serialize msgs in
      let out = d.read raw cuts in
      List.length out = List.length msgs
      && List.for_all2
           (fun got want -> match got with Ok m -> m = want | Error _ -> false)
           out msgs)

let arb_corrupt_line d =
  QCheck.make
    ~print:(fun (_, line) -> Printf.sprintf "line %d corrupted" line)
    QCheck.Gen.(
      conversation d >>= fun msgs ->
      let raw = d.serialize msgs in
      let lines =
        List.length (String.split_on_char '\n' raw) - 1 (* trailing "" *)
      in
      map (fun l -> (msgs, l)) (0 -- max 0 (lines - 1)))

(* Overwrite the first byte of line [l] with 'Z' — no message or frame
   element starts with it, so the line is guaranteed invalid. *)
let corrupt_line raw l =
  let b = Bytes.of_string raw in
  let line = ref 0 and start = ref 0 in
  String.iteri
    (fun i c ->
      if !line = l && i = !start && c <> '\n' then Bytes.set b i 'Z';
      if c = '\n' then begin
        incr line;
        start := i + 1
      end)
    raw;
  Bytes.to_string b

let prop_corruption_is_an_error d =
  QCheck.Test.make ~name:"a corrupted line yields Error, never an exception"
    ~count:300 (arb_corrupt_line d) (fun (msgs, l) ->
      let raw = corrupt_line (d.serialize msgs) l in
      match d.read raw [] with
      | out ->
          (* The corrupted line must surface as at least one Error (it may
             also poison the enclosing frame); what still parses must be a
             message we actually sent — never an invented one. *)
          List.exists (function Error _ -> true | Ok _ -> false) out
          && List.for_all
               (function Error _ -> true | Ok m -> List.mem m msgs)
               out
      | exception e ->
          QCheck.Test.fail_reportf "reader raised %s"
            (Printexc.to_string e))

let arb_flips d =
  QCheck.make
    ~print:(fun (_, flips) ->
      string_of_int (List.length flips) ^ " byte flip(s)")
    QCheck.Gen.(
      conversation d >>= fun msgs ->
      let raw = d.serialize msgs in
      let n = max 1 (String.length raw) in
      map
        (fun flips -> (msgs, flips))
        (list_size (1 -- 8) (pair (0 -- (n - 1)) (0 -- 255))))

let prop_flips_never_raise d =
  QCheck.Test.make ~name:"random byte flips never raise" ~count:300
    (arb_flips d) (fun (msgs, flips) ->
      let raw = d.serialize msgs in
      let b = Bytes.of_string raw in
      List.iter
        (fun (i, v) ->
          if i < Bytes.length b then Bytes.set b i (Char.chr v))
        flips;
      match d.read (Bytes.to_string b) [] with
      | _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "reader raised %s"
            (Printexc.to_string e))

(* ---- transport-chaos coverage: what Fault.Net makes the receiver see ----

   Under injected duplication the assembler gets the same complete frame
   twice back-to-back; under chunked delivery it gets buffers mixing the
   tail of one frame with the head of the next. Both must parse
   losslessly: duplicate *parsing* is correct wire behaviour —
   deduplication belongs to the coordinator (fencing / last-settled), not
   the parser. *)

let frames msgs = List.map Wire.to_coord_string msgs

let prop_string_matches_writer =
  QCheck.Test.make
    ~name:"to_coord_string matches the channel writer byte-for-byte"
    ~count:300
    (QCheck.make (conversation to_coord) ~print:(fun m ->
         string_of_int (List.length m) ^ " message(s)"))
    (fun msgs -> String.concat "" (frames msgs) = serialize msgs)

let dup_raw d msgs i =
  String.concat ""
    (List.concat
       (List.mapi
          (fun j m -> if j = i then [ d.frame m; d.frame m ] else [ d.frame m ])
          msgs))

let arb_dup_frame d =
  QCheck.make
    ~print:(fun (msgs, i, cuts) ->
      Printf.sprintf "%d message(s), frame %d duplicated, %d cut(s)"
        (List.length msgs) i (List.length cuts))
    QCheck.Gen.(
      conversation d >>= fun msgs ->
      0 -- (List.length msgs - 1) >>= fun i ->
      let n = String.length (dup_raw d msgs i) in
      map
        (fun cuts -> (msgs, i, List.sort_uniq compare cuts))
        (list_size (0 -- 12) (0 -- n)))

let prop_duplicated_frame_parses_twice d =
  QCheck.Test.make
    ~name:"a duplicated complete frame parses as two identical messages"
    ~count:300 (arb_dup_frame d) (fun (msgs, i, cuts) ->
      let raw = dup_raw d msgs i in
      let expected =
        List.concat
          (List.mapi (fun j m -> if j = i then [ m; m ] else [ m ]) msgs)
      in
      let out = d.read raw cuts in
      List.length out = List.length expected
      && List.for_all2
           (fun got want -> match got with Ok m -> m = want | Error _ -> false)
           out expected)

let gen_results_msg =
  QCheck.Gen.(
    map
      (fun (epoch, lease_id, runs) -> Wire.Results { epoch; lease_id; runs })
      (triple (0 -- 9) (0 -- 99) (list_size (1 -- 4) gen_run)))

let arb_interleaved =
  QCheck.make
    ~print:(fun (msgs, cuts) ->
      Printf.sprintf "%d message(s), %d mid-frame cut(s)" (List.length msgs)
        (List.length cuts))
    QCheck.Gen.(
      (* lead with a multi-line Results frame so cuts can land inside a
         frame body (between its lines), not merely inside a line *)
      pair gen_results_msg (conversation to_coord) >>= fun (r, rest) ->
      let msgs = r :: rest in
      let boundaries =
        List.fold_left
          (fun acc f -> (List.hd acc + String.length f) :: acc)
          [ 0 ] (frames msgs)
      in
      let n = List.hd boundaries in
      map
        (fun cuts ->
          ( msgs,
            List.sort_uniq compare
              (List.filter (fun c -> not (List.mem c boundaries)) cuts) ))
        (list_size (1 -- 12) (1 -- max 1 (n - 1))))

let prop_interleaved_partials =
  QCheck.Test.make
    ~name:"chunks mixing adjacent frames' partial bytes reassemble"
    ~count:300 arb_interleaved (fun (msgs, cuts) ->
      (* every cut lies strictly inside a frame, so each chunk past the
         first begins with the partial tail of a frame already under
         assembly — the shape duplicated/reordered delivery produces *)
      let raw = String.concat "" (frames msgs) in
      let out = feed_chunks raw cuts in
      List.length out = List.length msgs
      && List.for_all2
           (fun got want -> match got with Ok m -> m = want | Error _ -> false)
           out msgs)

(* ---- bounded line buffering: a newline-less flood cannot grow the
   assembler without limit. The valid prefix still parses, the overflow
   surfaces as exactly one trailing Error naming the cap, nothing raises,
   and the assembler stays dead (every later feed yields nothing). *)

let arb_flood =
  QCheck.make
    ~print:(fun (msgs, junk_len, cuts) ->
      Printf.sprintf "%d message(s), %d junk byte(s), %d cut(s)"
        (List.length msgs) junk_len (List.length cuts))
    QCheck.Gen.(
      conversation to_coord >>= fun msgs ->
      (* strictly past the cap, never containing '\n' *)
      int_range (Wire.default_max_line + 1) (Wire.default_max_line + 4096)
      >>= fun junk_len ->
      let n = String.length (serialize msgs) + junk_len in
      map
        (fun cuts -> (msgs, junk_len, List.sort_uniq compare cuts))
        (list_size (0 -- 12) (0 -- n)))

let prop_unterminated_flood_is_bounded =
  QCheck.Test.make
    ~name:"an unterminated over-cap flood yields one Error and a dead assembler"
    ~count:40 arb_flood (fun (msgs, junk_len, cuts) ->
      let raw = serialize msgs ^ String.make junk_len 'x' in
      let a = Wire.assembler () in
      let out = ref [] in
      let emit from upto =
        if upto > from then begin
          let b = Bytes.of_string (String.sub raw from (upto - from)) in
          out := List.rev_append (Wire.feed a b (Bytes.length b)) !out
        end
      in
      (match
         let last =
           List.fold_left (fun from cut -> emit from cut; cut) 0 cuts
         in
         emit last (String.length raw)
       with
      | () -> ()
      | exception e ->
          QCheck.Test.fail_reportf "assembler raised %s" (Printexc.to_string e));
      let out = List.rev !out in
      let oks = List.filter_map (function Ok m -> Some m | _ -> None) out in
      let errs =
        List.filter_map (function Error e -> Some e | _ -> None) out
      in
      (* valid prefix intact; one overflow error mentioning the cap *)
      oks = msgs
      && List.length errs = 1
      && (let e = List.hd errs in
          let cap = string_of_int Wire.default_max_line in
          let rec mem i =
            i + String.length cap <= String.length e
            && (String.sub e i (String.length cap) = cap || mem (i + 1))
          in
          mem 0)
      (* and the assembler is dead: later input — even well-formed — is
         swallowed without output *)
      && Wire.feed a (Bytes.of_string "hb\n") 3 = [])

(* ---- golden bytes: the exact text of every frame, line and file ----

   Literal expectations for both protocols, so a change to any encoder
   or to the code that calls it shows up as a diff here: every proto=2
   frame kind, every serve request and event line, the daemon's journal
   and a parked report. The daemon's child-pipe lines are pinned through
   what the daemon makes of them: progress tokens are forwarded verbatim
   into [progress] events, and the final line becomes the [report] frame
   and [done] line (and the parked file) below. *)

module Serve = Dampi.Serve

let dec owner epoch_id src kind =
  { Decisions.owner; epoch_id; src; kind }

let golden_item1 =
  Checkpoint.make_item
    ~prefix:[ dec 0 1 2 Dampi.Epoch.Wildcard_recv ]
    ~choice:(dec 1 3 0 Dampi.Epoch.Wildcard_probe)
    ~sleep:[] ()

let golden_item2 =
  Checkpoint.make_item ~prefix:[]
    ~choice:(dec 2 0 1 Dampi.Epoch.Wildcard_recv)
    ~sleep:
      [
        {
          Dampi.Epoch.s_owner = 3;
          s_id = 4;
          s_kind = Dampi.Epoch.Wildcard_recv;
          s_ctx = 1;
          s_tag = -1;
          s_matched = 2;
          s_alternatives = [ 0; 5 ];
          s_expandable = true;
        };
      ]
    ()

(* Every field off its default, so [to_params] emits every key. *)
let golden_job =
  {
    Job.workload = "adlb";
    np = 7;
    engine = Job.Isp;
    clock = Job.Vector;
    k = Some 2;
    dual = true;
    prune = false;
    prefix_cache = Some 4096;
    max_runs = 99;
    jobs = 3;
    stop_first = true;
    quiet = true;
    profile = true;
    checkpoint_every = 5;
    replay_timeout = Some 1.5;
    max_replay_steps = Some 1000;
    max_retries = 4;
    retry_backoff = 0.25;
    fault_seed = Some 7;
    fault_spec = Some "seed=5,wedge=1.0";
    net_fault_seed = Some 9;
    net_fault_spec = Some "delay=1.0,max-delay=0.02";
  }

let golden_to_worker =
  [
    ("challenge", Wire.Challenge "n0 nce%", "challenge n0%20nce%25\n");
    ("welcome", Wire.Welcome { epoch = 3 }, "welcome epoch=3\n");
    ( "reject",
      Wire.Reject { proto = 2; reason = "bad auth token" },
      "reject proto=2 bad%20auth%20token\n" );
    ( "job",
      Wire.Job
        {
          workload = "fig 3";
          np = 6;
          params = [ ("k", "0"); ("fault-spec", "seed=5,wedge=1.0") ];
        },
      "job workload=fig%203 np=6 k=0 fault-spec=seed%3D5%2Cwedge%3D1.0\n" );
    ( "job, no params",
      Wire.Job { workload = "fig3"; np = 3; params = [] },
      "job workload=fig3 np=3\n" );
    ( "job, every key",
      Wire.Job (Job.to_wire golden_job),
      "job workload=adlb np=7 engine=isp clock=vector k=2 dual=true prune=false prefix-cache=4096 max-runs=99 jobs=3 stop-first=true quiet=true profile=true checkpoint-every=5 replay-timeout=1.5 max-replay-steps=1000 max-retries=4 retry-backoff=0.25 fault-seed=7 fault-spec=seed%3D5%2Cwedge%3D1.0 net-fault-seed=9 net-fault-spec=delay%3D1.0%2Cmax-delay%3D0.02\n" );
    ( "lease",
      Wire.Lease { lease_id = 7; items = [ golden_item1; golden_item2 ] },
      "lease 7 2\nitem recv:0:1:2 probe:1:3:0\nitem - recv:2:0:1 recv:3:4:1:-1:2:1:0.5\nend\n" );
    ( "lease, empty",
      Wire.Lease { lease_id = 8; items = [] },
      "lease 8 0\nend\n" );
    ( "top",
      Wire.Progress [ ("frontier", "12"); ("hb_age.w 1", "0.250") ],
      "top 2\ns frontier 12\ns hb_age.w%201 0.250\nend\n" );
    ("top, empty", Wire.Progress [], "top 0\nend\n");
    ("detach", Wire.Detach, "detach\n");
    ("shutdown", Wire.Shutdown, "shutdown\n");
  ]

let golden_to_coord =
  [
    ( "hello",
      Wire.Hello
        {
          proto = 2;
          id = "pid 1";
          session = "w1-abc";
          epoch = 4;
          pending = Some 7;
          role = None;
        },
      "hello proto=2 id=pid%201 session=w1-abc epoch=4 pending=7\n" );
    ( "hello, observer",
      Wire.Hello
        {
          proto = 2;
          id = "top-9";
          session = "top-9";
          epoch = 0;
          pending = None;
          role = Some "observer";
        },
      "hello proto=2 id=top-9 session=top-9 epoch=0 role=observer\n" );
    ("auth", Wire.Auth "dead beef", "auth dead%20beef\n");
    ("ready", Wire.Ready, "ready\n");
    ("hb", Wire.Heartbeat, "hb\n");
    ( "telemetry",
      Wire.Telemetry
        [
          ("mpi.match_attempts", Obs.Metrics.Counter 3);
          ("queue depth", Obs.Metrics.Gauge 0.5);
        ],
      "telemetry 2\nt mpi.match_attempts c:3\nt queue%20depth g:0x1p-1\nend\n" );
    ("telemetry, empty", Wire.Telemetry [], "telemetry 0\nend\n");
    ( "results",
      Wire.Results
        {
          epoch = 4;
          lease_id = 7;
          runs =
            [
              {
                Wire.key = Checkpoint.item_key golden_item1;
                payload =
                  Some
                    {
                      Wire.vtime = 0.75;
                      bounded = 1;
                      pruned = 2;
                      errors =
                        [
                          Dampi.Report.Crash { pid = 1; message = "boom at x=1" };
                          Dampi.Report.Deadlock
                            { blocked = [ (0, "recv from *") ] };
                        ];
                      children = [ golden_item2 ];
                    };
                timeouts = 0;
                retries = 1;
                transients = 0;
              };
              {
                Wire.key = Checkpoint.item_key golden_item2;
                payload = None;
                timeouts = 2;
                retries = 2;
                transients = 1;
              };
            ];
        },
      "results 4 7 2\nrun recv:0:1:2,probe:1:3:0 counted 0x1.8p-1 1 2 0 1 0 2 1\nerr crash 1:boom%20at%20x%3D1\nerr deadlock 0:recv%20from%20%2A\nitem - recv:2:0:1 recv:3:4:1:-1:2:1:0.5\nrun recv:2:0:1 gaveup 2 2 1\nend\n" );
    ( "results, empty",
      Wire.Results { epoch = 1; lease_id = 0; runs = [] },
      "results 1 0 0\nend\n" );
    ( "fail",
      Wire.Failed "cannot resolve job: x",
      "fail cannot%20resolve%20job%3A%20x\n" );
  ]

let check_golden name want got = Alcotest.(check string) name want got

let test_golden_frames () =
  List.iter
    (fun (name, msg, want) ->
      check_golden ("to_worker " ^ name) want (Wire.to_worker_string msg))
    golden_to_worker;
  List.iter
    (fun (name, msg, want) ->
      check_golden ("to_coord " ^ name) want (Wire.to_coord_string msg))
    golden_to_coord;
  (* The job line writes parameter keys raw while the serve codec
     percent-encodes them: the two agree because every key the job codec
     emits is made of unreserved characters. *)
  List.iter
    (fun (k, _) ->
      Alcotest.(check string) ("job key " ^ k ^ " encodes to itself") k
        (Checkpoint.enc k))
    (Job.to_params golden_job)

let test_golden_requests () =
  check_golden "submit"
        "submit workload=adlb np=6 fault%20spec=a%3Db%25 on-disconnect=detach"
    (Serve.submit_line
       ~params:[ ("workload", "adlb"); ("np", "6"); ("fault spec", "a=b%") ]
       ~on_disconnect:Serve.Detach);
  check_golden "submit, no params"
        "submit on-disconnect=cancel"
    (Serve.submit_line ~params:[] ~on_disconnect:Serve.Cancel);
  check_golden "fetch"
        "fetch 12" (Serve.fetch_line 12)

(* The daemon for the event-line goldens: [g] streams one progress frame
   with awkward text and completes with a multi-line report; [hold] runs
   until the test drops a release file into the state directory. *)
let golden_validate params =
  match List.assoc_opt "workload" params with
  | Some (("g" | "hold") as w) -> Ok ("golden " ^ w)
  | Some w -> Error (Printf.sprintf "unknown workload %S" w)
  | None -> Error "submit needs workload=<key>"

let golden_run ~ckpt ~label:_ ~params ~progress =
  match List.assoc_opt "workload" params with
  | Some "hold" ->
      progress [ ("phase", "hold") ];
      let release = Filename.concat (Filename.dirname ckpt) "release" in
      while not (Sys.file_exists release) do
        Unix.sleepf 0.02
      done;
      Serve.Completed { report = "held\n"; code = 0 }
  | _ ->
      progress [ ("runs", "1"); ("a b", "x=y%\nz") ];
      Serve.Completed { report = "line one\nline %two\n\nlast\n"; code = 1 }

let read_text path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden_daemon () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dampi-golden-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    [ "journal"; "release"; "report-2" ];
  let sock = Filename.concat dir "serve.sock" in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
        let code =
          match
            Serve.serve
              {
                Serve.addr = Wire.Unix_sock sock;
                state_dir = dir;
                limits = { Serve.default_limits with parallel = 1; max_queue = 1 };
                validate = golden_validate;
                run = golden_run;
                metrics = None;
                ready = None;
              }
          with
          | Ok c -> c
          | Error _ -> 1
        in
        Unix._exit code
    | pid -> pid
  in
  let connect () =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
      | exception Unix.Unix_error _ ->
          Unix.close fd;
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "daemon socket never came up";
          Unix.sleepf 0.05;
          go ()
    in
    go ()
  in
  let send oc line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  (* The next [n] lines the daemon sends, newline-terminated. *)
  let lines ic n =
    String.concat "" (List.init n (fun _ -> input_line ic ^ "\n"))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let ic, oc = connect () in
      send oc "bogus line";
      check_golden "error, bad request"
        "error proto=1 unexpected%20request%20line%20%22bogus%20line%22\n" (lines ic 1);
      send oc "fetch x";
      check_golden "error, bad fetch id"
        "error proto=1 bad%20fetch%20id%20%22x%22\n" (lines ic 1);
      send oc "fetch 99";
      check_golden "error, unknown job"
        "error proto=1 unknown%20job%2099\n" (lines ic 1);
      send oc (Serve.submit_line ~params:[ ("workload", "nope") ]
                 ~on_disconnect:Serve.Cancel);
      check_golden "error, refused job"
        "error proto=1 unknown%20workload%20%22nope%22\n" (lines ic 1);
      send oc "submit workload=g on-disconnect=bogus";
      check_golden "error, bad policy"
        "error proto=1 bad%20on-disconnect%20%22bogus%22%20%28cancel%7Cdetach%29\n" (lines ic 1);
      send oc (Serve.submit_line ~params:[ ("workload", "g") ]
                 ~on_disconnect:Serve.Cancel);
      check_golden "job 1: accepted, progress, report, done"
        "accepted id=1\nprogress id=1 runs=1 a%20b=x%3Dy%25%0Az\nreport id=1 4\nl line%20one\nl line%20%25two\nl \nl last\nend\ndone id=1 status=completed code=1 msg= backtrace=\n"
        (lines ic 9);
      (* job 2 runs detached for a client that then leaves *)
      let ic2, oc2 = connect () in
      send oc2 (Serve.submit_line ~params:[ ("workload", "hold") ]
                  ~on_disconnect:Serve.Detach);
      check_golden "job 2: accepted, progress"
        "accepted id=2\nprogress id=2 phase=hold\n" (lines ic2 2);
      close_out oc2;
      send oc (Serve.fetch_line 2);
      check_golden "pending, running"
        "pending id=2 state=running\n" (lines ic 1);
      send oc (Serve.submit_line ~params:[ ("workload", "g") ]
                 ~on_disconnect:Serve.Cancel);
      check_golden "job 3: accepted"
        "accepted id=3\n" (lines ic 1);
      send oc (Serve.fetch_line 3);
      check_golden "pending, queued"
        "pending id=3 state=queued\n" (lines ic 1);
      check_golden "journal, queued and running"
        "# DAMPI serve journal\nversion 1\nnext 4\njob 3 cancel workload=g\njob 2 detach workload=hold\n"
        (read_text (Filename.concat dir "journal"));
      send oc (Serve.submit_line ~params:[ ("workload", "g") ]
                 ~on_disconnect:Serve.Cancel);
      check_golden "reject, queue full"
        "reject queue-full\n" (lines ic 1);
      (* let the daemon see the detached client go before job 2 ends *)
      Unix.sleepf 0.2;
      close_out (open_out (Filename.concat dir "release"));
      (* job 2 parks; then job 3 runs for this client *)
      check_golden "job 3: progress, report, done"
        "progress id=3 runs=1 a%20b=x%3Dy%25%0Az\nreport id=3 4\nl line%20one\nl line%20%25two\nl \nl last\nend\ndone id=3 status=completed code=1 msg= backtrace=\n" (lines ic 8);
      send oc "fetch 99";
      ignore (lines ic 1);
      check_golden "journal, parked"
        "# DAMPI serve journal\nversion 1\nnext 4\nparked 2\n"
        (read_text (Filename.concat dir "journal"));
      check_golden "parked report"
        "status completed\ncode 0\nmsg \nbacktrace \nreport held%0A\n"
        (read_text (Filename.concat dir "report-2"));
      send oc (Serve.fetch_line 2);
      check_golden "fetch of a parked report"
        "report id=2 1\nl held\nend\ndone id=2 status=completed code=0 msg= backtrace=\n" (lines ic 4);
      close_out oc)

(* ---- the serve daemon's event codec: every event the daemon encodes
   reads back as itself ---- *)

let gen_line = QCheck.Gen.(string_size ~gen:printable (0 -- 16))

let gen_event =
  QCheck.Gen.(
    let id = int_range (-5) 999 in
    oneof
      [
        map (fun i -> Serve.Accepted i) id;
        map
          (fun w -> Serve.Rejected w)
          (map (String.map (fun c -> if c = '\n' then ' ' else c)) gen_text);
        map
          (fun (proto, reason) -> Serve.Errored { proto; reason })
          (pair id gen_text);
        map
          (fun (i, kvs) -> Serve.Progress (i, kvs))
          (pair id (list_size (0 -- 4) (pair gen_text gen_text)));
        map
          (fun (i, lines) -> Serve.Report (i, lines))
          (pair id (list_size (0 -- 5) gen_line));
        map
          (fun ((id, status, code), (msg, backtrace)) ->
            Serve.Done { id; status; code; msg; backtrace })
          (pair (triple id gen_text id) (pair gen_text gen_text));
        map
          (fun (id, state) -> Serve.Pending { id; state })
          (pair id gen_text);
      ])

let prop_event_round_trip =
  QCheck.Test.make ~name:"read_event inverts the daemon's event encoder"
    ~count:300
    (QCheck.make gen_event ~print:Serve.event_to_string)
    (fun ev ->
      let r, w = Unix.pipe () in
      let oc = Unix.out_channel_of_descr w in
      output_string oc (Serve.event_to_string ev);
      close_out oc;
      let ic = Unix.in_channel_of_descr r in
      let got = Serve.read_event ic in
      close_in ic;
      got = Ok ev)

(* ---- the blocking readers under the assembler's properties ---- *)

(* Every result a blocking reader returns for [raw], written to a pipe by
   a child process in chunks cut at [cuts], pausing after each so the
   reader sees the partial line, up to the end of the stream (a clean end
   is not a result; one inside a block is). A child, not a domain: the
   golden daemon test forks, which no domain may precede. *)
let read_blocking read raw cuts =
  let r, w = Unix.pipe () in
  Wire.with_sigpipe_ignored @@ fun () ->
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let rec write from upto =
        if from < upto then
          write (from + Unix.write_substring w raw from (upto - from)) upto
      in
      (try
         let last =
           List.fold_left
             (fun from cut ->
               write from cut;
               Unix.sleepf 0.0002;
               cut)
             0 cuts
         in
         write last (String.length raw)
       with Unix.Unix_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let rec go acc =
        match read ic with
        | Error "connection closed" -> List.rev acc
        | Error e as last when String.starts_with ~prefix:"connection closed" e ->
            List.rev (last :: acc)
        | res -> go (res :: acc)
      in
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          ignore (Unix.waitpid [] pid))
        (fun () -> go [])

let gen_to_worker =
  QCheck.Gen.(
    oneof
      [
        map (fun nonce -> Wire.Challenge nonce) gen_text;
        map (fun epoch -> Wire.Welcome { epoch }) (0 -- 99);
        map
          (fun reason -> Wire.Reject { proto = Wire.proto_version; reason })
          gen_text;
        map
          (fun (workload, np, params) -> Wire.Job { workload; np; params })
          (triple gen_text (1 -- 64)
             (list_size (0 -- 3)
                (pair (oneofl [ "k"; "fault-spec"; "a b" ]) gen_text)));
        map
          (fun (lease_id, items) -> Wire.Lease { lease_id; items })
          (pair (0 -- 99) (list_size (0 -- 4) gen_item));
        map
          (fun kvs -> Wire.Progress kvs)
          (list_size (0 -- 4) (pair gen_text gen_text));
        return Wire.Detach;
        return Wire.Shutdown;
      ])

let concat_frames frame msgs = String.concat "" (List.map frame msgs)

let to_worker =
  {
    gen_msg = gen_to_worker;
    frame = Wire.to_worker_string;
    serialize = concat_frames Wire.to_worker_string;
    read = read_blocking Wire.read_to_worker;
  }

let serve_events =
  {
    gen_msg = gen_event;
    frame = Serve.event_to_string;
    serialize = concat_frames Serve.event_to_string;
    read = read_blocking Serve.read_event;
  }

let direction_props d =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_splits_reassemble d;
      prop_corruption_is_an_error d;
      prop_flips_never_raise d;
      prop_duplicated_frame_parses_twice d;
    ]

(* A peer that never sent [hello] writes a results frame whose run
   declares one error and sends a bare [err] line: the assembler answers
   with an Error; it once raised [Invalid_argument] out of [Wire.feed]. *)
let test_bare_err_line () =
  let raw = "results 0 1 1\nrun - counted 0x0p+0 0 0 0 0 0 1 0\nerr\nend\n" in
  let a = Wire.assembler () in
  let b = Bytes.of_string raw in
  match Wire.feed a b (Bytes.length b) with
  | [ Error _ ] -> ()
  | out ->
      Alcotest.failf "expected one Error, got %d result(s)" (List.length out)
  | exception e -> Alcotest.failf "Wire.feed raised %s" (Printexc.to_string e)

(* A telemetry block is advisory and bounded: it keeps its first 4096
   lines and skips the rest, so of a frame of 4106 samples the first 4096
   arrive, and the session goes on. *)
let test_advisory_block_bounded () =
  let series =
    List.init 4106 (fun i -> (Printf.sprintf "s%d" i, Obs.Metrics.Counter i))
  in
  let raw =
    Wire.to_coord_string (Wire.Telemetry series)
    ^ Wire.to_coord_string Wire.Heartbeat
  in
  let a = Wire.assembler () in
  let b = Bytes.of_string raw in
  match Wire.feed a b (Bytes.length b) with
  | [ Ok (Wire.Telemetry got); Ok Wire.Heartbeat ] ->
      Alcotest.(check bool) "the first 4096 samples" true
        (got = List.filteri (fun i _ -> i < 4096) series)
  | out -> Alcotest.failf "expected telemetry then hb, got %d result(s)" (List.length out)

(* A newline-less flood past the cap, after one good frame: the blocking
   readers return the frame, then one Error naming the cap. *)
let test_blocking_flood_capped () =
  let flood = String.make (Wire.default_max_line + 4096) 'x' in
  let cap = string_of_int Wire.default_max_line in
  let names_cap e =
    let rec mem i =
      i + String.length cap <= String.length e
      && (String.sub e i (String.length cap) = cap || mem (i + 1))
    in
    mem 0
  in
  let check name first read text =
    let path = Filename.temp_file "dampi-flood" ".txt" in
    Out_channel.with_open_bin path (fun oc -> output_string oc (text ^ flood));
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove path)
      (fun () ->
        Alcotest.(check bool) (name ^ ": the frame before the flood") true
          (read ic = Ok first);
        match read ic with
        | Error e when names_cap e -> ()
        | Error e ->
            Alcotest.failf "%s: error does not name the cap: %S" name
              (String.sub e 0 (min 80 (String.length e)))
        | Ok _ -> Alcotest.failf "%s: the flood read as a frame" name)
  in
  check "read_to_worker" Wire.Shutdown Wire.read_to_worker
    (Wire.to_worker_string Wire.Shutdown);
  check "read_event" (Serve.Accepted 4) Serve.read_event
    (Serve.event_to_string (Serve.Accepted 4))

(* ---- the shared listen and dial helpers ---- *)

let scratch_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dampi-transport-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let listen_ok addr =
  match Wire.listen addr with
  | Ok l -> l
  | Error e -> Alcotest.failf "listen: %s" e

let test_stale_socket_replaced () =
  let path = Filename.concat (scratch_dir ()) "stale.sock" in
  (* a socket file whose listener died without unlinking it *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists path);
  let l = listen_ok (Wire.Unix_sock path) in
  (match Wire.dial (Wire.Unix_sock path) with
  | Ok c -> Unix.close c
  | Error e -> Alcotest.failf "dial: %s" (Wire.dial_error_message e));
  Wire.close_listener l

let test_bind_failure_leaks_nothing () =
  let dir = scratch_dir () in
  let too_long = Filename.concat dir (String.make 200 's') in
  let no_dir = Filename.concat dir "missing/x.sock" in
  List.iter
    (fun path ->
      let before = open_fds () in
      (match Wire.listen (Wire.Unix_sock path) with
      | Ok _ -> Alcotest.failf "listen on %s succeeded" path
      | Error e ->
          let prefix = "cannot listen on unix:" in
          Alcotest.(check string)
            "one cannot-listen line" prefix
            (String.sub e 0 (String.length prefix)));
      Alcotest.(check int) "no descriptor leaked" before (open_fds ()))
    [ too_long; no_dir ]

let test_close_unlinks () =
  let path = Filename.concat (scratch_dir ()) "closed.sock" in
  let l = listen_ok (Wire.Unix_sock path) in
  Alcotest.(check bool) "bound" true (Sys.file_exists path);
  Wire.close_listener l;
  Alcotest.(check bool) "unlinked" false (Sys.file_exists path);
  match Wire.dial (Wire.Unix_sock path) with
  | Error (`Gone _) -> ()
  | Ok _ -> Alcotest.fail "dialed a closed listener"
  | Error e -> Alcotest.failf "not gone: %s" (Wire.dial_error_message e)

let test_unresolvable () =
  let addr = Wire.Tcp ("no-such-host.invalid", 9999) in
  (match Wire.dial addr with
  | Error `Unresolved -> ()
  | Ok _ -> Alcotest.fail "dialed an unresolvable host"
  | Error e -> Alcotest.failf "not unresolved: %s" (Wire.dial_error_message e));
  match Wire.listen addr with
  | Error e ->
      Alcotest.(check string) "one cannot-resolve line"
        "cannot resolve tcp:no-such-host.invalid:9999: no such host or address"
        e
  | Ok _ -> Alcotest.fail "listened on an unresolvable host"

let () =
  Alcotest.run "wire-fuzz"
    [
      ( "assembler",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_splits_reassemble to_coord;
            prop_corruption_is_an_error to_coord;
            prop_flips_never_raise to_coord;
            prop_string_matches_writer;
            prop_duplicated_frame_parses_twice to_coord;
            prop_interleaved_partials;
            prop_unterminated_flood_is_bounded;
          ]
        @ [
            Alcotest.test_case "a bare err line is an Error, not an exception"
              `Quick test_bare_err_line;
            Alcotest.test_case "a telemetry block keeps its first 4096 lines"
              `Quick test_advisory_block_bounded;
          ] );
      ("to-worker", direction_props to_worker);
      ("events", direction_props serve_events);
      ( "blocking",
        [
          Alcotest.test_case "a newline-less flood is one Error naming the cap"
            `Quick test_blocking_flood_capped;
        ] );
      ( "golden",
        [
          Alcotest.test_case "proto=2 frames" `Quick test_golden_frames;
          Alcotest.test_case "serve requests" `Quick test_golden_requests;
          Alcotest.test_case "serve events, journal, parked report" `Quick
            test_golden_daemon;
        ] );
      ("codec", [ QCheck_alcotest.to_alcotest prop_event_round_trip ]);
      ( "transport",
        [
          Alcotest.test_case "a stale unix socket file is replaced" `Quick
            test_stale_socket_replaced;
          Alcotest.test_case "a bind failure is one line and leaks no fd"
            `Quick test_bind_failure_leaks_nothing;
          Alcotest.test_case "closing a listener unlinks its path" `Quick
            test_close_unlinks;
          Alcotest.test_case "an unresolvable host is an Error value" `Quick
            test_unresolvable;
        ] );
    ]
