(* The job spec's codec, label and bounds:

   - every valid job survives [to_params]/[of_params] and the wire form
     unchanged;
   - arbitrary key/value lists are accepted or refused, never raised on;
   - labels are byte-equal to the ones earlier builds wrote into
     checkpoints, so their checkpoints and cache sidecars keep resuming;
   - parameter lists in the earlier submit and worker formats decode to
     the job they described. *)

let job =
  Alcotest.testable
    (fun ppf j -> Fmt.(list (pair string string)) ppf (Job.to_params j))
    ( = )

let result_job = Alcotest.(result job string)

let default w =
  match Job.default w with Ok j -> j | Error e -> Alcotest.fail e

(* ---- generators ---- *)

let gen_valid =
  let open QCheck.Gen in
  let opt g = option g in
  let pos_seconds =
    map (fun f -> Float.abs f +. 1e-9) (float_bound_inclusive 1e6)
  in
  let* e = oneofl Workloads.Registry.all in
  let* engine = oneofl [ Job.Dampi; Job.Isp ] in
  let* np = int_range 1 64 in
  let* clock = oneofl [ Job.Lamport; Job.Vector ] in
  let* k = opt (int_range 0 1000) in
  let* dual = bool in
  let* prune = if engine = Job.Isp then return true else bool in
  let* prefix_cache =
    if engine = Job.Isp then return None else opt (int_range 1 max_int)
  in
  let* max_runs = int_range 1 max_int in
  let* jobs = int_range 1 64 in
  let* stop_first = bool in
  let* quiet = bool in
  let* profile = bool in
  let* checkpoint_every = int_range 0 100_000 in
  let* replay_timeout = opt pos_seconds in
  let* max_replay_steps = opt (int_range 1 max_int) in
  let* max_retries = int_range 0 100 in
  let* retry_backoff = oneof [ return 0.0; float_bound_inclusive 60.0 ] in
  (* an empty spec stands for the default rates, so it needs a seed *)
  let spec seed specs =
    opt (oneofl (if seed = None then specs else "" :: specs))
  in
  let* fault_seed = opt int in
  let* fault_spec =
    spec fault_seed [ "delay=0.1,sendfail=0.05"; "seed=7,crash=0.02,rank=1" ]
  in
  let* net_fault_seed = opt int in
  let+ net_fault_spec =
    spec net_fault_seed [ "drop=0.1,dup=0.2"; "seed=3,reorder=0.5" ]
  in
  {
    Job.workload = e.Workloads.Registry.key;
    np;
    engine;
    clock;
    k;
    dual;
    prune;
    prefix_cache;
    max_runs;
    jobs;
    stop_first;
    quiet;
    profile;
    checkpoint_every;
    replay_timeout;
    max_replay_steps;
    max_retries;
    retry_backoff;
    fault_seed;
    fault_spec;
    net_fault_seed;
    net_fault_spec;
  }

let arb_valid =
  QCheck.make gen_valid ~print:(fun j ->
      Job.to_params j
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat " ")

let keys =
  [ "workload"; "np"; "engine"; "clock"; "k"; "dual"; "prune"; "prefix-cache";
    "max-runs"; "jobs"; "stop-first"; "quiet"; "profile"; "checkpoint-every";
    "replay-timeout"; "max-replay-steps"; "max-retries"; "retry-backoff";
    "fault-seed"; "fault-spec"; "net-fault-seed"; "net-fault-spec" ]

let gen_params =
  let open QCheck.Gen in
  let value =
    oneof
      [
        string_printable;
        map string_of_int int;
        oneofl
          [ "true"; "false"; "-1"; "0"; "nan"; "inf"; "1e308"; "0x10"; "isp";
            "vector"; "fig3"; "adlb"; "seed=1,delay=2.0"; "drop=1,x=y"; "=";
            "," ];
      ]
  in
  let key = oneof [ oneofl keys; string_printable ] in
  let* workload =
    oneofl [ []; [ ("workload", "fig3") ]; [ ("workload", "ADLB") ] ]
  in
  let+ rest = list_size (int_range 0 8) (pair key value) in
  workload @ rest

let arb_params =
  QCheck.make gen_params
    ~print:QCheck.Print.(list (pair string string))

(* ---- properties ---- *)

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_params (to_params j) = Ok j" arb_valid
    (fun j ->
      Job.check j = Ok j
      && Job.of_params (Job.to_params j) = Ok j
      && Job.of_wire (Job.to_wire j) = Ok j)

let prop_never_raises =
  QCheck.Test.make ~count:2000 ~name:"arbitrary params: Ok or Error, no raise"
    arb_params (fun params ->
      match Job.of_params params with Ok _ | Error _ -> true)

(* ---- golden labels, as earlier builds wrote them ---- *)

let test_labels () =
  let check expected j =
    Alcotest.(check string) expected expected (Job.label j)
  in
  check "dampi matmult np=5 clock=lamport k=0 dual=false prune=true"
    { (default "matmult") with k = Some 0 };
  check "isp fig3 np=3 clock=lamport k=-1 dual=false prune=false"
    { (default "fig3") with engine = Job.Isp };
  check "dampi fig4 np=4 clock=vector k=2 dual=true prune=false"
    {
      (default "fig4") with
      clock = Job.Vector;
      k = Some 2;
      dual = true;
      prune = false;
    };
  check "dampi adlb np=12 clock=lamport k=1 dual=false prune=true"
    { (default "ADLB") with np = 12; k = Some 1 }

(* What the earlier submit journaled and the earlier coordinator shipped. *)
let test_earlier_formats () =
  Alcotest.check result_job "earlier submit params"
    (Ok
       {
         (default "adlb") with
         np = 12;
         k = Some 1;
         max_runs = 4000;
         quiet = true;
       })
    (Job.of_params
       [ ("workload", "adlb"); ("np", "12"); ("k", "1"); ("max-runs", "4000");
         ("quiet", "true") ]);
  Alcotest.check result_job "earlier worker params"
    (Ok
       {
         (default "adlb") with
         np = 6;
         k = Some 0;
         prune = false;
         fault_seed = Some 7;
       })
    (Job.of_wire
       {
         Dampi.Wire.workload = "adlb";
         np = 6;
         params =
           [ ("clock", "lamport"); ("dual", "false"); ("prune", "false");
             ("profile", "false"); ("max-retries", "2");
             ("retry-backoff", "0."); ("k", "0"); ("fault-seed", "7") ];
       })

let test_bounds () =
  let refused params =
    match Job.of_params (("workload", "matmult") :: params) with
    | Ok _ ->
        Alcotest.failf "accepted %s"
          (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) params))
    | Error msg ->
        Alcotest.(check bool) "one line" false (String.contains msg '\n')
  in
  List.iter refused
    [
      [ ("k", "-1") ];
      [ ("np", "0") ];
      [ ("np", "-2") ];
      [ ("max-runs", "0") ];
      [ ("jobs", "0") ];
      [ ("prefix-cache", "0") ];
      [ ("checkpoint-every", "-1") ];
      [ ("replay-timeout", "0") ];
      [ ("max-retries", "-1") ];
      [ ("retry-backoff", "nan") ];
      [ ("engine", "isp"); ("prune", "false") ];
      [ ("engine", "isp"); ("prefix-cache", "100") ];
      [ ("fault-spec", "delay=2.0") ];
      [ ("bogus", "1") ];
      [ ("np", "five") ];
    ];
  Alcotest.check result_job "checkpoint-every 0 writes only at the end"
    (Ok { (default "matmult") with checkpoint_every = 0 })
    (Job.of_params [ ("workload", "matmult"); ("checkpoint-every", "0") ]);
  Alcotest.(check bool) "workload is required" true
    (Result.is_error (Job.of_params [ ("np", "3") ]));
  Alcotest.(check bool) "workload must exist" true
    (Result.is_error (Job.of_params [ ("workload", "nope") ]))

let test_sparse () =
  Alcotest.(check (list (pair string string)))
    "a default job is its workload" [ ("workload", "fig3") ]
    (Job.to_params (default "fig3"))

(* ---- the flag table ---- *)

let spellings (f : Job.flag) =
  List.map (fun n -> if String.length n = 1 then "-" ^ n else "--" ^ n) f.names

let test_flag_table () =
  let all = List.concat_map spellings Job.flags in
  Alcotest.(check int) "spellings are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun (f : Job.flag) ->
      Option.iter
        (fun msg ->
          if
            not
              (List.exists
                 (fun s -> String.starts_with ~prefix:(s ^ " ") msg)
                 (spellings f))
          then Alcotest.failf "%s: %S names none of its flags" f.key msg)
        f.bound;
      (* what the command line can hand the row decodes, and a default the
         help shows is the default *)
      let given =
        match f.shape with
        | Job.Value _ -> []
        | Job.Presence v | Job.Vopt (_, v) -> [ v ]
      in
      List.iter
        (fun v ->
          match Job.of_params [ ("workload", "fig3"); (f.key, v) ] with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s=%s: %s" f.key v e)
        given;
      if f.absent <> "" then
        Alcotest.check result_job
          (f.key ^ " shows its default")
          (Ok (default "fig3"))
          (Job.of_params [ ("workload", "fig3"); (f.key, f.absent) ]))
    Job.flags

let () =
  Alcotest.run "job"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_never_raises;
          Alcotest.test_case "defaults stay off the wire" `Quick test_sparse;
          Alcotest.test_case "earlier submit and worker params" `Quick
            test_earlier_formats;
          Alcotest.test_case "bounds refused in one line" `Quick test_bounds;
        ] );
      ("label", [ Alcotest.test_case "golden labels" `Quick test_labels ]);
      ( "flags",
        [
          Alcotest.test_case "unique spellings, bounds name their flag" `Quick
            test_flag_table;
        ] );
    ]
