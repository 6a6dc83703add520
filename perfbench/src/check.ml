(* Correctness checks: every verification the benchmark times is compared
   against pinned expectations, and a mismatch (or a raise) counts the
   verification as failed. *)

(* The canonical report: what must not change with the transport, the
   cache or the worker count. [vtime] is the summed virtual makespan to 12
   significant digits: a distributed run adds the same terms in another
   order, which moves the last bits. *)
type canon = {
  interleavings : int;
  runs_pruned : int;
  bounded_epochs : int;
  wildcards : int;
  vtime : string;
  signatures : string list;  (* sorted finding signatures *)
  harness_failures : int;
}

(* adlb with 2 servers, 1 put per client, np=6, Lamport clocks, unbounded
   mixing, pruning on: the exhaustive walk every adlb2 workload covers. *)
let adlb2 =
  {
    interleavings = 32118;
    runs_pruned = 147;
    bounded_epochs = 0;
    wildcards = 12;
    vtime = "16.7174224945";
    signatures = [];
    harness_failures = 0;
  }

type item = { what : string; expected : string; actual : string }

let int what ~expected actual =
  { what; expected = string_of_int expected; actual = string_of_int actual }

let str what ~expected actual = { what; expected; actual }

let canonical ~(expected : canon) (actual : canon) =
  [
    int "interleavings" ~expected:expected.interleavings actual.interleavings;
    int "runs_pruned" ~expected:expected.runs_pruned actual.runs_pruned;
    int "bounded_epochs" ~expected:expected.bounded_epochs actual.bounded_epochs;
    int "wildcards" ~expected:expected.wildcards actual.wildcards;
    str "total_virtual_time" ~expected:expected.vtime actual.vtime;
    str "findings"
      ~expected:(String.concat "," expected.signatures)
      (String.concat "," actual.signatures);
    int "harness_failures" ~expected:expected.harness_failures
      actual.harness_failures;
  ]

let verdict items =
  match List.filter (fun i -> i.expected <> i.actual) items with
  | [] -> Ok ()
  | bad ->
      Error
        (String.concat "; "
           (List.map
              (fun i -> Printf.sprintf "%s=%s (expected %s)" i.what i.actual i.expected)
              bad))

(* Verifications whose check failed, or that raised, over those attempted. *)
let failed_ratio outcomes =
  match outcomes with
  | [] -> invalid_arg "Check.failed_ratio: nothing attempted"
  | _ ->
      let failed = List.length (List.filter Result.is_error outcomes) in
      float_of_int failed /. float_of_int (List.length outcomes)
