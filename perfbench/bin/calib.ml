(* The host-speed reference: a fixed computation, built from the standard
   library alone, that the timed runs interleave with their verifications.

   The benchmark shares a few cores of a busy host, whose speed drifts by
   more than half over minutes. The kernel is timed before every
   verification; dividing the verification's time by the kernel's (and
   multiplying by [reference_s]) cancels most of that drift, while a change
   to the verifier moves only the numerator. The kernel leans on what the
   verifier leans on — effect-handler coroutines handing messages through
   queues, short-lived allocation, string keys in a growing hash table
   probed as a cache is, and loads that miss the CPU caches — so a slow
   host slows both alike. It uses no code of the verifier, so it never
   speeds up with it. *)

type _ Effect.t += Yield : unit Effect.t

(* A nominal kernel time, in seconds: reported times are what a verification
   would take on a host where the kernel's lower quartile is [reference_s].
   It only scales them; on a shared 2-vCPU Intel Xeon VM the kernel's lower
   quartile over a run ranged from 0.14 to 0.22 s. *)
let reference_s = 0.2

(* One mini-run: [ranks] coroutines, each sending [msgs] messages to
   another and reading its own queue between yields. The order messages
   were read in keys the run, as a schedule keys a replay. *)
let mini_run ~ranks ~msgs ~seed seen =
  let queues = Array.init ranks (fun _ -> Queue.create ()) in
  let trace = ref [] in
  let body r () =
    for i = 1 to msgs do
      Queue.push (r, i + seed) queues.((r + i + seed) mod ranks);
      Effect.perform Yield;
      match Queue.take_opt queues.(r) with
      | Some (s, j) -> trace := ((s * 31) + j) :: !trace
      | None -> ()
    done
  in
  let ready = Queue.create () in
  let spawn f =
    Effect.Deep.match_with f ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Yield ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    Queue.push (fun () -> Effect.Deep.continue k ()) ready)
            | _ -> None);
      }
  in
  for r = 0 to ranks - 1 do
    spawn (body r)
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done;
  let b = Buffer.create 1024 in
  List.iter
    (fun x ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    !trace;
  let key = Buffer.contents b in
  Hashtbl.replace seen key (Array.of_list !trace);
  key

(* Look up [n] earlier runs by key, as a cache is probed: hashing long
   strings and chasing pointers across a heap larger than a core's own
   caches. *)
let probe seen keys ~seed n =
  let hits = ref 0 in
  for i = 1 to n do
    let k = keys.(((seed * 7919) + (i * 104729)) mod seed) in
    if Hashtbl.mem seen k then incr hits
  done;
  !hits

(* A random cycle through 64 MiB of ints, about the size of the verifier's
   heaps, kept off the OCaml heap so that no collector scans it. Following
   it is one dependent load after another, most of them missing the CPU
   caches, as lookups in the verifier's tables do. [last] is where
   [chase_steps] steps from cell 0 end. *)
type chain = {
  cells : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  last : int;
}

let chase_steps = 300_000

let walk cells steps =
  let rec go i k = if k = 0 then i else go (Bigarray.Array1.unsafe_get cells i) (k - 1) in
  go 0 steps

let chain () =
  let n = 8 * 1024 * 1024 in
  let cells = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    cells.{i} <- i
  done;
  (* Sattolo's shuffle: one cycle through every cell *)
  let st = Random.State.make [| 42 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = cells.{i} in
    cells.{i} <- cells.{j};
    cells.{j} <- t
  done;
  { cells; last = walk cells chase_steps }

(* The kernel: 3,000 mini-runs, each followed by 8 probes, then a walk
   along [c]. True when every probe hit and the walk ended where it should. *)
let kernel c =
  let runs = 3000 in
  let seen = Hashtbl.create 1024 and keys = Array.make runs "" in
  let hits = ref 0 in
  for seed = 1 to runs do
    keys.(seed - 1) <- mini_run ~ranks:6 ~msgs:24 ~seed seen;
    hits := !hits + probe seen keys ~seed 8
  done;
  !hits = runs * 8 && walk c.cells chase_steps = c.last
