(* Memoized replay artifacts keyed by schedule: an append-only table
   under a byte budget.
   See prefix_cache.mli for the caching model and why whole-schedule
   memoization (not mid-run state snapshots) is what replay determinism
   makes sound. *)

type entry = {
  vtime : float;
  wildcards : int;
  errors : Report.error list;
  epochs : Epoch.summary list;  (* completion order *)
}

let entry_of_record (r : Report.run_record) =
  {
    vtime = r.Report.makespan;
    wildcards = r.Report.wildcards;
    errors = r.Report.run_errors;
    epochs = List.map Epoch.summarize r.Report.new_epochs;
  }

let bounded e =
  List.length
    (List.filter (fun (s : Epoch.summary) -> not s.Epoch.s_expandable) e.epochs)

(* ---- serialization (the checkpoint sidecar) ----

   One line per entry; errors are percent-encoded whole so the line stays
   whitespace-delimited. The byte cost charged against the budget is the
   serialized line length — the honest size of what a sidecar persists. *)

let add_entry_line b ~key e =
  Buffer.add_string b "entry ";
  Buffer.add_string b key;
  Buffer.add_char b ' ';
  Checkpoint.add_hex_float b e.vtime;
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int e.wildcards);
  Buffer.add_char b ' ';
  Checkpoint.add_sleep_key b e.epochs;
  Buffer.add_char b ' ';
  match e.errors with
  | [] -> Buffer.add_char b '-'
  | errs ->
      List.iteri
        (fun i er ->
          if i > 0 then Buffer.add_char b ';';
          Checkpoint.add_enc b (Checkpoint.error_to_line er))
        errs

let entry_line ~key e =
  let b = Buffer.create 256 in
  add_entry_line b ~key e;
  Buffer.contents b

let parse_errors field =
  let parse_err s =
    let l = Checkpoint.dec s in
    match String.index_opt l ' ' with
    | Some i ->
        Checkpoint.error_of_line (String.sub l 0 i)
          (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Checkpoint.error_of_line l ""
  in
  let parts = List.map parse_err (String.split_on_char ';' field) in
  if List.exists Option.is_none parts then None
  else Some (List.filter_map Fun.id parts)

(* The first [c] in [text.[p .. j-1]], or [j]. *)
let rec find_char text c p j =
  if p >= j || String.unsafe_get text p = c then p else find_char text c (p + 1) j

(* [text] holds [lit] at [i] (the caller knows it is long enough). *)
let rec holds text i lit k =
  k = String.length lit || (text.[i + k] = lit.[k] && holds text i lit (k + 1))

(* The epochs of the field [text.[i .. j-1]], parsed once per distinct
   field of a load: a sidecar repeats few epoch lists (adlb2: 1,445
   distinct over 32,118 entries), and entries that share one share its
   summaries in memory. *)
let epochs_at known text i j =
  let field = String.sub text i (j - i) in
  match Hashtbl.find_opt known field with
  | Some epochs -> epochs
  | None ->
      let epochs = Checkpoint.sleep_of_key field in
      Hashtbl.add known field epochs;
      epochs

(* The entry on the line [text.[i .. j-1]]:
   [entry KEY VTIME WILDCARDS EPOCHS ERRORS], read in place: the fields
   are found on the line and cut out once each, and the key is checked
   where it lies. *)
let entry_at known text i j =
  let f1 = i + 6 in
  let s2 = find_char text ' ' f1 j in
  let s3 = find_char text ' ' (s2 + 1) j in
  let s4 = find_char text ' ' (s3 + 1) j in
  let s5 = find_char text ' ' (s4 + 1) j in
  if
    j - i > 6
    && holds text i "entry " 0
    && s5 < j
    && find_char text ' ' (s5 + 1) j = j
    && Checkpoint.is_schedule_key text f1 s2
  then
    let errors =
      if s5 + 2 = j && text.[s5 + 1] = '-' then Some []
      else parse_errors (String.sub text (s5 + 1) (j - s5 - 1))
    in
    match
      ( float_of_string_opt (String.sub text (s2 + 1) (s3 - s2 - 1)),
        int_of_string_opt (String.sub text (s3 + 1) (s4 - s3 - 1)),
        epochs_at known text (s4 + 1) s5,
        errors )
    with
    | Some vtime, Some wildcards, Some epochs, Some errors ->
        Some (String.sub text f1 (s2 - f1), { vtime; wildcards; errors; epochs })
    | _ -> None
  else None

(* ---- the table ---- *)

type metrics = {
  shard : Obs.Metrics.shard;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
}

type t = {
  label : string;
      (* workload+config identity (the checkpoint label); schedule keys are
         decision lists with no workload in them, so a sidecar is only safe
         to warm from when the labels agree *)
  budget : int;
  tbl : (string, entry) Hashtbl.t;
  mutable order : (string * entry) list;  (* every entry, newest first *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  m : Mutex.t;
  line : Buffer.t;  (* [add]'s scratch for sizing an entry, under [m] *)
  metrics : metrics option;
  mutable synced : (string * int) option;
      (* the file that holds [to_string] as of that many entries, if any:
         no entry is ever removed, so an unchanged count means unchanged
         contents, and a save to it would rewrite the same bytes *)
}

let default_budget_bytes = 64 * 1024 * 1024

let create ?metrics ?(label = "") ~budget_bytes () =
  {
    label;
    budget = max 0 budget_bytes;
    tbl = Hashtbl.create 256;
    order = [];
    bytes = 0;
    hits = 0;
    misses = 0;
    m = Mutex.create ();
    line = Buffer.create 256;
    synced = None;
    metrics =
      (* Resolved eagerly so the series exist even for a run with no
         cache traffic; all writes happen under [m], keeping the shard
         single-writer. *)
      Option.map
        (fun shard ->
          {
            shard;
            m_hits = Obs.Metrics.counter shard "cache.hits";
            m_misses = Obs.Metrics.counter shard "cache.misses";
          })
        metrics;
  }

let set_bytes_gauge t =
  match t.metrics with
  | Some ms -> Obs.Metrics.gauge_set ms.shard "cache.bytes" (float_of_int t.bytes)
  | None -> ()

let find t ?key decisions =
  let key =
    match key with Some k -> k | None -> Checkpoint.schedule_key decisions
  in
  Mutex.lock t.m;
  let r = Hashtbl.find_opt t.tbl key in
  (match r with
  | Some _ ->
      t.hits <- t.hits + 1;
      Option.iter (fun ms -> Obs.Metrics.incr ms.m_hits) t.metrics
  | None ->
      t.misses <- t.misses + 1;
      Option.iter (fun ms -> Obs.Metrics.incr ms.m_misses) t.metrics);
  Mutex.unlock t.m;
  r

(* Caller holds [t.m]. A present key is left as it is (replays are
   deterministic, so a re-add carries the same artifact), and an entry
   that does not fit in what is left of the budget is refused. *)
let insert_locked t key entry ~cost =
  if cost <= t.budget - t.bytes && not (Hashtbl.mem t.tbl key) then begin
    Hashtbl.add t.tbl key entry;
    t.order <- (key, entry) :: t.order;
    t.bytes <- t.bytes + cost
  end

let add t ?key decisions entry =
  let key =
    match key with Some k -> k | None -> Checkpoint.schedule_key decisions
  in
  Mutex.lock t.m;
  Buffer.clear t.line;
  add_entry_line t.line ~key entry;
  insert_locked t key entry ~cost:(Buffer.length t.line + 1);
  set_bytes_gauge t;
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  let r = (t.hits, t.misses, t.bytes) in
  Mutex.unlock t.m;
  r

(* ---- sidecar persistence ---- *)

let header = "# DAMPI prefix cache\nversion 1\n"

let to_string t =
  Mutex.lock t.m;
  let label = "label " ^ Checkpoint.enc t.label ^ "\n" in
  let b = Buffer.create (String.length header + String.length label + t.bytes) in
  Buffer.add_string b header;
  Buffer.add_string b label;
  List.iter
    (fun (key, e) ->
      add_entry_line b ~key e;
      Buffer.add_char b '\n')
    (List.rev t.order);
  Mutex.unlock t.m;
  Buffer.contents b

(* The lines are taken as read: a line this code wrote costs exactly what
   [add] charged for it ([entry_line]'s length plus the newline), so the
   key and the cost need no re-encoding. A line whose key or entry does
   not parse is skipped. With [path], a load after which [to_string]
   would give the text back marks the cache as saved there: the cache was
   empty, no line was skipped, refused or a duplicate, and the last line
   ends in a newline. *)
let load_lines ?path t text pos =
  let n = String.length text in
  let known = Hashtbl.create 64 in
  let rec go pos lines skipped =
    if pos >= n then (lines, skipped)
    else
      let stop = find_char text '\n' pos n in
      match entry_at known text pos stop with
      | Some (key, e) ->
          insert_locked t key e ~cost:(stop - pos + 1);
          go (stop + 1) (lines + 1) skipped
      | None -> go (stop + 1) lines true
  in
  Mutex.lock t.m;
  let empty = Hashtbl.length t.tbl = 0 in
  let lines, skipped = go pos 0 false in
  let exact =
    empty && (not skipped) && Hashtbl.length t.tbl = lines
    && text.[n - 1] = '\n'
  in
  (match path with
  | Some p when exact -> t.synced <- Some (p, lines)
  | _ -> ());
  set_bytes_gauge t;
  Mutex.unlock t.m

let refuse t msg =
  Mutex.lock t.m;
  t.synced <- None;
  Mutex.unlock t.m;
  Error msg

let load_text ?path t text =
  let starts_at pos prefix =
    String.length text - pos >= String.length prefix
    && String.sub text pos (String.length prefix) = prefix
  in
  let label = "label " ^ Checkpoint.enc t.label in
  let entries = String.length header + String.length label in
  if not (starts_at 0 header) then refuse t "not a DAMPI prefix-cache file"
  else if
    starts_at (String.length header) label
    && (entries = String.length text || text.[entries] = '\n')
  then begin
    load_lines ?path t text (entries + 1);
    Ok ()
  end
  else if starts_at (String.length header) "label " then
    refuse t "prefix-cache label mismatch (different workload or config)"
  else refuse t "not a DAMPI prefix-cache file"

let load_into t text = load_text t text

let save ?fault t path =
  (* [fault] is drawn once per call, written or not, so a chaos run draws
     the same faults whether or not the cache changed. *)
  let fired = match fault with Some f -> f () | None -> false in
  Mutex.lock t.m;
  let entries = Hashtbl.length t.tbl in
  let current = t.synced = Some (path, entries) in
  Mutex.unlock t.m;
  if current && not fired then Checkpoint.Written
  else
    match Checkpoint.atomic_write ~fault:(fun () -> fired) path (to_string t) with
    | Checkpoint.Written ->
        (* [entries] as read before [to_string]: an insert in between
           leaves the cache newer than the file, and the next save
           writes. *)
        Mutex.lock t.m;
        t.synced <- Some (path, entries);
        Mutex.unlock t.m;
        Checkpoint.Written
    | d -> d

let load t path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> load_text ~path t text
  | exception Sys_error msg -> refuse t msg
