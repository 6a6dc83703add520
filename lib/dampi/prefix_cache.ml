(* Memoized replay artifacts keyed by schedule, with an LRU byte budget.
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

let entry_of_line line =
  match String.split_on_char ' ' line with
  | [ "entry"; key; vtime; wildcards; epochs; errors ] -> (
      let parse_err s =
        let l = Checkpoint.dec s in
        match String.index_opt l ' ' with
        | Some i ->
            Checkpoint.error_of_line (String.sub l 0 i)
              (String.sub l (i + 1) (String.length l - i - 1))
        | None -> Checkpoint.error_of_line l ""
      in
      let errors =
        if errors = "-" then Some []
        else
          let parts = List.map parse_err (String.split_on_char ';' errors) in
          if List.exists Option.is_none parts then None
          else Some (List.filter_map Fun.id parts)
      in
      match
        ( float_of_string_opt vtime,
          int_of_string_opt wildcards,
          Checkpoint.sleep_of_key epochs,
          errors )
      with
      | Some vtime, Some wildcards, Some epochs, Some errors ->
          Some (key, { vtime; wildcards; errors; epochs })
      | _ -> None)
  | _ -> None

(* ---- LRU ---- *)

type node = {
  n_key : string;
  n_entry : entry;
  n_cost : int;
  mutable prev : node option;  (* toward most-recent *)
  mutable next : node option;  (* toward least-recent *)
}

type metrics = {
  shard : Obs.Metrics.shard;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
  m_depth : Obs.Metrics.histogram;
}

type t = {
  label : string;
      (* workload+config identity (the checkpoint label); schedule keys are
         decision lists with no workload in them, so a sidecar is only safe
         to warm from when the labels agree *)
  budget : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m : Mutex.t;
  line : Buffer.t;  (* [add]'s scratch for sizing an entry, under [m] *)
  metrics : metrics option;
}

let default_budget_bytes = 64 * 1024 * 1024

let create ?metrics ?(label = "") ~budget_bytes () =
  {
    label;
    budget = max 0 budget_bytes;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    m = Mutex.create ();
    line = Buffer.create 256;
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
            m_evictions = Obs.Metrics.counter shard "cache.evictions";
            m_depth =
              Obs.Metrics.histogram shard ~bounds:Obs.Metrics.count_bounds
                "cache.resume_depth";
          })
        metrics;
  }

(* All list surgery happens with [t.m] held. *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let set_bytes_gauge t =
  match t.metrics with
  | Some ms -> Obs.Metrics.gauge_set ms.shard "cache.bytes" (float_of_int t.bytes)
  | None -> ()

let evict_over_budget t =
  while t.bytes > t.budget && t.tail <> None do
    match t.tail with
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.n_key;
        t.bytes <- t.bytes - n.n_cost;
        t.evictions <- t.evictions + 1;
        (match t.metrics with
        | Some ms -> Obs.Metrics.incr ms.m_evictions
        | None -> ())
    | None -> ()
  done

(* Depth of the longest cached prefix of the schedule [key] spells: each
   [,] in a key ends the key of a proper prefix, so one scan of the key
   yields every prefix key without re-encoding a decision. *)
let deepest_prefix_locked t key =
  if key = "-" then 0
  else begin
    let best = ref 0 and depth = ref 0 in
    String.iteri
      (fun i c ->
        if c = ',' then begin
          incr depth;
          if Hashtbl.mem t.tbl (String.sub key 0 i) then best := !depth
        end)
      key;
    if Hashtbl.mem t.tbl key then !depth + 1 else !best
  end

let find t ?key decisions =
  let key =
    match key with Some k -> k | None -> Checkpoint.schedule_key decisions
  in
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some n ->
        unlink t n;
        push_front t n;
        t.hits <- t.hits + 1;
        (match t.metrics with
        | Some ms ->
            Obs.Metrics.incr ms.m_hits;
            Obs.Metrics.observe ms.m_depth
              (float_of_int (List.length decisions))
        | None -> ());
        Some n.n_entry
    | None ->
        t.misses <- t.misses + 1;
        (match t.metrics with
        | Some ms ->
            Obs.Metrics.incr ms.m_misses;
            (* How deep a cached prefix this guided run shares — the
               resumed-depth a mid-run snapshot scheme would start from. *)
            Obs.Metrics.observe ms.m_depth
              (float_of_int (deepest_prefix_locked t key))
        | None -> ());
        None
  in
  Mutex.unlock t.m;
  r

(* Caller holds [t.m]. A present key only refreshes recency: replays are
   deterministic, so a re-add carries the same artifact. *)
let insert_locked t key entry ~cost =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      unlink t n;
      push_front t n
  | None ->
      if cost <= t.budget then begin
        let n =
          { n_key = key; n_entry = entry; n_cost = cost; prev = None; next = None }
        in
        Hashtbl.replace t.tbl key n;
        push_front t n;
        t.bytes <- t.bytes + cost;
        evict_over_budget t
      end

let add t decisions entry =
  let key = Checkpoint.schedule_key decisions in
  Mutex.lock t.m;
  Buffer.clear t.line;
  add_entry_line t.line ~key entry;
  insert_locked t key entry ~cost:(Buffer.length t.line + 1);
  set_bytes_gauge t;
  Mutex.unlock t.m

let deepest_prefix t decisions =
  let key = Checkpoint.schedule_key decisions in
  Mutex.lock t.m;
  let d = deepest_prefix_locked t key in
  Mutex.unlock t.m;
  d

let stats t =
  Mutex.lock t.m;
  let r = (t.hits, t.misses, t.bytes, t.evictions) in
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
  (* Least-recent first, so re-adding in file order restores recency. *)
  let rec emit = function
    | None -> ()
    | Some n ->
        add_entry_line b ~key:n.n_key n.n_entry;
        Buffer.add_char b '\n';
        emit n.prev
  in
  emit t.tail;
  Mutex.unlock t.m;
  Buffer.contents b

(* The lines are taken as read: a line this code wrote costs exactly what
   [add] charged for it ([entry_line]'s length plus the newline), so the
   key and the cost need no re-encoding. A line whose key or entry does
   not parse is skipped. *)
let load_lines t text pos =
  let n = String.length text in
  let rec go pos =
    if pos < n then begin
      let stop =
        match String.index_from_opt text pos '\n' with Some i -> i | None -> n
      in
      (if stop > pos then
         let line = String.sub text pos (stop - pos) in
         match entry_of_line line with
         | Some (key, e) when Checkpoint.schedule_of_key key <> None ->
             insert_locked t key e ~cost:(String.length line + 1)
         | _ -> ());
      go (stop + 1)
    end
  in
  Mutex.lock t.m;
  go pos;
  set_bytes_gauge t;
  Mutex.unlock t.m

let load_into t text =
  let starts_at pos prefix =
    String.length text - pos >= String.length prefix
    && String.sub text pos (String.length prefix) = prefix
  in
  let label = "label " ^ Checkpoint.enc t.label in
  let entries = String.length header + String.length label in
  if not (starts_at 0 header) then Error "not a DAMPI prefix-cache file"
  else if
    starts_at (String.length header) label
    && (entries = String.length text || text.[entries] = '\n')
  then begin
    load_lines t text entries;
    Ok ()
  end
  else if starts_at (String.length header) "label " then
    Error "prefix-cache label mismatch (different workload or config)"
  else Error "not a DAMPI prefix-cache file"

let save ?fault t path = Checkpoint.atomic_write ?fault path (to_string t)

let load t path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> load_into t text
  | exception Sys_error msg -> Error msg
