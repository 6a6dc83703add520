(* Memoized replay artifacts keyed by schedule: an append-only table
   under a byte budget, stored as its own sidecar lines.
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

(* An entry line's key starts after ["entry "]. *)
let key_start = 6

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

(* [text] holds [lit] at [i] (the caller knows it is long enough). *)
let rec holds text i lit k =
  k = String.length lit || (text.[i + k] = lit.[k] && holds text i lit (k + 1))

(* ---- spans: scanning, hashing and comparing text where it lies ---- *)

external get64u : string -> int -> int64 = "%caml_string_get64u"

let rec find_char_bytes text c p j =
  if p >= j || String.unsafe_get text p = c then p
  else find_char_bytes text c (p + 1) j

(* The first [c] in [text.[p .. j-1]], or [j], a word at a time: a word
   holds [c] when one of its bytes xor [c] is zero, which the usual borrow
   test finds; the word that holds it and the last few bytes are read a
   byte at a time. *)
let rec find_char text c p j =
  if p + 8 > j then find_char_bytes text c p j
  else
    let x =
      Int64.logxor (get64u text p)
        (Int64.mul 0x0101010101010101L (Int64.of_int (Char.code c)))
    in
    if
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
      <> 0L
    then find_char_bytes text c p j
    else find_char text c (p + 8) j

let mix h w =
  let h = (h lxor w) * 0x100000001b3 in
  h lxor (h lsr 29)

let rec hash_words s h p j =
  if p + 8 <= j then hash_words s (mix h (Int64.to_int (get64u s p))) (p + 8) j
  else hash_tail s h 0 p j

and hash_tail s h w p j =
  if p < j then hash_tail s h ((w lsl 8) lor Char.code (String.unsafe_get s p)) (p + 1) j
  else mix h w

(* The hash of [s.[i .. j-1]], a word at a time. *)
let hash_span s i j =
  let h = hash_words s (j - i) i j * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

(* [a.[i .. i+n-1]] = [b.[j .. j+n-1]] (both in bounds). *)
let rec equal_span a i b j n =
  if n >= 8 then (get64u a i : int64) = get64u b j && equal_span a (i + 8) b (j + 8) (n - 8)
  else
    n = 0
    || (String.unsafe_get a i = String.unsafe_get b j && equal_span a (i + 1) b (j + 1) (n - 1))

(* The epochs of the field [text.[i .. j-1]], parsed once per distinct
   field of a load: a sidecar repeats few epoch lists (adlb2: 1,445
   distinct over 32,118 entries), and entries that share one share its
   summaries in memory. [known] holds the parsed fields by hash; only a
   field met for the first time is cut out of the text. *)
let epochs_at known text i j =
  let h = hash_span text i j in
  let bucket = Option.value (Hashtbl.find_opt known h) ~default:[] in
  let n = j - i in
  match
    List.find_opt
      (fun (field, _) -> String.length field = n && equal_span field 0 text i n)
      bucket
  with
  | Some (_, epochs) -> epochs
  | None ->
      let field = String.sub text i n in
      let epochs = Checkpoint.sleep_of_key field in
      Hashtbl.replace known h ((field, epochs) :: bucket);
      epochs

(* The entry on the line [text.[i .. j-1]]:
   [entry KEY VTIME WILDCARDS EPOCHS ERRORS], read in place, with the end
   of its key: the fields are found on the line, the key is checked where
   it lies, and only the two number fields are cut out. *)
let entry_at known text i j =
  let f1 = i + key_start in
  let s2 = find_char text ' ' f1 j in
  let s3 = find_char text ' ' (s2 + 1) j in
  let s4 = find_char text ' ' (s3 + 1) j in
  let s5 = find_char text ' ' (s4 + 1) j in
  if
    j - i > key_start
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
        Some (s2, { vtime; wildcards; errors; epochs })
    | _ -> None
  else None

(* ---- the table ---- *)

type metrics = {
  shard : Obs.Metrics.shard;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
}

(* The store is the sidecar's own bytes. [buf.[0 .. used-1]] holds the
   kept entry lines, each as the sidecar writes it: a loaded file's text
   as read (its header and any line the load did not keep are there too,
   unreferenced), then the lines [add] appended. Entry [i] is [ents.(i)];
   [spans] holds, per entry, its line's start and length (without the
   newline), its key's length and its key's hash. [slots] is an
   open-addressing index, a power of two long and at most half full: a
   slot holds an entry number plus one, 0 when empty. A probe compares a
   key's bytes only when the stored hash matches. *)
type t = {
  label : string;
      (* workload+config identity (the checkpoint label); schedule keys are
         decision lists with no workload in them, so a sidecar is only safe
         to warm from when the labels agree *)
  budget : int;
  mutable buf : Bytes.t;
      (* never written below [used]: an adopted text stays as it was read *)
  mutable used : int;
  mutable ents : entry array;
  mutable spans : int array;
  mutable count : int;
  mutable slots : int array;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  m : Mutex.t;
  line : Buffer.t;  (* [add]'s scratch for the entry line, under [m] *)
  metrics : metrics option;
  mutable synced : (string * int) option;
      (* the file that holds [to_string] as of that many entries, if any:
         no entry is ever removed, so an unchanged count means unchanged
         contents, and a save to it would rewrite the same bytes *)
}

let default_budget_bytes = 64 * 1024 * 1024

(* Fields of an entry in [spans]. *)
let stride = 4
let line_off t e = Array.unsafe_get t.spans (stride * e)
let line_len t e = Array.unsafe_get t.spans ((stride * e) + 1)
let key_len t e = Array.unsafe_get t.spans ((stride * e) + 2)
let key_hash t e = Array.unsafe_get t.spans ((stride * e) + 3)

let no_entry = { vtime = 0.0; wildcards = 0; errors = []; epochs = [] }

let create ?metrics ?(label = "") ~budget_bytes () =
  {
    label;
    budget = max 0 budget_bytes;
    buf = Bytes.empty;
    used = 0;
    ents = Array.make 16 no_entry;
    spans = Array.make (stride * 16) 0;
    count = 0;
    slots = Array.make 32 0;
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

(* The entry whose key is [s.[i .. j-1]], of hash [h], probing from
   slot [p], or -1. *)
let rec probe t text h s i j p =
  let e = Array.unsafe_get t.slots p - 1 in
  if e < 0 then -1
  else if
    key_hash t e = h
    && key_len t e = j - i
    && equal_span text (line_off t e + key_start) s i (j - i)
  then e
  else probe t text h s i j ((p + 1) land (Array.length t.slots - 1))

let lookup t h s i j =
  probe t (Bytes.unsafe_to_string t.buf) h s i j (h land (Array.length t.slots - 1))

(* Put entry [e] in the first free slot from [p]. *)
let rec place slots e p =
  if Array.unsafe_get slots p = 0 then Array.unsafe_set slots p (e + 1)
  else place slots e ((p + 1) land (Array.length slots - 1))

(* Room in the index for [n] entries at most half full. *)
let reserve_index t n =
  if 2 * n > Array.length t.slots then begin
    let cap = ref (Array.length t.slots) in
    while 2 * n > !cap do
      cap := 2 * !cap
    done;
    let slots = Array.make !cap 0 in
    for e = 0 to t.count - 1 do
      place slots e (key_hash t e land (!cap - 1))
    done;
    t.slots <- slots
  end

(* Room in [buf] for [n] more bytes. *)
let reserve_buf t n =
  if t.used + n > Bytes.length t.buf then begin
    let buf = Bytes.create (max (t.used + n) (max 4096 (2 * Bytes.length t.buf))) in
    Bytes.blit t.buf 0 buf 0 t.used;
    t.buf <- buf
  end

(* Caller holds [t.m] and has checked the key absent and the cost within
   the budget: entry [count] is [e], its line at [off] of [len] bytes. *)
let insert t e ~off ~len ~klen ~h =
  if t.count = Array.length t.ents then begin
    let cap = 2 * t.count in
    let ents = Array.make cap no_entry and spans = Array.make (stride * cap) 0 in
    Array.blit t.ents 0 ents 0 t.count;
    Array.blit t.spans 0 spans 0 (stride * t.count);
    t.ents <- ents;
    t.spans <- spans
  end;
  reserve_index t (t.count + 1);
  let n = t.count in
  t.ents.(n) <- e;
  let s = stride * n in
  t.spans.(s) <- off;
  t.spans.(s + 1) <- len;
  t.spans.(s + 2) <- klen;
  t.spans.(s + 3) <- h;
  place t.slots n (h land (Array.length t.slots - 1));
  t.count <- n + 1;
  t.bytes <- t.bytes + len + 1

let find t ?key decisions =
  let key =
    match key with Some k -> k | None -> Checkpoint.schedule_key decisions
  in
  let n = String.length key in
  let h = hash_span key 0 n in
  Mutex.lock t.m;
  let e = lookup t h key 0 n in
  let r =
    if e >= 0 then begin
      t.hits <- t.hits + 1;
      Option.iter (fun ms -> Obs.Metrics.incr ms.m_hits) t.metrics;
      Some t.ents.(e)
    end
    else begin
      t.misses <- t.misses + 1;
      Option.iter (fun ms -> Obs.Metrics.incr ms.m_misses) t.metrics;
      None
    end
  in
  Mutex.unlock t.m;
  r

(* A present key is left as it is (replays are deterministic, so a re-add
   carries the same artifact), and an entry that does not fit in what is
   left of the budget is refused; a kept line is appended to [buf]. *)
let add t ?key decisions entry =
  let key =
    match key with Some k -> k | None -> Checkpoint.schedule_key decisions
  in
  let klen = String.length key in
  let h = hash_span key 0 klen in
  Mutex.lock t.m;
  Buffer.clear t.line;
  add_entry_line t.line ~key entry;
  let len = Buffer.length t.line in
  if len + 1 <= t.budget - t.bytes && lookup t h key 0 klen < 0 then begin
    reserve_buf t (len + 1);
    let off = t.used in
    Buffer.blit t.line 0 t.buf off len;
    Bytes.unsafe_set t.buf (off + len) '\n';
    t.used <- off + len + 1;
    insert t entry ~off ~len ~klen ~h
  end;
  set_bytes_gauge t;
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  let r = (t.hits, t.misses, t.bytes) in
  Mutex.unlock t.m;
  r

(* ---- sidecar persistence ---- *)

let header = "# DAMPI prefix cache\nversion 1\n"

(* The kept lines' slices, each with its newline: the bytes they were
   charged. *)
let to_string t =
  Mutex.lock t.m;
  let label = "label " ^ Checkpoint.enc t.label ^ "\n" in
  let out = Bytes.create (String.length header + String.length label + t.bytes) in
  Bytes.blit_string header 0 out 0 (String.length header);
  Bytes.blit_string label 0 out (String.length header) (String.length label);
  let pos = ref (String.length header + String.length label) in
  for e = 0 to t.count - 1 do
    let len = line_len t e in
    Bytes.blit t.buf (line_off t e) out !pos len;
    Bytes.unsafe_set out (!pos + len) '\n';
    pos := !pos + len + 1
  done;
  Mutex.unlock t.m;
  Bytes.unsafe_to_string out

(* Index the lines of [text.[pos ..]] in one pass. The text becomes the
   buffer: adopted as it is into a cache that holds no bytes yet, copied
   after what it holds otherwise. Each line is taken as read: a line this
   code wrote costs exactly what [add] charged for it ([entry_line]'s
   length plus the newline), so the key and the cost need no re-encoding.
   A line whose key or entry does not parse is skipped. With [path], a
   load after which [to_string] would give the text back marks the cache
   as saved there: the cache was empty, no line was skipped, refused or a
   duplicate, and the last line ends in a newline. *)
let load_lines ?path t src pos =
  let n = String.length src in
  let pos = min pos n in
  Mutex.lock t.m;
  let empty = t.count = 0 in
  let text, pos, stop =
    if t.used = 0 then begin
      t.buf <- Bytes.unsafe_of_string src;
      t.used <- n;
      (src, pos, n)
    end
    else begin
      let base = t.used in
      reserve_buf t (n - pos);
      Bytes.blit_string src pos t.buf base (n - pos);
      t.used <- base + n - pos;
      (Bytes.unsafe_to_string t.buf, base, t.used)
    end
  in
  (* Sized for a line per 128 bytes (adlb2's average 245); shorter lines
     grow the index as they come. *)
  reserve_index t (t.count + ((stop - pos) / 128));
  let known = Hashtbl.create 64 in
  let rec go pos lines skipped =
    if pos >= stop then (lines, skipped)
    else
      let eol = find_char text '\n' pos stop in
      match entry_at known text pos eol with
      | Some (key_end, e) ->
          let ks = pos + key_start in
          let h = hash_span text ks key_end in
          if eol - pos + 1 <= t.budget - t.bytes && lookup t h text ks key_end < 0
          then insert t e ~off:pos ~len:(eol - pos) ~klen:(key_end - ks) ~h;
          go (eol + 1) (lines + 1) skipped
      | None -> go (eol + 1) lines true
  in
  let lines, skipped = go pos 0 false in
  let exact =
    empty && (not skipped) && t.count = lines && src.[n - 1] = '\n'
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
  let entries = t.count in
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
