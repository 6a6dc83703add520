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
  List.fold_left
    (fun n (s : Epoch.summary) -> if s.Epoch.s_expandable then n else n + 1)
    0 e.epochs

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

(* A key's hash mixes its words from a fixed seed and its length last,
   so the state after a key's first [w] words depends on those words
   alone: a load carries it over from the previous key (see
   [load_lines]). [key_final h n] is the hash of an [n]-byte key whose
   last (partial) word is mixed into [h]. *)
let key_final h n =
  let h = mix h n * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let hash_key s i j = key_final (hash_words s 0 i j) (j - i)

(* [a.[i .. i+n-1]] = [b.[j .. j+n-1]] (both in bounds). *)
let rec equal_span a i b j n =
  if n >= 8 then (get64u a i : int64) = get64u b j && equal_span a (i + 8) b (j + 8) (n - 8)
  else
    n = 0
    || (String.unsafe_get a i = String.unsafe_get b j && equal_span a (i + 1) b (j + 1) (n - 1))

(* The entry whose result tail [VTIME WILDCARDS EPOCHS ERRORS] is
   [text.[i .. j-1]], or [None] if the tail does not parse: the fields are
   found on the line, and only the fields themselves are cut out. *)
let result_of_tail text i j =
  let s3 = find_char text ' ' i j in
  let s4 = find_char text ' ' (s3 + 1) j in
  let s5 = find_char text ' ' (s4 + 1) j in
  if s5 < j && find_char text ' ' (s5 + 1) j = j then
    let errors =
      if s5 + 2 = j && text.[s5 + 1] = '-' then Some []
      else parse_errors (String.sub text (s5 + 1) (j - s5 - 1))
    in
    match
      ( float_of_string_opt (String.sub text i (s3 - i)),
        int_of_string_opt (String.sub text (s3 + 1) (s4 - s3 - 1)),
        Checkpoint.sleep_of_key (String.sub text (s4 + 1) (s5 - s4 - 1)),
        errors )
    with
    | Some vtime, Some wildcards, Some epochs, Some errors ->
        Some { vtime; wildcards; errors; epochs }
    | _ -> None
  else None

(* ---- keys: what a line shares with the previous one ---- *)

(* The length of the common prefix of [s.[i .. i+n-1]] and
   [s.[j .. j+n-1]], a word at a time. *)
let rec shared s i j k n =
  if k + 8 <= n && (get64u s (i + k) : int64) = get64u s (j + k) then shared s i j (k + 8) n
  else shared_bytes s i j k n

and shared_bytes s i j k n =
  if k < n && String.unsafe_get s (i + k) = String.unsafe_get s (j + k) then
    shared_bytes s i j (k + 1) n
  else k

(* The last [,] in [s.[i .. j-1]], or -1. *)
let rec last_comma s i j =
  if j <= i then -1 else if String.unsafe_get s (j - 1) = ',' then j - 1 else last_comma s i (j - 1)

(* [s.[i .. j-1]] is [,]-joined decisions: a schedule key other than the
   empty schedule's [-]. *)
let decisions_ok s i j =
  not (j = i + 1 && String.unsafe_get s i = '-') && Checkpoint.is_schedule_key s i j

(* [s.[i .. j-1]] is a schedule key, given that its first [d] bytes are
   those of the checked key at [p] ([p < 0] when there is none). A key is
   [-] or [,]-joined decisions, each checked on its own, so the decisions
   before the last [,] of the shared bytes were checked with the previous
   key, and only the ones after it are read. *)
let key_ok s i j ~p ~d =
  let c = if p < 0 then -1 else last_comma s i (i + d) in
  if c < 0 then Checkpoint.is_schedule_key s i j else decisions_ok s (c + 1) j

(* ---- the table ---- *)

type metrics = {
  shard : Obs.Metrics.shard;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
}

(* The store is the sidecar's own bytes. [buf.[0 .. used-1]] holds the
   kept entry lines, each as the sidecar writes it: a loaded file's text
   as read (its header and any line the load did not keep are there too,
   unreferenced), then the lines [add] appended. A line is
   [entry KEY TAIL]; its tail, [VTIME WILDCARDS EPOCHS ERRORS], is the
   entry's result, and a sidecar repeats few of them (adlb2: 2,934
   distinct over 32,118 lines). Result [r] is [results.(r)], parsed once;
   [rspans] holds, per result, its tail's first occurrence in [buf]:
   start, length and hash. [spans] holds, per entry, its line's start,
   its key's length and hash, and its result: the line is
   [key_start + key length + 1 + tail length] bytes long. [slots] and
   [rslots] are open-addressing indexes over the keys and the tails, each
   a power of two long and at most half full: a slot holds an entry (a
   result) number plus one, 0 when empty. A probe compares bytes only
   when the stored hash matches, so equal hashes never merge two keys or
   two tails. *)
type t = {
  label : string;
      (* workload+config identity (the checkpoint label); schedule keys are
         decision lists with no workload in them, so a sidecar is only safe
         to warm from when the labels agree *)
  budget : int;
  mutable buf : Bytes.t;
      (* never written below [used]: an adopted text stays as it was read *)
  mutable used : int;
  mutable spans : int array;
  mutable count : int;
  mutable slots : int array;
  mutable results : entry array;
  mutable rspans : int array;
  mutable rcount : int;
  mutable rslots : int array;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  m : Mutex.t;
  line : Buffer.t;  (* [add]'s scratch for the entry line, under [m] *)
  mutable cursor : int;
      (* the entry after the last hit: a walk in the sidecar's order asks
         for it next *)
  metrics : metrics option;
  mutable synced : (string * int) option;
      (* the file that holds [to_string] as of that many entries, if any:
         no entry is ever removed, so an unchanged count means unchanged
         contents, and a save to it would rewrite the same bytes *)
}

let default_budget_bytes = 64 * 1024 * 1024

(* Fields of an entry in [spans] and of a result in [rspans]. *)
let stride = 4
let line_off t e = Array.unsafe_get t.spans (stride * e)
let key_len t e = Array.unsafe_get t.spans ((stride * e) + 1)
let key_hash t e = Array.unsafe_get t.spans ((stride * e) + 2)
let result t e = Array.unsafe_get t.spans ((stride * e) + 3)
let rstride = 3
let tail_off t r = Array.unsafe_get t.rspans (rstride * r)
let tail_len t r = Array.unsafe_get t.rspans ((rstride * r) + 1)
let tail_hash t r = Array.unsafe_get t.rspans ((rstride * r) + 2)
let line_len t e = key_start + key_len t e + 1 + tail_len t (result t e)

let no_entry = { vtime = 0.0; wildcards = 0; errors = []; epochs = [] }

let create ?metrics ?(label = "") ~budget_bytes () =
  {
    label;
    budget = max 0 budget_bytes;
    buf = Bytes.empty;
    used = 0;
    spans = Array.make (stride * 16) 0;
    count = 0;
    slots = Array.make 32 0;
    results = Array.make 16 no_entry;
    rspans = Array.make (rstride * 16) 0;
    rcount = 0;
    rslots = Array.make 32 0;
    bytes = 0;
    hits = 0;
    misses = 0;
    m = Mutex.create ();
    line = Buffer.create 256;
    cursor = 0;
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

(* The result whose tail is [text.[i .. j-1]], of hash [h], probing from
   slot [p], or -1. [text] is [buf]'s bytes. *)
let rec rprobe t text h i j p =
  let r = Array.unsafe_get t.rslots p - 1 in
  if r < 0 then -1
  else if
    tail_hash t r = h
    && tail_len t r = j - i
    && equal_span text (tail_off t r) text i (j - i)
  then r
  else rprobe t text h i j ((p + 1) land (Array.length t.rslots - 1))

(* Put number [e] in the first free slot from [p]. *)
let rec place slots e p =
  if Array.unsafe_get slots p = 0 then Array.unsafe_set slots p (e + 1)
  else place slots e ((p + 1) land (Array.length slots - 1))

(* An index at most half full with [n] numbers, holding numbers
   [0 .. have-1] of hashes [hash]. *)
let regrow slots n have hash =
  let cap = ref (Array.length slots) in
  while 2 * n > !cap do
    cap := 2 * !cap
  done;
  let grown = Array.make !cap 0 in
  for e = 0 to have - 1 do
    place grown e (hash e land (!cap - 1))
  done;
  grown

(* Room in the key index for [n] entries. *)
let reserve_index t n =
  if 2 * n > Array.length t.slots then t.slots <- regrow t.slots n t.count (key_hash t)

(* [a] grown to [2 * have] records of [width] words if it is full. *)
let grow_array a ~width ~have fill =
  if width * have < Array.length a then a
  else begin
    let grown = Array.make (2 * width * have) fill in
    Array.blit a 0 grown 0 (width * have);
    grown
  end

(* Room in [buf] for [n] more bytes. *)
let reserve_buf t n =
  if t.used + n > Bytes.length t.buf then begin
    let buf = Bytes.create (max (t.used + n) (max 4096 (2 * Bytes.length t.buf))) in
    Bytes.blit t.buf 0 buf 0 t.used;
    t.buf <- buf
  end

(* The result whose tail is [buf.[i .. j-1]], added (as [e], or parsed
   from the tail when [e] is [None]) if no earlier tail has these bytes;
   -1 if the tail does not parse. *)
let result_at t ?e i j =
  let text = Bytes.unsafe_to_string t.buf in
  let h = hash_span text i j in
  let r = rprobe t text h i j (h land (Array.length t.rslots - 1)) in
  if r >= 0 then r
  else
    match if Option.is_some e then e else result_of_tail text i j with
    | None -> -1
    | Some e ->
        let r = t.rcount in
        t.results <- grow_array t.results ~width:1 ~have:r no_entry;
        t.rspans <- grow_array t.rspans ~width:rstride ~have:r 0;
        t.results.(r) <- e;
        t.rspans.(rstride * r) <- i;
        t.rspans.((rstride * r) + 1) <- j - i;
        t.rspans.((rstride * r) + 2) <- h;
        if 2 * (r + 1) > Array.length t.rslots then
          t.rslots <- regrow t.rslots (r + 1) r (tail_hash t);
        place t.rslots r (h land (Array.length t.rslots - 1));
        t.rcount <- r + 1;
        r

(* Caller holds [t.m] and has checked the key absent and the cost within
   the budget: entry [count] has result [r], its line at [off] of [len]
   bytes. *)
let insert t r ~off ~len ~klen ~h =
  t.spans <- grow_array t.spans ~width:stride ~have:t.count 0;
  reserve_index t (t.count + 1);
  let n = t.count in
  let s = stride * n in
  t.spans.(s) <- off;
  t.spans.(s + 1) <- klen;
  t.spans.(s + 2) <- h;
  t.spans.(s + 3) <- r;
  place t.slots n (h land (Array.length t.slots - 1));
  t.count <- n + 1;
  t.bytes <- t.bytes + len + 1

(* The entry at the cursor if its key is [key], else the index's: keys
   are unique, so the two agree whenever the cursor's key matches. *)
let entry_of_key t key =
  let n = String.length key and c = t.cursor in
  if
    c < t.count
    && key_len t c = n
    && equal_span (Bytes.unsafe_to_string t.buf) (line_off t c + key_start) key 0 n
  then c
  else lookup t (hash_key key 0 n) key 0 n

let find t ?key decisions =
  let key =
    match key with Some k -> k | None -> Checkpoint.schedule_key decisions
  in
  Mutex.lock t.m;
  let e = entry_of_key t key in
  let r =
    if e >= 0 then begin
      t.cursor <- e + 1;
      t.hits <- t.hits + 1;
      Option.iter (fun ms -> Obs.Metrics.incr ms.m_hits) t.metrics;
      Some t.results.(result t e)
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
   left of the budget is refused; a kept line is appended to [buf], and
   its result is the one of the first tail with its bytes. *)
let add t ?key decisions entry =
  let key =
    match key with Some k -> k | None -> Checkpoint.schedule_key decisions
  in
  let klen = String.length key in
  let h = hash_key key 0 klen in
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
    let r = result_at t ~e:entry (off + key_start + klen + 1) (off + len) in
    insert t r ~off ~len ~klen ~h
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
   A line pays for what it does not share with the line before: its key
   is compared with the previous line's, if that one was checked, only
   the decisions past their last shared [,] are checked, and its hash
   goes on from the state after the whole words they share; its tail is
   looked up among the tails met so far and parsed only when new. A line
   whose key or tail does not parse is skipped. With [path], a load
   after which [to_string] would give the text back marks the cache as
   saved there: the cache was empty, no line was skipped, refused or a
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
  (* [states.(w)]: the key hash's state after the previous checked key's
     first [w] words ([states.(0)], the seed, is 0). *)
  let states = ref (Array.make 32 0) in
  (* The hash of the key [text.[ks .. ke-1]], hashed on at [p] from the
     state [h] after its first [w] words, recording the state after each
     further whole word. *)
  let rec hash_on ks ke h p w =
    if p + 8 > ke then key_final (hash_tail text h 0 p ke) (ke - ks)
    else begin
      let h = mix h (Int64.to_int (get64u text p)) in
      if w + 1 = Array.length !states then begin
        let grown = Array.make (2 * (w + 1)) 0 in
        Array.blit !states 0 grown 0 (w + 1);
        states := grown
      end;
      Array.unsafe_set !states (w + 1) h;
      hash_on ks ke h (p + 8) (w + 1)
    end
  in
  (* [p], [plen]: the previous line's key, if it was checked, else -1. *)
  let rec go pos p plen lines skipped =
    if pos >= stop then (lines, skipped)
    else if not (pos + key_start <= stop && holds text pos "entry " 0) then
      go (find_char text '\n' pos stop + 1) (-1) 0 lines true
    else
      let ks = pos + key_start in
      (* The shared bytes hold no space or newline: the previous key's. *)
      let d = if p < 0 then 0 else shared text p ks 0 (min plen (stop - ks)) in
      let eol = find_char text '\n' (ks + d) stop in
      let ke = find_char text ' ' (ks + d) eol in
      if not (ke < eol && key_ok text ks ke ~p ~d) then go (eol + 1) (-1) 0 lines true
      else
        (* The words the key shares whole with the previous checked key
           have its states. *)
        let w = if p < 0 then 0 else d / 8 in
        let h = hash_on ks ke (Array.unsafe_get !states w) (ks + (8 * w)) w in
        let r = result_at t (ke + 1) eol in
        if r < 0 then go (eol + 1) ks (ke - ks) lines true
        else begin
          if eol - pos + 1 <= t.budget - t.bytes && lookup t h text ks ke < 0 then
            insert t r ~off:pos ~len:(eol - pos) ~klen:(ke - ks) ~h;
          go (eol + 1) ks (ke - ks) (lines + 1) skipped
        end
  in
  let lines, skipped = go pos (-1) 0 0 false in
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

(* The file's bytes in one read of the length it has when opened. *)
let read_sidecar path =
  In_channel.with_open_bin path (fun ic ->
      In_channel.really_input_string ic (Int64.to_int (In_channel.length ic)))

let load t path =
  match read_sidecar path with
  | Some text -> load_text ~path t text
  | None -> refuse t (path ^ ": shorter than its length")
  | exception Sys_error msg -> refuse t msg
