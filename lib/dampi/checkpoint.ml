(* On-disk checkpoint of an exploration: canonical counters + findings so
   far, and the outstanding frontier.
   See checkpoint.mli for the resume contract.

   The format is line-oriented text, versioned, and self-contained — it is
   the wire format a distributed mode will ship between workers, so nothing
   here may depend on in-process state. Every free-form string (finding
   messages, workload labels) is percent-encoded to keep the grammar
   whitespace-delimited. *)

let version = 3

type item = {
  prefix : Decisions.decision list;
  prefix_key : string;  (** [schedule_key prefix], shared by siblings *)
  choice : Decisions.decision;
  sleep : Epoch.summary list;
      (** sleep set inherited from the ancestors that created this item:
          epochs whose alternatives are already covered by a sibling
          subtree. Shipped with the item (and over the wire) so pruning is
          deterministic wherever the item executes. *)
}

type totals = {
  mutable runs : int;
  mutable cancelled : int;
  mutable timed_out : int;
  mutable retried : int;
  mutable crashed : int;
  mutable alerts : int;
  mutable bounded : int;
  mutable wildcards : int;
  mutable first_makespan : float;
  mutable total_vtime : float;
  mutable pruned : int;
}

let zero_totals () =
  { runs = 0; cancelled = 0; timed_out = 0; retried = 0; crashed = 0; alerts = 0;
    bounded = 0; wildcards = 0; first_makespan = 0.0; total_vtime = 0.0; pruned = 0 }

type t = {
  label : string;  (** workload identity; validated on resume *)
  np : int;
  complete : bool;  (** frontier empty: resuming just re-reports *)
  totals : totals;
  findings : Report.finding list;
  frontier : item list;
  epoch : int;  (** highest fencing epoch granted (distributed mode; 0
                    when the run was never distributed) *)
}

(* ---- percent-encoding (RFC 3986 unreserved set) ---- *)

let unreserved c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '.' || c = '~'

let hex_digits = "0123456789ABCDEF"

let add_enc b s =
  String.iter
    (fun c ->
      if unreserved c then Buffer.add_char b c
      else begin
        Buffer.add_char b '%';
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]
      end)
    s

let enc s =
  let b = Buffer.create (String.length s) in
  add_enc b s;
  Buffer.contents b

let dec s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code -> Buffer.add_char b (Char.chr code)
        | None -> Buffer.add_string b (String.sub s i 3));
        go (i + 3)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* ---- schedule keys ---- *)

(* The encoders append into a caller's buffer: keys are built once per
   frontier item and once per cache entry, so they avoid Printf and
   intermediate lists. Their output is persisted (checkpoints, sidecars) and
   framed on the wire, so it must not change by a byte. *)

(* Ranks, epoch ids and sources are almost always below 100, and a warm
   re-run encodes millions of them: writing their digits directly skips
   [string_of_int]'s C-format call, which cost a third of that run. *)
let add_int b n =
  if n >= 0 && n < 100 then begin
    if n >= 10 then Buffer.add_char b (Char.unsafe_chr (48 + (n / 10)));
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end
  else Buffer.add_string b (string_of_int n)

(* What [Printf "%h"] prints (the runtime primitive behind it, at its
   default precision): hex floats round-trip exactly. *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

let add_hex_float b f = Buffer.add_string b (hexstring_of_float f (-6) '-')

let add_joined b sep add_one = function
  | [] -> ()
  | x :: tl ->
      add_one b x;
      List.iter
        (fun x ->
          Buffer.add_char b sep;
          add_one b x)
        tl

let add_decision b (d : Decisions.decision) =
  Buffer.add_string b (Decisions.kind_to_string d.Decisions.kind);
  Buffer.add_char b ':';
  add_int b d.Decisions.owner;
  Buffer.add_char b ':';
  add_int b d.Decisions.epoch_id;
  Buffer.add_char b ':';
  add_int b d.Decisions.src

let decision_to_key d =
  let b = Buffer.create 16 in
  add_decision b d;
  Buffer.contents b

let add_schedule_key b = function
  | [] -> Buffer.add_char b '-'
  | ds -> add_joined b ',' add_decision ds

let schedule_key ds =
  let b = Buffer.create 128 in
  add_schedule_key b ds;
  Buffer.contents b

let make_item ?prefix_key ~prefix ~choice ~sleep () =
  let prefix_key =
    match prefix_key with Some k -> k | None -> schedule_key prefix
  in
  { prefix; prefix_key; choice; sleep }

(* Keys grown from a prefix key are built in one buffer per domain, so
   each allocates only itself. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

(* The prefix is copied, never encoded again. *)
let item_key it =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  if it.prefix <> [] then begin
    Buffer.add_string b it.prefix_key;
    Buffer.add_char b ','
  end;
  add_decision b it.choice;
  Buffer.contents b

let same_schedule a b =
  a == b
  || (a.choice.Decisions.src = b.choice.Decisions.src
     && a.choice.Decisions.epoch_id = b.choice.Decisions.epoch_id
     && a.choice.Decisions.owner = b.choice.Decisions.owner
     && a.choice.Decisions.kind = b.choice.Decisions.kind
     && String.equal a.prefix_key b.prefix_key)

(* ---- epoch summaries (sleep sets) ----

   One summary per colon-joined token; a sleep set joins summaries with
   [;]. Alternatives are [.]-joined inside their field ([~] when empty) so
   a summary never contains whitespace and survives the space-delimited
   item grammar. *)

let add_summary b (s : Epoch.summary) =
  let field n =
    Buffer.add_char b ':';
    add_int b n
  in
  Buffer.add_string b (Decisions.kind_to_string s.Epoch.s_kind);
  field s.Epoch.s_owner;
  field s.Epoch.s_id;
  field s.Epoch.s_ctx;
  field s.Epoch.s_tag;
  field s.Epoch.s_matched;
  Buffer.add_string b (if s.Epoch.s_expandable then ":1:" else ":0:");
  match s.Epoch.s_alternatives with
  | [] -> Buffer.add_char b '~'
  | alts -> add_joined b '.' add_int alts

let summary_to_key s =
  let b = Buffer.create 32 in
  add_summary b s;
  Buffer.contents b

let add_sleep_key b = function
  | [] -> Buffer.add_char b '-'
  | ss -> add_joined b ';' add_summary ss

let sleep_key ss =
  let b = Buffer.create 64 in
  add_sleep_key b ss;
  Buffer.contents b

(* ---- key parsers ----

   The parsers read a key in place, in one pass: a cursor walks the text
   and each field is read up to its delimiter. A sidecar load and a
   checkpoint resume parse tens of thousands of keys, and splitting each
   into substrings and lists cost more than the lookups they feed, so they
   make no substring per field, no list of parts and no closure per scan.

   The language they accept and the values they read are exactly those of
   splitting at the delimiters, outermost first, and reading each number
   with [int_of_string_opt]. A field here runs to its own delimiter, and
   none of the delimiters [, ; : .] is a character [int_of_string_opt]
   accepts or a kind contains: where the split form would find a wrong
   count of parts, a field here takes in a foreign delimiter and fails.

   The internal parsers raise [Malformed]; the exported ones catch it. *)

exception Malformed

(* A parse of [s.[pos .. stop-1]]. Reading a field moves [pos] past the
   delimiter that ends it, or to [stop + 1] when the text ends it. *)
type cursor = { s : string; stop : int; mutable pos : int }

(* The first [c] in [s.[p .. j-1]], or [j] (or [p], when [p >= j]). *)
let rec find_char s c p j =
  if p >= j || String.unsafe_get s p = c then p else find_char s c (p + 1) j

let rec find_either s c1 c2 p j =
  if p >= j then p
  else
    let c = String.unsafe_get s p in
    if c = c1 || c = c2 then p else find_either s c1 c2 (p + 1) j

let rec same s i lit k =
  k = String.length lit
  || (String.unsafe_get s (i + k) = String.unsafe_get lit k && same s i lit (k + 1))

(* [s.[i .. j-1]] is the literal [lit]. *)
let is s i j lit = j - i = String.length lit && same s i lit 0

(* The field at the cursor is the literal [lit], ended by [d] or the end. *)
let at_lit c lit d =
  let e = c.pos + String.length lit in
  e <= c.stop && same c.s c.pos lit 0 && (e = c.stop || String.unsafe_get c.s e = d)

(* Reads the digits from [p] onto [acc] and stops the cursor at the first
   other character. *)
let rec digits c p acc =
  if p < c.stop then
    match String.unsafe_get c.s p with
    | '0' .. '9' as ch -> digits c (p + 1) ((acc * 10) + Char.code ch - 48)
    | _ ->
        c.pos <- p;
        acc
  else begin
    c.pos <- p;
    acc
  end

(* The number in the field at the cursor, which runs to the first [d1] or
   [d2]. An optional [-] and 1 to 18 decimal digits (so no overflow) are
   read directly; any other field (empty, [+3], [0x1F], [1_000], 19 or
   more digits) goes to [int_of_string_opt] on its substring. *)
let int_field c d1 d2 =
  let i = c.pos in
  if i > c.stop then raise_notrace Malformed;
  let k = if i < c.stop && String.unsafe_get c.s i = '-' then i + 1 else i in
  let n = digits c k 0 in
  let e = c.pos in
  if
    e - k >= 1 && e - k <= 18
    && (e = c.stop
       ||
       let ch = String.unsafe_get c.s e in
       ch = d1 || ch = d2)
  then begin
    c.pos <- e + 1;
    if k > i then -n else n
  end
  else
    let e = find_either c.s d1 d2 e c.stop in
    c.pos <- e + 1;
    match int_of_string_opt (String.sub c.s i (e - i)) with
    | Some n -> n
    | None -> raise_notrace Malformed

(* The text ended the last field read, not a delimiter. *)
let at_end c = c.pos > c.stop

let kind_field c =
  if at_lit c "recv" ':' then begin
    c.pos <- c.pos + 5;
    Epoch.Wildcard_recv
  end
  else if at_lit c "probe" ':' then begin
    c.pos <- c.pos + 6;
    Epoch.Wildcard_probe
  end
  else raise_notrace Malformed

(* [KIND:OWNER:EPOCH:SRC], ended by [,] or the end *)
let decision c =
  let kind = kind_field c in
  let owner = int_field c ':' ':' in
  let epoch_id = int_field c ':' ':' in
  let src = int_field c ',' ',' in
  { Decisions.owner; epoch_id; src; kind }

(* [decision] for its failure alone: checks a key without building it. *)
let skip_decision c =
  ignore (kind_field c : Epoch.kind);
  for _ = 1 to 2 do
    ignore (int_field c ':' ':' : int)
  done;
  ignore (int_field c ',' ',' : int)

let rec decisions c =
  let d = decision c in
  if at_end c then [ d ] else d :: decisions c

let rec skip_decisions c =
  skip_decision c;
  if not (at_end c) then skip_decisions c

(* [-], or [,]-joined decisions *)
let schedule c = if is c.s c.pos c.stop "-" then [] else decisions c

(* ALTS: [~], or [.]-joined numbers; ended by [;] or the end *)
let rec alternatives c =
  let n = int_field c '.' ';' in
  if at_end c || String.unsafe_get c.s (c.pos - 1) = ';' then [ n ] else n :: alternatives c

(* [KIND:OWNER:ID:CTX:TAG:MATCHED:0|1:ALTS], ended by [;] or the end *)
let summary c =
  let s_kind = kind_field c in
  let s_owner = int_field c ':' ':' in
  let s_id = int_field c ':' ':' in
  let s_ctx = int_field c ':' ':' in
  let s_tag = int_field c ':' ':' in
  let s_matched = int_field c ':' ':' in
  let s_expandable =
    if at_lit c "1" ':' then true
    else if at_lit c "0" ':' then false
    else raise_notrace Malformed
  in
  c.pos <- c.pos + 2;
  let s_alternatives =
    if at_lit c "~" ';' then begin
      c.pos <- c.pos + 2;
      []
    end
    else alternatives c
  in
  { Epoch.s_owner; s_id; s_kind; s_ctx; s_tag; s_matched; s_alternatives; s_expandable }

let rec summaries c =
  let x = summary c in
  if at_end c then [ x ] else x :: summaries c

(* [-], or [;]-joined summaries *)
let sleep c = if is c.s c.pos c.stop "-" then [] else summaries c

let parse f s i j =
  match f { s; stop = j; pos = i } with v -> Some v | exception Malformed -> None

let schedule_of_key s = parse schedule s 0 (String.length s)
let sleep_of_key s = parse sleep s 0 (String.length s)

(* ---- the direct key walk ----

   A sidecar load checks every key. It walks the digits in place, with no
   cursor and no [int_field]: a decision whose
   fields are each an optional [-] and 1 to 18 digits is read here, and
   the walk gives up (returns false) on anything else, which then goes to
   the cursor parser above. The walk accepts only what that parser
   accepts, so the language is unchanged. *)

let rec digits_end s p j =
  if p < j then match String.unsafe_get s p with '0' .. '9' -> digits_end s (p + 1) j | _ -> p
  else p

(* The end of the number at [p] if it is an optional [-] and 1 to 18
   digits; else -1. *)
let num_end s p j =
  let k = if p < j && String.unsafe_get s p = '-' then p + 1 else p in
  let e = digits_end s k j in
  if e = k || e - k > 18 then -1 else e

(* ["recv"] and ["prob"] as [String.get_int32_le] reads them. *)
let recv_word = 0x76636572l
let prob_word = 0x626f7270l

(* [s.[p .. j-1]] is [,]-joined decisions, each read directly. *)
let rec walk_decisions s p j =
  let p =
    if p + 6 > j then -1
    else
      let w = String.get_int32_le s p in
      if Int32.equal w recv_word && String.unsafe_get s (p + 4) = ':' then p + 5
      else if
        Int32.equal w prob_word
        && String.unsafe_get s (p + 4) = 'e'
        && String.unsafe_get s (p + 5) = ':'
      then p + 6
      else -1
  in
  p >= 0
  &&
  let e = num_end s p j in
  e >= 0 && e < j
  && String.unsafe_get s e = ':'
  &&
  let e = num_end s (e + 1) j in
  e >= 0 && e < j
  && String.unsafe_get s e = ':'
  &&
  let e = num_end s (e + 1) j in
  e = j || (e >= 0 && String.unsafe_get s e = ',' && walk_decisions s (e + 1) j)

let is_schedule_key s i j =
  is s i j "-"
  || walk_decisions s i j
  || match skip_decisions { s; stop = j; pos = i } with
     | () -> true
     | exception Malformed -> false

(* ---- frontier items ----
   "item PREFIX CHOICE [SLEEP]": one line per pending item, shared by the
   checkpoint's frontier and the wire's lease and result frames. In a
   checkpoint, PREFIX is [=] when the previous item line has the same
   prefix; the wire never passes [prev], so its lines always spell the
   prefix out. *)

let add_item_line ?prev b it =
  Buffer.add_string b "item ";
  (match prev with
  | Some p when String.equal p.prefix_key it.prefix_key -> Buffer.add_char b '='
  | _ -> Buffer.add_string b it.prefix_key);
  Buffer.add_char b ' ';
  add_decision b it.choice;
  if it.sleep <> [] then begin
    Buffer.add_char b ' ';
    add_sleep_key b it.sleep
  end;
  Buffer.add_char b '\n'

let item_of_line ?prev line =
  (* [item PREFIX CHOICE] predates pruning and still parses: sleep
     defaults to empty. *)
  let n = String.length line in
  let s1 = find_char line ' ' 5 n in
  let s2 = find_char line ' ' (s1 + 1) n in
  let s3 = find_char line ' ' (s2 + 1) n in
  match
    if not (n > 5 && is line 0 5 "item " && s1 < n && s3 >= n) then raise_notrace Malformed;
    let c = { s = line; stop = s2; pos = s1 + 1 } in
    let choice = decision c in
    if not (at_end c) then raise_notrace Malformed;
    let sleep = if s2 >= n then [] else sleep { s = line; stop = n; pos = s2 + 1 } in
    match prev with
    | Some p when is line 5 s1 "=" ->
        make_item ~prefix_key:p.prefix_key ~prefix:p.prefix ~choice ~sleep ()
    | _ ->
        let prefix = schedule { s = line; stop = s1; pos = 5 } in
        make_item ~prefix ~choice ~sleep ()
  with
  | it -> Ok it
  | exception Malformed -> Error (Printf.sprintf "malformed item line %S" line)

(* ---- error serialization ---- *)

let error_to_line = function
  | Report.Deadlock { blocked } ->
      Printf.sprintf "deadlock %s"
        (String.concat ";"
           (List.map
              (fun (pid, r) -> Printf.sprintf "%d:%s" pid (enc r))
              blocked))
  | Report.Crash { pid; message } ->
      Printf.sprintf "crash %d:%s" pid (enc message)
  | Report.Comm_leak { pid; labels } ->
      Printf.sprintf "commleak %d:%s" pid
        (String.concat ";" (List.map enc labels))
  | Report.Request_leak { pid; count } ->
      Printf.sprintf "reqleak %d:%d" pid count
  | Report.Monitor_alert { pid; epoch_id; op } ->
      Printf.sprintf "monitor %d:%d:%s" pid epoch_id (enc op)
  | Report.Replay_divergence { count } ->
      Printf.sprintf "divergence %d" count

let error_of_line tag payload =
  let int_pair s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
    | _ -> None
  in
  match tag with
  | "deadlock" ->
      let parse_one entry =
        match String.index_opt entry ':' with
        | Some i -> (
            match int_of_string_opt (String.sub entry 0 i) with
            | Some pid ->
                Some
                  ( pid,
                    dec (String.sub entry (i + 1) (String.length entry - i - 1))
                  )
            | None -> None)
        | None -> None
      in
      let blocked =
        List.map parse_one
          (if payload = "" then [] else String.split_on_char ';' payload)
      in
      if List.exists Option.is_none blocked then None
      else Some (Report.Deadlock { blocked = List.filter_map Fun.id blocked })
  | "crash" -> (
      match String.index_opt payload ':' with
      | Some i -> (
          match int_of_string_opt (String.sub payload 0 i) with
          | Some pid ->
              Some
                (Report.Crash
                   {
                     pid;
                     message =
                       dec
                         (String.sub payload (i + 1)
                            (String.length payload - i - 1));
                   })
          | None -> None)
      | None -> None)
  | "commleak" -> (
      match String.index_opt payload ':' with
      | Some i -> (
          match int_of_string_opt (String.sub payload 0 i) with
          | Some pid ->
              let labels =
                String.sub payload (i + 1) (String.length payload - i - 1)
              in
              Some
                (Report.Comm_leak
                   {
                     pid;
                     labels =
                       (if labels = "" then []
                        else List.map dec (String.split_on_char ';' labels));
                   })
          | None -> None)
      | None -> None)
  | "reqleak" -> (
      match int_pair payload with
      | Some (pid, count) -> Some (Report.Request_leak { pid; count })
      | None -> None)
  | "monitor" -> (
      match String.split_on_char ':' payload with
      | [ pid; epoch_id; op ] -> (
          match (int_of_string_opt pid, int_of_string_opt epoch_id) with
          | Some pid, Some epoch_id ->
              Some (Report.Monitor_alert { pid; epoch_id; op = dec op })
          | _ -> None)
      | _ -> None)
  | "divergence" -> (
      match int_of_string_opt payload with
      | Some count -> Some (Report.Replay_divergence { count })
      | None -> None)
  | _ -> None

(* ---- document ---- *)

(* The scalar header lines, one row each, in file order: the key, the
   printed value ([None] omits the line) and the parser ([None] rejects the
   value). A total's parser writes into the document's own [totals], which
   {!of_string} creates fresh. *)
type row = { key : string; show : t -> string option; read : string -> t -> t option }

let field ?(omit = fun _ -> false) key (print, parse) get set =
  {
    key;
    show = (fun t -> if omit (get t) then None else Some (print (get t)));
    read = (fun v t -> Option.map (set t) (parse v));
  }

let total ?omit key codec get set =
  field ?omit key codec
    (fun t -> get t.totals)
    (fun t v ->
      set t.totals v;
      t)

let int_c = (string_of_int, int_of_string_opt)

(* %h (hex floats) round-trips exactly; canonical-report equality after a
   resume depends on it. *)
let float_c = (Printf.sprintf "%h", float_of_string_opt)
let zero n = n = 0

let rows =
  [
    field "label" (enc, fun v -> Some (dec v)) (fun t -> t.label)
      (fun t label -> { t with label });
    field "np" int_c (fun t -> t.np) (fun t np -> { t with np });
    field "complete"
      ((fun b -> if b then "1" else "0"), fun v -> Some (v = "1"))
      (fun t -> t.complete)
      (fun t complete -> { t with complete });
    total "runs" int_c (fun c -> c.runs) (fun c v -> c.runs <- v);
    total "cancelled" int_c (fun c -> c.cancelled) (fun c v -> c.cancelled <- v);
    total "timed-out" int_c (fun c -> c.timed_out) (fun c v -> c.timed_out <- v);
    total "retried" int_c (fun c -> c.retried) (fun c v -> c.retried <- v);
    total "crashed" int_c (fun c -> c.crashed) (fun c v -> c.crashed <- v);
    total "alerts" int_c (fun c -> c.alerts) (fun c v -> c.alerts <- v);
    total "bounded" int_c (fun c -> c.bounded) (fun c v -> c.bounded <- v);
    total "wildcards" int_c (fun c -> c.wildcards) (fun c v -> c.wildcards <- v);
    total "first-makespan" float_c (fun c -> c.first_makespan) (fun c v -> c.first_makespan <- v);
    total "total-vtime" float_c (fun c -> c.total_vtime) (fun c v -> c.total_vtime <- v);
    (* Omitted when zero, keeping non-distributed and unpruned checkpoints
       readable by older builds. *)
    field ~omit:zero "epoch" int_c (fun t -> t.epoch) (fun t epoch -> { t with epoch });
    total ~omit:zero "pruned" int_c (fun c -> c.pruned) (fun c v -> c.pruned <- v);
  ]

let to_string t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# DAMPI checkpoint";
  line "version %d" version;
  List.iter (fun r -> Option.iter (line "%s %s" r.key) (r.show t)) rows;
  List.iter
    (fun (f : Report.finding) ->
      line "finding %d %s %s" f.Report.run_index
        (schedule_key f.Report.schedule)
        (error_to_line f.Report.error))
    t.findings;
  (* A run of items with one prefix, as siblings are, writes it once. *)
  ignore
    (List.fold_left
       (fun prev it ->
         add_item_line ?prev b it;
         Some it)
       None t.frontier
      : item option);
  Buffer.contents b

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: rest when header = "# DAMPI checkpoint" -> (
      let err = ref None in
      let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
      let seen_version = ref None in
      let doc =
        ref { label = ""; np = 0; complete = false; totals = zero_totals ();
              findings = []; frontier = []; epoch = 0 }
      in
      let findings = ref [] in
      let frontier = ref [] in
      List.iter
        (fun l ->
          if !err = None then
            match String.index_opt l ' ' with
            | None -> fail "malformed line %S" l
            | Some i -> (
                let key = String.sub l 0 i in
                let rest = String.sub l (i + 1) (String.length l - i - 1) in
                (* Everything but [version] is ignored until the version is
                   known and accepted, so a future format only ever produces
                   the clean version-mismatch error. *)
                match key with
                | "version" -> (
                    match int_of_string_opt rest with
                    | Some v when v = version -> seen_version := Some v
                    | Some v ->
                        fail
                          "checkpoint version %d not supported (this build \
                           reads version %d)"
                          v version
                    | None -> fail "malformed version %S" rest)
                | _ when !seen_version = None ->
                    fail "missing version header"
                | "finding" -> (
                    match String.split_on_char ' ' rest with
                    | run_index :: sched :: tag :: payload -> (
                        match
                          ( int_of_string_opt run_index,
                            schedule_of_key sched,
                            error_of_line tag (String.concat " " payload) )
                        with
                        | Some run_index, Some schedule, Some error ->
                            findings :=
                              { Report.error; run_index; schedule }
                              :: !findings
                        | _ -> fail "malformed finding line %S" l)
                    | _ -> fail "malformed finding line %S" l)
                | "item" -> (
                    let prev = match !frontier with p :: _ -> Some p | [] -> None in
                    match item_of_line ?prev l with
                    | Ok it -> frontier := it :: !frontier
                    | Error e -> fail "%s" e)
                | _ -> (
                    match List.find_opt (fun r -> r.key = key) rows with
                    | None -> fail "unknown checkpoint field %S" key
                    | Some r -> (
                        match r.read rest !doc with
                        | Some d -> doc := d
                        | None -> fail "malformed %s %S" key rest))))
        rest;
      (match (!err, !seen_version) with
      | None, None -> err := Some "missing version header"
      | _ -> ());
      match !err with
      | Some e -> Error e
      | None ->
          Ok
            {
              !doc with
              findings = List.rev !findings;
              frontier = List.rev !frontier;
            })
  | _ -> Error "not a DAMPI checkpoint file"

(* ---- atomic file I/O ---- *)

type write_outcome = Written | Degraded of string

let atomic_write ?fault path text =
  (* Temp file in the same directory so the rename is a same-filesystem
     atomic replace: a reader (or a crash) only ever sees a complete
     checkpoint — the previous one or this one, never a torn write. The
     fsync before the rename makes the replace durable, not just atomic: a
     power cut after the rename cannot resurrect a zero-length file. Every
     failure mode (ENOSPC, EIO, EDQUOT, a read-only remount…) is classified
     into [Degraded] rather than raised — losing one checkpoint cut degrades
     the resume point, it must not kill the exploration that is making
     progress. [?fault] is the chaos layer's injected-ENOSPC hook. *)
  let tmp = path ^ ".tmp" in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  match
    (match fault with
    | Some f when f () -> raise (Sys_error (tmp ^ ": No space left on device (injected)"))
    | _ -> ());
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc text;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path
  with
  | () -> Written
  | exception Sys_error msg ->
      cleanup ();
      Degraded msg
  | exception Unix.Unix_error (e, fn, arg) ->
      cleanup ();
      Degraded
        (Printf.sprintf "%s%s: %s"
           (if arg = "" then fn else arg)
           (if arg = "" then "" else " (" ^ fn ^ ")")
           (Unix.error_message e))

let save ?fault t path = atomic_write ?fault path (to_string t)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
