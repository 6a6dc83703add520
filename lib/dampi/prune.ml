(* Sleep-set / independence pruning over match decisions (the DPOR idea
   ISP's POE descends from). See prune.mli for the soundness argument. *)

(* ---- independence ---- *)

(* The communicator ranks an epoch's match choice can involve: the owner,
   the observed match, and every alternate source. *)
let ranks (s : Epoch.summary) =
  s.Epoch.s_owner :: s.Epoch.s_matched :: s.Epoch.s_alternatives

(* Two completed epochs have disjoint footprints when re-forcing either
   one cannot change what the other could have matched: same communicator
   (cross-communicator effects are conservatively treated as dependent —
   rank numbering is not comparable across contexts), different owners,
   and no shared rank among {owner, matched, alternatives}. *)
let footprint_disjoint (a : Epoch.summary) (b : Epoch.summary) =
  a.Epoch.s_ctx = b.Epoch.s_ctx
  && a.Epoch.s_owner <> b.Epoch.s_owner
  && not (List.exists (fun r -> List.mem r (ranks b)) (ranks a))

(* ---- expansion ---- *)

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

type expansion = { items : Checkpoint.item list; suppressed : int }

(* The buffer each domain grows its children's prefix keys in. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

(* The child frontier of a completed replay whose epochs (completion
   order) are [summaries], replayed under [plan_decisions] with inherited
   sleep set [sleep]. With [prune:false] this is exactly the historical
   expansion: one item per unexplored alternative of each expandable
   epoch, deepest epoch first, alternatives ascending, empty sleep sets.

   With [prune:true]:
   - an epoch rediscovered {e unchanged} (structurally equal to a sleep
     element) is not expanded — a sibling subtree already owns its
     alternatives; its would-be children are counted in [suppressed];
   - the children that do expand epoch [e_i] inherit the sleep elements
     disjoint from [e_i], plus every {e deeper} sibling epoch [e_j]
     (j > i) disjoint from [e_i] — under the LIFO depth-first order the
     [e_j] flips run first, so by the time an [e_i] child rediscovers
     [e_j] unchanged, [e_j]'s alternatives are covered. Shallower
     siblings are already forced in the child's prefix and can never be
     rediscovered, so carrying them would be dead weight. *)
let expand ?key ~prune ~sleep ~plan_decisions summaries =
  let observed =
    List.map
      (fun (s : Epoch.summary) ->
        {
          Decisions.owner = s.Epoch.s_owner;
          epoch_id = s.Epoch.s_id;
          src = s.Epoch.s_matched;
          kind = s.Epoch.s_kind;
        })
      summaries
  in
  let arr = Array.of_list summaries in
  let suppressed = ref 0 in
  (* The key of [plan_decisions @ take i observed], for the batches in
     ascending [i]: the parent's key, then each observed decision appended
     once, when a batch first needs it, so a run encodes only what it
     observed and a batch's key is one copy of the buffer. *)
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  if plan_decisions <> [] then
    Buffer.add_string buf
      (match key with Some k -> k | None -> Checkpoint.schedule_key plan_decisions);
  let pending = ref observed and encoded = ref 0 in
  let prefix_key i =
    while !encoded < i do
      (match !pending with
      | d :: tl ->
          if Buffer.length buf > 0 then Buffer.add_char buf ',';
          Checkpoint.add_decision buf d;
          pending := tl
      | [] -> ());
      incr encoded
    done;
    if Buffer.length buf = 0 then "-" else Buffer.contents buf
  in
  let batches =
    List.mapi
      (fun i (s : Epoch.summary) ->
        (* An epoch with no alternatives has no children, so it needs no
           sleep set: building one scans every deeper epoch. *)
        if (not s.Epoch.s_expandable) || s.Epoch.s_alternatives = [] then []
        else if prune && List.exists (Epoch.summary_equal s) sleep then begin
          suppressed := !suppressed + List.length s.Epoch.s_alternatives;
          []
        end
        else
          let child_sleep =
            if not prune then []
            else begin
              let kept = List.filter (fun z -> footprint_disjoint z s) sleep in
              let deeper = ref [] in
              for j = Array.length arr - 1 downto i + 1 do
                if arr.(j).Epoch.s_expandable && footprint_disjoint arr.(j) s
                then deeper := arr.(j) :: !deeper
              done;
              kept @ !deeper
            end
          in
          (* The siblings share one immutable prefix and its key. *)
          let prefix = plan_decisions @ take i observed in
          let prefix_key = prefix_key i in
          List.map
            (fun alt ->
              Checkpoint.make_item ~prefix_key ~prefix
                ~choice:
                  {
                    Decisions.owner = s.Epoch.s_owner;
                    epoch_id = s.Epoch.s_id;
                    src = alt;
                    kind = s.Epoch.s_kind;
                  }
                ~sleep:child_sleep ())
            s.Epoch.s_alternatives)
      summaries
  in
  { items = List.concat (List.rev batches); suppressed = !suppressed }

(* ---- schedule-key set (kept for an external re-drive; the walk never
   produces a duplicate, see prune.mli) ---- *)

module Seen = struct
  type t = { keys : (string, unit) Hashtbl.t; m : Mutex.t }

  let create () = { keys = Hashtbl.create 256; m = Mutex.create () }

  let admit t item =
    let key = Checkpoint.item_key item in
    Mutex.lock t.m;
    let fresh = not (Hashtbl.mem t.keys key) in
    if fresh then Hashtbl.add t.keys key ();
    Mutex.unlock t.m;
    fresh
end
