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
let expand ~prune ~sleep ~plan_decisions summaries =
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
          (* The siblings share one immutable prefix. *)
          let prefix = plan_decisions @ take i observed in
          List.map
            (fun alt ->
              {
                Checkpoint.prefix;
                choice =
                  {
                    Decisions.owner = s.Epoch.s_owner;
                    epoch_id = s.Epoch.s_id;
                    src = alt;
                    kind = s.Epoch.s_kind;
                  };
                sleep = child_sleep;
              })
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
