(** Epoch Decisions (§II-B, §II-E).

    Between replays DAMPI's schedule generator emits the set of match
    decisions to force: for each process, wildcard events up to its
    [guided_epoch] are determinized to a recorded source, after which the
    process reverts to SELF_RUN and discovers new alternatives. A [plan] is
    the in-memory form of the paper's "Epoch Decisions file". *)

type decision = {
  owner : int;  (** world pid *)
  epoch_id : int;  (** scalar clock identifying the epoch *)
  src : int;  (** communicator rank to force as the match *)
  kind : Epoch.kind;
}

type plan = {
  decisions : decision list;  (** in global completion order of the parent run *)
  by_owner : decision list array;
      (** per owner, latest first; an owner's guided events look up their
          epoch here, with no hashing *)
  guided_epoch : int array;  (** per owner; -1 when nothing is forced *)
}

let empty ~np =
  { decisions = []; by_owner = Array.make np []; guided_epoch = Array.make np (-1) }

let of_decisions ~np decisions =
  let by_owner = Array.make np [] in
  let guided_epoch = Array.make np (-1) in
  List.iter
    (fun d ->
      by_owner.(d.owner) <- d :: by_owner.(d.owner);
      if d.epoch_id > guided_epoch.(d.owner) then
        guided_epoch.(d.owner) <- d.epoch_id)
    decisions;
  { decisions; by_owner; guided_epoch }

let length plan = List.length plan.decisions

(** [GetSrcFromEpoch] of Algorithm 1. The event kind must agree: a failed
    probe does not tick the clock, so a probe and a receive can share a
    clock value; forcing across kinds would misdirect the replay. Of two
    decisions on one epoch the later one, first in [by_owner], governs. *)
let forced_src plan ~owner ~epoch_id ~kind =
  let rec find = function
    | [] -> None
    | d :: rest ->
        if d.epoch_id <> epoch_id then find rest
        else if d.kind = kind then Some d.src
        else None
  in
  find plan.by_owner.(owner)

(** Is [owner] still within its guided window at clock [epoch_id]? *)
let in_guided_window plan ~owner ~epoch_id =
  epoch_id <= plan.guided_epoch.(owner)

(** Canonical total order on decisions: owner, then epoch, then source,
    then kind. The report layer sorts reproduction schedules with it; the
    pruning layer uses it to build plan normal forms. *)
let compare_decision (a : decision) (b : decision) =
  compare (a.owner, a.epoch_id, a.src, a.kind) (b.owner, b.epoch_id, b.src, b.kind)

(** Two decisions commute in a plan when they govern different epochs:
    {!of_decisions} keys forcing by (owner, epoch_id), so plans built from
    either order force identically. Decisions on the {e same} epoch
    conflict — the later one wins {!forced_src} — and must never be
    treated as independent. *)
let commutes (a : decision) (b : decision) =
  (a.owner, a.epoch_id) <> (b.owner, b.epoch_id)

(** The order-insensitive identity of a decision set: its sorted decision
    list. Two plans with equal normal forms force the same matches. *)
let normal_form plan = List.sort_uniq compare_decision plan.decisions

(* ---- Schedule files ----

   The on-disk form of the paper's "Epoch Decisions file": a line per
   decision, in force order. Lets a finding's reproduction schedule be
   saved from one session and replayed in another. *)

let kind_to_string = function
  | Epoch.Wildcard_recv -> "recv"
  | Epoch.Wildcard_probe -> "probe"

let kind_of_string = function
  | "recv" -> Some Epoch.Wildcard_recv
  | "probe" -> Some Epoch.Wildcard_probe
  | _ -> None

let to_string plan =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# DAMPI epoch decisions\n";
  Buffer.add_string buf
    (Printf.sprintf "np %d\n" (Array.length plan.guided_epoch));
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d %d %d\n" (kind_to_string d.kind) d.owner
           d.epoch_id d.src))
    plan.decisions;
  Buffer.contents buf

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty schedule"
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ "np"; n ] -> (
          match int_of_string_opt n with
          | None -> Error "malformed np header"
          | Some np when np < 1 ->
              Error (Printf.sprintf "np %d is not positive" np)
          | Some np -> (
              let parse line =
                match String.split_on_char ' ' line with
                | [ kind; owner; epoch_id; src ] -> (
                    match
                      ( kind_of_string kind,
                        int_of_string_opt owner,
                        int_of_string_opt epoch_id,
                        int_of_string_opt src )
                    with
                    | Some kind, Some owner, Some epoch_id, Some src ->
                        if owner < 0 || owner >= np then
                          Error
                            (Printf.sprintf "decision owner %d outside [0, %d)"
                               owner np)
                        else Ok { owner; epoch_id; src; kind }
                    | _ -> Error "malformed decision line")
                | _ -> Error "malformed decision line"
              in
              let decisions = List.map parse rest in
              match
                List.find_map
                  (function Error e -> Some e | Ok _ -> None)
                  decisions
              with
              | Some e -> Error e
              | None ->
                  Ok (of_decisions ~np (List.map Result.get_ok decisions))))
      | _ -> Error "missing np header")

let save plan path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string plan))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e

let pp_decision ppf d =
  Format.fprintf ppf "%a@%d.%d := %d" Epoch.pp_kind d.kind d.owner d.epoch_id
    d.src

let pp ppf plan =
  Format.fprintf ppf "@[<v>plan (%d forced):@ %a@]" (length plan)
    (Format.pp_print_list pp_decision)
    plan.decisions
