(** The visiting order of a Stdlib hash table keyed by ints, kept without
    the table.

    The interposition layer's communicator drain and the §V monitor's
    warnings used to walk int-keyed hash tables, so the order of reports
    and virtual times followed the tables' bucket order. Those tables are
    now dense arrays and lists; where order is observable, the holder
    keeps its bindings newest first and {!sort} puts them back in the
    order the old table's [iter] produced, so every output stays
    byte-identical. Only those walks pay for it, never a lookup. *)

(* [Hashtbl.hash] of an int: MurmurHash3's mixing of the 64-bit tagged word
   folded to 32 bits, as the runtime's [caml_hash] does, with seed 0. *)
let hash k =
  let rotl x r = ((x lsl r) lor (x lsr (32 - r))) land 0xFFFF_FFFF in
  let folded =
    (k asr 31) lxor (if k < 0 then -1 else 0) lxor ((k lsl 1) lor 1)
    land 0xFFFF_FFFF
  in
  let d = folded * 0xcc9e2d51 land 0xFFFF_FFFF in
  let d = rotl d 15 * 0x1b873593 land 0xFFFF_FFFF in
  let h = rotl d 13 in
  let h = ((h * 5) + 0xe6546b64) land 0xFFFF_FFFF in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land 0xFFFF_FFFF in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land 0xFFFF_FFFF in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

(* Buckets of a table made by [Hashtbl.create initial] that has held
   [high_water] bindings at once: creation rounds up to a power of two of
   at least 16, and an insert leaving more than two bindings per bucket
   doubles the count. Removals never shrink it. *)
let buckets ~initial ~high_water =
  let rec up b = if b >= initial then b else up (2 * b) in
  let rec grow b = if high_water > 2 * b then grow (2 * b) else b in
  grow (up 16)

(** [sort ~initial ~high_water key newest_first]: the bindings of such a
    table, given newest-inserted first, in the order its [iter] visits
    them: by bucket, newest first within a bucket (an insert goes to its
    bucket's head, and a resize keeps each bucket's order). *)
let sort ~initial ~high_water key newest_first =
  match newest_first with
  | [] | [ _ ] -> newest_first
  | _ ->
      let mask = buckets ~initial ~high_water - 1 in
      List.map (fun x -> (hash (key x) land mask, x)) newest_first
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
