(** Growable arrays indexed by small dense ids.

    Every id on the replay path is a small non-negative integer the runtime
    hands out itself: communicator contexts count up from [next_ctx],
    request uids from [next_req], world pids are [0..np-1]. A table keyed
    by such an id is an array slot, not a hash-table bucket: a lookup is a
    bounds check and a load, and a store allocates only when the id passes
    the capacity (the array doubles). A slot never written reads as the
    table's [empty] value, as does any negative or out-of-range id, so
    "absent" is [get t id == empty] for a sentinel record or [None] for an
    option table.

    [clear] returns every slot written since the last clear to [empty] and
    keeps the storage, so a runtime reset between replays allocates
    nothing. *)

type 'a t = {
  mutable slots : 'a array;
  mutable hi : int;  (** one past the highest slot written since [clear] *)
  empty : 'a;
}

let create ?(capacity = 0) empty =
  { slots = Array.make capacity empty; hi = 0; empty }

let get t i =
  if i >= 0 && i < Array.length t.slots then Array.unsafe_get t.slots i
  else t.empty

let set t i v =
  if i < 0 then invalid_arg "Dense.set: negative id";
  let cap = Array.length t.slots in
  if i >= cap then begin
    let grown = Array.make (max (i + 1) (max 8 (2 * cap))) t.empty in
    Array.blit t.slots 0 grown 0 cap;
    t.slots <- grown
  end;
  Array.unsafe_set t.slots i v;
  if i >= t.hi then t.hi <- i + 1

let clear t =
  Array.fill t.slots 0 t.hi t.empty;
  t.hi <- 0
