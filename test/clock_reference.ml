(** The pure-API reference adapter, the differential baseline of
    [test_clocks] and [test_hotpath].

    [Make (C)] re-exports [C]'s pure clock algebra unchanged and {e derives}
    the encoded hot-path block ([tick_into]/[merge_into]/...) from it by the
    literal decode-apply-encode composition the mutable implementations are
    specified against. Running the verifier with [Make (Lamport)] in place of
    [Lamport] therefore exercises the old copy-per-op code path; the
    differential tests diff canonical reports between the two to prove the
    mutable implementations change nothing observable.

    The derivation recovers [np] from the encoding width, which holds for
    both in-repo codecs: the vector encoding has one cell per process, and
    the Lamport codec ignores [np] entirely. *)

module Make (C : Clocks.Clock_intf.S) : Clocks.Clock_intf.S = struct
  include C

  let width ~np = Array.length (C.encode (C.make ~np))
  let make_enc ~np = C.encode (C.make ~np)

  let overwrite enc v =
    let e = C.encode v in
    Array.blit e 0 enc 0 (Array.length enc)

  let tick_into ~me enc =
    overwrite enc (C.tick ~me (C.decode ~np:(Array.length enc) enc))

  let merge_into ~into src =
    let np = Array.length into in
    overwrite into (C.merge (C.decode ~np into) (C.decode ~np src))

  let epoch_clock_into ~me ~pre ~into =
    overwrite into (C.epoch_clock ~me (C.decode ~np:(Array.length pre) pre))

  let is_late_enc ~send ~epoch =
    let np = Array.length epoch in
    C.is_late ~send:(C.decode ~np send) ~epoch:(C.decode ~np epoch)

  let scalar_enc ~me enc = C.scalar ~me (C.decode ~np:(Array.length enc) enc)
end
