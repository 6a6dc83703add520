(* Tests for the logical-clock algebra: Lamport soundness/incompleteness,
   vector precision, and the shared interface laws. *)

module Lamport = Clocks.Lamport
module Vector = Clocks.Vector

(* ---- Lamport ---- *)

let test_lamport_basics () =
  let c = Lamport.make ~np:4 in
  Alcotest.(check int) "zero" 0 (Lamport.scalar ~me:0 c);
  let c = Lamport.tick ~me:0 c in
  let c = Lamport.tick ~me:0 c in
  Alcotest.(check int) "two ticks" 2 (Lamport.scalar ~me:0 c);
  let merged = Lamport.merge c 7 in
  Alcotest.(check int) "merge is max" 7 (Lamport.scalar ~me:0 merged);
  Alcotest.(check int) "merge keeps larger side" 7
    (Lamport.scalar ~me:0 (Lamport.merge 7 c))

let test_lamport_is_late () =
  Alcotest.(check bool) "smaller clock is late" true
    (Lamport.is_late ~send:1 ~epoch:3);
  Alcotest.(check bool) "equal clock is not late" false
    (Lamport.is_late ~send:3 ~epoch:3);
  Alcotest.(check bool) "greater clock is not late" false
    (Lamport.is_late ~send:5 ~epoch:3)

let test_lamport_encode_roundtrip () =
  let c = Lamport.tick ~me:2 (Lamport.make ~np:8) in
  Alcotest.(check int) "roundtrip" (Lamport.scalar ~me:2 c)
    (Lamport.scalar ~me:2 (Lamport.decode ~np:8 (Lamport.encode c)))

(* ---- Vector ---- *)

let test_vector_basics () =
  let c = Vector.make ~np:3 in
  let c = Vector.tick ~me:1 c in
  let c = Vector.tick ~me:1 c in
  Alcotest.(check int) "own component" 2 (Vector.scalar ~me:1 c);
  Alcotest.(check int) "other component" 0 (Vector.scalar ~me:0 c);
  let d = Vector.tick ~me:2 (Vector.make ~np:3) in
  let m = Vector.merge c d in
  Alcotest.(check int) "merge component 1" 2 (Vector.scalar ~me:1 m);
  Alcotest.(check int) "merge component 2" 1 (Vector.scalar ~me:2 m)

let test_vector_happened_before () =
  let a = Vector.tick ~me:0 (Vector.make ~np:2) in
  (* b knows a (merged) and then ticked: a -> b *)
  let b = Vector.tick ~me:1 (Vector.merge a (Vector.make ~np:2)) in
  Alcotest.(check bool) "a before b" true (Vector.happened_before a b);
  Alcotest.(check bool) "b not before a" false (Vector.happened_before b a);
  (* concurrent events *)
  let c = Vector.tick ~me:1 (Vector.make ~np:2) in
  Alcotest.(check bool) "concurrent, not before" false
    (Vector.happened_before a c);
  Alcotest.(check bool) "concurrent, not after" false
    (Vector.happened_before c a)

let test_vector_is_late () =
  let np = 2 in
  (* Epoch event on P0. *)
  let epoch = Vector.epoch_clock ~me:0 (Vector.make ~np) in
  (* A send causally after the epoch: sender saw the epoch clock. *)
  let after = Vector.tick ~me:1 (Vector.merge epoch (Vector.make ~np)) in
  Alcotest.(check bool) "causally-after send is not late" false
    (Vector.is_late ~send:after ~epoch);
  (* A concurrent send. *)
  let conc = Vector.tick ~me:1 (Vector.make ~np) in
  Alcotest.(check bool) "concurrent send is late" true
    (Vector.is_late ~send:conc ~epoch)

(* The Fig. 4 discrimination: a concurrent send whose Lamport scalar equals
   the epoch value is missed by Lamport but caught by vector clocks. *)
let test_fig4_discrimination () =
  let np = 4 in
  (* P1's wildcard receive is its first event. *)
  let l_epoch = Clocks.Lamport.make ~np in
  let l_epoch = Clocks.Lamport.epoch_clock ~me:1 l_epoch in
  (* P2 also had a wildcard receive (tick) and then sent to P1: its send
     carries LC=1 while P1's epoch id is 0. *)
  let l_send = Clocks.Lamport.tick ~me:2 (Clocks.Lamport.make ~np) in
  Alcotest.(check bool) "lamport misses the concurrent send" false
    (Clocks.Lamport.is_late ~send:l_send ~epoch:l_epoch);
  (* Same scenario under vector clocks. *)
  let v_epoch = Vector.epoch_clock ~me:1 (Vector.make ~np) in
  let v_send = Vector.tick ~me:2 (Vector.make ~np) in
  Alcotest.(check bool) "vector catches the concurrent send" true
    (Vector.is_late ~send:v_send ~epoch:v_epoch)

(* ---- Property tests over the shared laws ---- *)

let clock_ops (type a) (module C : Clocks.Clock_intf.S with type t = a) ~np
    ops : a array =
  (* Interpret a list of (me, op) pairs as clock operations; returns the
     final per-process clocks. *)
  let clocks = Array.init np (fun _ -> C.make ~np) in
  List.iter
    (fun (me, op) ->
      let me = abs me mod np in
      match op mod 2 with
      | 0 -> clocks.(me) <- C.tick ~me clocks.(me)
      | _ ->
          let other = (me + 1) mod np in
          clocks.(me) <- C.merge clocks.(me) clocks.(other))
    ops;
  clocks

let prop_merge_monotone (module C : Clocks.Clock_intf.S) name =
  QCheck.Test.make ~name:(name ^ ": scalar never decreases") ~count:200
    QCheck.(small_list (pair small_int small_int))
    (fun ops ->
      let np = 3 in
      let clocks = Array.init np (fun _ -> C.make ~np) in
      let ok = ref true in
      List.iter
        (fun (me, op) ->
          let me = abs me mod np in
          let before = C.scalar ~me clocks.(me) in
          (match op mod 2 with
          | 0 -> clocks.(me) <- C.tick ~me clocks.(me)
          | _ ->
              let other = (me + 1) mod np in
              clocks.(me) <- C.merge clocks.(me) clocks.(other));
          if C.scalar ~me clocks.(me) < before then ok := false)
        ops;
      !ok)

let prop_encode_roundtrip (module C : Clocks.Clock_intf.S) name =
  QCheck.Test.make ~name:(name ^ ": encode/decode roundtrip") ~count:200
    QCheck.(small_list (pair small_int small_int))
    (fun ops ->
      let np = 3 in
      let clocks = clock_ops (module C) ~np ops in
      Array.for_all
        (fun c ->
          C.encode (C.decode ~np (C.encode c)) = C.encode c)
        clocks)

(* Soundness of is_late for both algebras: a send that has merged the epoch
   clock (hence is causally after) must never be judged late. *)
let prop_no_false_late (module C : Clocks.Clock_intf.S) name =
  QCheck.Test.make ~name:(name ^ ": causally-after send never late") ~count:200
    QCheck.(small_list (pair small_int small_int))
    (fun ops ->
      let np = 3 in
      let clocks = clock_ops (module C) ~np ops in
      let epoch = C.epoch_clock ~me:0 clocks.(0) in
      (* Simulate the receiver ticking then the sender learning of it. *)
      let sender = C.tick ~me:1 (C.merge clocks.(1) (C.tick ~me:0 clocks.(0))) in
      not (C.is_late ~send:sender ~epoch))

(* ---- Encoded (mutable, in-place) ops agree with the pure algebra ----

   The hot path mutates encoded clocks through [tick_into]/[merge_into]/
   [epoch_clock_into]/[is_late_enc]; the pure [tick]/[merge]/[epoch_clock]/
   [is_late] remain the reference semantics. Random op interleavings over
   random np must keep the two representations byte-identical at every
   step, including every late-verdict an epoch could render. *)
let prop_encoded_matches_pure (module C : Clocks.Clock_intf.S) name =
  QCheck.Test.make
    ~name:(name ^ ": encoded ops match pure ops")
    ~count:300
    QCheck.(pair (int_range 1 5) (small_list (pair small_int small_int)))
    (fun (np, ops) ->
      let pure = Array.init np (fun _ -> C.make ~np) in
      let enc = Array.init np (fun _ -> C.make_enc ~np) in
      let ok = ref true in
      let check_rank me =
        if C.encode pure.(me) <> enc.(me) then ok := false;
        if C.scalar ~me pure.(me) <> C.scalar_enc ~me enc.(me) then
          ok := false
      in
      List.iter
        (fun (who, op) ->
          let me = abs who mod np in
          (match abs op mod 3 with
          | 0 ->
              pure.(me) <- C.tick ~me pure.(me);
              C.tick_into ~me enc.(me)
          | 1 ->
              let other = (me + 1) mod np in
              (* [merge_into] forbids aliasing, so skip self-merges (np=1). *)
              if other <> me then begin
                pure.(me) <- C.merge pure.(me) pure.(other);
                C.merge_into ~into:enc.(me) enc.(other)
              end
          | _ ->
              (* Epoch the way [State.record_epoch] does: derive the epoch
                 clock from the pre-state, then compare late verdicts
                 against every rank's current clock. *)
              let epoch_pure = C.epoch_clock ~me pure.(me) in
              let epoch_enc = Array.make (C.width ~np) 0 in
              C.epoch_clock_into ~me ~pre:enc.(me) ~into:epoch_enc;
              if C.encode epoch_pure <> epoch_enc then ok := false;
              Array.iteri
                (fun r c ->
                  if
                    C.is_late ~send:c ~epoch:epoch_pure
                    <> C.is_late_enc ~send:enc.(r) ~epoch:epoch_enc
                  then ok := false)
                pure);
          check_rank me)
        ops;
      for r = 0 to np - 1 do
        check_rank r
      done;
      !ok)

let lamport_mod = (module Clocks.Lamport : Clocks.Clock_intf.S)
let vector_mod = (module Clocks.Vector : Clocks.Clock_intf.S)

(* The decode/apply/encode adapter used as the differential reference for
   the runtime equivalence tests must itself satisfy the same laws. *)
module Ref_lamport = Clock_reference.Make (Clocks.Lamport)
module Ref_vector = Clock_reference.Make (Clocks.Vector)

let ref_lamport_mod = (module Ref_lamport : Clocks.Clock_intf.S)
let ref_vector_mod = (module Ref_vector : Clocks.Clock_intf.S)

let () =
  Alcotest.run "clocks"
    [
      ( "lamport",
        [
          Alcotest.test_case "tick / merge" `Quick test_lamport_basics;
          Alcotest.test_case "is_late" `Quick test_lamport_is_late;
          Alcotest.test_case "encode roundtrip" `Quick
            test_lamport_encode_roundtrip;
        ] );
      ( "vector",
        [
          Alcotest.test_case "tick / merge" `Quick test_vector_basics;
          Alcotest.test_case "happened_before" `Quick
            test_vector_happened_before;
          Alcotest.test_case "is_late" `Quick test_vector_is_late;
          Alcotest.test_case "fig4 discrimination" `Quick
            test_fig4_discrimination;
        ] );
      ( "laws",
        [
          QCheck_alcotest.to_alcotest (prop_merge_monotone lamport_mod "lamport");
          QCheck_alcotest.to_alcotest (prop_merge_monotone vector_mod "vector");
          QCheck_alcotest.to_alcotest (prop_encode_roundtrip lamport_mod "lamport");
          QCheck_alcotest.to_alcotest (prop_encode_roundtrip vector_mod "vector");
          QCheck_alcotest.to_alcotest (prop_no_false_late lamport_mod "lamport");
          QCheck_alcotest.to_alcotest (prop_no_false_late vector_mod "vector");
        ] );
      ( "encoded-equivalence",
        [
          QCheck_alcotest.to_alcotest
            (prop_encoded_matches_pure lamport_mod "lamport");
          QCheck_alcotest.to_alcotest
            (prop_encoded_matches_pure vector_mod "vector");
          QCheck_alcotest.to_alcotest
            (prop_encoded_matches_pure ref_lamport_mod "reference(lamport)");
          QCheck_alcotest.to_alcotest
            (prop_encoded_matches_pure ref_vector_mod "reference(vector)");
        ] );
    ]
