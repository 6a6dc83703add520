type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalization mix from the SplitMix64 reference implementation. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Gamma values must be odd; mix_gamma also fixes low-entropy candidates. *)
let mix_gamma z =
  let z = Int64.logor (mix64 z) 1L in
  let n =
    let x = Int64.(logxor z (shift_right_logical z 1)) in
    let rec popcount acc x =
      if Int64.equal x 0L then acc
      else popcount (acc + 1) Int64.(logand x (sub x 1L))
    in
    popcount 0 x
  in
  if n < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let create seed = { state = mix64 (Int64.of_int seed); gamma = golden_gamma }

(* Seed + salt, order-sensitive: derive s a <> derive a s in general. Used to
   key per-replay fault streams off (fault seed, schedule hash, attempt). *)
let derive seed ~salt =
  let s = mix64 (Int64.of_int seed) in
  let z = mix64 (Int64.add s (Int64.mul golden_gamma (Int64.of_int salt))) in
  { state = z; gamma = mix_gamma (mix64 z) }

let next_int64 t =
  t.state <- Int64.add t.state t.gamma;
  mix64 t.state

let split t =
  let s = next_int64 t in
  let g = next_int64 t in
  { state = mix64 s; gamma = mix_gamma g }

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Shift by 2 so the result fits OCaml's 63-bit native int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, matching an IEEE double mantissa. *)
  r /. 9007199254740992.0 *. bound


let pick t arr =
  if Array.length arr = 0 then invalid_arg "Splitmix.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
