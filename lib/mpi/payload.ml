(** Message payloads.

    Real MPI transfers typed buffers; the simulator transfers structured
    values. [size_bytes] gives the wire size used by the virtual-time cost
    model and by [status.count]. *)

type t =
  | Unit
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | Arr of t array
  | Ints of int array
      (* unboxed integer vector — one allocation for the whole array, used
         for the clock piggybacks on the replay hot path. Wire-identical to
         [Arr] of [Int]s: same [size_bytes], so [status.count] is unchanged. *)

let rec size_bytes = function
  | Unit -> 0
  | Int _ -> 8
  | Float _ -> 8
  | Str s -> String.length s
  | Pair (a, b) -> size_bytes a + size_bytes b
  | Arr a -> Array.fold_left (fun acc v -> acc + size_bytes v) 0 a
  | Ints a -> 8 * Array.length a

let int n = Int n
let float f = Float f
let str s = Str s
let pair a b = Pair (a, b)

let to_int = function
  | Int n -> n
  | p ->
      Types.mpi_errorf "Payload.to_int: not an int payload (%d bytes)"
        (size_bytes p)

let to_float = function
  | Float f -> f
  | Int n -> float_of_int n
  | p ->
      Types.mpi_errorf "Payload.to_float: not a float payload (%d bytes)"
        (size_bytes p)

let to_str = function
  | Str s -> s
  | _ -> Types.mpi_errorf "Payload.to_str: not a string payload"

let to_pair = function
  | Pair (a, b) -> (a, b)
  | _ -> Types.mpi_errorf "Payload.to_pair: not a pair payload"

let to_arr = function
  | Arr a -> a
  | _ -> Types.mpi_errorf "Payload.to_arr: not an array payload"

(* Element-wise numeric reduction; arrays reduce pointwise, scalars reduce
   directly.  Logical ops treat nonzero as true. *)
let rec combine (op : Types.reduce_op) a b =
  let num f g =
    match (a, b) with
    | Int x, Int y -> Int (f x y)
    | (Float _ | Int _), (Float _ | Int _) -> Float (g (to_float a) (to_float b))
    | _ ->
        Types.mpi_errorf "Payload.combine: %s on non-numeric payload"
          (Types.string_of_reduce_op op)
  in
  let logical f =
    let truthy p = to_int p <> 0 in
    Int (if f (truthy a) (truthy b) then 1 else 0)
  in
  match (a, b) with
  | Arr xs, Arr ys ->
      if Array.length xs <> Array.length ys then
        Types.mpi_errorf "Payload.combine: array length mismatch (%d vs %d)"
          (Array.length xs) (Array.length ys);
      Arr (Array.map2 (combine op) xs ys)
  | Ints xs, Ints ys ->
      if Array.length xs <> Array.length ys then
        Types.mpi_errorf "Payload.combine: array length mismatch (%d vs %d)"
          (Array.length xs) (Array.length ys);
      let f : int -> int -> int =
        match op with
        | Sum -> ( + )
        | Prod -> ( * )
        | Max -> max
        | Min -> min
        | Land -> fun x y -> if x <> 0 && y <> 0 then 1 else 0
        | Lor -> fun x y -> if x <> 0 || y <> 0 then 1 else 0
      in
      Ints (Array.map2 f xs ys)
  | _ -> (
      match op with
      | Sum -> num ( + ) ( +. )
      | Prod -> num ( * ) ( *. )
      | Max -> num max Float.max
      | Min -> num min Float.min
      | Land -> logical ( && )
      | Lor -> logical ( || ))

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Pair (a1, b1), Pair (a2, b2) -> equal a1 a2 && equal b1 b2
  | Arr x, Arr y ->
      Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i v -> if not (equal v y.(i)) then ok := false) x;
          !ok)
  | Ints x, Ints y -> x = y
  | (Unit | Int _ | Float _ | Str _ | Pair _ | Arr _ | Ints _), _ -> false

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.pp_print_float ppf f
  | Str s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | Arr a ->
      Format.fprintf ppf "[|%a|]"
        (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
        (Array.to_seq a)
  | Ints a ->
      (* Same rendering as [Arr] of [Int]s: the two are wire-equivalent. *)
      Format.fprintf ppf "[|%a|]"
        (Format.pp_print_seq
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Format.pp_print_int)
        (Array.to_seq a)
