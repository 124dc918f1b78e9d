(* The SplitMix64 state lives in an 8-byte buffer read and written with
   [get/set_int64_ne]: a [mutable int64] field would box a fresh int64
   on every draw, while these primitives keep the arithmetic unboxed
   whenever the draw is inlined into an int/float/bool consumer. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let[@inline] next_raw t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let create seed = of_state (mix64 (Int64.of_int seed))

let split t = of_state (mix64 (next_raw t))

let split_nth t i =
  if i < 0 then invalid_arg "Rng.split_nth: negative index";
  (* The child the (i+1)-th consecutive [split] would produce, computed
     directly from the gamma arithmetic without advancing [t]:
     after i splits the parent state is [state + i*gamma], so the next
     split outputs [mix64 (state + (i+1)*gamma)] and seeds the child
     with another mix. *)
  let s =
    mix64 (Int64.add (Bytes.get_int64_ne t 0) (Int64.mul (Int64.of_int (i + 1)) golden_gamma))
  in
  of_state (mix64 s)

let copy = Bytes.copy

let int64 t = next_raw t

let[@inline] unit_float t =
  (* 53 high bits -> [0, 1) *)
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int bound64) 1L in
  let result = ref (-1) in
  while !result < 0 do
    let raw = Int64.shift_right_logical (next_raw t) 1 in
    let v = Int64.rem raw bound64 in
    if Int64.sub raw v <= limit then result := Int64.to_int v
  done;
  !result

let bool t = Int64.logand (next_raw t) 1L = 1L

let bernoulli t p = unit_float t < p

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = unit_float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let weighted_choice t items =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 items in
  if total <= 0.0 then invalid_arg "Rng.weighted_choice: non-positive total weight";
  let target = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.weighted_choice: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0.0 items

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle_list t l =
  let arr = Array.of_list l in
  shuffle t arr;
  Array.to_list arr
