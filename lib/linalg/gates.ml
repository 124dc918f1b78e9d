let c = Cplx.make
let r = Cplx.re
let m2 a b cc d = Mat.of_arrays [| [| a; b |]; [| cc; d |] |]
let inv_sqrt2 = 1.0 /. sqrt 2.0

let id2 = Mat.identity 2
let x = m2 Cplx.zero Cplx.one Cplx.one Cplx.zero
let y = m2 Cplx.zero (c 0.0 (-1.0)) (c 0.0 1.0) Cplx.zero
let z = m2 Cplx.one Cplx.zero Cplx.zero (r (-1.0))
let h = m2 (r inv_sqrt2) (r inv_sqrt2) (r inv_sqrt2) (r (-.inv_sqrt2))
let s = m2 Cplx.one Cplx.zero Cplx.zero Cplx.i
let sdg = m2 Cplx.one Cplx.zero Cplx.zero (c 0.0 (-1.0))
let t = m2 Cplx.one Cplx.zero Cplx.zero (Cplx.exp_i (Float.pi /. 4.0))
let tdg = m2 Cplx.one Cplx.zero Cplx.zero (Cplx.exp_i (-.Float.pi /. 4.0))

let sx =
  m2 (c 0.5 0.5) (c 0.5 (-0.5)) (c 0.5 (-0.5)) (c 0.5 0.5)

let rx theta =
  let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
  m2 (r ct) (c 0.0 (-.st)) (c 0.0 (-.st)) (r ct)

let ry theta =
  let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
  m2 (r ct) (r (-.st)) (r st) (r ct)

let rz theta =
  m2 (Cplx.exp_i (-.theta /. 2.0)) Cplx.zero Cplx.zero (Cplx.exp_i (theta /. 2.0))

let u2 phi lam =
  m2 (r inv_sqrt2)
    (Cplx.scale (-.inv_sqrt2) (Cplx.exp_i lam))
    (Cplx.scale inv_sqrt2 (Cplx.exp_i phi))
    (Cplx.scale inv_sqrt2 (Cplx.exp_i (phi +. lam)))

let cnot ~control ~target =
  if control = target || control > 1 || target > 1 || control < 0 || target < 0 then
    invalid_arg "Gates.cnot: bits must be 0 and 1";
  Mat.init 4 4 (fun row col ->
      let flip = if col land (1 lsl control) <> 0 then col lxor (1 lsl target) else col in
      if row = flip then Cplx.one else Cplx.zero)

let swap2 =
  Mat.init 4 4 (fun row col ->
      let swapped = ((col land 1) lsl 1) lor ((col lsr 1) land 1) in
      if row = swapped then Cplx.one else Cplx.zero)

let cz =
  Mat.init 4 4 (fun row col ->
      if row <> col then Cplx.zero else if row = 3 then r (-1.0) else Cplx.one)

let bell_phi_plus = [| r inv_sqrt2; Cplx.zero; Cplx.zero; r inv_sqrt2 |]

let density_of_state psi =
  let n = Array.length psi in
  Mat.init n n (fun i j -> Cplx.mul psi.(i) (Cplx.conj psi.(j)))
