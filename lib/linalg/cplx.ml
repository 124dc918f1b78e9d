type t = Complex.t = { re : float; im : float }

let zero = Complex.zero
let one = Complex.one
let i = Complex.i
let make re im = { re; im }
let re x = { re = x; im = 0.0 }
let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let conj = Complex.conj
let scale s z = { re = s *. z.re; im = s *. z.im }
let norm2 z = (z.re *. z.re) +. (z.im *. z.im)
let abs = Complex.norm
let exp_i theta = { re = cos theta; im = sin theta }

let approx_equal ?(tol = 1e-9) a b =
  Float.abs (a.re -. b.re) <= tol && Float.abs (a.im -. b.im) <= tol

let to_string z = Printf.sprintf "%g%+gi" z.re z.im
