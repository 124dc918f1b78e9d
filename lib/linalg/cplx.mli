(** Complex arithmetic helpers over [Stdlib.Complex.t].

    Thin layer adding the handful of operations the simulators and
    tomography code need beyond the standard library. *)

type t = Complex.t = { re : float; im : float }

val zero : t
val one : t
val i : t

val make : float -> float -> t
val re : float -> t
(** [re x] embeds a real number. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val conj : t -> t
val scale : float -> t -> t

val norm2 : t -> float
(** Squared magnitude |z|^2. *)

val abs : t -> float

val exp_i : float -> t
(** [exp_i theta] is e^{i theta}. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Componentwise comparison with tolerance (default 1e-9). *)

val to_string : t -> string
