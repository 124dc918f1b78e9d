(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component in this repository takes an explicit
    [Rng.t] so that experiments are reproducible run to run.  The
    implementation is SplitMix64 (Steele et al., OOPSLA 2014): a small
    state, a strong output mix, and a principled [split] operation that
    derives statistically independent child streams.

    The 64-bit state is held unboxed in an 8-byte buffer, so [int],
    [bernoulli] and [bool] draws allocate nothing (a boxed [int64]
    field would allocate on every draw). *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent child generator and advances [t].
    Use one child per parallel experiment so that adding experiments
    does not perturb the random draws of the others. *)

val split_nth : t -> int -> t
(** [split_nth t i] is the child that the [(i+1)]-th consecutive
    {!split} on [t] would return, computed without advancing [t]:
    [split_nth t i] equals the result of calling [split] [i+1] times
    on a {!copy} of [t] and keeping the last child.  This is the
    random-access form of [split] that the parallel Monte-Carlo
    executors use to give trajectory [i] the same stream no matter
    which worker (or chunk) runs it. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future draws). *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val unit_float : t -> float
(** Uniform draw in [0, 1). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal draw by the Box–Muller transform. *)

val choice : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)

val weighted_choice : t -> (float * 'a) list -> 'a
(** [weighted_choice t items] draws proportionally to the (positive)
    weights.  The weight list must be non-empty with positive total. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** Functional shuffle of a list. *)
