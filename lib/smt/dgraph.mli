(** Difference-constraint graph: the arithmetic theory behind the
    scheduling solver.

    Variables are nonnegative reals (start times); a constraint
    [x_j >= x_i + w] is an edge [i -> j] with weight [w] (weights may
    be negative, e.g. for containment constraints).  The system is
    feasible iff the graph has no positive-weight cycle; the minimal
    solution is the longest path from an implicit source with
    [x >= 0]. *)

type t

val create : unit -> t

val new_var : t -> string -> int
(** Returns the variable index.  The name is kept for diagnostics. *)

val nvars : t -> int

val add_edge : t -> src:int -> dst:int -> weight:float -> unit
(** Add constraint [x_dst >= x_src + weight]. *)

val push : t -> unit
(** Open a backtracking frame. *)

val pop : t -> unit
(** Remove every edge added since the matching [push]. *)

val epoch : t -> int
(** A counter that changes whenever the edge set changes ([add_edge],
    or a [pop] that discards at least one edge).  Two calls returning
    the same value bracket a window in which every edge-set-derived
    quantity (feasibility, ASAP times, longest paths) is unchanged —
    the solver uses this to reuse relaxation results across search
    nodes whose assignments activated no guarded edges. *)

val asap : t -> float array option
(** Minimal feasible assignment (longest path from source), or [None]
    if a positive cycle makes the system infeasible. *)

val alap : t -> deadline:float array -> float array option
(** Maximal feasible assignment under per-variable upper bounds
    ([infinity] for unconstrained variables); [None] on
    infeasibility (including a deadline below a variable's minimal
    value).  Every variable is at its individual maximum, all maxima
    simultaneously feasible. *)

val longest_path : t -> src:int -> dst:int -> float
(** Longest path weight from [src] to [dst] over current edges;
    [neg_infinity] when unreachable, 0 when [src = dst].  Assumes the
    system is feasible (no positive cycles). *)

val longest_paths_to : t -> dst:int -> float array
(** Longest path weight from every variable to [dst] in one backward
    relaxation ([neg_infinity] when unreachable).  Assumes
    feasibility. *)
