(** Dependency DAG over a circuit's gates.

    Two gates are dependent when they share a qubit (program order
    gives the direction); barriers additionally order everything
    before them on their qubits against everything after.  The paper's
    [CanOlp(g)] set — gates that are neither ancestors nor descendants
    of [g] — is served by {!can_overlap}. *)

type t

val of_circuit : Circuit.t -> t

val direct_preds : Circuit.t -> int list array
(** [direct_preds c] maps each gate id to its direct predecessors in
    ascending id order (the last earlier gate on each of its qubits) —
    {!preds} without building the ancestor sets. *)

val circuit : t -> Circuit.t

val gate : t -> int -> Gate.t
(** O(1) lookup by gate id. *)

val preds : t -> int -> int list
(** Direct predecessors (gate ids) of a gate id. *)

val succs : t -> int -> int list

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a b] is [true] when [a] precedes [b] on some
    dependency path (strict; a gate is not its own ancestor). *)

val can_overlap : t -> int -> int -> bool
(** Neither is an ancestor of the other. *)

val can_overlap_set : t -> int -> int list
(** All gate ids that can overlap with the given gate (excluding
    itself, barriers and measurements). *)

val topological : t -> int list
(** Gate ids in a topological (program) order. *)

val roots : t -> int list
(** Gates with no predecessors. *)
