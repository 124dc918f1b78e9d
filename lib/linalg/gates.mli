(** Standard gate unitaries as dense matrices.

    Single-qubit matrices are 2x2; two-qubit matrices are 4x4 in the
    basis |q1 q0> (qubit 0 is the least significant bit, matching
    [Qcx_statevector.State]). *)

val id2 : Mat.t
val x : Mat.t
val y : Mat.t
val z : Mat.t
val h : Mat.t
val s : Mat.t
val sdg : Mat.t
val t : Mat.t
val tdg : Mat.t
val sx : Mat.t
(** sqrt(X). *)

val rx : float -> Mat.t
val ry : float -> Mat.t
val rz : float -> Mat.t
val u2 : float -> float -> Mat.t
(** IBM U2(phi, lambda) gate: a single-pulse rotation,
    [1/sqrt 2 [[1, -e^{i lam}], [e^{i phi}, e^{i (phi+lam)}]]]. *)

val cnot : control:int -> target:int -> Mat.t
(** 4x4 CNOT where [control]/[target] are 0 or 1 (bit positions). *)

val swap2 : Mat.t
(** 4x4 SWAP. *)

val cz : Mat.t
(** 4x4 controlled-Z (symmetric). *)

val bell_phi_plus : Cplx.t array
(** The |Phi+> = (|00> + |11>)/sqrt2 statevector, length 4. *)

val density_of_state : Cplx.t array -> Mat.t
(** Outer product |psi><psi|. *)
