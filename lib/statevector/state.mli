(** Dense statevector simulator.

    Amplitudes are stored as separate re/im float arrays of length 2^n
    with qubit 0 as the least significant bit of the index.  Suits the
    paper's non-Clifford workloads: 4-qubit QAOA circuits, Bell-state
    tomography, and noise-model cross-validation against the
    stabilizer backend (up to ~20 qubits). *)

type t

val create : int -> t
(** [create n] is |0...0> over n qubits. *)

val reset : t -> unit
(** Return an existing state to |0...0> in place, so trajectory loops
    can reuse one allocation. *)

val blit : t -> t -> unit
(** [blit src dst] copies the amplitudes of [src] into [dst] in place
    (sizes must match) — restores a checkpoint without allocating. *)

val nqubits : t -> int
val copy : t -> t
val dim : t -> int

val amplitude : t -> int -> Qcx_linalg.Cplx.t
val probability : t -> int -> float
(** Probability of the basis state with the given index. *)

val probabilities : t -> float array

val apply1 : t -> Qcx_linalg.Mat.t -> int -> unit
(** Apply a 2x2 unitary to one qubit. *)

val apply_diag1 : t -> Qcx_linalg.Cplx.t -> Qcx_linalg.Cplx.t -> int -> unit
(** [apply_diag1 t d0 d1 q] applies the diagonal unitary
    [diag(d0, d1)] to one qubit — the fast path for phase-type gates
    (Z, S, T, Rz): one complex multiply per amplitude, no pairing. *)

val apply2 : t -> Qcx_linalg.Mat.t -> int -> int -> unit
(** [apply2 t u q0 q1] applies a 4x4 matrix; [q0] is the less
    significant bit of the matrix's 2-bit index. *)

val cnot : t -> control:int -> target:int -> unit
(** CNOT without materializing the 4x4 matrix. *)

val cz : t -> int -> int -> unit
(** Controlled-Z (symmetric): negates the amplitudes with both bits
    set, touching d/4 entries. *)

val h : t -> int -> unit
val x : t -> int -> unit
val y : t -> int -> unit
val z : t -> int -> unit
val s : t -> int -> unit
val sdg : t -> int -> unit

val phase : t -> float -> int -> unit
(** [phase t theta q] multiplies the |1> amplitudes of [q] by
    [e^{i theta}] (covers T, Tdg and any diagonal phase). *)

val rz : t -> float -> int -> unit
(** [rz t theta q] is the IBM Rz gate
    [diag(e^{-i theta/2}, e^{i theta/2})]. *)

val apply_pauli : t -> [ `X | `Y | `Z ] -> int -> unit

val measure : t -> Qcx_util.Rng.t -> int -> bool
(** Projective measurement of one qubit; renormalizes. *)

val sample : t -> Qcx_util.Rng.t -> int
(** Draw a full basis-state index from the output distribution
    without collapsing the state. *)

val norm : t -> float
(** Should be 1 up to float error; exposed for tests. *)

val fidelity : t -> t -> float
(** |<a|b>|^2. *)

val of_amplitudes : Qcx_linalg.Cplx.t array -> t
(** Length must be a power of two; normalizes. *)

val reduced_density : t -> int list -> Qcx_linalg.Mat.t
(** Partial trace down to the given qubits (in the order listed,
    first = least significant).  Used by tomography tests. *)
