(** Density-matrix simulator: exact (non-sampled) evolution of open
    quantum systems under unitaries and Kraus channels — the test
    suite's reference oracle.

    Where [Qcx_noise.Exec] averages Monte-Carlo Pauli-insertion
    trajectories, this simulator applies the corresponding channels
    exactly, so trajectory averages can be validated against
    closed-form evolution (see test_density.ml).  Memory is 4^n complex entries — intended
    for the 2-6 qubit subsystems the validation and tomography tests
    care about, not for full devices. *)

type t

val create : int -> t
(** [create n] is |0...0><0...0| over n qubits (n <= 8). *)

val nqubits : t -> int
val copy : t -> t

val of_pure : Qcx_linalg.Cplx.t array -> t
(** Density matrix of a pure statevector (length 2^n, normalized
    internally). *)

val apply_unitary1 : t -> Qcx_linalg.Mat.t -> int -> unit
(** Apply a 2x2 unitary U: rho <- (U rho U+) on one qubit. *)

val apply_unitary2 : t -> Qcx_linalg.Mat.t -> int -> int -> unit
(** Apply a 4x4 unitary on two qubits (first argument qubit = low bit
    of the matrix index). *)

val h : t -> int -> unit
val x : t -> int -> unit
val s : t -> int -> unit
val sdg : t -> int -> unit
val cnot : t -> control:int -> target:int -> unit

val apply_kraus1 : t -> Qcx_linalg.Mat.t list -> int -> unit
(** Apply a single-qubit channel given by its Kraus operators
    (2x2 each; completeness is the caller's responsibility, checked up
    to 1e-6). *)

val depolarizing1 : t -> p:float -> int -> unit
(** rho <- (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z). *)

val depolarizing2 : t -> p:float -> int -> int -> unit
(** Two-qubit depolarizing: with probability p, a uniformly random
    non-identity two-qubit Pauli. *)

val pauli_twirl_idle : t -> px:float -> py:float -> pz:float -> int -> unit
(** The idle channel of [Qcx_noise.Channel]: probabilistic X/Y/Z. *)

val amplitude_damping : t -> gamma:float -> int -> unit
(** Exact T1 relaxation channel (Kraus form), for comparing the
    twirled approximation against the physical channel. *)

val phase_damping : t -> lambda:float -> int -> unit

val bitflip_readout : t -> flip:float -> int -> unit
(** Classical readout confusion as a channel on the diagonal. *)

val probability : t -> int -> float
(** Diagonal entry: probability of a basis state. *)

val probabilities : t -> float array

val trace : t -> float
(** Should stay 1 up to float error. *)

val purity : t -> float
(** Tr(rho^2): 1 for pure states, 1/2^n when fully mixed. *)

val fidelity_pure : t -> Qcx_linalg.Cplx.t array -> float
(** <psi| rho |psi> against a pure state. *)

val expectation : t -> Qcx_linalg.Mat.t -> float
(** Tr(rho O) for a Hermitian observable (real part returned). *)

val to_mat : t -> Qcx_linalg.Mat.t
