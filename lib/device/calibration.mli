(** Daily calibration data, as published by IBM for its devices.

    Everything the compiler is allowed to read for free: independent
    gate error rates, gate durations, per-qubit coherence times and
    readout errors.  Conditional (crosstalk) error rates are *not*
    part of daily calibration — obtaining them is the subject of the
    paper's characterization module. *)

type qubit_cal = {
  t1 : float;  (** relaxation time, ns *)
  t2 : float;  (** dephasing time, ns *)
  readout_error : float;  (** probability of misreading this qubit *)
  single_qubit_error : float;  (** error rate of a 1q basis gate *)
  single_qubit_duration : float;  (** ns *)
  readout_duration : float;  (** ns *)
}

type gate_cal = {
  cnot_error : float;  (** independent CNOT error rate *)
  cnot_duration : float;  (** ns *)
}

type t

val create : qubits:qubit_cal array -> gates:(Topology.edge * gate_cal) list -> t

val nqubits : t -> int
val qubit : t -> int -> qubit_cal
val gate : t -> Topology.edge -> gate_cal
(** Raises [Invalid_argument] for an unknown edge. *)

val gate_opt : t -> Topology.edge -> gate_cal option

val coherence_limit : t -> int -> float
(** [min t1 t2] of a qubit — the paper's [q.T] (constraint 10 uses the
    minimum to cover qubits whose T2 is far below T1). *)

val with_gate : t -> Topology.edge -> gate_cal -> t
(** Functional update of one gate's calibration. *)

val with_qubit : t -> int -> qubit_cal -> t
