(** Schedule-aware Monte-Carlo execution — the stand-in for running a
    compiled program on the IBMQ hardware.

    A trajectory walks the schedule in time order and injects:
    - a depolarizing Pauli error after every gate, with the CNOT error
      probability raised to the device's hidden conditional rate when
      the CNOT overlaps in time with a crosstalking neighbour gate
      (the worst overlapping partner dominates — the paper's eq. 6
      observation that simultaneous triplets do not compound);
    - Pauli-twirled T1/T2 idle errors over every gap in a qubit's
      schedule between its first gate and its readout — reproducing
      the paper's lifetime decoherence model, including the rule that
      decoherence on a qubit only starts at its first gate;
    - readout bit flips at measurement.

    On the stabilizer backend, {!run} first walks the schedule once on
    a noiseless tableau (the reference run).  When every measurement
    of that run is deterministic — every RB/SRB and Hidden Shift
    circuit — each trajectory tracks only a Pauli frame: an X and a Z
    bitmask over the compact qubits that the Clifford gates conjugate
    and the sampled Paulis flip, with each measured bit read as the
    reference outcome flipped by the frame's X bit and then by the
    readout error (Gidney, "Stim", arXiv:2103.02202).  Draws happen in
    the same order as the tableau walk and deterministic measurements
    draw nothing, so counts are bit-identical to it.  The full tableau
    walk per trajectory remains for circuits with a random-outcome
    measurement and for registers of more than [Sys.int_size] used
    qubits; a non-Clifford gate raises from the reference run as it
    would from the walk.

    This is the only module (together with test oracles) that reads
    [Device.ground_truth]. *)

type backend =
  | Stabilizer  (** fast, Clifford-only *)
  | Statevector  (** any gate, up to ~20 qubits *)

type counts
(** Multiset of measured bitstrings. *)

val counts_total : counts -> int
val counts_get : counts -> string -> int
val counts_bindings : counts -> (string * int) list
(** Bitstrings are ordered with the lowest measured hardware qubit as
    the leftmost character. *)

val distribution : counts -> (string * float) list
(** Normalized frequencies. *)

val measured_qubits : Qcx_circuit.Circuit.t -> int list
(** Sorted hardware qubits with measurement operations. *)

val effective_cnot_error :
  Qcx_device.Device.t -> Qcx_circuit.Schedule.t -> int -> float
(** The true error probability the hardware applies to the given CNOT
    gate id under this schedule: independent rate plus the conditional
    excess of every overlapping crosstalk partner.  Exposed for tests
    and for the optimality oracle. *)

type protection = {
  p_qubit : int;  (** hardware qubit the span protects *)
  p_start : float;  (** span start, ns (schedule time) *)
  p_finish : float;  (** span end, ns *)
  p_xy : float;  (** factor on the idle channel's X/Y components *)
  p_z : float;  (** factor on the idle channel's Z (dephasing) component *)
}
(** A dynamical-decoupling protection span: idle gaps on [p_qubit]
    that fall entirely inside [[p_start, p_finish]] have their
    twirled idle channel scaled by {!Channel.scale_idle} with these
    factors.  Produced by {!Qcx_mitigation.Dd.pad} alongside the
    pulse-padded schedule: the inserted pulses carry ordinary gate
    error (the cost), the spans model the refocused dephasing (the
    benefit). *)

val run :
  ?jobs:int ->
  ?protection:protection list ->
  Qcx_device.Device.t ->
  Qcx_circuit.Schedule.t ->
  rng:Qcx_util.Rng.t ->
  trials:int ->
  backend:backend ->
  counts
(** Execute [trials] trajectories and tally measured bitstrings.
    Unmeasured circuits produce empty-string counts.  The simulation
    runs on the compacted set of used qubits, so 2-5 qubit programs on
    a 20-qubit device stay cheap.  Raises [Invalid_argument] if the
    stabilizer backend meets a non-Clifford gate.

    [jobs] (default 1) shards the trajectories over that many domains
    ({!Qcx_util.Pool}).  Trajectory [i] draws from the stream
    [Rng.split_nth base i] where [base] is a single [Rng.split] off
    the caller's generator, so for a fixed seed the counts are
    bit-identical for every [jobs] value. *)

val run_distribution :
  ?jobs:int ->
  ?protection:protection list ->
  Qcx_device.Device.t ->
  Qcx_circuit.Schedule.t ->
  rng:Qcx_util.Rng.t ->
  trajectories:int ->
  (string * float) list
(** Statevector-only variant of {!run} that averages each Monte-Carlo
    trajectory's {e exact} output distribution over the measured
    qubits (applying the per-qubit readout confusion analytically)
    instead of sampling one bitstring per trial.  Far lower variance
    per unit work — used for the cross-entropy experiments.  Requires
    at most 12 measured qubits.

    [jobs] parallelizes exactly as in {!run}: the set of per-trajectory
    contributions is identical for every [jobs] value (only the
    floating-point summation grouping differs, by one shard-merge
    rounding). *)

val run_ideal : Qcx_circuit.Circuit.t -> Qcx_statevector.State.t * int list
(** Noise-free statevector execution (measurements skipped); returns
    the state over the compacted qubits and the compaction map
    (hardware qubit of each simulated index).  Used for ideal
    distributions in cross-entropy scoring and tomography baselines. *)
