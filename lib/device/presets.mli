(** Models of the three 20-qubit IBMQ systems used in the paper's
    evaluation, plus small synthetic devices for tests and examples.

    Coupling maps are the publicly documented layouts.  Calibration
    values are drawn from the distributions the paper reports (CNOT
    error 0.5–6.5%, average 1.8%; readout error ~4.8%; T1/T2 in the
    tens of microseconds) with a fixed per-device seed, so the presets
    are deterministic.  Ground-truth crosstalk pairs are seeded to
    match the paper's observations — e.g. on Poughkeepsie the five
    high-crosstalk pairs of Figure 3(a), with CNOT 10,15 | CNOT 11,12
    at an ~11x conditional/independent ratio, and qubit 10 with the
    anomalously low ~6 us coherence that drives the Figure 6 ordering
    example.  Each device also carries a few sub-threshold (<3x)
    "weak" pairs that a correct characterization must NOT flag. *)

val poughkeepsie : unit -> Device.t
val johannesburg : unit -> Device.t
val boeblingen : unit -> Device.t

val all : unit -> Device.t list
(** The three systems above, in paper order. *)

val by_name : string -> Device.t option
(** Case-insensitive lookup ("poughkeepsie" | "johannesburg" |
    "boeblingen").  Also builds the generated large-device families on
    demand: "heavy-hex-127", "heavy-hex-433", and "grid-RxC" (e.g.
    "grid-6x6") with their default seeds. *)

val example_6q : unit -> Device.t
(** The 6-qubit machine of Figure 1(a): a 2x3 grid with one high
    crosstalk pair (CNOT 0,1 | CNOT 2,3) and low coherence on
    qubit 2. *)

val linear : int -> Device.t
(** A crosstalk-free linear chain of [n] qubits with uniform
    calibration — a clean baseline substrate for unit tests. *)

val grid : ?seed:int -> ?xtalk_pairs:int -> rows:int -> cols:int -> unit -> Device.t
(** A synthetic [rows x cols] 2D-grid device with randomly seeded
    calibration and [xtalk_pairs] random 1-hop high-crosstalk pairs
    (default: one per ~8 qubits).  Used to stress characterization and
    scheduling beyond the 20-qubit IBMQ presets (the scale bench runs
    a 6x6 grid). *)

val heavy_hex_127 : unit -> Device.t
(** A synthetic IBM-style heavy-hex lattice: the 127-qubit Eagle-style
    map (3 hexagon columns, 6 bridge rows, 144 couplers, degree <= 3
    everywhere), seeded random calibration, and one random 1-hop
    high-crosstalk pair per ~8 qubits.  The scale bench's main
    device. *)

val heavy_hex_433 : unit -> Device.t
(** The same construction at 6 columns by 12 rows: a 433-qubit
    Osprey-sized map with its own independently seeded calibration. *)

val swap_endpoints : Device.t -> (int * int) list
(** The SWAP-circuit qubit-pair endpoints evaluated in Figure 5 for
    this device (the crosstalk-prone subset; 46 circuits across the
    three systems). *)

val qaoa_regions : Device.t -> int list list
(** The crosstalk-prone 4-qubit line regions used for the QAOA and
    Hidden Shift experiments (Figures 8 and 9); the Poughkeepsie list
    matches the paper's. *)
