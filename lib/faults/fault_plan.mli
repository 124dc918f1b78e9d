(** Deterministic fault plans for the operational-loop soak harness.

    A plan decides, from a seed alone, which faults strike which sites
    of a simulated campaign: SRB experiments that hang or lose shots,
    fitters that return non-physical rates, persisted snapshots that
    get truncated or bit-flipped on disk, and solver runs whose budget
    blows up.  Decisions are keyed on [(seed, site)] the way
    {!Qcx_device.Drift.on_day} keys its perturbations, so the same
    seed produces the identical fault sequence at every [--jobs] and
    regardless of evaluation order — which is what lets soak runs be
    compared bit for bit. *)

type corruption = Nan_rate | Negative_rate | Huge_rate

type file_fault = Truncate | Bitflip

val file_fault_name : file_fault -> string

type config = {
  hang : float;  (** per-attempt probability of a hung experiment *)
  dropout : float;  (** per-attempt probability of shot dropout *)
  dropout_keep : float;  (** fraction of shots that survive a dropout *)
  corrupt_fit : float;  (** per-attempt probability of a corrupt fit *)
  file_fault : float;  (** per-day probability of on-disk corruption *)
  solver_blowup : float;  (** per-compile probability of budget blowup *)
}

val default_config : config
(** Aggressive enough that a 10-day soak exercises every fault class. *)

val none : config
(** All probabilities zero — a fault-free control campaign. *)

type t

val create : ?config:config -> seed:int -> unit -> t

val config : t -> config

val experiment_fault :
  t ->
  day:int ->
  experiment:int ->
  attempt:int ->
  Qcx_characterization.Policy.injected_fault option

val inject :
  t ->
  day:int ->
  experiment:int ->
  attempt:int ->
  Qcx_characterization.Policy.injected_fault option
(** [inject t ~day] partially applied is exactly the [?inject] hook
    {!Qcx_characterization.Policy.characterize_resilient} expects. *)

val solver_blowup : t -> day:int -> compile:int -> bool
(** Whether compile number [compile] of [day] gets a blown solver
    budget (the soak then compiles with [node_budget = 0], forcing the
    degradation ladder to serve the request). *)

val file_fault : t -> day:int -> file_fault option

val truncate_string : rng:Qcx_util.Rng.t -> string -> string
(** Keep a strict prefix from the first half of the string. *)

val bitflip_string : rng:Qcx_util.Rng.t -> string -> string
(** Flip one bit of a random alphanumeric byte — always a meaningful
    token character, so the damage is never benign. *)

val corrupt_file : t -> day:int -> string -> (file_fault * string) option
(** Apply [day]'s file fault (if any) to a snapshot's contents. *)
