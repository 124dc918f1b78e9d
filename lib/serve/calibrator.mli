(** The calibration data plane: the drift loop as a service concern.

    The paper's operational premise is that schedules are only as good
    as the calibration epoch behind them, and its Optimization 3 keeps
    the daily re-characterization tractable by re-measuring only the
    known high-crosstalk pairs.  The calibrator runs that loop inside
    the serving layer and makes it {e self-healing}:

    - {e drift detection} decides when to act: SRB spot-checks on the
      stored pairs with the widest conditional/independent ratios (the
      widest-confidence-interval proxy — these dominate scheduling
      decisions and drift hardest, Fig. 4), plus the divergence between
      the model-predicted error of the canary schedules and their
      replayed (noisy-execution) error on today's hardware;
    - {e Opt-3 incremental re-characterization}
      ({!Qcx_characterization.Policy.characterize_incremental})
      re-measures only the flagged pairs and merges into the last-good
      snapshot — a fraction of the full-pass trial budget;
    - every candidate epoch is {e canary-gated}: compiled against a
      fixed canary circuit suite and compared to the incumbent epoch
      via replayed error before it may touch the registry.  A candidate
      that lost too many entries (truncated merge) or inflates canary
      error beyond the gate is rejected and the incumbent keeps
      serving;
    - promotion is {e crash-consistent} when a calibration directory is
      configured: the candidate snapshot lands on disk first (atomic
      tmp+rename), then a single atomic ring-pointer rename commits it.
      A crash at any instant leaves the pointer on exactly the old or
      exactly the new epoch — {!recover} rebuilds the registry (current
      epoch {e and} rollback ring) from the directory;
    - {e rollback}: retired epochs stay in a bounded ring
      ({!Registry.rollback}); if post-promotion health shows the canary
      verdict was a flake, the calibrator rolls back automatically, and
      the [rollback] wire op lets an operator do it by hand.  A rolled
      back epoch is restored bit-identically (the exact retired
      [Crosstalk.t] is reinstalled).

    Faults are injected through {!set_fault} (see
    [Qcx_faults.Service_faults]); all decisions are driven by seeded
    RNG keyed on (seed, device, day), so campaigns are deterministic at
    every [jobs] value. *)

module Device = Qcx_device.Device
module Crosstalk = Qcx_device.Crosstalk
module Topology = Qcx_device.Topology
module Rb = Qcx_characterization.Rb
module Policy = Qcx_characterization.Policy

(** Calibration-specific fault injections. *)
type fault =
  | Drift_spike of float
      (** today's hardware conditional rates are scaled by this factor
          on top of ordinary drift (a cosmic-ray-style excursion) *)
  | Truncate_merge of float
      (** this fraction of the merged candidate's entries is lost
          (torn write between characterization and merge) *)
  | Canary_flake
      (** the canary verdict is inverted — a bad epoch can slip
          through (to be caught by post-promotion health + rollback),
          a good one can be spuriously rejected *)
  | Crash_before_commit
      (** the process dies after persisting the candidate snapshot but
          before the ring-pointer commit *)
  | Crash_after_commit
      (** the process dies right after the ring-pointer commit, before
          the in-memory registry learns about it *)

type config = {
  threshold : float;  (** high-crosstalk flagging threshold (paper: 3) *)
  rb_params : Rb.params;  (** SRB scale for re-characterization *)
  spot_params : Rb.params;  (** cheaper SRB scale for drift spot-checks *)
  retry : Policy.retry;
  spot_checks : int;  (** widest-ratio pairs spot-checked per cycle *)
  drift_tolerance : float;
      (** relative deviation of a spot-checked conditional rate that
          flags the pair as drifted *)
  divergence_tolerance : float;
      (** relative predicted-vs-replayed canary error divergence that
          flags the epoch as drifted *)
  canary_inflation : float;
      (** gate: candidate replayed canary error must be within this
          factor of the incumbent's *)
  min_entry_fraction : float;
      (** truncated-merge guard: candidate must keep at least this
          fraction of the incumbent's entry count *)
  omega : float;  (** scheduler omega for canary compiles *)
  node_budget : int;  (** solver budget for canary compiles *)
  jobs : int;
  seed : int;
}

val default_config : config

type drift_report = {
  spot_checked : int;
  flagged : ((Topology.edge * Topology.edge) * float) list;
      (** spot-checked pairs whose deviation exceeded the tolerance *)
  divergence : float;  (** worst relative predicted-vs-replayed error *)
  drifted : bool;
  spot_executions : int;  (** executions charged to the spot checks *)
}

type canary_report = {
  circuits : int;
  candidate_error : float;  (** mean replayed canary error, candidate *)
  incumbent_error : float;  (** mean replayed canary error, incumbent *)
  inflation : float;  (** candidate / incumbent *)
  real_pass : bool;  (** the gate's true verdict *)
  flaked : bool;  (** a [Canary_flake] inverted it *)
  passed : bool;  (** the verdict acted on *)
}

type crash_stage = Before_commit | After_commit

(** What one calibration cycle did. *)
type action =
  | No_drift of drift_report
  | Rejected of {
      drift : drift_report;
      candidate_epoch : string;
      reason : string;  (** ["truncated-merge-guard"] or ["canary-failed"] *)
      canary : canary_report option;  (** [None] when guarded before the canary *)
      cost : Policy.incremental_outcome option;
    }
  | Promoted of {
      drift : drift_report;
      canary : canary_report;
      old_epoch : string;
      new_epoch : string;
      mode : Policy.incremental_mode;
      run_executions : int;
      full_executions : int;
      cost_fraction : float;
    }
  | Rolled_back of {
      drift : drift_report;
      canary : canary_report;
      bad_epoch : string;  (** the epoch that was promoted and revoked *)
      restored_epoch : string;
      mode : Policy.incremental_mode;
      cost_fraction : float;
    }
  | Crashed of { stage : crash_stage; candidate_epoch : string }

val action_name : action -> string
val action_to_json : action -> Qcx_persist.Json.t

type t

val create :
  ?config:config ->
  ?dir:string ->
  ?hardware:(Device.t -> day:int -> Device.t) ->
  Registry.t ->
  t
(** [dir] is the calibration directory backing the crash-consistent
    epoch ring; without it the ring lives in memory only (crash faults
    then mutate nothing).  [hardware] maps the registered device model
    to the device measurements actually run against on a given day —
    default [Qcx_device.Drift.on_day], the seeded hardware
    simulation. *)

val config : t -> config
val dir : t -> string option

val set_fault : t -> (id:string -> day:int -> fault list) option -> unit
(** Install (or clear) the per-cycle fault hook. *)

val calibrate :
  ?force:bool -> ?full:bool -> ?extra_faults:fault list -> t -> id:string -> day:int ->
  (action, string) result
(** Run one calibration cycle for device [id] on logical day [day]:
    detect drift (spot checks + canary divergence); when drifted (or
    [force]d), characterize incrementally, canary-gate the candidate,
    and promote / reject / roll back as described above.  [full]
    forces a full re-characterization instead of the Opt-3 incremental
    pass (the periodic full pass, and the bench's cost baseline).
    [extra_faults] are injected on top of the {!set_fault} hook (the
    [poison] knob of the calibrate wire op).  [Error _] only for
    unknown ids; everything else is an [action]. *)

val rollback : t -> id:string -> day:int -> (Registry.entry, string) result
(** Operator-initiated rollback to the newest retired epoch; persists
    the new ring pointer when a directory is configured.  [Error _]
    when the ring is empty or the id is unknown. *)

type recovered = { id : string; epoch : string; ring : int }

val recover : t -> recovered list
(** Rebuild registry entries (current epoch + rollback ring) from the
    calibration directory's ring pointers, e.g. after a restart.  Ids
    without a pointer file, and unreadable/corrupt epoch snapshots,
    are skipped — the registry keeps whatever it was registered
    with. *)
