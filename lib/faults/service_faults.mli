(** Deterministic fault plans for the serving layer's chaos harness
    (DESIGN.md §9) — the {!Fault_plan} philosophy lifted from the
    characterization loop up into the compilation service.

    A plan decides, from a seed alone, which request frames arrive
    torn / bit-flipped / absurdly long, which cold compiles die or
    stall, which journal appends hit a full disk, and at which byte
    offset a simulated [kill -9] truncates the journal.  Decisions are
    keyed on [(seed, site)], so a campaign replays identically at
    every [--jobs] value and evaluation order. *)

module Service = Qcx_serve.Service

type frame_fault =
  | Torn  (** the line is cut short mid-byte *)
  | Garbage  (** token bytes bit-flipped *)
  | Oversize  (** padded past the server's frame bound *)

type config = {
  torn_frame : float;  (** per-request probability of a torn frame *)
  garbage_frame : float;  (** ... of bit-flip corruption *)
  oversize_frame : float;  (** ... of oversize padding *)
  compile_fail : float;  (** per-compile probability the slot dies *)
  compile_stall : float;  (** ... that it hangs first *)
  stall_seconds : float;  (** how long a stalled compile hangs *)
  journal_full : float;  (** per-append probability of disk-full *)
  drift_spike : float;
      (** per-cycle probability the hardware drifts abruptly (the
          calibrator must catch it or the canary must reject it) *)
  spike_factor : float;  (** conditional-error multiplier of a spike *)
  truncate_merge : float;  (** per-cycle probability of a torn Opt-3 merge *)
  truncate_fraction : float;  (** fraction of entries a torn merge loses *)
  canary_flake : float;  (** per-cycle probability the canary verdict flips *)
  crash_promotion : float;
      (** per-cycle probability the process dies mid-promotion (side —
          before/after the atomic pointer commit — drawn independently) *)
  replica_partition : float;
      (** per-flush probability the shard's replica stream is
          partitioned from its peer (the flush fails, lag accrues) *)
  replica_slow : float;  (** per-flush probability of a slow peer ack *)
  slow_ack_seconds : float;  (** how long a slow ack stalls the flush *)
  replica_tear : float;
      (** probability the killed shard's replica file has a torn tail
          (truncated mid-record before the rebuild) *)
}

val default_config : config
(** Aggressive enough that a 20-seed campaign exercises every class. *)

val none : config
(** All probabilities zero — a fault-free control campaign. *)

type t

val create : ?config:config -> seed:int -> unit -> t
val config : t -> config

val corrupt_frame :
  t -> request:int -> max_frame:int -> string -> string * frame_fault option
(** Apply request number [request]'s frame fault (if any) to the
    encoded line, returning what actually goes on the wire. *)

val compile_fault : t -> nth:int -> Service.compile_fault option
(** Partially applied, this is exactly the hook
    {!Qcx_serve.Service.set_compile_fault} expects. *)

val journal_fault : t -> nth:int -> bool
(** Whether journal append number [nth] hits the injected full disk —
    the hook {!Qcx_serve.Journal.set_fault} expects. *)

val kill_offset : t -> len:int -> int
(** Where ([0..len]) the simulated [kill -9] truncates a journal of
    [len] bytes. *)

val shard_kill : t -> requests:int -> shards:int -> int * int
(** The fleet drill's [(kill_after_request, victim_shard)] — the kill
    lands in the middle half of the run so there is real pre-kill
    state to lose and real post-kill traffic to fail over. *)

val replica_fault : t -> shard:int -> nth:int -> Qcx_serve.Replica.fault option
(** Partially applied (per shard), the hook
    {!Qcx_serve.Replica.set_fault} expects: partition / slow-ack
    decisions for the shard's [nth] replica flush. *)

val replica_tear : t -> len:int -> int option
(** Byte length ([1..len-1]) a torn replica tail is truncated to, or
    [None] when this seed leaves the replica intact. *)

val calibration_faults : t -> id:string -> day:int -> Qcx_serve.Calibrator.fault list
(** The calibration injections for device [id]'s cycle on [day] —
    passed as [extra_faults] to {!Qcx_serve.Calibrator.calibrate}.
    Classes roll independently, each keyed on [(seed, site, id, day)],
    so one cycle can combine a drift spike with a flaky canary and the
    plan replays identically at every [--jobs] value. *)
