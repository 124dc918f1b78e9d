module Rng = Qcx_util.Rng
module Service = Qcx_serve.Service

type frame_fault = Torn | Garbage | Oversize

type config = {
  torn_frame : float;
  garbage_frame : float;
  oversize_frame : float;
  compile_fail : float;
  compile_stall : float;
  stall_seconds : float;
  journal_full : float;
  drift_spike : float;
  spike_factor : float;
  truncate_merge : float;
  truncate_fraction : float;
  canary_flake : float;
  crash_promotion : float;
  replica_partition : float;
  replica_slow : float;
  slow_ack_seconds : float;
  replica_tear : float;
}

let default_config =
  {
    torn_frame = 0.06;
    garbage_frame = 0.05;
    oversize_frame = 0.03;
    compile_fail = 0.08;
    compile_stall = 0.05;
    stall_seconds = 0.12;
    journal_full = 0.08;
    drift_spike = 0.10;
    spike_factor = 4.0;
    truncate_merge = 0.08;
    truncate_fraction = 0.85;
    canary_flake = 0.06;
    crash_promotion = 0.05;
    replica_partition = 0.25;
    replica_slow = 0.15;
    slow_ack_seconds = 0.005;
    replica_tear = 1.0;
  }

let none =
  {
    torn_frame = 0.0;
    garbage_frame = 0.0;
    oversize_frame = 0.0;
    compile_fail = 0.0;
    compile_stall = 0.0;
    stall_seconds = 0.0;
    journal_full = 0.0;
    drift_spike = 0.0;
    spike_factor = 1.0;
    truncate_merge = 0.0;
    truncate_fraction = 0.0;
    canary_flake = 0.0;
    crash_promotion = 0.0;
    replica_partition = 0.0;
    replica_slow = 0.0;
    slow_ack_seconds = 0.0;
    replica_tear = 0.0;
  }

type t = { seed : int; config : config }

let create ?(config = default_config) ~seed () = { seed; config }
let config t = t.config

(* Same keying discipline as Fault_plan: every decision is a pure
   function of (seed, site), so a campaign replays identically at any
   jobs count and evaluation order. *)
let keyed t key = Rng.create (Hashtbl.hash (t.seed, "qcx-service-faults", key))

let frame_fault t ~request =
  let rng = keyed t ("frame", request) in
  let u = Rng.unit_float rng in
  let c = t.config in
  if u < c.torn_frame then Some Torn
  else if u < c.torn_frame +. c.garbage_frame then Some Garbage
  else if u < c.torn_frame +. c.garbage_frame +. c.oversize_frame then Some Oversize
  else None

let corrupt_frame t ~request ~max_frame line =
  match frame_fault t ~request with
  | None -> (line, None)
  | Some Torn ->
    let rng = keyed t ("tear", request) in
    (Fault_plan.truncate_string ~rng line, Some Torn)
  | Some Garbage ->
    let rng = keyed t ("garble", request) in
    let s = ref line in
    for _ = 1 to 3 do
      s := Fault_plan.bitflip_string ~rng !s
    done;
    (!s, Some Garbage)
  | Some Oversize ->
    let pad = max 1 (max_frame + 1 - String.length line) in
    (line ^ String.make pad 'x', Some Oversize)

let compile_fault t ~nth =
  let rng = keyed t ("compile", nth) in
  let u = Rng.unit_float rng in
  let c = t.config in
  if u < c.compile_fail then Some (Service.Fail_compile "injected compile failure")
  else if u < c.compile_fail +. c.compile_stall then
    Some (Service.Stall_compile c.stall_seconds)
  else None

let journal_fault t ~nth =
  let rng = keyed t ("journal", nth) in
  Rng.unit_float rng < t.config.journal_full

let kill_offset t ~len =
  if len <= 0 then 0
  else
    let rng = keyed t ("kill", len) in
    Rng.int rng (len + 1)

(* ---- shard-level fleet faults (DESIGN.md §14) ---- *)

(* Which request index the kill lands between (drawn from the middle
   half of the run, so there is real pre-kill state to lose and real
   post-kill traffic to fail over) and which shard dies. *)
let shard_kill t ~requests ~shards =
  let requests = max 1 requests and shards = max 1 shards in
  let at =
    (requests / 4) + Rng.int (keyed t ("shard-kill-at", requests)) (max 1 (requests / 2))
  in
  let victim = Rng.int (keyed t ("shard-kill-victim", shards)) shards in
  (at, victim)

let replica_fault t ~shard ~nth =
  let c = t.config in
  let u = Rng.unit_float (keyed t ("replica", shard, nth)) in
  if u < c.replica_partition then Some Qcx_serve.Replica.Partition
  else if u < c.replica_partition +. c.replica_slow then
    Some (Qcx_serve.Replica.Slow_ack c.slow_ack_seconds)
  else None

(* Byte offset a torn replica tail is truncated to — strictly inside
   the file, so the tear really damages the last record(s). *)
let replica_tear t ~len =
  if len <= 1 || t.config.replica_tear <= 0.0 then None
  else
    let rng = keyed t ("replica-tear", len) in
    if Rng.unit_float rng < t.config.replica_tear then Some (1 + Rng.int rng (len - 1))
    else None

(* Each calibration-fault class rolls independently — a single cycle
   can face a drift spike AND a flaky canary, which is exactly the
   combination the gate has to survive. *)
let calibration_faults t ~id ~day =
  let c = t.config in
  let roll site p = p > 0.0 && Rng.unit_float (keyed t (site, id, day)) < p in
  let faults = [] in
  let faults =
    if roll "drift-spike" c.drift_spike then
      Qcx_serve.Calibrator.Drift_spike c.spike_factor :: faults
    else faults
  in
  let faults =
    if roll "truncate-merge" c.truncate_merge then
      Qcx_serve.Calibrator.Truncate_merge c.truncate_fraction :: faults
    else faults
  in
  let faults =
    if roll "canary-flake" c.canary_flake then Qcx_serve.Calibrator.Canary_flake :: faults
    else faults
  in
  let faults =
    if roll "crash-promotion" c.crash_promotion then
      (* Pick the crash side from an independent stream so adding a
         stage never reshuffles the other classes. *)
      let before = Rng.unit_float (keyed t ("crash-side", id, day)) < 0.5 in
      (if before then Qcx_serve.Calibrator.Crash_before_commit
       else Qcx_serve.Calibrator.Crash_after_commit)
      :: faults
    else faults
  in
  List.rev faults
