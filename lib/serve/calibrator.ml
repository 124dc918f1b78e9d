module Device = Qcx_device.Device
module Drift = Qcx_device.Drift
module Crosstalk = Qcx_device.Crosstalk
module Topology = Qcx_device.Topology
module Calibration = Qcx_device.Calibration
module Rb = Qcx_characterization.Rb
module Policy = Qcx_characterization.Policy
module Xtalk_sched = Qcx_scheduler.Xtalk_sched
module Evaluate = Qcx_scheduler.Evaluate
module Swap_circuits = Qcx_benchmarks.Swap_circuits
module Circuit = Qcx_circuit.Circuit
module Json = Qcx_persist.Json
module Store = Qcx_persist.Store
module Rng = Qcx_util.Rng

type fault =
  | Drift_spike of float
  | Truncate_merge of float
  | Canary_flake
  | Crash_before_commit
  | Crash_after_commit

type config = {
  threshold : float;
  rb_params : Rb.params;
  spot_params : Rb.params;
  retry : Policy.retry;
  spot_checks : int;
  drift_tolerance : float;
  divergence_tolerance : float;
  canary_inflation : float;
  min_entry_fraction : float;
  omega : float;
  node_budget : int;
  jobs : int;
  seed : int;
}

let default_config =
  {
    threshold = 3.0;
    rb_params = { Rb.lengths = [ 1; 2; 4; 8 ]; seeds = 2; trials = 64 };
    spot_params = { Rb.lengths = [ 1; 2; 4 ]; seeds = 1; trials = 48 };
    retry = Policy.default_retry;
    spot_checks = 2;
    drift_tolerance = 0.35;
    divergence_tolerance = 0.5;
    canary_inflation = 1.25;
    min_entry_fraction = 0.5;
    omega = 0.5;
    node_budget = 200_000;
    jobs = 1;
    seed = 0;
  }

type drift_report = {
  spot_checked : int;
  flagged : ((Topology.edge * Topology.edge) * float) list;
  divergence : float;
  drifted : bool;
  spot_executions : int;
}

type canary_report = {
  circuits : int;
  candidate_error : float;
  incumbent_error : float;
  inflation : float;
  real_pass : bool;
  flaked : bool;
  passed : bool;
}

type crash_stage = Before_commit | After_commit

let crash_stage_name = function
  | Before_commit -> "before-commit"
  | After_commit -> "after-commit"

type action =
  | No_drift of drift_report
  | Rejected of {
      drift : drift_report;
      candidate_epoch : string;
      reason : string;
      canary : canary_report option;
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
      bad_epoch : string;
      restored_epoch : string;
      mode : Policy.incremental_mode;
      cost_fraction : float;
    }
  | Crashed of { stage : crash_stage; candidate_epoch : string }

let action_name = function
  | No_drift _ -> "no-drift"
  | Rejected _ -> "rejected"
  | Promoted _ -> "promoted"
  | Rolled_back _ -> "rolled-back"
  | Crashed _ -> "crashed"

type t = {
  config : config;
  dir : string option;
  hardware : Device.t -> day:int -> Device.t;
  registry : Registry.t;
  mutable fault_hook : (id:string -> day:int -> fault list) option;
}

let create ?(config = default_config) ?dir ?(hardware = fun d ~day -> Drift.on_day d ~day)
    registry =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | _ -> ());
  { config; dir; hardware; registry; fault_hook = None }

let config t = t.config
let dir t = t.dir
let set_fault t hook = t.fault_hook <- hook

(* ---- canary suite ----

   The fixed suite every candidate epoch must survive: CNOT stress
   layers over a maximal disjoint edge set (guarantees overlap on the
   high-crosstalk edges, so the epochs actually disagree about the
   schedule) plus SWAP transports between distant qubits (the paper's
   benchmark shape). *)

let stress_circuit device ~layers =
  let disjoint =
    List.fold_left
      (fun acc (a, b) ->
        if List.exists (fun (c, d) -> a = c || a = d || b = c || b = d) acc then acc
        else (a, b) :: acc)
      []
      (Topology.edges (Device.topology device))
  in
  let rec go c n =
    if n = 0 then c
    else
      go (List.fold_left (fun c (a, b) -> Circuit.cnot c ~control:a ~target:b) c disjoint) (n - 1)
  in
  go (Circuit.create (Device.nqubits device)) layers

let canary_suite device =
  let n = Device.nqubits device in
  let pairs =
    List.sort_uniq compare
      (List.filter (fun (a, b) -> a <> b) [ (0, n - 1); (0, n / 2); (n / 2, n - 1) ])
  in
  stress_circuit device ~layers:2
  :: List.map
       (fun (src, dst) -> (Swap_circuits.build device ~src ~dst).Swap_circuits.circuit)
       pairs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let compile_suite t device xtalk suite =
  List.map
    (fun circuit ->
      fst
        (Xtalk_sched.schedule ~omega:t.config.omega ~threshold:t.config.threshold
           ~node_budget:t.config.node_budget ~jobs:t.config.jobs ~device ~xtalk circuit))
    suite

(* ---- drift detection ---- *)

(* The stored pairs with the widest conditional/independent ratio: the
   fitted estimates with the widest confidence intervals, the pairs
   that dominate scheduling decisions, and the rates Fig. 4 shows
   drifting 2-3x day to day — the right place to spend spot-check
   budget. *)
let spot_pairs entry ~k =
  let device = entry.Registry.device in
  let ranked =
    List.sort
      (fun (t1, s1, r1) (t2, s2, r2) ->
        let ratio e r = r /. Float.max 1e-4 (Device.cnot_error device e) in
        match compare (ratio t2 r2) (ratio t1 r1) with
        | 0 -> compare (t1, s1) (t2, s2)
        | c -> c)
      (Crosstalk.entries entry.Registry.xtalk)
  in
  let seen = Hashtbl.create 8 in
  let rec pick acc n = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | (target, spectator, rate) :: rest ->
      let unordered = if compare target spectator <= 0 then (target, spectator) else (spectator, target) in
      let (t1, t2), (s1, s2) = (target, spectator) in
      if Hashtbl.mem seen unordered || t1 = s1 || t1 = s2 || t2 = s1 || t2 = s2 then
        pick acc n rest
      else begin
        Hashtbl.replace seen unordered ();
        pick ((target, spectator, rate) :: acc) (n - 1) rest
      end
  in
  pick [] k ranked

let detect t entry hardware ~rng ~incumbent_scheds =
  let cfg = t.config in
  let spots = spot_pairs entry ~k:cfg.spot_checks in
  let spot_executions = ref 0 in
  let flagged =
    List.concat
      (List.mapi
         (fun i (target, spectator, stored) ->
           let rng_i = Rng.split_nth rng i in
           let fits =
             Rb.run ~jobs:cfg.jobs hardware ~rng:(Rng.split_nth rng_i 0)
               ~params:cfg.spot_params [ target; spectator ]
           in
           let indep =
             Rb.independent ~jobs:cfg.jobs hardware ~rng:(Rng.split_nth rng_i 1)
               ~params:cfg.spot_params target
           in
           spot_executions := !spot_executions + (2 * Rb.experiment_executions cfg.spot_params);
           match List.find_opt (fun f -> f.Rb.edge = target) fits with
           | None -> []
           | Some cond ->
             let ratio =
               Float.max 1.0 (cond.Rb.error_rate /. Float.max 1e-4 indep.Rb.error_rate)
             in
             let anchored =
               (Calibration.gate (Device.calibration hardware) target).Calibration.cnot_error
               *. ratio
             in
             let deviation = Float.abs (anchored -. stored) /. Float.max stored 1e-4 in
             if deviation > cfg.drift_tolerance then [ ((target, spectator), deviation) ]
             else [])
         spots)
  in
  (* Predicted-vs-replayed divergence on the incumbent's canary
     schedules: the model view from the serving epoch against the
     (simulated) hardware replay of the same schedules today. *)
  let divergence =
    List.fold_left
      (fun acc sched ->
        let predicted =
          (Evaluate.model entry.Registry.device ~xtalk:entry.Registry.xtalk sched).Evaluate.error
        in
        let replayed = (Evaluate.oracle hardware sched).Evaluate.error in
        Float.max acc (Float.abs (replayed -. predicted) /. Float.max predicted 1e-3))
      0.0 incumbent_scheds
  in
  {
    spot_checked = List.length spots;
    flagged;
    divergence;
    drifted = flagged <> [] || divergence > cfg.divergence_tolerance;
    spot_executions = !spot_executions;
  }

(* ---- epoch ring persistence ----

   Two files per device in the calibration directory:

   - [<id>.epoch-<digest>.json]: one snapshot per epoch, written
     atomically through the checksummed store envelope;
   - [<id>.ring.json]: the pointer — current epoch digest + retired
     ring digests + promotion day.  Also written atomically, so the
     single rename of this file IS the promotion commit: a crash at
     any instant leaves it wholly old or wholly new. *)

let pointer_format = "qcx-epoch-ring-v1"
let epoch_file dir id digest = Filename.concat dir (id ^ ".epoch-" ^ digest ^ ".json")
let ring_file dir id = Filename.concat dir (id ^ ".ring.json")

let ensure_epoch_file dir id (digest, xtalk) =
  let path = epoch_file dir id digest in
  if not (Sys.file_exists path) then ignore (Store.save_crosstalk ~path xtalk)

let write_pointer dir id ~current ~ring ~promoted_day =
  let payload =
    Json.Object
      [
        ("format", Json.String pointer_format);
        ("device", Json.String id);
        ("current", Json.String current);
        ("ring", Json.Array (List.map (fun d -> Json.String d) ring));
        ( "promoted_day",
          match promoted_day with None -> Json.Null | Some d -> Json.Number (float_of_int d) );
      ]
  in
  Store.save ~path:(ring_file dir id) payload

let read_pointer path =
  let ( let* ) = Result.bind in
  let* doc = Store.load ~path in
  let* fmt = Json.find_str "format" doc in
  if fmt <> pointer_format then Error ("unknown pointer format " ^ fmt)
  else
    let* current = Json.find_str "current" doc in
    let* ring_docs = Json.find_list "ring" doc in
    let* ring =
      List.fold_left
        (fun acc d ->
          let* acc = acc in
          let* s = Json.to_str d in
          Ok (s :: acc))
        (Ok []) ring_docs
    in
    let promoted_day =
      match Json.member "promoted_day" doc with
      | Some (Json.Number n) -> Some (int_of_float n)
      | _ -> None
    in
    Ok (current, List.rev ring, promoted_day)

(* Drop epoch files no longer referenced by the pointer, bounding the
   directory to the ring depth. *)
let gc_epochs dir id ~keep =
  let prefix = id ^ ".epoch-" in
  Array.iter
    (fun file ->
      if
        String.length file > String.length prefix
        && String.sub file 0 (String.length prefix) = prefix
        && Filename.check_suffix file ".json"
      then begin
        let digest =
          Filename.chop_suffix
            (String.sub file (String.length prefix) (String.length file - String.length prefix))
            ".json"
        in
        if not (List.mem digest keep) then
          try Sys.remove (Filename.concat dir file) with Sys_error _ -> ()
      end)
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Persist the registry entry's post-change ring state: snapshots for
   every referenced epoch, then the pointer, then GC. *)
let persist_entry t ~id (entry : Registry.entry) =
  match t.dir with
  | None -> ()
  | Some dir ->
    let referenced = (entry.Registry.epoch, entry.Registry.xtalk) :: entry.Registry.ring in
    List.iter (ensure_epoch_file dir id) referenced;
    ignore
      (write_pointer dir id ~current:entry.Registry.epoch
         ~ring:(List.map fst entry.Registry.ring)
         ~promoted_day:entry.Registry.promoted_day);
    gc_epochs dir id ~keep:(List.map fst referenced)

type recovered = { id : string; epoch : string; ring : int }

let recover t =
  match t.dir with
  | None -> []
  | Some dir ->
    List.filter_map
      (fun id ->
        match Registry.find t.registry id with
        | None -> None
        | Some entry ->
          let path = ring_file dir id in
          if not (Sys.file_exists path) then None
          else (
            match read_pointer path with
            | Error _ -> None
            | Ok (current, ring_digests, promoted_day) -> (
              let topology = Device.topology entry.Registry.device in
              let load digest =
                match Store.load_crosstalk ~topology ~path:(epoch_file dir id digest) () with
                | Ok xtalk -> Some (digest, xtalk)
                | Error _ -> None
              in
              match load current with
              | None -> None
              | Some (_, xtalk) -> (
                let ring = List.filter_map load ring_digests in
                match Registry.restore ?day:promoted_day t.registry ~id ~ring xtalk with
                | Error _ -> None
                | Ok e ->
                  Some { id; epoch = e.Registry.epoch; ring = List.length e.Registry.ring }))))
      (Registry.ids t.registry)

(* ---- the calibration cycle ---- *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let apply_spike faults hardware =
  let scale =
    List.fold_left (fun acc -> function Drift_spike s -> acc *. s | _ -> acc) 1.0 faults
  in
  if scale = 1.0 then hardware
  else
    Device.with_ground_truth hardware
      (List.fold_left
         (fun acc (target, spectator, rate) ->
           Crosstalk.set acc ~target ~spectator
             (Qcx_util.Stats.clamp ~lo:0.0 ~hi:0.6 (rate *. scale)))
         Crosstalk.empty
         (Crosstalk.entries (Device.ground_truth hardware)))

let truncate_merge faults merged =
  let fraction =
    List.fold_left (fun acc -> function Truncate_merge f -> Float.max acc f | _ -> acc) 0.0 faults
  in
  if fraction <= 0.0 then merged
  else begin
    let entries = Crosstalk.entries merged in
    let keep =
      int_of_float (Float.round (float_of_int (List.length entries) *. (1.0 -. fraction)))
    in
    List.fold_left
      (fun acc (target, spectator, rate) -> Crosstalk.set acc ~target ~spectator rate)
      Crosstalk.empty (take keep entries)
  end

let calibrate ?(force = false) ?(full = false) ?(extra_faults = []) t ~id ~day =
  match Registry.find t.registry id with
  | None -> Error ("unknown device " ^ id)
  | Some entry ->
    let cfg = t.config in
    let faults =
      extra_faults @ (match t.fault_hook with Some f -> f ~id ~day | None -> [])
    in
    let hardware = apply_spike faults (t.hardware entry.Registry.device ~day) in
    let rng = Rng.create (Hashtbl.hash (cfg.seed, id, day, "qcx-calibrator")) in
    let suite = canary_suite entry.Registry.device in
    let incumbent_scheds = compile_suite t entry.Registry.device entry.Registry.xtalk suite in
    let drift = detect t entry hardware ~rng:(Rng.split_nth rng 0) ~incumbent_scheds in
    if not (drift.drifted || force) then Ok (No_drift drift)
    else begin
      let previous = if full then Crosstalk.empty else entry.Registry.xtalk in
      let inc =
        Policy.characterize_incremental ~params:cfg.rb_params ~jobs:cfg.jobs ~retry:cfg.retry
          ~threshold:cfg.threshold ~rng:(Rng.split_nth rng 1) hardware ~previous
      in
      let candidate = truncate_merge faults inc.Policy.merged in
      let candidate_epoch = Registry.epoch_of_xtalk candidate in
      let n_candidate = List.length (Crosstalk.entries candidate) in
      let n_incumbent = List.length (Crosstalk.entries entry.Registry.xtalk) in
      if
        n_incumbent > 0
        && float_of_int n_candidate < cfg.min_entry_fraction *. float_of_int n_incumbent
      then
        Ok
          (Rejected
             {
               drift;
               candidate_epoch;
               reason = "truncated-merge-guard";
               canary = None;
               cost = Some inc;
             })
      else begin
        (* Canary gate: both epochs compile the same fixed suite; the
           replayed (noisy-execution expectation) error on today's
           hardware decides. *)
        let candidate_scheds = compile_suite t entry.Registry.device candidate suite in
        let replay scheds =
          mean (List.map (fun s -> (Evaluate.oracle hardware s).Evaluate.error) scheds)
        in
        let candidate_error = replay candidate_scheds in
        let incumbent_error = replay incumbent_scheds in
        let real_pass = candidate_error <= (incumbent_error *. cfg.canary_inflation) +. 1e-12 in
        let flaked = List.mem Canary_flake faults in
        let passed = if flaked then not real_pass else real_pass in
        let canary =
          {
            circuits = List.length suite;
            candidate_error;
            incumbent_error;
            inflation = candidate_error /. Float.max incumbent_error 1e-12;
            real_pass;
            flaked;
            passed;
          }
        in
        if not passed then
          Ok
            (Rejected
               {
                 drift;
                 candidate_epoch;
                 reason = "canary-failed";
                 canary = Some canary;
                 cost = Some inc;
               })
        else begin
          (* Crash-consistent promotion: candidate snapshot first, then
             the atomic pointer rename commits.  Injected crashes stop
             the sequence exactly where a real one would. *)
          (match t.dir with
          | Some dir -> ensure_epoch_file dir id (candidate_epoch, candidate)
          | None -> ());
          if List.mem Crash_before_commit faults then
            Ok (Crashed { stage = Before_commit; candidate_epoch })
          else begin
            (match t.dir with
            | None -> ()
            | Some dir ->
              let next_ring =
                if candidate_epoch = entry.Registry.epoch then entry.Registry.ring
                else
                  take Registry.ring_limit
                    ((entry.Registry.epoch, entry.Registry.xtalk) :: entry.Registry.ring)
              in
              List.iter (ensure_epoch_file dir id) next_ring;
              ignore
                (write_pointer dir id ~current:candidate_epoch ~ring:(List.map fst next_ring)
                   ~promoted_day:(Some day)));
            if List.mem Crash_after_commit faults then
              Ok (Crashed { stage = After_commit; candidate_epoch })
            else begin
              match Registry.promote ~day t.registry ~id candidate with
              | Error e -> Error e
              | Ok promoted ->
                (match t.dir with
                | Some dir ->
                  gc_epochs dir id
                    ~keep:(promoted.Registry.epoch :: List.map fst promoted.Registry.ring)
                | None -> ());
                if real_pass then
                  Ok
                    (Promoted
                       {
                         drift;
                         canary;
                         old_epoch = entry.Registry.epoch;
                         new_epoch = candidate_epoch;
                         mode = inc.Policy.mode;
                         run_executions = inc.Policy.run_executions;
                         full_executions = inc.Policy.full_executions;
                         cost_fraction = inc.Policy.cost_fraction;
                       })
                else begin
                  (* Post-promotion health: the flake let a degrading
                     epoch through; the true canary verdict shows it.
                     Heal automatically — pop the ring. *)
                  match Registry.rollback ~day t.registry ~id with
                  | Error e -> Error e
                  | Ok restored ->
                    persist_entry t ~id restored;
                    Ok
                      (Rolled_back
                         {
                           drift;
                           canary;
                           bad_epoch = candidate_epoch;
                           restored_epoch = restored.Registry.epoch;
                           mode = inc.Policy.mode;
                           cost_fraction = inc.Policy.cost_fraction;
                         })
                end
            end
          end
        end
      end
    end

let rollback t ~id ~day =
  match Registry.rollback ~day t.registry ~id with
  | Error e -> Error e
  | Ok entry ->
    persist_entry t ~id entry;
    Ok entry

(* ---- JSON ---- *)

let edge_str (a, b) = Printf.sprintf "%d-%d" a b

let drift_to_json d =
  Json.Object
    [
      ("spot_checked", Json.Number (float_of_int d.spot_checked));
      ( "flagged",
        Json.Array
          (List.map
             (fun ((e1, e2), deviation) ->
               Json.Object
                 [
                   ("pair", Json.String (edge_str e1 ^ "|" ^ edge_str e2));
                   ("deviation", Json.Number deviation);
                 ])
             d.flagged) );
      ("divergence", Json.Number d.divergence);
      ("drifted", Json.Bool d.drifted);
      ("spot_executions", Json.Number (float_of_int d.spot_executions));
    ]

let canary_to_json c =
  Json.Object
    [
      ("circuits", Json.Number (float_of_int c.circuits));
      ("candidate_error", Json.Number c.candidate_error);
      ("incumbent_error", Json.Number c.incumbent_error);
      ("inflation", Json.Number c.inflation);
      ("real_pass", Json.Bool c.real_pass);
      ("flaked", Json.Bool c.flaked);
      ("passed", Json.Bool c.passed);
    ]

let cost_fields ~mode ~run ~full ~fraction =
  [
    ("mode", Json.String (Policy.incremental_mode_name mode));
    ("run_executions", Json.Number (float_of_int run));
    ("full_executions", Json.Number (float_of_int full));
    ("cost_fraction", Json.Number fraction);
  ]

let action_to_json action =
  let base = [ ("action", Json.String (action_name action)) ] in
  match action with
  | No_drift drift -> Json.Object (base @ [ ("drift", drift_to_json drift) ])
  | Rejected { drift; candidate_epoch; reason; canary; cost } ->
    Json.Object
      (base
      @ [
          ("drift", drift_to_json drift);
          ("candidate_epoch", Json.String candidate_epoch);
          ("reason", Json.String reason);
        ]
      @ (match canary with None -> [] | Some c -> [ ("canary", canary_to_json c) ])
      @
      match cost with
      | None -> []
      | Some inc ->
        cost_fields ~mode:inc.Policy.mode ~run:inc.Policy.run_executions
          ~full:inc.Policy.full_executions ~fraction:inc.Policy.cost_fraction)
  | Promoted { drift; canary; old_epoch; new_epoch; mode; run_executions; full_executions; cost_fraction } ->
    Json.Object
      (base
      @ [
          ("drift", drift_to_json drift);
          ("canary", canary_to_json canary);
          ("old_epoch", Json.String old_epoch);
          ("new_epoch", Json.String new_epoch);
        ]
      @ cost_fields ~mode ~run:run_executions ~full:full_executions ~fraction:cost_fraction)
  | Rolled_back { drift; canary; bad_epoch; restored_epoch; mode; cost_fraction } ->
    Json.Object
      (base
      @ [
          ("drift", drift_to_json drift);
          ("canary", canary_to_json canary);
          ("bad_epoch", Json.String bad_epoch);
          ("restored_epoch", Json.String restored_epoch);
          ("mode", Json.String (Policy.incremental_mode_name mode));
          ("cost_fraction", Json.Number cost_fraction);
        ])
  | Crashed { stage; candidate_epoch } ->
    Json.Object
      (base
      @ [
          ("stage", Json.String (crash_stage_name stage));
          ("candidate_epoch", Json.String candidate_epoch);
        ])
