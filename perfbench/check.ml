(* Correctness gates, written independently of the scheduler: a served
   schedule must respect program order on every qubit (which is the
   DAG order, and rules out two gates overlapping on one qubit), put
   every CNOT on a device edge, and give each gate the duration the
   device calibration assigns to it. *)

module Circuit = Core.Circuit
module Gate = Core.Gate
module Schedule = Core.Schedule
module Calibration = Core.Calibration

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

let expected_duration dev (g : Gate.t) =
  let cal = Core.Device.calibration dev in
  match (g.Gate.kind, g.Gate.qubits) with
  | Gate.Barrier, _ -> Ok 0.0
  | Gate.Measure, [ q ] -> Ok (Calibration.qubit cal q).Calibration.readout_duration
  | Gate.Cnot, [ a; b ] -> (
    match Calibration.gate_opt cal (min a b, max a b) with
    | Some gc -> Ok gc.Calibration.cnot_duration
    | None -> Error (Printf.sprintf "cx %d,%d is not a device edge" a b))
  | Gate.Swap, _ -> Error "undecomposed swap in a schedule"
  | _, [ q ] -> Ok (Calibration.qubit cal q).Calibration.single_qubit_duration
  | _ -> Error ("malformed gate " ^ Gate.to_string g)

let valid_schedule dev sched =
  let c = Schedule.circuit sched in
  if Circuit.nqubits c > Core.Device.nqubits dev then Error "schedule wider than the device"
  else begin
    let free = Array.make (Circuit.nqubits c) 0.0 in
    let eps = 1e-6 in
    let rec go = function
      | [] -> Ok ()
      | (g : Gate.t) :: rest -> (
        let s = Schedule.start sched g.Gate.id and d = Schedule.duration sched g.Gate.id in
        match expected_duration dev g with
        | Error e -> Error e
        | Ok want when not (close d want) ->
          Error (Printf.sprintf "gate %d lasts %g ns, device says %g" g.Gate.id d want)
        | Ok _ ->
          if not (Float.is_finite s && s >= 0.0) then Error (Printf.sprintf "gate %d starts at %g" g.Gate.id s)
          else if List.exists (fun q -> s +. eps < free.(q)) g.Gate.qubits then
            Error (Printf.sprintf "gate %d starts before its qubit is free" g.Gate.id)
          else begin
            List.iter (fun q -> free.(q) <- s +. d) g.Gate.qubits;
            go rest
          end)
    in
    go (Circuit.gates c)
  end

(* Compact rendering of a schedule, as the wire carries it. *)
let schedule_bytes sched = Core.Json.to_string ~indent:false (Core.Wire.schedule_to_json sched)

(* Index of the first occurrence of [sub] in [s], without allocating. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + m > n then None else if at i 0 then Some i else go (i + 1) in
  go 0

(* The bytes of the "schedule" field of a compact compile response: it
   is the last field, so it runs to the closing brace. *)
let schedule_field line =
  let marker = ",\"schedule\": " in
  let n = String.length line in
  match find_sub line marker with
  | Some i when n > i + String.length marker + 1 ->
    let i = i + String.length marker in
    Some (String.sub line i (n - i - 1))
  | _ -> None

(* A served compile response, checked against the cold compile of the
   same request in a fresh service: status ok, same cache key, schedule
   bytes identical, and the schedule valid on the device.  A typed
   [overloaded] reply is the daemon's admission control refusing the
   request (a batch over its queue bound, as after a stall of the shared
   machine): [`Refused], a failed request but not a wrong output. *)
let response ~dev ~want_key ~want_sched line =
  let wrong e = Error (`Wrong e) in
  match Core.Json.of_string line with
  | Error e -> wrong ("unparseable response: " ^ e)
  | Ok doc -> (
    match Core.Json.find_str "status" doc with
    | Ok "ok" -> (
      match (Core.Json.find_str "key" doc, Core.Json.member "schedule" doc) with
      | Ok key, Some sj -> (
        if key <> want_key then wrong "cache key differs from a cold compile"
        else if schedule_field line <> Some want_sched then wrong "served schedule bytes differ from a cold compile"
        else
          match Core.Wire.schedule_of_json sj with
          | Error e -> wrong ("bad schedule: " ^ e)
          | Ok sched -> Result.map_error (fun e -> `Wrong e) (valid_schedule dev sched))
      | _ -> wrong "compile response without key or schedule")
    | Ok "overloaded" -> Error `Refused
    | Ok s -> wrong ("status " ^ s)
    | Error e -> wrong e)
