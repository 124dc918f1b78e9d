type qubit_cal = {
  t1 : float;
  t2 : float;
  readout_error : float;
  single_qubit_error : float;
  single_qubit_duration : float;
  readout_duration : float;
}

type gate_cal = { cnot_error : float; cnot_duration : float }

module EdgeMap = Map.Make (struct
  type t = Topology.edge

  let compare = compare
end)

type t = { qubits : qubit_cal array; gates : gate_cal EdgeMap.t }

let create ~qubits ~gates =
  let m =
    List.fold_left
      (fun acc (e, cal) -> EdgeMap.add (Topology.normalize e) cal acc)
      EdgeMap.empty gates
  in
  { qubits; gates = m }

let nqubits t = Array.length t.qubits

let qubit t q =
  if q < 0 || q >= Array.length t.qubits then invalid_arg "Calibration.qubit: out of range";
  t.qubits.(q)

let gate_opt t e = EdgeMap.find_opt (Topology.normalize e) t.gates

let gate t e =
  match gate_opt t e with
  | Some cal -> cal
  | None ->
    let a, b = e in
    invalid_arg (Printf.sprintf "Calibration.gate: no CNOT on (%d, %d)" a b)

let coherence_limit t q =
  let cal = qubit t q in
  min cal.t1 cal.t2

let with_gate t e cal = { t with gates = EdgeMap.add (Topology.normalize e) cal t.gates }

let with_qubit t q cal =
  let qubits = Array.copy t.qubits in
  qubits.(q) <- cal;
  { t with qubits }
