type t = { nqubits : int; rev_gates : Gate.t list; next_id : int }

let create nqubits =
  if nqubits <= 0 then invalid_arg "Circuit.create: nqubits must be positive";
  { nqubits; rev_gates = []; next_id = 0 }

let nqubits t = t.nqubits

let add t kind qubits =
  let g = { Gate.id = t.next_id; kind; qubits } in
  match Gate.validate ~nqubits:t.nqubits g with
  | Error msg -> invalid_arg ("Circuit.add: " ^ msg)
  | Ok () -> { t with rev_gates = g :: t.rev_gates; next_id = t.next_id + 1 }

let h t q = add t Gate.H [ q ]
let x t q = add t Gate.X [ q ]
let y t q = add t Gate.Y [ q ]
let z t q = add t Gate.Z [ q ]
let s t q = add t Gate.S [ q ]
let sdg t q = add t Gate.Sdg [ q ]
let t_gate t q = add t Gate.T [ q ]
let tdg t q = add t Gate.Tdg [ q ]
let rx t theta q = add t (Gate.Rx theta) [ q ]
let ry t theta q = add t (Gate.Ry theta) [ q ]
let rz t theta q = add t (Gate.Rz theta) [ q ]
let u2 t phi lam q = add t (Gate.U2 (phi, lam)) [ q ]
let cnot t ~control ~target = add t Gate.Cnot [ control; target ]
let swap t p q = add t Gate.Swap [ p; q ]
let barrier t qs = add t Gate.Barrier qs
let measure t q = add t Gate.Measure [ q ]

let gates t = List.rev t.rev_gates

let used_qubits t =
  let seen = Array.make t.nqubits false in
  List.iter
    (fun g -> if not (Gate.is_barrier g) then List.iter (fun q -> seen.(q) <- true) g.Gate.qubits)
    t.rev_gates;
  List.filter (fun q -> seen.(q)) (List.init t.nqubits Fun.id)

let measure_all t = List.fold_left measure t (used_qubits t)

let gate t id =
  match List.find_opt (fun g -> g.Gate.id = id) t.rev_gates with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Circuit.gate: unknown id %d" id)

let length t = t.next_id

let two_qubit_count t =
  List.length (List.filter Gate.is_two_qubit t.rev_gates)

let unitary_count t = List.length (List.filter Gate.is_unitary t.rev_gates)

let append a b =
  if a.nqubits <> b.nqubits then invalid_arg "Circuit.append: nqubits mismatch";
  List.fold_left (fun acc g -> add acc g.Gate.kind g.Gate.qubits) a (gates b)

let map_qubits t f ~nqubits =
  let mapped_used = List.map f (used_qubits t) in
  if List.length (List.sort_uniq compare mapped_used) <> List.length mapped_used then
    invalid_arg "Circuit.map_qubits: mapping not injective on used qubits";
  List.fold_left
    (fun acc g -> add acc g.Gate.kind (List.map f g.Gate.qubits))
    (create nqubits) (gates t)

let decompose_swaps t =
  (* Ids are always sequential, so a SWAP-free circuit is its own
     decomposition; sharing it keeps callers that retain schedules
     from holding a second copy of every gate. *)
  if not (List.exists (fun g -> g.Gate.kind = Gate.Swap) t.rev_gates) then t
  else
    List.fold_left
      (fun acc g ->
        match (g.Gate.kind, g.Gate.qubits) with
        | Gate.Swap, [ p; q ] ->
          let acc = cnot acc ~control:p ~target:q in
          let acc = cnot acc ~control:q ~target:p in
          cnot acc ~control:p ~target:q
        | _ -> add acc g.Gate.kind g.Gate.qubits)
      (create t.nqubits) (gates t)

let depth t =
  let level = Array.make t.nqubits 0 in
  List.iter
    (fun g ->
      if Gate.is_unitary g then begin
        let d = 1 + List.fold_left (fun acc q -> max acc level.(q)) 0 g.Gate.qubits in
        List.iter (fun q -> level.(q) <- d) g.Gate.qubits
      end
      else if Gate.is_barrier g then begin
        (* A barrier synchronizes its qubits without adding depth. *)
        let d = List.fold_left (fun acc q -> max acc level.(q)) 0 g.Gate.qubits in
        List.iter (fun q -> level.(q) <- d) g.Gate.qubits
      end)
    (gates t);
  Array.fold_left max 0 level

let pp fmt t =
  Format.fprintf fmt "circuit(%d qubits, %d gates)@." t.nqubits (length t);
  List.iter (fun g -> Format.fprintf fmt "  %a@." Gate.pp g) (gates t)
