type t = {
  circuit : Circuit.t;
  gates : Gate.t array;  (** indexed by gate id *)
  preds : int list array;
  succs : int list array;
  ancestors : Bytes.t array;  (** [ancestors.(g)] is a bitset over gate ids *)
}

let bit_get bs i = Char.code (Bytes.get bs (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bs i =
  Bytes.set bs (i lsr 3) (Char.chr (Char.code (Bytes.get bs (i lsr 3)) lor (1 lsl (i land 7))))

let bit_or ~into src =
  for k = 0 to Bytes.length into - 1 do
    Bytes.set into k (Char.chr (Char.code (Bytes.get into k) lor (Char.code (Bytes.get src k))))
  done

let direct_preds circuit =
  let preds = Array.make (Circuit.length circuit) [] in
  let last_on_qubit = Array.make (Circuit.nqubits circuit) (-1) in
  List.iter
    (fun g ->
      let direct =
        List.filter_map
          (fun q -> if last_on_qubit.(q) >= 0 then Some last_on_qubit.(q) else None)
          g.Gate.qubits
      in
      preds.(g.Gate.id) <- List.sort_uniq compare direct;
      List.iter (fun q -> last_on_qubit.(q) <- g.Gate.id) g.Gate.qubits)
    (Circuit.gates circuit);
  preds

let of_circuit circuit =
  let gates = Array.of_list (Circuit.gates circuit) in
  let n = Array.length gates in
  let preds = direct_preds circuit in
  let succs = Array.make n [] in
  Array.iter
    (fun g -> List.iter (fun p -> succs.(p) <- g.Gate.id :: succs.(p)) preds.(g.Gate.id))
    gates;
  let words = (n + 7) / 8 in
  let ancestors = Array.init n (fun _ -> Bytes.make (max words 1) '\000') in
  (* Program order is topological: fold ancestor bitsets forward. *)
  Array.iter
    (fun g ->
      let id = g.Gate.id in
      List.iter
        (fun p ->
          bit_or ~into:ancestors.(id) ancestors.(p);
          bit_set ancestors.(id) p)
        preds.(id))
    gates;
  { circuit; gates; preds; succs; ancestors }

let circuit t = t.circuit

let gate t id =
  if id < 0 || id >= Array.length t.gates then invalid_arg "Dag.gate: bad id";
  t.gates.(id)

let preds t id = t.preds.(id)
let succs t id = t.succs.(id)

let is_ancestor t a b =
  if a < 0 || b < 0 || a >= Array.length t.gates || b >= Array.length t.gates then
    invalid_arg "Dag.is_ancestor: bad id";
  bit_get t.ancestors.(b) a

let can_overlap t a b = a <> b && (not (is_ancestor t a b)) && not (is_ancestor t b a)

let can_overlap_set t id =
  let out = ref [] in
  Array.iter
    (fun g ->
      let other = g.Gate.id in
      if
        other <> id && Gate.is_unitary g
        && (not (is_ancestor t other id))
        && not (is_ancestor t id other)
      then out := other :: !out)
    t.gates;
  List.rev !out

let topological t = Array.to_list (Array.map (fun g -> g.Gate.id) t.gates)

let roots t =
  List.filter (fun id -> t.preds.(id) = []) (topological t)
