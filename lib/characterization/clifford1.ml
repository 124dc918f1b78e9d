module Tableau = Qcx_stabilizer.Tableau
module Rng = Qcx_util.Rng

type gate = H | S | Sdg

type word = gate list

let size = 24

let apply_gate t ~qubit = function
  | H -> Tableau.h t qubit
  | S -> Tableau.s t qubit
  | Sdg -> Tableau.sdg t qubit

let apply_word t ~qubit w = List.iter (apply_gate t ~qubit) w

let invert_gate = function H -> H | S -> Sdg | Sdg -> S

let build_table () =
  let table : (string, word) Hashtbl.t = Hashtbl.create 64 in
  let words = ref [] in
  let identity = Tableau.create 1 in
  Hashtbl.add table (Tableau.key identity) [];
  words := [ [] ];
  let queue = Queue.create () in
  Queue.add [] queue;
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    List.iter
      (fun g ->
        let t = Tableau.create 1 in
        apply_word t ~qubit:0 (w @ [ g ]);
        let k = Tableau.key t in
        if not (Hashtbl.mem table k) then begin
          let w' = w @ [ g ] in
          Hashtbl.add table k w';
          words := w' :: !words;
          Queue.add w' queue
        end)
      [ H; S; Sdg ]
  done;
  assert (Hashtbl.length table = size);
  (Array.of_list (List.rev !words), table)

let cache = lazy (build_table ())

let table_words () = fst (Lazy.force cache)

let sample rng =
  let words = table_words () in
  words.(Rng.int rng (Array.length words))

let inverse_word t =
  if Tableau.nqubits t <> 1 then invalid_arg "Clifford1.inverse_word: need a 1-qubit tableau";
  let _, table = Lazy.force cache in
  match Hashtbl.find_opt table (Tableau.key t) with
  | None -> invalid_arg "Clifford1.inverse_word: tableau not in the group"
  | Some w ->
    (* The reversed-and-inverted word undoes the element; return the
       inverse element's canonical representative so word lengths stay
       bounded. *)
    let inv = List.rev_map invert_gate w in
    let ti = Tableau.create 1 in
    apply_word ti ~qubit:0 inv;
    (match Hashtbl.find_opt table (Tableau.key ti) with
    | Some canonical -> canonical
    | None -> inv)
