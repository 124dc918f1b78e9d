(** The single-qubit Clifford group (24 elements).

    Same construction as {!Clifford2}: a BFS closure over 1-qubit
    tableaus under {H, S, Sdg} gives a canonical shortest word per
    element, uniform sampling, and exact inverses — the machinery for
    single-qubit randomized benchmarking.  The paper only needs 1q
    error rates to argue they are negligible next to CNOT errors
    (Section 7.2); [Rb.run_single] measures them so that claim can be
    checked rather than assumed. *)

type gate = H | S | Sdg

type word = gate list

val size : int
(** 24. *)

val table_words : unit -> word array
val sample : Qcx_util.Rng.t -> word

val apply_word : Qcx_stabilizer.Tableau.t -> qubit:int -> word -> unit
(** Apply to any tableau at the given qubit. *)

val inverse_word : Qcx_stabilizer.Tableau.t -> word
(** For a 1-qubit tableau tracking the accumulated Clifford. *)
