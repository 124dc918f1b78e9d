(* Tests for the density-matrix simulator, including exact validation
   of the Monte-Carlo noise engine's channels: trajectory averages must
   converge to the closed-form channel evolution. *)

module State = Core.State
module Gates = Core.Gates
module Cplx = Core.Cplx
module Rng = Core.Rng

let checkf tol = Alcotest.(check (float tol))

let density_initial () =
  let d = Density.create 2 in
  checkf 1e-12 "trace" 1.0 (Density.trace d);
  checkf 1e-12 "purity" 1.0 (Density.purity d);
  checkf 1e-12 "p(00)" 1.0 (Density.probability d 0)

let density_bell () =
  let d = Density.create 2 in
  Density.h d 0;
  Density.cnot d ~control:0 ~target:1;
  checkf 1e-12 "p00" 0.5 (Density.probability d 0);
  checkf 1e-12 "p11" 0.5 (Density.probability d 3);
  checkf 1e-9 "pure" 1.0 (Density.purity d);
  checkf 1e-9 "bell fidelity" 1.0 (Density.fidelity_pure d Gates.bell_phi_plus)

let density_matches_statevector () =
  (* The same random circuit on both simulators gives the same
     probabilities. *)
  let rng = Rng.create 61 in
  for _ = 1 to 20 do
    let d = Density.create 3 and s = State.create 3 in
    for _ = 1 to 12 do
      match Rng.int rng 4 with
      | 0 ->
        let q = Rng.int rng 3 in
        Density.h d q;
        State.h s q
      | 1 ->
        let q = Rng.int rng 3 in
        Density.s d q;
        State.s s q
      | 2 ->
        let q = Rng.int rng 3 in
        let theta = Rng.float rng 3.0 in
        Density.apply_unitary1 d (Gates.ry theta) q;
        State.apply1 s (Gates.ry theta) q
      | _ ->
        let a = Rng.int rng 3 in
        let b = (a + 1 + Rng.int rng 2) mod 3 in
        Density.cnot d ~control:a ~target:b;
        State.cnot s ~control:a ~target:b
    done;
    Array.iteri
      (fun k p -> checkf 1e-9 (Printf.sprintf "p(%d)" k) p (Density.probability d k))
      (State.probabilities s)
  done

let depolarizing_purity () =
  let d = Density.create 1 in
  Density.depolarizing1 d ~p:0.75 0;
  (* full single-qubit depolarizing at p = 3/4 gives the maximally
     mixed state *)
  checkf 1e-9 "maximally mixed" 0.5 (Density.purity d);
  checkf 1e-9 "trace preserved" 1.0 (Density.trace d)

let amplitude_damping_exact () =
  let d = Density.create 1 in
  Density.x d 0;
  (* |1><1| *)
  Density.amplitude_damping d ~gamma:0.3 0;
  checkf 1e-9 "p1 decays to 1-gamma" 0.7 (Density.probability d 1);
  checkf 1e-9 "p0 gains gamma" 0.3 (Density.probability d 0);
  checkf 1e-9 "trace" 1.0 (Density.trace d)

let phase_damping_kills_coherence () =
  let d = Density.create 1 in
  Density.h d 0;
  Density.phase_damping d ~lambda:1.0 0;
  (* coherence gone, populations intact *)
  checkf 1e-9 "p0" 0.5 (Density.probability d 0);
  checkf 1e-9 "purity 1/2" 0.5 (Density.purity d);
  let m = Density.to_mat d in
  checkf 1e-9 "off-diagonal zero" 0.0 (Cplx.abs (Core.Mat.get m 0 1))

let twirl_matches_exact_channels_diagonally () =
  (* For a classical (diagonal) input, the Pauli twirl of amplitude
     damping reproduces the exact population transfer up to the twirl
     approximation: X/Y with probability gamma/4 each flip the
     excited population by gamma/2 total (vs gamma exactly).  Check
     the twirl against its own closed form. *)
  let gamma = 0.2 in
  let d = Density.create 1 in
  Density.x d 0;
  Density.pauli_twirl_idle d ~px:(gamma /. 4.0) ~py:(gamma /. 4.0) ~pz:(gamma /. 2.0) 0;
  checkf 1e-9 "population flip gamma/2" (gamma /. 2.0) (Density.probability d 0)

let monte_carlo_converges_to_channel () =
  (* Average many trajectory statevectors with sampled Pauli insertions
     and compare against the exact depolarizing channel. *)
  let p = 0.3 in
  let rng = Rng.create 62 in
  let trials = 30_000 in
  let acc = Array.make 2 0.0 in
  for _ = 1 to trials do
    let s = State.create 1 in
    State.h s 0;
    (match Core.Channel.sample_depolarizing1 rng ~p with
    | Some pauli -> State.apply_pauli s pauli 0
    | None -> ());
    (* measure in X basis: apply H then read p0 *)
    State.h s 0;
    let probs = State.probabilities s in
    acc.(0) <- acc.(0) +. probs.(0);
    acc.(1) <- acc.(1) +. probs.(1)
  done;
  let mc_p0 = acc.(0) /. float_of_int trials in
  let d = Density.create 1 in
  Density.h d 0;
  Density.depolarizing1 d ~p 0;
  Density.h d 0;
  let exact_p0 = Density.probability d 0 in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.4f vs exact %.4f" mc_p0 exact_p0)
    true
    (Float.abs (mc_p0 -. exact_p0) < 0.01)

let idle_channel_against_density () =
  (* The noise engine's idle twirl parameters, applied exactly, keep
     trace 1 and reduce purity monotonically with duration. *)
  let purity_after duration =
    let c = Core.Channel.idle_channel ~t1:50_000.0 ~t2:30_000.0 ~duration in
    let d = Density.create 1 in
    Density.h d 0;
    Density.pauli_twirl_idle d ~px:c.Core.Channel.px ~py:c.Core.Channel.py
      ~pz:c.Core.Channel.pz 0;
    checkf 1e-9 "trace" 1.0 (Density.trace d);
    Density.purity d
  in
  let p1 = purity_after 100.0 and p2 = purity_after 1_000.0 and p3 = purity_after 10_000.0 in
  Alcotest.(check bool) "purity decreases with idle time" true (p1 > p2 && p2 > p3)

let kraus_completeness_checked () =
  let d = Density.create 1 in
  let k = Core.Mat.scale (Cplx.re 0.5) (Core.Mat.identity 2) in
  Alcotest.(check bool) "incomplete kraus rejected" true
    (try
       Density.apply_kraus1 d [ k ] 0;
       false
     with Invalid_argument _ -> true)

let readout_channel () =
  let d = Density.create 1 in
  Density.bitflip_readout d ~flip:0.1 0;
  checkf 1e-9 "p1 = flip" 0.1 (Density.probability d 1)

let suite =
  [
    ( "density",
      [
        Alcotest.test_case "initial state" `Quick density_initial;
        Alcotest.test_case "bell" `Quick density_bell;
        Alcotest.test_case "matches statevector" `Quick density_matches_statevector;
        Alcotest.test_case "depolarizing purity" `Quick depolarizing_purity;
        Alcotest.test_case "amplitude damping" `Quick amplitude_damping_exact;
        Alcotest.test_case "phase damping" `Quick phase_damping_kills_coherence;
        Alcotest.test_case "twirl closed form" `Quick twirl_matches_exact_channels_diagonally;
        Alcotest.test_case "monte carlo converges" `Slow monte_carlo_converges_to_channel;
        Alcotest.test_case "idle channel purity" `Quick idle_channel_against_density;
        Alcotest.test_case "kraus completeness" `Quick kraus_completeness_checked;
        Alcotest.test_case "readout channel" `Quick readout_channel;
      ] );
  ]
