(* Tests for the extension features: crosstalk-aware routing, omega
   auto-tuning, and the Optimization-3 refresh workflow. *)

module Device = Core.Device
module Presets = Core.Presets
module Routing = Core.Routing
module Crosstalk = Core.Crosstalk
module Circuit = Core.Circuit
module Rng = Core.Rng

let pough = Presets.poughkeepsie ()
let truth = Device.ground_truth pough

let risky_edges =
  List.concat_map
    (fun (e1, e2) -> [ e1; e2 ])
    (Device.true_high_crosstalk_pairs pough ~threshold:3.0)

(* ---- crosstalk-aware routing ---- *)

let edges_of path =
  let rec pairs = function
    | a :: (b :: _ as rest) -> Core.Topology.normalize (a, b) :: pairs rest
    | _ -> []
  in
  pairs path

let risky_count path = List.length (List.filter (fun e -> List.mem e risky_edges) (edges_of path))

let aware_path_avoids_flagged_edges () =
  (* 0 -> 13 has two length-5 routes: via 10-11-12 (two risky edges)
     and via 6-7-12 (one risky edge, since (7,12) is itself flagged).
     The default tie-break takes the worse side; the aware router must
     take the side with fewer risky edges. *)
  let default_path = Routing.swap_path_qubits pough ~src:0 ~dst:13 in
  let aware = Routing.crosstalk_aware_path pough ~xtalk:truth ~src:0 ~dst:13 () in
  Alcotest.(check int) "same length" (List.length default_path) (List.length aware);
  Alcotest.(check int) "default path: two risky edges" 2 (risky_count default_path);
  Alcotest.(check int) "aware path: one risky edge" 1 (risky_count aware)

let aware_path_valid () =
  let path = Routing.crosstalk_aware_path pough ~xtalk:truth ~src:4 ~dst:16 () in
  Alcotest.(check int) "endpoints" 4 (List.hd path);
  Alcotest.(check int) "endpoints" 16 (List.nth path (List.length path - 1));
  let topo = Device.topology pough in
  let rec ok = function
    | a :: (b :: _ as rest) -> Core.Topology.has_edge topo (a, b) && ok rest
    | _ -> true
  in
  Alcotest.(check bool) "consecutive edges" true (ok path)

let aware_path_no_xtalk_is_shortest () =
  let aware = Routing.crosstalk_aware_path pough ~xtalk:Crosstalk.empty ~src:0 ~dst:13 () in
  Alcotest.(check int) "shortest length" 6 (List.length aware)

let aware_path_bounded_detour () =
  (* With a large penalty the router may detour, but never by more than
     the penalty justifies; with our default it stays within +1 hop of
     shortest on this device. *)
  let topo = Device.topology pough in
  for src = 0 to 9 do
    let dst = 19 - src in
    if src <> dst then begin
      let shortest = Core.Topology.qubit_distance topo src dst in
      let aware = Routing.crosstalk_aware_path pough ~xtalk:truth ~src ~dst () in
      Alcotest.(check bool) "within one extra hop" true
        (List.length aware - 1 <= shortest + 1)
    end
  done

let build_aware_bell_on_edge () =
  let b = Core.Swap_circuits.build_aware pough ~xtalk:truth ~src:0 ~dst:13 () in
  Alcotest.(check bool) "bell on device edge" true
    (Core.Topology.has_edge (Device.topology pough) b.Core.Swap_circuits.bell);
  (* Still produces a Bell state. *)
  let state, used = Core.Exec.run_ideal b.Core.Swap_circuits.circuit in
  let ba, bb = b.Core.Swap_circuits.bell in
  let ia = Option.get (List.find_index (fun q -> q = ba) used) in
  let ib = Option.get (List.find_index (fun q -> q = bb) used) in
  let rho = Core.State.reduced_density state [ ia; ib ] in
  Alcotest.(check bool) "bell state" true
    (Core.Mat.approx_equal ~tol:1e-9 rho
       (Core.Gates.density_of_state Core.Gates.bell_phi_plus))

(* ---- omega auto-tuning ---- *)

let tune_omega_picks_minimum () =
  let bench = Core.Swap_circuits.build pough ~src:0 ~dst:13 in
  let circuit = Circuit.measure_all bench.Core.Swap_circuits.circuit in
  let candidates = [ 0.0; 0.5; 1.0 ] in
  let omega, sched, _ = Core.Xtalk_sched.tune_omega ~candidates ~device:pough ~xtalk:truth circuit in
  Alcotest.(check bool) "omega from candidates" true (List.mem omega candidates);
  let tuned_err = (Core.Evaluate.model pough ~xtalk:truth sched).Core.Evaluate.error in
  List.iter
    (fun w ->
      let s, _ = Core.Xtalk_sched.schedule ~omega:w ~device:pough ~xtalk:truth circuit in
      let err = (Core.Evaluate.model pough ~xtalk:truth s).Core.Evaluate.error in
      Alcotest.(check bool) (Printf.sprintf "tuned <= w=%.1f" w) true (tuned_err <= err +. 1e-9))
    candidates

let tune_omega_rejects_empty () =
  let bench = Core.Swap_circuits.build pough ~src:5 ~dst:12 in
  let circuit = Circuit.measure_all bench.Core.Swap_circuits.circuit in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Core.Xtalk_sched.tune_omega ~candidates:[] ~device:pough ~xtalk:truth circuit);
       false
     with Invalid_argument _ -> true)

(* ---- Policy.refresh ---- *)

let refresh_updates_flagged_pairs () =
  let rng = Rng.create 91 in
  (* Previous data: ground truth.  Refresh on a drifted day must
     replace the flagged pairs' entries with fresh measurements. *)
  let day = Core.Drift.on_day pough ~day:2 in
  let refreshed = Core.Policy.refresh ~rng day ~previous:truth in
  let flagged = Device.true_high_crosstalk_pairs pough ~threshold:3.0 in
  List.iter
    (fun (e1, e2) ->
      let before = Crosstalk.conditional truth ~target:e1 ~spectator:e2 in
      let after = Crosstalk.conditional refreshed ~target:e1 ~spectator:e2 in
      Alcotest.(check bool) "entry present" true (after <> None);
      Alcotest.(check bool) "entry re-measured" true (after <> before))
    flagged;
  (* Unflagged (weak) entries survive untouched. *)
  let weak_before = Crosstalk.conditional truth ~target:(0, 1) ~spectator:(5, 6) in
  let weak_after = Crosstalk.conditional refreshed ~target:(0, 1) ~spectator:(5, 6) in
  Alcotest.(check bool) "weak entry kept" true (weak_after = weak_before)

let refresh_noop_without_flags () =
  let rng = Rng.create 92 in
  let refreshed = Core.Policy.refresh ~rng pough ~previous:Crosstalk.empty in
  Alcotest.(check int) "still empty" 0 (List.length (Crosstalk.entries refreshed))

let suite =
  [
    ( "extensions.aware-routing",
      [
        Alcotest.test_case "avoids flagged edges" `Quick aware_path_avoids_flagged_edges;
        Alcotest.test_case "valid path" `Quick aware_path_valid;
        Alcotest.test_case "no xtalk = shortest" `Quick aware_path_no_xtalk_is_shortest;
        Alcotest.test_case "bounded detour" `Quick aware_path_bounded_detour;
        Alcotest.test_case "aware bell circuit" `Quick build_aware_bell_on_edge;
      ] );
    ( "extensions.tune-omega",
      [
        Alcotest.test_case "picks minimum" `Quick tune_omega_picks_minimum;
        Alcotest.test_case "rejects empty" `Quick tune_omega_rejects_empty;
      ] );
    ( "extensions.refresh",
      [
        Alcotest.test_case "updates flagged pairs" `Slow refresh_updates_flagged_pairs;
        Alcotest.test_case "noop without flags" `Quick refresh_noop_without_flags;
      ] );
  ]
