(* Bit-identity goldens for the random-number generator and the
   stabilizer executor.  Every expected value below was recorded from
   the generator with a boxed [mutable int64] state and from the
   executor that walked a full tableau per trajectory; the current
   implementations must reproduce them exactly. *)

module Rng = Core.Rng
module Exec = Core.Exec
module Circuit = Core.Circuit
module Clifford2 = Core.Clifford2
module Tableau = Core.Tableau
module Presets = Core.Presets

(* The first draws of every [Rng] entry point, rendered exactly
   (int64 in hex, floats as hex literals). *)
let rng_trace seed =
  let t = Rng.create seed in
  let i64 label v = Printf.sprintf "%s=%Lx" label v in
  let fl label v = Printf.sprintf "%s=%h" label v in
  let raw = List.init 3 (fun i -> i64 (Printf.sprintf "int64.%d" i) (Rng.int64 t)) in
  let child = Rng.split t in
  let nth3 = Rng.split_nth t 3 and nth1000 = Rng.split_nth t 1000 in
  let ints =
    List.map
      (fun bound -> Printf.sprintf "int.%d=%d" bound (Rng.int t bound))
      [ 1; 10; 15; 1_000_003; (1 lsl 61) + 1 ]
  in
  let bern =
    String.init 24 (fun i -> if Rng.bernoulli t (float_of_int (i mod 4) /. 4.0) then '1' else '0')
  in
  raw
  @ [ i64 "split" (Rng.int64 child); i64 "split.next" (Rng.int64 child) ]
  @ [ i64 "split_nth.3" (Rng.int64 nth3); i64 "split_nth.1000" (Rng.int64 nth1000) ]
  @ ints
  @ [
      "bernoulli=" ^ bern;
      fl "gaussian" (Rng.gaussian t ~mu:1.5 ~sigma:0.25);
      fl "unit_float" (Rng.unit_float t);
      fl "float" (Rng.float t 7.0);
      Printf.sprintf "bool=%b" (Rng.bool t);
      i64 "after" (Rng.int64 t);
    ]

(* Counts rendered canonically and hashed, so a golden is one line. *)
let counts_digest counts =
  let body =
    String.concat ";"
      (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) (Exec.counts_bindings counts))
  in
  Digest.to_hex (Digest.string (Printf.sprintf "%d|%s" (Exec.counts_total counts) body))

(* An SRB circuit built exactly as [Rb] builds its sequences: per
   length step one random 2-qubit Clifford per edge, a barrier across
   all benchmarked qubits, then each pair's exact inverse and readout
   of every benchmarked qubit. *)
let srb_circuit device rng ~m edges =
  let append c (a, b) word =
    List.fold_left
      (fun c g ->
        match g with
        | Clifford2.H 0 -> Circuit.h c a
        | Clifford2.H _ -> Circuit.h c b
        | Clifford2.S 0 -> Circuit.s c a
        | Clifford2.S _ -> Circuit.s c b
        | Clifford2.Sdg 0 -> Circuit.sdg c a
        | Clifford2.Sdg _ -> Circuit.sdg c b
        | Clifford2.Cx (0, _) -> Circuit.cnot c ~control:a ~target:b
        | Clifford2.Cx (_, _) -> Circuit.cnot c ~control:b ~target:a)
      c word
  in
  let qubits = List.concat_map (fun (a, b) -> [ a; b ]) edges in
  let trackers = List.map (fun e -> (e, Tableau.create 2)) edges in
  let c = ref (Circuit.create (Core.Device.nqubits device)) in
  for _ = 1 to m do
    List.iter
      (fun (e, tr) ->
        let w = Clifford2.sample rng in
        Clifford2.apply_word tr w;
        c := append !c e w)
      trackers;
    c := Circuit.barrier !c qubits
  done;
  List.iter (fun (e, tr) -> c := append !c e (Clifford2.inverse_word tr)) trackers;
  c := Circuit.barrier !c qubits;
  List.fold_left Circuit.measure !c qubits

let srb_edge_sets = [ [ (10, 15) ]; [ (10, 15); (11, 12) ]; [ (0, 1); (10, 15); (11, 12); (13, 14) ] ]
let srb_lengths = [ 1; 8; 32 ]

(* Every Clifford gate kind the executor knows, mirrored so the ideal
   outcome is the deterministic X-prepared pattern. *)
let mirror_circuit () =
  let fwd =
    [
      (fun c -> Circuit.h c 0); (fun c -> Circuit.s c 1); (fun c -> Circuit.cnot c ~control:0 ~target:1);
      (fun c -> Circuit.y c 2); (fun c -> Circuit.swap c 1 2); (fun c -> Circuit.sdg c 0);
      (fun c -> Circuit.z c 1); (fun c -> Circuit.h c 2); (fun c -> Circuit.cnot c ~control:2 ~target:1);
      (fun c -> Circuit.x c 0); (fun c -> Circuit.s c 2);
    ]
  in
  let inv =
    [
      (fun c -> Circuit.sdg c 2); (fun c -> Circuit.x c 0); (fun c -> Circuit.cnot c ~control:2 ~target:1);
      (fun c -> Circuit.h c 2); (fun c -> Circuit.z c 1); (fun c -> Circuit.s c 0);
      (fun c -> Circuit.swap c 1 2); (fun c -> Circuit.y c 2); (fun c -> Circuit.cnot c ~control:0 ~target:1);
      (fun c -> Circuit.sdg c 1); (fun c -> Circuit.h c 0);
    ]
  in
  let c = Circuit.x (Circuit.create 6) 1 in
  let c = List.fold_left (fun c f -> f c) c (fwd @ inv) in
  List.fold_left Circuit.measure c [ 0; 1; 2 ]

(* A back-to-back schedule in program order with one simultaneous
   readout layer at the end; unlike the schedulers it accepts SWAP
   gates. *)
let serial_schedule circuit =
  let gates = Circuit.gates circuit in
  let n = List.length gates in
  let starts = Array.make n 0.0 and durations = Array.make n 0.0 in
  let t = ref 0.0 in
  List.iter
    (fun g ->
      if Core.Gate.is_unitary g then begin
        let d = if Core.Gate.is_two_qubit g then 300.0 else 50.0 in
        starts.(g.Core.Gate.id) <- !t;
        durations.(g.Core.Gate.id) <- d;
        t := !t +. d
      end)
    gates;
  List.iter
    (fun g ->
      if Core.Gate.is_measure g then begin
        starts.(g.Core.Gate.id) <- !t;
        durations.(g.Core.Gate.id) <- 1000.0
      end
      else if Core.Gate.is_barrier g then starts.(g.Core.Gate.id) <- !t)
    gates;
  Core.Schedule.make circuit ~starts ~durations

(* Pinned (name, device, circuit) workloads for the count goldens. *)
let golden_circuits () =
  let pk = Presets.poughkeepsie () in
  let srb =
    List.concat_map
      (fun edges ->
        List.map
          (fun m ->
            let rng = Rng.create ((100 * List.length edges) + m) in
            let c = srb_circuit pk rng ~m edges in
            (Printf.sprintf "srb.%de.m%d" (List.length edges) m, pk, Core.Par_sched.schedule pk c))
          srb_lengths)
      srb_edge_sets
  in
  let swap =
    let s = Core.Swap_circuits.build pk ~src:0 ~dst:13 in
    let a, b = s.Core.Swap_circuits.bell in
    let c = Circuit.measure (Circuit.measure s.Core.Swap_circuits.circuit a) b in
    ("fig5.swap.0-13", pk, Core.Par_sched.schedule pk c)
  in
  let hs redundancy =
    let region = List.hd (Presets.qaoa_regions pk) in
    let h = Core.Hidden_shift.build pk ~region ~shift:[ true; false; true; true ] ~redundancy in
    (Printf.sprintf "fig9.hs.r%d" redundancy, pk, Core.Par_sched.schedule pk h.Core.Hidden_shift.circuit)
  in
  let mirror = ("mirror.3q", Core.Presets.example_6q (), serial_schedule (mirror_circuit ())) in
  srb @ [ swap; hs 0; hs 1; mirror ]

let run_counts ~jobs device sched =
  Exec.run ~jobs device sched ~rng:(Rng.create 2024) ~trials:301 ~backend:Exec.Stabilizer

(* H before readout: qubit 0's outcome is random, so the executor
   must keep the tableau walk. *)
let random_outcome_schedule device =
  let c = Circuit.create 6 in
  let c = Circuit.x (Circuit.h c 0) 2 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  Core.Par_sched.schedule device (List.fold_left Circuit.measure c [ 0; 1; 2 ])

let t_gate_schedule device =
  Core.Par_sched.schedule device
    (Circuit.measure (Circuit.t_gate (Circuit.h (Circuit.create 6) 0) 0) 0)

(* ---- recorded values ---- *)

let rng_golden =
  [
    (0, [
      "int64.0=e220a8397b1dcdaf";
      "int64.1=6e789e6aa1b965f4";
      "int64.2=6c45d188009454f";
      "split=37089b88a794ccc6";
      "split.next=11ae12bdfbb6fe59";
      "split_nth.3=8f4cab6e5c529cff";
      "split_nth.1000=de12a5e0289b5a9f";
      "int.1=0";
      "int.10=5";
      "int.15=11";
      "int.1000003=421227";
      "int.2305843009213693953=2266080580496311649";
      "bernoulli=000100010100001000110011";
      "gaussian=0x1.1d7788fac0af5p+0";
      "unit_float=0x1.05fbe586076a8p-2";
      "float=0x1.70dab61b855bap+1";
      "bool=true";
      "after=5582d37111ac529";
    ]);
    (1, [
      "int64.0=bfef8030ddc2d772";
      "int64.1=5f552ce482f2aa47";
      "int64.2=70335fc3daf3d8a7";
      "split=a0c1f8bccaeacd5e";
      "split.next=5644f247d1427975";
      "split_nth.3=6ec5739fade8ff79";
      "split_nth.1000=809ff1990640d64c";
      "int.1=0";
      "int.10=5";
      "int.15=12";
      "int.1000003=66476";
      "int.2305843009213693953=598206921771546333";
      "bernoulli=000001010011000100110011";
      "gaussian=0x1.be96efa99e3b3p+0";
      "unit_float=0x1.c70585fc679c8p-2";
      "float=0x1.fd9e8b02a1794p+1";
      "bool=true";
      "after=6ac1adea463c1954";
    ]);
    (42, [
      "int64.0=989b3f130a063869";
      "int64.1=290db4bf2570ded7";
      "int64.2=2a990be63a01b2d5";
      "split=b993dea148989ff";
      "split.next=81af9f189aa2d6d6";
      "split_nth.3=2eb20f9decba778b";
      "split_nth.1000=367a3eca6ec2b81e";
      "int.1=0";
      "int.10=7";
      "int.15=9";
      "int.1000003=325746";
      "int.2305843009213693953=2248669789835156923";
      "bernoulli=000100110011001000010011";
      "gaussian=0x1.6cdfc6f593dd4p+0";
      "unit_float=0x1.89d5d11c2f2b4p-2";
      "float=0x1.c664fca8552a8p+1";
      "bool=true";
      "after=5cd221d8b9ba24b6";
    ]);
    (-7, [
      "int64.0=a39b91cb5ecb1a80";
      "int64.1=22fc9fcabf787829";
      "int64.2=dac2b2a0e5be4a45";
      "split=8cb3a39ab4ae52b8";
      "split.next=62188901f96ee4e1";
      "split_nth.3=8c73a727ed21101c";
      "split_nth.1000=438702c39b8407b";
      "int.1=0";
      "int.10=9";
      "int.15=6";
      "int.1000003=919033";
      "int.2305843009213693953=1200601630637657773";
      "bernoulli=000000000001000100010011";
      "gaussian=0x1.f1350366d77fep+0";
      "unit_float=0x1.74d65c885696cp-1";
      "float=0x1.5078f7aa04b2cp-1";
      "bool=false";
      "after=b28c3b3ea3d12fb";
    ]);
  ]

(* Count digests at 301 trials, seed 2024; identical for jobs 1, 2, 4. *)
let counts_golden =
  [
    ("srb.1e.m1", "fa9af761da69d350eda8756d3af04cc9");
    ("srb.1e.m8", "08e24c0ac6367bce39422baeb049bec6");
    ("srb.1e.m32", "20a3fba796c4350f67e95186a312faa7");
    ("srb.2e.m1", "785ce101a4e7220a30d4d91c87ba010b");
    ("srb.2e.m8", "37677028c7c13ef0f6a02ed5510afdf6");
    ("srb.2e.m32", "a03d7f867fc6f41870cc1cc99dfb66d2");
    ("srb.4e.m1", "b6319536290463dc6e7e33f9995cbf2d");
    ("srb.4e.m8", "334b27323075ed848e0b8052fb68a054");
    ("srb.4e.m32", "1322741c16075b6d6d2c41f31ad7f8f3");
    ("fig5.swap.0-13", "e1f5b9906d8398d990b1037f8f2289f9");
    ("fig9.hs.r0", "bd3c52ed3e49872b3849d70c3a291b09");
    ("fig9.hs.r1", "5173935e1004444c2e0def3aec6af657");
    ("mirror.3q", "a0c6e1923e371801092fd06a790c1fa3");
  ]

let random_outcome_golden = "7ecc17d7246e49892bf7660615fffd9d"
let t_gate_error = "Exec: non-Clifford gate t on stabilizer backend"

(* ---- tests ---- *)

let rng_draws () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list string)) (Printf.sprintf "seed %d" seed) expected (rng_trace seed))
    rng_golden

let exec_counts () =
  let circuits = golden_circuits () in
  Alcotest.(check (list string)) "workloads" (List.map fst counts_golden)
    (List.map (fun (name, _, _) -> name) circuits);
  List.iter
    (fun (name, device, sched) ->
      let expected = List.assoc name counts_golden in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d" name jobs)
            expected
            (counts_digest (run_counts ~jobs device sched)))
        [ 1; 2; 4 ])
    circuits

let exec_random_outcome () =
  let device = Presets.example_6q () in
  let sched = random_outcome_schedule device in
  Alcotest.(check string) "counts" random_outcome_golden
    (counts_digest (run_counts ~jobs:1 device sched))

let exec_t_gate_error () =
  let device = Presets.example_6q () in
  Alcotest.check_raises "non-Clifford" (Invalid_argument t_gate_error) (fun () ->
      ignore (run_counts ~jobs:1 device (t_gate_schedule device)))

let suite =
  [
    ("util.rng_golden", [ Alcotest.test_case "first draws" `Quick rng_draws ]);
    ( "noise.golden",
      [
        Alcotest.test_case "stabilizer counts" `Quick exec_counts;
        Alcotest.test_case "random outcome keeps tableau" `Quick exec_random_outcome;
        Alcotest.test_case "non-Clifford error" `Quick exec_t_gate_error;
      ] );
  ]
