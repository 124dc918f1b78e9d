module Rng = Qcx_util.Rng
module Pool = Qcx_util.Pool
module Circuit = Qcx_circuit.Circuit
module Gate = Qcx_circuit.Gate
module Schedule = Qcx_circuit.Schedule
module Device = Qcx_device.Device
module Topology = Qcx_device.Topology
module Calibration = Qcx_device.Calibration
module Crosstalk = Qcx_device.Crosstalk
module Tableau = Qcx_stabilizer.Tableau
module State = Qcx_statevector.State
module Gates = Qcx_linalg.Gates
module Cplx = Qcx_linalg.Cplx

type backend = Stabilizer | Statevector

type counts = { table : (string, int) Hashtbl.t; mutable total : int }

let counts_total c = c.total
let counts_get c k = Option.value ~default:0 (Hashtbl.find_opt c.table k)

let counts_bindings c =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.table [])

let distribution c =
  let n = float_of_int (max 1 c.total) in
  List.map (fun (k, v) -> (k, float_of_int v /. n)) (counts_bindings c)

let measured_qubits circuit =
  List.sort_uniq compare
    (List.concat_map
       (fun g -> if Gate.is_measure g then g.Gate.qubits else [])
       (Circuit.gates circuit))

let edge_of_cnot g =
  match g.Gate.qubits with
  | [ a; b ] -> Qcx_device.Topology.normalize (a, b)
  | _ -> invalid_arg "Exec: malformed 2-qubit gate"

(* One overlapping two-qubit partner of a gate: its time span and the
   edge it drives. *)
type span = { o_start : float; o_finish : float; spectator : Topology.edge }

(* Index every two-qubit gate's time-overlapping two-qubit partners in
   one sweep over the gates sorted by start time, instead of scanning
   the whole circuit per gate (the old O(G^2) plan build). *)
let overlap_index sched =
  let twoq =
    Array.of_list
      (List.filter_map
         (fun g ->
           if Gate.is_two_qubit g then
             let id = g.Gate.id in
             Some (id, Schedule.start sched id, Schedule.finish sched id, edge_of_cnot g)
           else None)
         (Circuit.gates (Schedule.circuit sched)))
  in
  Array.sort (fun (_, s1, _, _) (_, s2, _, _) -> compare s1 s2) twoq;
  let tbl : (int, span list) Hashtbl.t = Hashtbl.create (Array.length twoq) in
  let add id sp =
    Hashtbl.replace tbl id (sp :: Option.value ~default:[] (Hashtbl.find_opt tbl id))
  in
  let n = Array.length twoq in
  for i = 0 to n - 1 do
    let id_i, s_i, f_i, e_i = twoq.(i) in
    let j = ref (i + 1) in
    let continue = ref true in
    while !continue && !j < n do
      let id_j, s_j, f_j, e_j = twoq.(!j) in
      if s_j >= f_i then continue := false
      else begin
        (* Strict interval overlap, matching [Schedule.overlaps]. *)
        if f_i > s_j && f_j > s_i then begin
          add id_i { o_start = s_j; o_finish = f_j; spectator = e_j };
          add id_j { o_start = s_i; o_finish = f_i; spectator = e_i }
        end;
        incr j
      end
    done
  done;
  tbl

(* [effective_of_gate] takes the gate value directly: the plan build
   calls this once per two-qubit gate, and a [Circuit.gate] lookup per
   call is an O(G) list scan — quadratic over a 1k-gate circuit. *)
let effective_of_gate device sched ~index (g : Gate.t) =
  let id = g.Gate.id in
  if not (Gate.is_two_qubit g) then invalid_arg "Exec.effective_cnot_error: not a CNOT";
  let target = edge_of_cnot g in
  let independent = Device.cnot_error device target in
  let gt = Device.ground_truth device in
  (* Crosstalk accumulates while the spectator's drive is actually on:
     the conditional excess is weighted by the overlapped fraction of
     the target gate.  The worst overlapping partner dominates;
     simultaneous triplets do not compound further (the paper's
     observation behind eq. 6). *)
  let t_start = Schedule.start sched id and t_finish = Schedule.finish sched id in
  let duration = max 1.0 (t_finish -. t_start) in
  let excess =
    List.fold_left
      (fun acc { o_start; o_finish; spectator } ->
        match Crosstalk.conditional gt ~target ~spectator with
        | Some conditional ->
          let o_start = max t_start o_start in
          let o_finish = min t_finish o_finish in
          let fraction = max 0.0 (o_finish -. o_start) /. duration in
          max acc (fraction *. max 0.0 (conditional -. independent))
        | None -> acc)
      0.0
      (Option.value ~default:[] (Hashtbl.find_opt index id))
  in
  min 0.75 (independent +. excess)

let effective_of_index device sched ~index id =
  effective_of_gate device sched ~index (Circuit.gate (Schedule.circuit sched) id)

let effective_cnot_error device sched id =
  effective_of_index device sched ~index:(overlap_index sched) id

(* A trajectory-level simulator interface over the two backends. *)
type sim =
  | Tab of Tableau.t
  | Vec of State.t

let apply_pauli sim p q =
  match sim with Tab t -> Tableau.apply_pauli t p q | Vec v -> State.apply_pauli v p q

let apply_gate sim kind qubits =
  match (sim, kind, qubits) with
  | Tab t, Gate.H, [ q ] -> Tableau.h t q
  | Tab t, Gate.X, [ q ] -> Tableau.x t q
  | Tab t, Gate.Y, [ q ] -> Tableau.y t q
  | Tab t, Gate.Z, [ q ] -> Tableau.z t q
  | Tab t, Gate.S, [ q ] -> Tableau.s t q
  | Tab t, Gate.Sdg, [ q ] -> Tableau.sdg t q
  | Tab t, Gate.Cnot, [ c; tg ] -> Tableau.cnot t ~control:c ~target:tg
  | Tab t, Gate.Swap, [ a; b ] -> Tableau.swap t a b
  | Tab _, (Gate.T | Gate.Tdg | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.U2 _), _ ->
    invalid_arg
      (Printf.sprintf "Exec: non-Clifford gate %s on stabilizer backend" (Gate.kind_name kind))
  | Vec v, Gate.H, [ q ] -> State.h v q
  | Vec v, Gate.X, [ q ] -> State.x v q
  | Vec v, Gate.Y, [ q ] -> State.y v q
  | Vec v, Gate.Z, [ q ] -> State.z v q
  | Vec v, Gate.S, [ q ] -> State.s v q
  | Vec v, Gate.Sdg, [ q ] -> State.sdg v q
  | Vec v, Gate.T, [ q ] -> State.phase v (Float.pi /. 4.0) q
  | Vec v, Gate.Tdg, [ q ] -> State.phase v (-.Float.pi /. 4.0) q
  | Vec v, Gate.Rx theta, [ q ] -> State.apply1 v (Gates.rx theta) q
  | Vec v, Gate.Ry theta, [ q ] -> State.apply1 v (Gates.ry theta) q
  | Vec v, Gate.Rz theta, [ q ] -> State.rz v theta q
  | Vec v, Gate.U2 (phi, lam), [ q ] -> State.apply1 v (Gates.u2 phi lam) q
  | Vec v, Gate.Cnot, [ c; tg ] -> State.cnot v ~control:c ~target:tg
  | Vec v, Gate.Swap, [ a; b ] ->
    State.cnot v ~control:a ~target:b;
    State.cnot v ~control:b ~target:a;
    State.cnot v ~control:a ~target:b
  | _, (Gate.Barrier | Gate.Measure), _ -> ()
  | _ -> invalid_arg "Exec: malformed gate operands"

let measure_sim sim rng q =
  match sim with Tab t -> Tableau.measure t rng q | Vec v -> State.measure v rng q

(* Precomputed per-gate noise plan, shared (read-only) across trials
   and across worker domains. *)
type gate_plan = {
  gate : Gate.t;
  compact_qubits : int list;
  start : float;
  error_p : float;  (** depolarizing parameter to inject after the gate *)
  matrix : Qcx_linalg.Mat.t option;
      (** 2x2 unitary prebuilt for parameterized single-qubit gates, so
          the statevector backend does not rebuild it every trajectory *)
  idles : (int * int * Channel.idle) list;
      (** (hardware qubit, compact qubit, channel) for the gap before this gate *)
}

let prebuilt_matrix = function
  | Gate.Rx theta -> Some (Gates.rx theta)
  | Gate.Ry theta -> Some (Gates.ry theta)
  | Gate.U2 (phi, lam) -> Some (Gates.u2 phi lam)
  | _ -> None

type protection = {
  p_qubit : int;
  p_start : float;
  p_finish : float;
  p_xy : float;
  p_z : float;
}

(* Per-qubit protection spans, each list sorted by start.  A gap is
   protected when one span covers it entirely; DD pads whole idle
   windows, so the pulse-split sub-gaps always fall inside one span. *)
let protection_index protection =
  let tbl : (int, protection list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if not (p.p_xy >= 0.0 && p.p_z >= 0.0) then
        invalid_arg "Exec: protection factors must be non-negative";
      Hashtbl.replace tbl p.p_qubit
        (p :: Option.value ~default:[] (Hashtbl.find_opt tbl p.p_qubit)))
    protection;
  Hashtbl.iter
    (fun q spans ->
      Hashtbl.replace tbl q (List.sort (fun a b -> compare a.p_start b.p_start) spans))
    (Hashtbl.copy tbl);
  tbl

let protect_idle pindex q ~t0 ~t1 idle =
  match Hashtbl.find_opt pindex q with
  | None -> idle
  | Some spans -> (
    match
      List.find_opt (fun p -> p.p_start <= t0 +. 1e-9 && t1 <= p.p_finish +. 1e-9) spans
    with
    | Some p -> Channel.scale_idle idle ~xy:p.p_xy ~z:p.p_z
    | None -> idle)

let build_plans ?(protection = []) device sched =
  let circuit = Schedule.circuit sched in
  let cal = Device.calibration device in
  let used = Circuit.used_qubits circuit in
  let compact = Hashtbl.create 16 in
  List.iteri (fun i q -> Hashtbl.add compact q i) used;
  let cq q = Hashtbl.find compact q in
  let index = overlap_index sched in
  let pindex = protection_index protection in
  let last_end = Hashtbl.create 16 in
  (* Decoherence starts at a qubit's first gate: no idle before it. *)
  let plans =
    List.filter_map
      (fun g ->
        if Gate.is_barrier g then None
        else begin
          let id = g.Gate.id in
          let start = Schedule.start sched id in
          let idles =
            List.filter_map
              (fun q ->
                match Hashtbl.find_opt last_end q with
                | Some t0 when start > t0 +. 1e-9 ->
                  let qc = Calibration.qubit cal q in
                  let idle =
                    Channel.idle_channel ~t1:qc.Calibration.t1 ~t2:qc.Calibration.t2
                      ~duration:(start -. t0)
                  in
                  Some (q, cq q, protect_idle pindex q ~t0 ~t1:start idle)
                | Some _ | None -> None)
              g.Gate.qubits
          in
          List.iter (fun q -> Hashtbl.replace last_end q (Schedule.finish sched id)) g.Gate.qubits;
          let error_p =
            if Gate.is_two_qubit g then
              Channel.depol_param_of_error_rate ~nqubits:2 (effective_of_gate device sched ~index g)
            else if Gate.is_single_qubit g then
              let q = List.hd g.Gate.qubits in
              Channel.depol_param_of_error_rate ~nqubits:1
                (Calibration.qubit cal q).Calibration.single_qubit_error
            else 0.0
          in
          Some
            {
              gate = g;
              compact_qubits = List.map cq g.Gate.qubits;
              start;
              error_p;
              matrix = prebuilt_matrix g.Gate.kind;
              idles;
            }
        end)
      (Schedule.gates_by_start sched)
  in
  (used, plans)

(* Walk one trajectory through the unitary part of a plan: idles and
   gate noise for every non-measure gate; measure gates only get their
   idles, with [on_measure] deciding what readout does. *)
let step_plan sim rng plan ~on_measure =
  List.iter
    (fun (_, cqubit, idle) ->
      match Channel.sample_idle rng idle with
      | Some p -> apply_pauli sim p cqubit
      | None -> ())
    plan.idles;
  if Gate.is_measure plan.gate then on_measure plan
  else begin
    (match (plan.matrix, sim, plan.compact_qubits) with
    | Some m, Vec v, [ q ] -> State.apply1 v m q
    | _ -> apply_gate sim plan.gate.Gate.kind plan.compact_qubits);
    if plan.error_p > 0.0 then
      match plan.compact_qubits with
      | [ q ] -> (
        match Channel.sample_depolarizing1 rng ~p:plan.error_p with
        | Some p -> apply_pauli sim p q
        | None -> ())
      | [ a; b ] -> (
        match Channel.sample_depolarizing2 rng ~p:plan.error_p with
        | Some (pa, pb) ->
          Option.iter (fun p -> apply_pauli sim p a) pa;
          Option.iter (fun p -> apply_pauli sim p b) pb
        | None -> ())
      | _ -> ()
  end

(* Pauli-frame sampling for Clifford plans whose noiseless readout is
   deterministic (Gidney, "Stim", arXiv:2103.02202).  Every noise
   channel here is a Pauli channel, so a noisy trajectory's state is
   P|ref> for the noiseless reference state |ref> and a Pauli P that
   the gates conjugate.  P is tracked as one X and one Z bitmask over
   the compact qubits; a measured bit is the reference outcome flipped
   by P's X component.  Ops are compiled once from one noiseless
   tableau run of the plans; [frame_trajectory] then draws in exactly
   the order of the tableau walk (a deterministic measurement draws
   nothing), so counts are bit-identical. *)
type frame_op =
  | F_idle of int * Channel.idle  (** qubit mask, twirled idle channel *)
  | F_h of int
  | F_s of int  (** S and Sdg: both map X to +-Y *)
  | F_cnot of int * int  (** control mask, target mask *)
  | F_swap of int * int
  | F_depol1 of int * float
  | F_depol2 of int * int * float
  | F_measure of { pos : int; mask : int; ideal : bool; ro : float }
      (** output position, qubit mask, reference outcome, readout error *)

(* The frame ops for [plans], or [None] when a measurement of the
   noiseless run has a random outcome (the frame cannot sample it), or
   the compact register is wider than an int.  Non-Clifford gates
   raise from [apply_gate] exactly as the tableau walk would. *)
let frame_program plans ~nused ~pos_of_cq ~ro_of_cq =
  if nused > Sys.int_size then None
  else begin
    let tab = Tableau.create (max nused 1) in
    let ops = ref [] in
    let emit op = ops := op :: !ops in
    let bit q = 1 lsl q in
    let rec walk = function
      | [] -> Some (Array.of_list (List.rev !ops))
      | plan :: rest -> (
        List.iter (fun (_, cq, idle) -> emit (F_idle (bit cq, idle))) plan.idles;
        let qubits = plan.compact_qubits in
        if Gate.is_measure plan.gate then begin
          let q = List.hd qubits in
          match Tableau.measure_deterministic_opt tab q with
          | None -> None
          | Some ideal ->
            emit (F_measure { pos = pos_of_cq.(q); mask = bit q; ideal; ro = ro_of_cq.(q) });
            walk rest
        end
        else begin
          apply_gate (Tab tab) plan.gate.Gate.kind qubits;
          (match (plan.gate.Gate.kind, qubits) with
          | Gate.H, [ q ] -> emit (F_h (bit q))
          | (Gate.S | Gate.Sdg), [ q ] -> emit (F_s (bit q))
          | Gate.Cnot, [ c; t ] -> emit (F_cnot (bit c, bit t))
          | Gate.Swap, [ a; b ] -> emit (F_swap (bit a, bit b))
          | _ -> ());
          (if plan.error_p > 0.0 then
             match qubits with
             | [ q ] -> emit (F_depol1 (bit q, plan.error_p))
             | [ a; b ] -> emit (F_depol2 (bit a, bit b, plan.error_p))
             | _ -> ());
          walk rest
        end)
    in
    walk plans
  end

let[@inline] x_part (p : Channel.pauli) m = match p with `X | `Y -> m | `Z -> 0
let[@inline] z_part (p : Channel.pauli) m = match p with `Z | `Y -> m | `X -> 0
let[@inline] opt_x p m = match p with Some p -> x_part p m | None -> 0
let[@inline] opt_z p m = match p with Some p -> z_part p m | None -> 0

(* Exchange the bits under masks [a] and [b] of [v]. *)
let[@inline] swap_bits v a b = if (v land a = 0) = (v land b = 0) then v else v lxor (a lor b)

let frame_trajectory ops ~nmeas rng =
  let buf = Bytes.make nmeas '?' in
  let x = ref 0 and z = ref 0 in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | F_idle (m, idle) -> (
      match Channel.sample_idle rng idle with
      | Some p ->
        x := !x lxor x_part p m;
        z := !z lxor z_part p m
      | None -> ())
    | F_h m ->
      let xm = !x land m and zm = !z land m in
      x := (!x lxor xm) lor zm;
      z := (!z lxor zm) lor xm
    | F_s m -> if !x land m <> 0 then z := !z lxor m
    | F_cnot (c, t) ->
      if !x land c <> 0 then x := !x lxor t;
      if !z land t <> 0 then z := !z lxor c
    | F_swap (a, b) ->
      x := swap_bits !x a b;
      z := swap_bits !z a b
    | F_depol1 (m, p) -> (
      match Channel.sample_depolarizing1 rng ~p with
      | Some p ->
        x := !x lxor x_part p m;
        z := !z lxor z_part p m
      | None -> ())
    | F_depol2 (a, b, p) -> (
      match Channel.sample_depolarizing2 rng ~p with
      | Some (pa, pb) ->
        x := !x lxor opt_x pa a lxor opt_x pb b;
        z := !z lxor opt_z pa a lxor opt_z pb b
      | None -> ())
    | F_measure { pos; mask; ideal; ro } ->
      let bit = ideal <> (!x land mask <> 0) in
      let bit = if Rng.bernoulli rng ro then not bit else bit in
      Bytes.unsafe_set buf pos (if bit then '1' else '0')
  done;
  Bytes.unsafe_to_string buf

(* Compile the unitary part of a plan list into a flat op array for
   the statevector backend, with every dispatch decision (gate kind,
   operand lists, diagonal phases — including the trig for Rz/T) taken
   once here instead of once per trajectory.  Measure gates contribute
   only their idles; readout is the caller's business.

   Ops are split into deterministic gates and random noise points
   whose [decide] draws from the trajectory stream and returns the
   (preallocated) state action to apply when the noise fires.  The
   split lets the executor precompute the noiseless evolution once and
   re-simulate only from the first fired noise point of a trajectory:
   at the paper's error rates most trajectories fire none. *)
type sv_op =
  | Det of (State.t -> unit)
  | Rand of (Rng.t -> (State.t -> unit) option)

let pauli_actions q =
  ( Some (fun v -> State.x v q),
    Some (fun v -> State.y v q),
    Some (fun v -> State.z v q) )

let compile_sv plans =
  let ops = ref [] in
  let emit f = ops := Det f :: !ops in
  let diag d0 d1 q = emit (fun v -> State.apply_diag1 v d0 d1 q) in
  List.iter
    (fun plan ->
      List.iter
        (fun (_, cq, idle) ->
          let sx, sy, sz = pauli_actions cq in
          ops :=
            Rand
              (fun rng ->
                match Channel.sample_idle rng idle with
                | None -> None
                | Some `X -> sx
                | Some `Y -> sy
                | Some `Z -> sz)
            :: !ops)
        plan.idles;
      if not (Gate.is_measure plan.gate) then begin
        (match (plan.matrix, plan.gate.Gate.kind, plan.compact_qubits) with
        | Some m, _, [ q ] -> emit (fun v -> State.apply1 v m q)
        | _, Gate.H, [ q ] -> emit (fun v -> State.h v q)
        | _, Gate.X, [ q ] -> emit (fun v -> State.x v q)
        | _, Gate.Y, [ q ] -> emit (fun v -> State.y v q)
        | _, Gate.Z, [ q ] -> diag Cplx.one (Cplx.re (-1.0)) q
        | _, Gate.S, [ q ] -> diag Cplx.one Cplx.i q
        | _, Gate.Sdg, [ q ] -> diag Cplx.one (Cplx.make 0.0 (-1.0)) q
        | _, Gate.T, [ q ] -> diag Cplx.one (Cplx.exp_i (Float.pi /. 4.0)) q
        | _, Gate.Tdg, [ q ] -> diag Cplx.one (Cplx.exp_i (-.Float.pi /. 4.0)) q
        | _, Gate.Rz theta, [ q ] ->
          diag (Cplx.exp_i (-.theta /. 2.0)) (Cplx.exp_i (theta /. 2.0)) q
        | _, Gate.Cnot, [ c; t ] -> emit (fun v -> State.cnot v ~control:c ~target:t)
        | _, Gate.Swap, [ a; b ] ->
          emit (fun v ->
              State.cnot v ~control:a ~target:b;
              State.cnot v ~control:b ~target:a;
              State.cnot v ~control:a ~target:b)
        | _ -> invalid_arg "Exec: malformed gate operands");
        if plan.error_p > 0.0 then begin
          let p = plan.error_p in
          match plan.compact_qubits with
          | [ q ] ->
            let sx, sy, sz = pauli_actions q in
            ops :=
              Rand
                (fun rng ->
                  match Channel.sample_depolarizing1 rng ~p with
                  | None -> None
                  | Some `X -> sx
                  | Some `Y -> sy
                  | Some `Z -> sz)
              :: !ops
          | [ a; b ] ->
            (* One preallocated action per non-identity Pauli pair,
               indexed exactly like [Channel.sample_depolarizing2]
               decodes (same draws, same mapping). *)
            let one q = function
              | 0 -> fun (_ : State.t) -> ()
              | 1 -> fun v -> State.x v q
              | 2 -> fun v -> State.y v q
              | _ -> fun v -> State.z v q
            in
            let acts =
              Array.init 15 (fun c ->
                  let code = c + 1 in
                  let fa = one a (code land 3) and fb = one b (code lsr 2) in
                  Some
                    (fun v ->
                      fa v;
                      fb v))
            in
            ops :=
              Rand
                (fun rng ->
                  if Rng.bernoulli rng p then Array.unsafe_get acts (Rng.int rng 15) else None)
              :: !ops
          | _ -> ()
        end
      end)
    plans;
  Array.of_list (List.rev !ops)

(* Noiseless evolution, computed once: the state before every random
   op (its restart checkpoint) and the final state.  A trajectory
   whose draws all miss reuses [final] untouched; one that fires at
   op [i] restarts from checkpoint [i] and simulates only the tail. *)
type sv_track = { track_ops : sv_op array; checkpoints : State.t option array; final : State.t }

(* Checkpoints cost [nrand * dim] amplitudes; beyond this budget the
   executor falls back to plain per-trajectory simulation. *)
let checkpoint_budget_floats = 8 * 1024 * 1024

let precompute_sv ops ~nqubits =
  let nrand =
    Array.fold_left (fun acc op -> match op with Rand _ -> acc + 1 | Det _ -> acc) 0 ops
  in
  if nrand * (1 lsl nqubits) * 2 > checkpoint_budget_floats then None
  else begin
    let v = State.create nqubits in
    let checkpoints = Array.map (fun _ -> None) ops in
    Array.iteri
      (fun i op ->
        match op with
        | Det f -> f v
        | Rand _ -> checkpoints.(i) <- Some (State.copy v))
      ops;
    Some { track_ops = ops; checkpoints; final = v }
  end

(* Walk one trajectory and return the state to read out — either the
   shared noiseless [final] (callers must not mutate it) or [scratch].
   Draws happen in op order exactly as a plain walk would, so counts
   are unchanged by the checkpointing. *)
let run_ops_tracked track scratch rng =
  let ops = track.track_ops in
  let nops = Array.length ops in
  let tail_from i =
    for j = i to nops - 1 do
      match Array.unsafe_get ops j with
      | Det f -> f scratch
      | Rand decide -> (
        match decide rng with Some act -> act scratch | None -> ())
    done
  in
  let rec scan i =
    if i >= nops then track.final
    else
      match Array.unsafe_get ops i with
      | Det _ -> scan (i + 1)
      | Rand decide -> (
        match decide rng with
        | None -> scan (i + 1)
        | Some act ->
          (match track.checkpoints.(i) with
          | Some cp -> State.blit cp scratch
          | None -> assert false);
          act scratch;
          tail_from (i + 1);
          scratch)
  in
  scan 0

let run_ops_plain ops scratch rng =
  State.reset scratch;
  Array.iter
    (fun op ->
      match op with
      | Det f -> f scratch
      | Rand decide -> (
        match decide rng with Some act -> act scratch | None -> ()))
    ops;
  scratch

(* The statevector backend reads all qubits in one [State.sample] draw
   (the hardware's simultaneous-readout model) when that is faithful:
   every measurement starts at the same instant (validated) and no
   unitary touches a measured qubit afterwards.  Gates on unmeasured
   qubits cannot change the measured marginal, so they are free to
   trail past readout. *)
let simultaneous_readout_ok plans ~nused =
  let measure_start =
    List.fold_left
      (fun acc p -> if Gate.is_measure p.gate then min acc p.start else acc)
      infinity plans
  in
  measure_start < infinity
  &&
  let measured_cq = Array.make (max nused 1) false in
  List.iter
    (fun p ->
      if Gate.is_measure p.gate then
        List.iter (fun cq -> measured_cq.(cq) <- true) p.compact_qubits)
    plans;
  List.for_all
    (fun p ->
      Gate.is_measure p.gate
      || p.start <= measure_start +. 1e-9
      || not (List.exists (fun cq -> measured_cq.(cq)) p.compact_qubits))
    plans

let merge_counts tables =
  let counts = { table = Hashtbl.create 64; total = 0 } in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace counts.table k (v + counts_get counts k);
          counts.total <- counts.total + v)
        tbl)
    tables;
  counts

let run ?(jobs = 1) ?(protection = []) device sched ~rng ~trials ~backend =
  let circuit = Schedule.circuit sched in
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Exec.run: invalid schedule: " ^ msg));
  let used, plans = build_plans ~protection device sched in
  let nused = List.length used in
  let cal = Device.calibration device in
  let measured = measured_qubits circuit in
  let sample_readout = backend = Statevector && simultaneous_readout_ok plans ~nused in
  (* One split decouples the trajectory streams from the caller's
     generator; [Rng.split_nth] then gives trajectory [i] the same
     stream whichever worker runs it, so counts are bit-identical for
     every [jobs] value. *)
  let base = Rng.split rng in
  let cq_of_hw =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i q -> Hashtbl.replace tbl q i) used;
    fun hw -> Hashtbl.find tbl hw
  in
  let ro_err hw = (Calibration.qubit cal hw).Calibration.readout_error in
  let readout_flip rng hw bit = if Rng.bernoulli rng (ro_err hw) then not bit else bit in
  (* (compact qubit, readout error) per measured qubit, in output
     (sorted hardware id) order — the whole readout when the
     simultaneous-sample path applies. *)
  let meas_specs = Array.of_list (List.map (fun hw -> (cq_of_hw hw, ro_err hw)) measured) in
  let nmeas = Array.length meas_specs in
  let pos_of_cq = Array.make (max nused 1) (-1) in
  Array.iteri (fun m (cq, _) -> pos_of_cq.(cq) <- m) meas_specs;
  (* Per-qubit measurement, for the stabilizer backend and for
     statevector schedules where readout is not simultaneous.  Each
     readout bit goes straight to its output position. *)
  let generic_trajectory sim rng =
    let buf = Bytes.make nmeas '?' in
    List.iter
      (fun plan ->
        step_plan sim rng plan ~on_measure:(fun plan ->
            let hw = List.hd plan.gate.Gate.qubits in
            let cqubit = List.hd plan.compact_qubits in
            let bit = readout_flip rng hw (measure_sim sim rng cqubit) in
            Bytes.set buf pos_of_cq.(cqubit) (if bit then '1' else '0')))
      plans;
    Bytes.unsafe_to_string buf
  in
  (* Stabilizer trajectories sample a Pauli frame against one noiseless
     reference run whenever its readout is deterministic. *)
  let frame =
    if backend = Stabilizer && trials > 0 then
      frame_program plans ~nused ~pos_of_cq ~ro_of_cq:(Array.of_list (List.map ro_err used))
    else None
  in
  (* Simultaneous readout: run the compiled unitary part, then one
     full-register sample, flipped per qubit — no per-trial tables,
     lists or gate dispatch. *)
  let ops = if sample_readout then compile_sv plans else [||] in
  let track = if sample_readout then precompute_sv ops ~nqubits:(max nused 1) else None in
  let sampled_trajectory scratch rng =
    let v =
      match track with
      | Some tr -> run_ops_tracked tr scratch rng
      | None -> run_ops_plain ops scratch rng
    in
    let k = State.sample v rng in
    let buf = Bytes.create nmeas in
    for m = 0 to nmeas - 1 do
      let cq, ro = meas_specs.(m) in
      let bit = (k lsr cq) land 1 = 1 in
      let bit = if Rng.bernoulli rng ro then not bit else bit in
      Bytes.set buf m (if bit then '1' else '0')
    done;
    Bytes.unsafe_to_string buf
  in
  let shard ~lo ~hi =
    let table = Hashtbl.create 64 in
    let run_trajectory =
      if sample_readout then (
        let scratch = State.create (max nused 1) in
        fun rng -> sampled_trajectory scratch rng)
      else
        match frame with
        | Some ops -> frame_trajectory ops ~nmeas
        | None ->
          fun rng ->
            let sim =
              match backend with
              | Stabilizer -> Tab (Tableau.create (max nused 1))
              | Statevector -> Vec (State.create (max nused 1))
            in
            generic_trajectory sim rng
    in
    for i = lo to hi - 1 do
      let bitstring = run_trajectory (Rng.split_nth base i) in
      Hashtbl.replace table bitstring
        (1 + Option.value ~default:0 (Hashtbl.find_opt table bitstring))
    done;
    table
  in
  merge_counts (Pool.parallel_chunks ~jobs ~n:trials shard)

let run_distribution ?(jobs = 1) ?(protection = []) device sched ~rng ~trajectories =
  let circuit = Schedule.circuit sched in
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Exec.run_distribution: invalid schedule: " ^ msg));
  let used, plans = build_plans ~protection device sched in
  let nused = List.length used in
  let cal = Device.calibration device in
  let measured = measured_qubits circuit in
  let nmeas = List.length measured in
  if nmeas > 12 then invalid_arg "Exec.run_distribution: too many measured qubits";
  let compact_of_hw =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i q -> Hashtbl.replace tbl q i) used;
    tbl
  in
  let meas_compact = Array.of_list (List.map (Hashtbl.find compact_of_hw) measured) in
  let dim = 1 lsl nmeas in
  let full_dim = 1 lsl max nused 1 in
  (* Precompute the marginalization map: full statevector index ->
     measured-qubit outcome index. *)
  let marg =
    Array.init full_dim (fun k ->
        let idx = ref 0 in
        Array.iteri (fun i cq -> if (k lsr cq) land 1 = 1 then idx := !idx lor (1 lsl i)) meas_compact;
        !idx)
  in
  let base = Rng.split rng in
  let ops = compile_sv plans in
  let track = precompute_sv ops ~nqubits:(max nused 1) in
  let shard ~lo ~hi =
    let acc = Array.make dim 0.0 in
    let state = State.create (max nused 1) in
    for i = lo to hi - 1 do
      let rng = Rng.split_nth base i in
      let v =
        match track with
        | Some tr -> run_ops_tracked tr state rng
        | None -> run_ops_plain ops state rng
      in
      (* Marginalize |amp|^2 onto the measured qubits. *)
      for k = 0 to full_dim - 1 do
        let p = State.probability v k in
        if p > 0.0 then acc.(marg.(k)) <- acc.(marg.(k)) +. p
      done
    done;
    acc
  in
  let acc =
    Pool.map_reduce ~jobs ~n:trajectories ~map:shard
      ~merge:(fun total part ->
        Array.iteri (fun k v -> total.(k) <- total.(k) +. v) part;
        total)
      (Array.make dim 0.0)
  in
  let scale = 1.0 /. float_of_int (max 1 trajectories) in
  let clean = Array.map (fun p -> p *. scale) acc in
  (* Apply readout confusion analytically: independent per-qubit
     flips.  The flip product depends only on which bits differ, so
     tabulate it once per XOR pattern instead of recomputing the
     per-qubit product inside the dim^2 loop. *)
  let flips =
    Array.of_list
      (List.map (fun q -> (Calibration.qubit cal q).Calibration.readout_error) measured)
  in
  let flip_product =
    Array.init dim (fun diff ->
        let p = ref 1.0 in
        Array.iteri
          (fun i flip -> p := !p *. (if (diff lsr i) land 1 = 1 then flip else 1.0 -. flip))
          flips;
        !p)
  in
  let confused = Array.make dim 0.0 in
  for truth = 0 to dim - 1 do
    if clean.(truth) > 0.0 then
      for observed = 0 to dim - 1 do
        confused.(observed) <-
          confused.(observed) +. (clean.(truth) *. flip_product.(truth lxor observed))
      done
  done;
  List.init dim (fun k ->
      ( String.init nmeas (fun i -> if (k lsr i) land 1 = 1 then '1' else '0'),
        confused.(k) ))

let run_ideal circuit =
  let used = Circuit.used_qubits circuit in
  let nq = max 1 (Circuit.nqubits circuit) in
  let compact = Array.make nq (-1) in
  List.iteri (fun i q -> compact.(q) <- i) used;
  let state = State.create (max (List.length used) 1) in
  let sim = Vec state in
  List.iter
    (fun g ->
      if Gate.is_unitary g then
        apply_gate sim g.Gate.kind (List.map (Array.get compact) g.Gate.qubits))
    (Circuit.gates circuit);
  (state, used)
