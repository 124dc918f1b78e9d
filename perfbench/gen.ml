(* Seeded workload inputs.  Everything here is a pure function of the
   seed: the same seed gives the same templates, request sequences and
   miss circuits, byte for byte. *)

module Circuit = Core.Circuit
module Device = Core.Device
module Presets = Core.Presets

(* The daemon's device fleet, under the ids it registers them with. *)
let fleet () =
  [
    ("example6q", Presets.example_6q ());
    ("poughkeepsie", Presets.poughkeepsie ());
    ("johannesburg", Presets.johannesburg ());
  ]

let fleet_csv = "example6q,poughkeepsie,johannesburg"

(* One compile the clients can send: the circuit and the device id. *)
type item = { label : string; device : string; dev : Device.t; circuit : Circuit.t }

let item dev_id dev label circuit = { label = dev_id ^ "/" ^ label; device = dev_id; dev; circuit }
let take n l = List.filteri (fun i _ -> i < n) l

(* Six SWAP paths on the 6-qubit ring (it has no preset endpoints). *)
let example6q_endpoints = [ (0, 3); (1, 5); (2, 4); (0, 2); (1, 3); (4, 3) ]

let swap_items (id, dev) endpoints =
  List.map
    (fun (src, dst) ->
      let b = Core.Swap_circuits.build dev ~src ~dst in
      item id dev (Printf.sprintf "swap-%d-%d" src dst)
        (Circuit.measure_all b.Core.Swap_circuits.circuit))
    endpoints

let qaoa_items rng (id, dev) =
  List.map
    (fun region ->
      let q = Core.Qaoa.build dev ~rng:(Core.Rng.split rng) ~region in
      item id dev
        ("qaoa-" ^ String.concat "." (List.map string_of_int region))
        q.Core.Qaoa.circuit)
    (Presets.qaoa_regions dev)

let bits shift = String.concat "" (List.map (fun b -> if b then "1" else "0") shift)

let hs_item (id, dev) ~region ~shift ~redundancy =
  let hs = Core.Hidden_shift.build dev ~region ~shift ~redundancy in
  item id dev
    (Printf.sprintf "hs%d-%s-%s" redundancy
       (String.concat "." (List.map string_of_int region))
       (bits shift))
    hs.Core.Hidden_shift.circuit

(* The ~30 hot templates, interleaved across devices so the Zipf ranks
   mix devices and circuit sizes the same way for every seed (only the
   QAOA angles and the request draws depend on the seed). *)
let templates ~rng =
  match fleet () with
  | [ ex; pk; jb ] ->
    let per_device ((_, dev) as d) =
      swap_items d (take 6 (Presets.swap_endpoints dev))
      @ qaoa_items rng d
      @ List.map
          (fun shift ->
            hs_item d ~region:(List.hd (Presets.qaoa_regions dev)) ~shift ~redundancy:0)
          [ [ true; false; true; false ]; [ false; true; true; true ] ]
    in
    let lists = [ swap_items ex example6q_endpoints; per_device pk; per_device jb ] in
    let rec interleave acc ls =
      match List.filter (( <> ) []) ls with
      | [] -> List.rev acc
      | ls -> interleave (List.rev_append (List.map List.hd ls) acc) (List.map List.tl ls)
    in
    Array.of_list (interleave [] lists)
  | _ -> assert false

(* Zipf(1) rank draws over [n] templates by inverse CDF. *)
let zipf_sampler n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cdf.(i) <- !acc)
    w;
  fun rng ->
    let u = Core.Rng.unit_float rng in
    let rec go i = if i >= n - 1 || u <= cdf.(i) then i else go (i + 1) in
    go 0

let hot_sequence ~rng ~templates ~n =
  let draw = zipf_sampler (Array.length templates) in
  Array.init n (fun _ -> draw rng)

(* Never-seen circuits for the mixed stream: a fixed ladder of shapes
   (16-20-qubit supremacy-style circuits of 150-450 gates, which reach
   the exact, clustered and windowed rungs, plus Hidden Shift
   redundancy-1 instances) whose gate content the seed draws.  The
   shape ladder is the same for every seed, so the solver work per run
   varies little between seeds. *)
let miss_items ~rng ~n =
  let pk = List.nth (fleet ()) 1 and jb = List.nth (fleet ()) 2 in
  let hs_pool =
    List.concat_map
      (fun ((_, dev) as d) ->
        List.concat_map
          (fun region ->
            List.init 16 (fun s ->
                let shift = List.init 4 (fun b -> (s lsr b) land 1 = 1) in
                (d, region, shift)))
          (Presets.qaoa_regions dev))
      [ pk; jb ]
    |> Array.of_list
  in
  (* shifts are drawn per (device, region) slot; the slots cycle *)
  let slots = Array.length hs_pool / 16 in
  let perm = Array.init 16 Fun.id in
  Core.Rng.shuffle rng perm;
  let gate_ladder = [| 150; 350; 450 |] in
  Array.init n (fun j ->
      if j mod 4 = 3 then begin
        let h = j / 4 in
        let d, region, shift = hs_pool.((h mod slots * 16) + perm.((h / slots) mod 16)) in
        hs_item d ~region ~shift ~redundancy:1
      end
      else begin
        let ((id, dev) as _d) = if j mod 2 = 0 then pk else jb in
        let nqubits = 16 + (j mod 5) and target_gates = gate_ladder.((j / 4) mod 3) in
        let s = Core.Supremacy.build dev ~rng:(Core.Rng.split rng) ~nqubits ~target_gates in
        item id dev (Printf.sprintf "sup%d-%dq-%dg" j nqubits target_gates) s.Core.Supremacy.circuit
      end)

(* A mixed stream of [n] requests: a fixed share of [n_miss] positions
   (seeded) carries one never-seen circuit each, in order; the rest are
   Zipf draws over the templates.  Entries [< ntempl] index templates,
   entries [>= ntempl] index [ntempl + miss]. *)
let mixed_sequence ~rng ~ntempl ~n ~n_miss =
  let draw = zipf_sampler ntempl in
  let is_miss = Array.make n false in
  let block = n / n_miss in
  for k = 0 to n_miss - 1 do
    is_miss.((k * block) + Core.Rng.int rng block) <- true
  done;
  let next_miss = ref 0 in
  Array.init n (fun i ->
      if is_miss.(i) then begin
        let m = !next_miss in
        incr next_miss;
        ntempl + m
      end
      else draw rng)

(* Due times (s from the start) of [n] open-loop requests arriving as
   a Poisson process at [rate] per second.  Random gaps keep arrivals
   from locking into a fixed phase with the daemon's batch window,
   which would make the latency distribution a few narrow modes whose
   weights, and so the median, jump with small timing shifts. *)
let poisson_offsets ~rng ~rate ~n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let at = !t in
      t := !t -. (log (1.0 -. Core.Rng.unit_float rng) /. rate);
      at)

(* Wire line of one compile request (newline-terminated). *)
let request_line ~id it =
  Core.Json.to_string ~indent:false
    (Core.Wire.request_to_json
       (Core.Wire.Compile
          { id; device = it.device; circuit = it.circuit; params = Core.Wire.default_params }))
  ^ "\n"

(* The paper-pipeline suite on poughkeepsie: fig5 SWAP paths (stabilizer
   replay), fig8 QAOA regions (statevector) and fig9 Hidden Shift with
   one redundancy level (stabilizer). *)
type suite_entry = { s_label : string; s_circuit : Circuit.t; backend : Core.Exec.backend; trials : int }

let pipeline_suite ~rng dev =
  let swaps =
    List.map
      (fun (src, dst) ->
        let b = Core.Swap_circuits.build dev ~src ~dst in
        {
          s_label = Printf.sprintf "fig5-swap-%d-%d" src dst;
          s_circuit = Circuit.measure_all b.Core.Swap_circuits.circuit;
          backend = Core.Exec.Stabilizer;
          trials = 4096;
        })
      (Presets.swap_endpoints dev)
  in
  let regions = Presets.qaoa_regions dev in
  let qaoa =
    List.map
      (fun region ->
        let q = Core.Qaoa.build dev ~rng:(Core.Rng.split rng) ~region in
        {
          s_label = "fig8-qaoa-" ^ String.concat "." (List.map string_of_int region);
          s_circuit = q.Core.Qaoa.circuit;
          backend = Core.Exec.Statevector;
          trials = 512;
        })
      regions
  in
  let hs =
    List.map
      (fun region ->
        let h =
          Core.Hidden_shift.build dev ~region ~shift:[ true; false; true; true ] ~redundancy:1
        in
        {
          s_label = "fig9-hs1-" ^ String.concat "." (List.map string_of_int region);
          s_circuit = h.Core.Hidden_shift.circuit;
          backend = Core.Exec.Stabilizer;
          trials = 4096;
        })
      regions
  in
  Array.of_list (swaps @ qaoa @ hs)
