(* Per-layer probes for the traced run.  Each probe calls one layer's
   public functions from here, on the workload's own inputs, inside a
   span; nothing is instrumented inside the libraries. *)

module Service = Core.Service
module Wire = Core.Wire
module Json = Core.Json
module Xtalk_sched = Core.Xtalk_sched

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated percentile, [p] in [0, 100]. *)
let pct p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = sorted xs in
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = pct 50.0 xs

(* Time [f] on every element, each call in its own span; the median. *)
let per_call name xs f = median (Array.map (fun x -> snd (Trace.timed name (fun () -> f x))) xs)

let registry_of entries =
  let reg = Core.Registry.create () in
  List.iter (fun (id, dev, xtalk) -> ignore (Core.Registry.add_static reg ~id ~device:dev ~xtalk)) entries;
  reg

let xtalk_of reg id =
  match Core.Registry.find reg id with Some e -> e.Core.Registry.xtalk | None -> invalid_arg id

type sched_tally = {
  times : float array;  (** seconds per compile *)
  nodes : int;
  objective_sum : float;
  rungs : (string * int) list;
}

(* Compile every circuit with XtalkSched, the way the service does
   (canonical circuit, ground-truth or characterized crosstalk). *)
let schedule_all ?(jobs = 1) ~xtalk_for (items : (Core.Device.t * string * Core.Circuit.t) array) =
  let results =
    Array.map
      (fun (dev, id, c) ->
        Trace.timed "sched.compile" (fun () ->
            Xtalk_sched.schedule ~jobs ~device:dev ~xtalk:(xtalk_for id) c))
      items
  in
  let rungs =
    List.map
      (fun r ->
        ( Xtalk_sched.rung_name r,
          Array.fold_left (fun n ((_, st), _) -> if st.Xtalk_sched.rung = r then n + 1 else n) 0 results ))
      Xtalk_sched.all_rungs
  in
  ( Array.map (fun ((s, _), _) -> s) results,
    {
      times = Array.map snd results;
      nodes = Array.fold_left (fun n ((_, st), _) -> n + st.Xtalk_sched.nodes) 0 results;
      objective_sum = Array.fold_left (fun a ((_, st), _) -> a +. st.Xtalk_sched.objective) 0.0 results;
      rungs;
    } )

let sched_metrics t =
  let ms = Array.map (fun s -> 1000.0 *. s) t.times in
  let total_ms = Array.fold_left ( +. ) 0.0 ms in
  [
    ("sched.compile_p50_ms", pct 50.0 ms, "ms");
    ("sched.compile_p99_ms", pct 99.0 ms, "ms");
    ("sched.nodes", float_of_int t.nodes, "count");
    ("sched.nodes_per_ms", float_of_int t.nodes /. total_ms, "1/ms");
    ("sched.objective_sum", t.objective_sum, "1");
  ]
  @ List.map (fun (r, n) -> ("sched.rung." ^ r, float_of_int n, "count")) t.rungs

(* Digest of replayed counts, as a 48-bit integer so it reads as a
   number and repeats exactly when the simulation output does. *)
let counts_digest counts =
  let s =
    String.concat ";"
      (List.map
         (fun c ->
           String.concat ","
             (List.map (fun (k, n) -> k ^ "=" ^ string_of_int n) (Core.Exec.counts_bindings c)))
         counts)
  in
  float_of_int (int_of_string ("0x" ^ String.sub (Digest.to_hex (Digest.string s)) 0 12))

(* One timed replay: the counts and the seconds it took. *)
let replay ?(jobs = 2) dev sched ~seed ~trials ~backend =
  Trace.timed (match backend with Core.Exec.Stabilizer -> "exec.stabilizer" | Core.Exec.Statevector -> "exec.statevector")
    (fun () -> Core.Exec.run ~jobs dev sched ~rng:(Core.Rng.create seed) ~trials ~backend)

(* Planning on five bin-packing streams, then one SRB experiment of the
   first plan. *)
let policy_metrics ~seed dev =
  let plans =
    Array.init 5 (fun k ->
        Trace.timed "policy.plan" (fun () ->
            Core.Policy.plan ~rng:(Core.Rng.create (seed + k)) dev Core.Policy.One_hop_binpacked))
  in
  let plan = fst plans.(0) in
  let first = List.hd plan.Core.Policy.experiments in
  let (_ : Core.Rb.fit list), rb_s =
    Trace.timed "rb.experiment" (fun () ->
        Core.Rb.run ~jobs:2 dev ~rng:(Core.Rng.create seed) ~params:Core.Rb.default_params
          (List.concat_map (fun (a, b) -> [ a; b ]) first))
  in
  [
    ("policy.plan_ms", 1000.0 *. median (Array.map snd plans), "ms");
    ("policy.experiments", float_of_int (Core.Policy.experiment_count plan), "count");
    ("rb.experiment_s", rb_s, "s");
  ]

(* The request-path layers, in process, on one stream of compile
   requests: [items.(seq.(k))] is the k-th request.  [batch] is the
   frames-per-batch the daemon reported (the in-process batches use the
   same size); [client_p50_us] the clients' p50, from which the
   in-process per-frame cost is subtracted. *)
let serve_path ~reg ~dir ~(items : Gen.item array) ~(seq : int array) ~batch ~client_p50_us =
  let n = Array.length seq in
  let reqs =
    Array.init n (fun k ->
        let it = items.(seq.(k)) in
        Wire.Compile
          { id = Printf.sprintf "r%d" k; device = it.Gen.device; circuit = it.Gen.circuit; params = Wire.default_params })
  in
  let lines = Array.map (fun r -> Json.to_string ~indent:false (Wire.request_to_json r)) reqs in
  let parse_us =
    1e6
    *. per_call "wire.parse" lines (fun l ->
           match Json.of_string l with
           | Ok j -> ignore (Wire.request_of_json j)
           | Error e -> failwith e)
  in
  let key_us =
    1e6
    *. per_call "canon.key" seq (fun i ->
           let it = items.(i) in
           Core.Canon.key_serialize ~nqubits:(Core.Device.nqubits it.Gen.dev) it.Gen.circuit)
  in
  let svc = Service.create reg in
  let used = List.sort_uniq compare (Array.to_list seq) in
  let cold =
    List.map
      (fun i ->
        let it = items.(i) in
        match Trace.timed "service.cold" (fun () -> Service.compile svc ~device:it.Gen.device it.Gen.circuit) with
        | Ok o, dt -> (i, o, dt)
        | Error e, _ -> failwith e)
      used
  in
  let cold_ms = Array.of_list (List.map (fun (_, _, dt) -> 1000.0 *. dt) cold) in
  let render_us =
    1e6 *. per_call "wire.render" (Array.of_list cold) (fun (_, o, _) -> Check.schedule_bytes o.Service.schedule)
  in
  let key_of = Hashtbl.create 64 in
  List.iter (fun (i, o, _) -> Hashtbl.replace key_of i o.Service.key) cold;
  let cache = Service.cache svc in
  let find_us = 1e6 *. per_call "cache.find" seq (fun i -> ignore (Core.Cache.find cache (Hashtbl.find key_of i))) in
  let batch = max 1 batch in
  let batches = Array.init ((n + batch - 1) / batch) (fun b -> Array.sub reqs (b * batch) (min batch (n - (b * batch)))) in
  let hit_us =
    1e6
    *. median
         (Array.map
            (fun b ->
              snd (Trace.timed "service.hit" (fun () -> Service.handle_batch_rendered svc (Array.to_list b)))
              /. float_of_int (Array.length b))
            batches)
  in
  let frame_us =
    1e6
    *. median
         (Array.mapi
            (fun bi b ->
              let frames = List.init (Array.length b) (fun k -> Core.Server.Line lines.((bi * batch) + k)) in
              snd (Trace.timed "server.handle_frames" (fun () -> Core.Server.handle_frames svc frames))
              /. float_of_int (Array.length b))
            batches)
  in
  (* Persistence: journal appends of the cold entries, then snapshots
     of the warm cache, both with the default fsync. *)
  let jpath = Filename.concat dir "probe.journal" in
  let append_us =
    match Core.Journal.open_append ~path:jpath () with
    | Error e -> failwith e
    | Ok j ->
      let t =
        per_call "journal.append" (Array.of_list cold) (fun (_, o, _) ->
            let entry = { Core.Cache.schedule = o.Service.schedule; stats = o.Service.stats; epoch = o.Service.epoch } in
            match Core.Journal.append j { Core.Journal.key = o.Service.key; entry } with
            | Ok () -> ()
            | Error e -> failwith e)
      in
      Core.Journal.close j;
      1e6 *. t
  in
  (match Service.enable_persistence svc ~cache_file:(Filename.concat dir "probe-cache.json") () with
  | Ok () -> ()
  | Error e -> failwith e);
  let checkpoint_ms =
    1000.0
    *. per_call "service.checkpoint" (Array.make 5 ()) (fun () ->
           match Service.checkpoint svc with Ok () -> () | Error e -> failwith e)
  in
  ( [
      ("server.outside_us", (if client_p50_us > 0.0 then client_p50_us -. frame_us else 0.0), "us");
      ("wire.parse_us", parse_us, "us");
      ("wire.render_us", render_us, "us");
      ("canon.key_us", key_us, "us");
      ("cache.find_us", find_us, "us");
      ("service.hit_us", hit_us, "us");
      ("service.cold_p50_ms", pct 50.0 cold_ms, "ms");
      ("service.cold_p99_ms", pct 99.0 cold_ms, "ms");
      ("service.checkpoint_ms", checkpoint_ms, "ms");
      ("journal.append_us", append_us, "us");
    ],
    List.map (fun (i, o, _) -> (i, o)) cold )

(* Trajectory rates on one Clifford and one general schedule, with the
   digest of the replayed counts. *)
let exec_metrics ~seed (stab_dev, stab_sched) (sv_dev, sv_sched) =
  let c1, t1 = replay stab_dev stab_sched ~seed ~trials:4096 ~backend:Core.Exec.Stabilizer in
  let c2, t2 = replay sv_dev sv_sched ~seed ~trials:512 ~backend:Core.Exec.Statevector in
  ( [
    ("exec.stabilizer_traj_per_s", 4096.0 /. t1, "1/s");
    ("exec.statevector_traj_per_s", 512.0 /. t2, "1/s");
  ],
    counts_digest [ c1; c2 ] )
