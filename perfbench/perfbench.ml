(* The repository benchmark: one command, three workloads.

     bash perfbench/run.sh --workload serve-hot|serve-mixed|pipeline \
       --seed N --seconds S --trace 0|1 [--held-out]

   serve-hot / serve-mixed drive a separate `qcx_serve` daemon (default
   flags, --jobs 1) over two Unix-socket connections; pipeline runs
   characterize -> compile -> replay in process with two domains.  Every
   output is checked (see check.ml); the last stdout line is the result
   JSON.  perfbench/README.md describes workloads, metrics and layers. *)

module Service = Core.Service
module Json = Core.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---- settings ---- *)

let hot_pass = 4000  (* requests per closed-loop pass, serve-hot *)
let hot_rate = 250.0  (* offered open-loop rate, serve-hot, req/s *)
let hot_window = 1000  (* open-loop requests per percentile window (4 s) *)
let mixed_len = 1000  (* requests per fixed mixed sequence *)
let mixed_misses = 100  (* never-seen circuits in it: one per 10 requests *)
let mixed_rate = 75.0  (* offered open-loop rate, serve-mixed, req/s *)
let mixed_open_len = 500  (* open-loop requests: the sequence's first half *)
let mixed_window = 500  (* open-loop requests per percentile window *)
let mixed_block = 5  (* closed-loop passes per open-loop pass *)
let connections = 2
let depth = 8  (* closed-loop requests outstanding per connection *)
let setup_starts = 21  (* set-ups timed per run for setup_s *)

type result = {
  e2e : (string * float * string) list;
  extra : (string * float * string) list;  (** printed and filed, not gated *)
  layers : (string * float * string) list;  (** traced run only *)
  attempted : int;
  failed : int;  (** wrong outputs plus refused requests *)
  wrong : int;  (** wrong outputs: any of these fails the run *)
  notes : string list;  (** first few correctness failures *)
  settings : (string * Json.t) list;
}

let work_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rec rm_rf d =
  if Sys.file_exists d then
    if Sys.is_directory d then begin
      Array.iter (fun f -> rm_rf (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d
    end
    else Sys.remove d

let fresh_dir name =
  let d = Filename.concat (Filename.concat work_dir "tmp") name in
  rm_rf d;
  mkdir_p d;
  d

(* ---- response bookkeeping ---- *)

(* Responses are checked after the timed phases.  Hits of one cache key
   render identical bytes after the id, so the distinct (item, tail)
   pairs with their counts are all that is kept. *)
type served = { tails : (int * string, int) Hashtbl.t; mutable replies : int; mutable bad : int }

let new_served () = { tails = Hashtbl.create 256; replies = 0; bad = 0 }
let id_prefix = "{\"id\": \""

let note_reply s ~id ~item line =
  s.replies <- s.replies + 1;
  let p = String.length id_prefix in
  let ok_id =
    String.length line > p + String.length id + 1
    && String.sub line 0 p = id_prefix
    && String.sub line p (String.length id) = id
    && line.[p + String.length id] = '"'
  in
  if not ok_id then s.bad <- s.bad + 1
  else begin
    let tail = String.sub line (p + String.length id + 1) (String.length line - p - String.length id - 1) in
    let k = (item, tail) in
    Hashtbl.replace s.tails k (1 + Option.value ~default:0 (Hashtbl.find_opt s.tails k))
  end

let is_hit_tail tail = Check.find_sub tail "\"cached\": true" <> None

(* Check every distinct reply against a cold compile of its request in
   a fresh service; returns (wrong replies, refused requests, notes). *)
let verify ~reg ~(items : Gen.item array) s =
  let refs = Hashtbl.create 64 in
  let reference i =
    match Hashtbl.find_opt refs i with
    | Some r -> r
    | None ->
      let it = items.(i) in
      let r =
        match Service.compile (Service.create reg) ~device:it.Gen.device it.Gen.circuit with
        | Ok o -> (o.Service.key, Check.schedule_bytes o.Service.schedule)
        | Error e -> failwith ("reference compile of " ^ it.Gen.label ^ ": " ^ e)
      in
      Hashtbl.replace refs i r;
      r
  in
  let wrong = ref s.bad and refused = ref 0 and notes = ref [] in
  if s.bad > 0 then notes := Printf.sprintf "%d replies with a wrong or missing id" s.bad :: !notes;
  Hashtbl.iter
    (fun (i, tail) count ->
      let it = items.(i) in
      let want_key, want_sched = reference i in
      match Check.response ~dev:it.Gen.dev ~want_key ~want_sched ("{\"id\": \"x\"" ^ tail) with
      | Ok () -> ()
      | Error `Refused -> refused := !refused + count
      | Error (`Wrong e) ->
        wrong := !wrong + count;
        if List.length !notes < 5 then notes := Printf.sprintf "%s: %s" it.Gen.label e :: !notes)
    s.tails;
  (!wrong, !refused, List.rev !notes)

let count_hits s = Hashtbl.fold (fun (_, tail) n acc -> if is_hit_tail tail then acc + n else acc) s.tails 0

(* ---- daemon helpers ---- *)

let stats_of (d : Net.daemon) =
  match Json.of_string (Net.rpc d.Net.socket "{\"op\":\"stats\",\"id\":\"stats\"}\n") with
  | Ok doc -> ( match Json.member "stats" doc with Some s -> s | None -> failwith "stats reply without stats")
  | Error e -> failwith e

let num path doc =
  let rec go d = function
    | [] -> ( match Json.to_float d with Ok f -> f | Error _ -> nan)
    | k :: rest -> ( match Json.member k d with Some v -> go v rest | None -> nan)
  in
  go doc path

let lines_for ~(items : Gen.item array) (seq : int array) ~tag =
  Array.mapi
    (fun k i ->
      let id = Printf.sprintf "%s%d" tag k in
      (id, Gen.request_line ~id items.(i)))
    seq

(* Send each template once, one at a time: the cold compiles that make
   every later template request a cache hit. *)
let warm_up d ~items ~ntempl s =
  let seq = Array.init ntempl Fun.id in
  let reqs = lines_for ~items seq ~tag:"w" in
  let conns = Net.open_conns d 1 in
  Fun.protect
    ~finally:(fun () -> Net.close_conns conns)
    (fun () ->
      Net.closed_loop ~conns ~depth:1 ~lines:(Array.map snd reqs) (fun k line _ ->
          note_reply s ~id:(fst reqs.(k)) ~item:seq.(k) line))

let closed_pass d ~(seq : int array) ~reqs s =
  let conns = Net.open_conns d connections in
  let sent = Array.make (Array.length seq) 0.0 in
  Fun.protect
    ~finally:(fun () -> Net.close_conns conns)
    (fun () ->
      let t0 = Trace.now () in
      Net.closed_loop ~conns ~depth ~lines:(Array.map snd reqs)
        ~on_send:(fun k -> if !Trace.enabled then sent.(k) <- Trace.now ())
        (fun k line recv ->
          Trace.record ~rid:(fst reqs.(k)) "client.request" ~start:sent.(k) ~stop:recv;
          note_reply s ~id:(fst reqs.(k)) ~item:seq.(k) line);
      Trace.now () -. t0)

(* Open loop: per request its latency (s), whether it was a cache hit,
   and the generator's lateness. *)
let open_pass d ~(seq : int array) ~reqs ~offsets s =
  let conns = Net.open_conns d connections in
  Fun.protect
    ~finally:(fun () -> Net.close_conns conns)
    (fun () ->
      let lat = Array.make (Array.length seq) 0.0 and hit = Array.make (Array.length seq) false in
      let late =
        Net.open_loop ~conns ~offsets ~max_inflight:(connections * depth) ~lines:(Array.map snd reqs)
          (fun k line ~latency ->
            lat.(k) <- latency;
            hit.(k) <- is_hit_tail line;
            let now = Trace.now () in
            Trace.record ~rid:(fst reqs.(k)) "client.request" ~start:(now -. latency) ~stop:now;
            note_reply s ~id:(fst reqs.(k)) ~item:seq.(k) line)
      in
      (lat, hit, late))

(* Percentile [p] of each consecutive window of [window] requests
   (restricted to those [keep] selects), then the median over windows:
   a stall of the shared machine spoils one window, not the figure. *)
let windowed_pct ?keep p ~window lat =
  let n = Array.length lat in
  let nwin = max 1 (n / window) in
  let pick w =
    let lo = w * window and hi = if w = nwin - 1 then n else (w + 1) * window in
    Array.of_list
      (List.filter_map
         (fun i -> match keep with Some k when not k.(i) -> None | _ -> Some lat.(i))
         (List.init (hi - lo) (fun j -> lo + j)))
  in
  Layers.median (Array.init nwin (fun w -> Layers.pct p (pick w)))

let ms x = 1000.0 *. x
let median = Layers.median
let pct = Layers.pct

(* ---- serve workloads ---- *)

let serve_common_e2e ~setups ~job ~lat ~window ~ok ~attempted ~rss =
  [
    ("setup_s", median setups, "s");
    ("job_s", job, "s");
    ("p50_ms", ms (windowed_pct 50.0 ~window lat), "ms");
    ("ok_frac", float_of_int ok /. float_of_int attempted, "ratio");
    ("rss_mb", rss, "MiB");
  ]

let fleet_registry () =
  Layers.registry_of (List.map (fun (id, dev) -> (id, dev, Core.Device.ground_truth dev)) (Gen.fleet ()))

let starts_with pre l = String.length l >= String.length pre && String.sub l 0 (String.length pre) = pre

(* The traced run's per-layer figures for a serve workload: the request
   path in process at the daemon's batch size, the scheduler on every
   distinct request, and the characterization and simulator layers on
   poughkeepsie (a SWAP and a QAOA template replayed). *)
let serve_layers ~seed ~reg ~(items : Gen.item array) ~seq ~stats ~lat ~job ~traced_walls ~counts =
  Trace.enabled := true;
  let frames = num [ "serving"; "frames" ] stats and batches = num [ "serving"; "batches" ] stats in
  let path, cold =
    Layers.serve_path ~reg ~dir:(fresh_dir "probe") ~items ~seq
      ~batch:(int_of_float (Float.round (frames /. batches)))
      ~client_p50_us:(1e6 *. pct 50.0 lat)
  in
  let _, st =
    Layers.schedule_all ~xtalk_for:(Layers.xtalk_of reg)
      (Array.of_list
         (List.map
            (fun (i, _) ->
              let it = items.(i) in
              (it.Gen.dev, it.Gen.device, Core.Canon.normalize ~nqubits:(Core.Device.nqubits it.Gen.dev) it.Gen.circuit))
            cold))
  in
  let sched_of pre =
    let i, o = List.find (fun (i, _) -> starts_with pre items.(i).Gen.label) cold in
    (items.(i).Gen.dev, o.Service.schedule)
  in
  let policy = Layers.policy_metrics ~seed (List.assoc "poughkeepsie" (Gen.fleet ())) in
  let exec, digest = Layers.exec_metrics ~seed (sched_of "poughkeepsie/swap") (sched_of "poughkeepsie/qaoa") in
  Trace.enabled := false;
  let tw = median (Array.of_list traced_walls) in
  ( [ ("server.frames_per_batch", frames /. batches, "count") ]
    @ path @ counts @ Layers.sched_metrics st @ policy @ exec
    @ [
        ("trace.untraced_wall_s", job, "s");
        ("trace.wall_s", tw, "s");
        ("trace.overhead_frac", (tw /. job) -. 1.0, "ratio");
      ],
    [ ("probe.counts_digest", digest, "count") ] )

let serve_hot ~seed ~seconds ~trace =
  let rng = Core.Rng.create seed in
  let templates = Gen.templates ~rng in
  let ntempl = Array.length templates in
  let seq = Gen.hot_sequence ~rng ~templates ~n:hot_pass in
  let reqs = lines_for ~items:templates seq ~tag:"h" in
  let n_open = max hot_window (int_of_float (hot_rate *. seconds *. 2.0 /. 3.0)) in
  let open_seq = Gen.hot_sequence ~rng ~templates ~n:n_open in
  let open_reqs = lines_for ~items:templates open_seq ~tag:"o" in
  let offsets = Gen.poisson_offsets ~rng:(Core.Rng.split rng) ~rate:hot_rate ~n:n_open in
  let dir = fresh_dir "serve-hot" in
  let s = new_served () in
  let setups = ref [] in
  for _ = 2 to setup_starts do
    let d, t = Net.start ~dir ~args:[] in
    setups := t :: !setups;
    Net.stop d
  done;
  let d, t = Net.start ~dir ~args:[] in
  setups := t :: !setups;
  Fun.protect
    ~finally:(fun () -> Net.stop d)
    (fun () ->
      warm_up d ~items:templates ~ntempl s;
      (* closed loop for a third of the time: the fixed pass, repeated *)
      let t_end = Trace.now () +. (seconds /. 3.0) in
      let walls = ref [] and traced_walls = ref [] in
      let k = ref 0 and first_stats = ref Json.Null in
      while !k < 2 || Trace.now () < t_end do
        (* in the traced run every other pass records spans *)
        let traced = trace && !k mod 2 = 1 in
        Trace.enabled := traced;
        let w = closed_pass d ~seq ~reqs s in
        Trace.enabled := false;
        if traced then traced_walls := w :: !traced_walls else walls := w :: !walls;
        (* the cache counters over warm-up + one pass, a unit of work the
           seed fixes (later passes depend on the machine's speed) *)
        if !k = 0 then first_stats := stats_of d;
        incr k
      done;
      Trace.enabled := trace;
      let lat, hit, late = open_pass d ~seq:open_seq ~reqs:open_reqs ~offsets s in
      Trace.enabled := false;
      let stats = stats_of d in
      let rss = Net.peak_rss_mb d.Net.pid in
      let job = median (Array.of_list !walls) in
      let attempted = s.replies in
      let reg = fleet_registry () in
      let wrong, refused, notes = verify ~reg ~items:templates s in
      let hits = num [ "cache"; "hits" ] !first_stats and misses = num [ "cache"; "misses" ] !first_stats in
      let counts =
        [
          ("cache.hit_ratio", hits /. (hits +. misses), "ratio");
          ("cache.misses", misses, "count");
        ]
      in
      let layers, trace_extra =
        if trace then serve_layers ~seed ~reg ~items:templates ~seq ~stats ~lat ~job ~traced_walls:!traced_walls ~counts
        else ([], [])
      in
      let ok = attempted - wrong - refused in
      {
        e2e = serve_common_e2e ~setups:(Array.of_list !setups) ~job ~lat ~window:hot_window ~ok ~attempted ~rss;
        extra =
          [
            ("rps", float_of_int hot_pass /. job, "1/s");
            ("p99_ms", ms (windowed_pct 99.0 ~window:hot_window lat), "ms");
            ("hit_p99_ms", ms (windowed_pct ~keep:hit 99.0 ~window:hot_window lat), "ms");
            ("pooled_p99_ms", ms (pct 99.0 lat), "ms");
            ("fail_frac", float_of_int (wrong + refused) /. float_of_int attempted, "ratio");
            ("refused", float_of_int refused, "count");
            ("latency_samples", float_of_int (Array.length lat), "count");
            ("late_p50_ms", ms (pct 50.0 late), "ms");
            ("late_p99_ms", ms (pct 99.0 late), "ms");
            ("closed_passes", float_of_int (List.length !walls), "count");
            ("hits", float_of_int (count_hits s), "count");
          ]
          @ counts @ trace_extra;
        layers;
        attempted;
        failed = wrong + refused;
        wrong;
        notes;
        settings =
          [
            ("templates", Json.Number (float_of_int ntempl));
            ("pass_requests", Json.Number (float_of_int hot_pass));
            ("offered_rate_per_s", Json.Number hot_rate);
            ("connections", Json.Number (float_of_int connections));
            ("depth", Json.Number (float_of_int depth));
          ];
      })

let serve_mixed ~seed ~seconds ~trace =
  let rng = Core.Rng.create seed in
  let templates = Gen.templates ~rng in
  let ntempl = Array.length templates in
  let misses = Gen.miss_items ~rng ~n:mixed_misses in
  let items = Array.append templates misses in
  let seq = Gen.mixed_sequence ~rng ~ntempl ~n:mixed_len ~n_miss:mixed_misses in
  let reqs = lines_for ~items seq ~tag:"m" in
  (* The open loop sends the sequence's first half evenly spaced, 13 ms
     apart: each request has a batch window to itself unless a cold
     compile (4-20 ms) holds it back, and few enough hits wait behind
     one that the median stays inside the main mode. *)
  let open_seq = Array.sub seq 0 mixed_open_len and open_reqs = Array.sub reqs 0 mixed_open_len in
  let offsets = Array.init mixed_open_len (fun i -> float_of_int i /. mixed_rate) in
  let s = new_served () in
  let setups = ref [] and walls = ref [] and traced_walls = ref [] and rss = ref [] in
  let lats = ref [] and hit_lats = ref [] and lates = ref [] in
  let last_stats = ref Json.Null in
  let t0 = Trace.now () in
  let closed = ref 0 and opened = ref 0 in
  (* Each pass: a fresh daemon journaling to a fresh cache file, the
     template warm-up, then the same fixed sequence.  Blocks of
     [mixed_block] closed-loop passes alternate with one open-loop pass
     (about as long as the block) over the whole run, so both figures
     sample the whole run's stretch of the shared machine. *)
  let next_pass () =
    if Trace.now () -. t0 >= seconds && !closed >= 3 && !opened >= 1 then None
    else if !closed < mixed_block * (!opened + 1) then Some `Closed
    else Some `Open
  in
  let rec passes () =
    match next_pass () with
    | None -> ()
    | Some kind ->
      let dir = fresh_dir "serve-mixed" in
      let d, t = Net.start ~dir ~args:[ "--cache-file"; Filename.concat dir "cache.json" ] in
      setups := t :: !setups;
      Fun.protect
        ~finally:(fun () -> Net.stop d)
        (fun () ->
          warm_up d ~items ~ntempl s;
          if kind = `Closed then begin
            incr closed;
            let traced = trace && !closed mod 2 = 0 in
            Trace.enabled := traced;
            let w = closed_pass d ~seq ~reqs s in
            Trace.enabled := false;
            if traced then traced_walls := w :: !traced_walls else walls := w :: !walls
          end
          else begin
            incr opened;
            Trace.enabled := trace;
            let lat, hl, late = open_pass d ~seq:open_seq ~reqs:open_reqs ~offsets s in
            Trace.enabled := false;
            lats := lat :: !lats;
            hit_lats := hl :: !hit_lats;
            lates := late :: !lates
          end;
          last_stats := stats_of d;
          rss := Net.peak_rss_mb d.Net.pid :: !rss);
      passes ()
  in
  passes ();
  let lat = Array.concat (List.rev !lats) and hit = Array.concat (List.rev !hit_lats) and late = Array.concat !lates in
  let job = median (Array.of_list !walls) in
  let reg = fleet_registry () in
  let wrong, refused, notes = verify ~reg ~items s in
  let attempted = s.replies in
  let stats = !last_stats in
  let hits = num [ "cache"; "hits" ] stats and cmiss = num [ "cache"; "misses" ] stats in
  let counts = [ ("cache.hit_ratio", hits /. (hits +. cmiss), "ratio"); ("cache.misses", cmiss, "count") ] in
  let layers, trace_extra =
    if trace then serve_layers ~seed ~reg ~items ~seq ~stats ~lat ~job ~traced_walls:!traced_walls ~counts
    else ([], [])
  in
  let ok = attempted - wrong - refused in
  {
    e2e =
      serve_common_e2e ~setups:(Array.of_list !setups) ~job ~lat ~window:mixed_window ~ok ~attempted
        ~rss:(median (Array.of_list !rss));
    extra =
      [
        ("rps", float_of_int mixed_len /. job, "1/s");
        ("p99_ms", ms (windowed_pct 99.0 ~window:mixed_window lat), "ms");
        ("hit_p99_ms", ms (windowed_pct ~keep:hit 99.0 ~window:mixed_window lat), "ms");
        ("pooled_p99_ms", ms (pct 99.0 lat), "ms");
        ("fail_frac", float_of_int (wrong + refused) /. float_of_int attempted, "ratio");
        ("refused", float_of_int refused, "count");
        ("latency_samples", float_of_int (Array.length lat), "count");
        ("hit_latency_samples", float_of_int (Array.fold_left (fun n h -> if h then n + 1 else n) 0 hit), "count");
        ("late_p50_ms", ms (pct 50.0 late), "ms");
        ("late_p99_ms", ms (pct 99.0 late), "ms");
        ("closed_passes", float_of_int !closed, "count");
        ("open_passes", float_of_int !opened, "count");
      ]
      @ counts @ trace_extra;
    layers;
    attempted;
    failed = wrong + refused;
    wrong;
    notes;
    settings =
      [
        ("templates", Json.Number (float_of_int ntempl));
        ("sequence_requests", Json.Number (float_of_int mixed_len));
        ("never_seen_per_sequence", Json.Number (float_of_int mixed_misses));
        ("offered_rate_per_s", Json.Number mixed_rate);
        ("open_loop_requests", Json.Number (float_of_int mixed_open_len));
        ("connections", Json.Number (float_of_int connections));
        ("depth", Json.Number (float_of_int depth));
      ];
  }

(* ---- pipeline ---- *)

let pipeline_jobs = 2
let compile_reps = 4
let flag_threshold = 3.0  (* conditional / independent error that flags a pair *)
let flag_band = 1.5  (* how far from the threshold a disagreeing pair may read *)

(* A pair's measured crosstalk ratio: the larger of its two directions'
   conditional error over the target's independent error. *)
let measured_ratio dev xtalk (a, b) =
  let dir target spectator =
    match Core.Crosstalk.conditional xtalk ~target ~spectator with
    | Some r -> r /. Core.Device.cnot_error dev target
    | None -> 0.0
  in
  Float.max (dir a b) (dir b a)

type pass = {
  plan : Core.Policy.plan;
  xtalk : Core.Crosstalk.t;
  scheds : Core.Schedule.t array;
  st : Layers.sched_tally;
  t_char : float;
  t_comp : float;
  t_rep : float;
  flags : (Core.Topology.edge * Core.Topology.edge) list;  (** high-crosstalk pairs found *)
  compile_lat : float array;  (** per circuit, median of the repeated compiles *)
  digest : float;
}

(* Set-up of the in-process pipeline: exec of a fresh process that
   builds the device model and the circuit suite, to its "ready" line
   (the counterpart of the daemon's exec-to-first-ping). *)
let ready_probe seed =
  ignore (Gen.pipeline_suite ~rng:(Core.Rng.create seed) (Core.Presets.poughkeepsie ()));
  print_endline "ready";
  exit 0

let pipeline_setup ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Trace.now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--ready-probe"; string_of_int seed |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let line = Net.one_line (Net.reader r) in
  let t = Trace.now () -. t0 in
  Unix.close r;
  ignore (Unix.waitpid [] pid);
  if line <> "ready" then failwith "pipeline set-up probe did not get ready";
  t

let pipeline ~seed ~seconds ~trace =
  let setups = Array.init setup_starts (fun _ -> pipeline_setup ~seed) in
  let dev = Core.Presets.poughkeepsie () in
  let suite = Gen.pipeline_suite ~rng:(Core.Rng.create seed) dev in
  let truth = List.sort compare (Core.Device.true_high_crosstalk_pairs dev ~threshold:flag_threshold) in
  let failed = ref 0 and notes = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failed;
        if List.length !notes < 5 then notes := m :: !notes)
      fmt
  in
  (* One pass; every pass uses the same seed, so outputs must repeat. *)
  let pass () =
    let rng = Core.Rng.create (seed * 7919) in
    let (plan, xtalk), t_char =
      Trace.timed "policy.characterize" (fun () ->
          let plan, _ = Trace.timed "policy.plan" (fun () -> Core.Policy.plan ~rng dev Core.Policy.One_hop_binpacked) in
          (plan, (Core.Policy.characterize ~jobs:pipeline_jobs ~rng dev plan).Core.Policy.xtalk))
    in
    let flags =
      List.sort compare (Core.Crosstalk.high_crosstalk_pairs xtalk (Core.Device.calibration dev) ~threshold:flag_threshold)
    in
    let scheds, st =
      Layers.schedule_all ~jobs:pipeline_jobs ~xtalk_for:(fun _ -> xtalk)
        (Array.map (fun e -> (dev, "poughkeepsie", e.Gen.s_circuit)) suite)
    in
    Array.iteri
      (fun i sc ->
        match Check.valid_schedule dev sc with Ok () -> () | Error e -> fail "%s: %s" suite.(i).Gen.s_label e)
      scheds;
    (* Submit-time compile latency: the suite compiled [compile_reps]
       more times (outside the pass time); every repeat must reproduce
       each schedule byte for byte. *)
    let reps =
      List.init compile_reps (fun _ ->
          let again, t =
            Layers.schedule_all ~jobs:pipeline_jobs ~xtalk_for:(fun _ -> xtalk)
              (Array.map (fun e -> (dev, "poughkeepsie", e.Gen.s_circuit)) suite)
          in
          Array.iteri
            (fun i sc ->
              if Check.schedule_bytes sc <> Check.schedule_bytes scheds.(i) then
                fail "%s: repeated compile gave another schedule" suite.(i).Gen.s_label)
            again;
          t.Layers.times)
    in
    let compile_lat = Array.mapi (fun i t0 -> median (Array.of_list (t0 :: List.map (fun r -> r.(i)) reps))) st.Layers.times in
    let replays =
      Array.mapi
        (fun i e ->
          Layers.replay ~jobs:pipeline_jobs dev scheds.(i) ~seed:(seed + i) ~trials:e.Gen.trials ~backend:e.Gen.backend)
        suite
    in
    Array.iteri
      (fun i (c, _) ->
        if Core.Exec.counts_total c <> suite.(i).Gen.trials then fail "%s: replay lost trials" suite.(i).Gen.s_label)
      replays;
    let t_comp = Array.fold_left ( +. ) 0.0 st.Layers.times in
    let t_rep = Array.fold_left (fun a (_, t) -> a +. t) 0.0 replays in
    {
      plan;
      xtalk;
      scheds;
      st;
      t_char;
      t_comp;
      t_rep;
      compile_lat;
      flags;
      digest = Layers.counts_digest (Array.to_list (Array.map fst replays));
    }
  in
  let t_end = Trace.now () +. seconds in
  let passes = ref [] and traced = ref [] in
  let k = ref 0 in
  while !k < 2 || Trace.now () < t_end do
    let tr = trace && !k mod 2 = 1 in
    Trace.enabled := tr;
    let p = pass () in
    Trace.enabled := false;
    if tr then traced := p :: !traced else passes := p :: !passes;
    incr k
  done;
  let total p = p.t_char +. p.t_comp +. p.t_rep in
  let med f l = median (Array.of_list (List.map f l)) in
  let p0 = List.hd (List.rev !passes) in
  if
    List.exists
      (fun p ->
        p.flags <> p0.flags || p.digest <> p0.digest || p.st.Layers.nodes <> p0.st.Layers.nodes
        || p.st.Layers.objective_sum <> p0.st.Layers.objective_sum)
      (!passes @ !traced)
  then fail "passes with the same seed gave different flags, schedules or counts";
  (* Per circuit the compile latency a submitter sees (replay stands in
     for the hardware run): median over repeats and passes, then
     percentiles across the suite. *)
  let compile_lat = Array.mapi (fun i _ -> med (fun p -> p.compile_lat.(i)) !passes) suite in
  let n_units = Array.length suite * (List.length !passes + List.length !traced) in
  (* The flag set against ground truth.  RB noise can put a pair whose
     ratio lies near the threshold on the wrong side of it (seed 14 flags
     a no-crosstalk pair measured at 3.08; seed 209 misses a 14x pair
     measured at 2.88), so one disagreement measured within a factor
     [flag_band] of the threshold passes.  More disagreements, or one
     measured far from the threshold (an empty or constant map, a 14x
     pair read as 1.1), fail.  The unmodified code still fails on about
     one seed in 50 (seed 410 misses one pair and adds one, both near the
     threshold). *)
  let missed = List.filter (fun p -> not (List.mem p p0.flags)) truth
  and extra = List.filter (fun p -> not (List.mem p truth)) p0.flags in
  let show (a, b) = Printf.sprintf "(%d,%d)-(%d,%d)" (fst a) (snd a) (fst b) (snd b) in
  if List.length missed + List.length extra > 1 then
    fail "flag set differs from ground truth in %d pairs (missed %s; extra %s)"
      (List.length missed + List.length extra)
      (String.concat " " (List.map show missed))
      (String.concat " " (List.map show extra));
  List.iter
    (fun (what, p) ->
      let r = measured_ratio dev p0.xtalk p in
      if r < flag_threshold /. flag_band || r > flag_threshold *. flag_band then
        fail "%s pair %s measured at ratio %.2f, far from the threshold %.1f" what (show p) r flag_threshold)
    (List.map (fun p -> ("missed", p)) missed @ List.map (fun p -> ("wrongly flagged", p)) extra);
  let counts =
    [
      ("flags.missed", float_of_int (List.length missed), "count");
      ("flags.extra", float_of_int (List.length extra), "count");
      ("sched.objective_sum", p0.st.Layers.objective_sum, "1");
      ("sched.nodes", float_of_int p0.st.Layers.nodes, "count");
      ("replay.counts_digest", p0.digest, "count");
    ]
  in
  let layers, trace_extra =
    if not trace then ([], [])
    else begin
      Trace.enabled := true;
      (* the serve path on the suite, from the characterized data *)
      let reg = Layers.registry_of [ ("poughkeepsie", dev, p0.xtalk) ] in
      let items = Array.map (fun e -> { Gen.label = e.Gen.s_label; device = "poughkeepsie"; dev; circuit = e.Gen.s_circuit }) suite in
      let seq = Array.init (8 * Array.length items) (fun k -> k mod Array.length items) in
      let path, _ = Layers.serve_path ~reg ~dir:(fresh_dir "pipeline-probe") ~items ~seq ~batch:depth ~client_p50_us:0.0 in
      let policy = Layers.policy_metrics ~seed dev in
      let sv_i = List.length (Core.Presets.swap_endpoints dev) in
      let exec, digest = Layers.exec_metrics ~seed (dev, p0.scheds.(0)) (dev, p0.scheds.(sv_i)) in
      Trace.enabled := false;
      let tw = med total !traced and uw = med total !passes in
      [ ("server.frames_per_batch", 0.0, "count") ]
      @ path
      @ [ ("cache.hit_ratio", 0.0, "ratio"); ("cache.misses", 0.0, "count") ]
      @ Layers.sched_metrics p0.st @ policy @ exec
      @ [
          ("trace.untraced_wall_s", uw, "s");
          ("trace.wall_s", tw, "s");
          ("trace.overhead_frac", (tw /. uw) -. 1.0, "ratio");
        ],
        [ ("probe.counts_digest", digest, "count") ]
    end
  in
  let ok = n_units - min n_units !failed in
  {
    e2e =
      [
        ("setup_s", median setups, "s");
        ("job_s", med total !passes, "s");
        (* the pipeline's one request is a whole pass *)
        ("p50_ms", ms (med total !passes), "ms");
        ("ok_frac", float_of_int ok /. float_of_int n_units, "ratio");
        ("rss_mb", Net.peak_rss_mb 0, "MiB");
      ];
    extra =
      [
        ("characterize_s", med (fun p -> p.t_char) !passes, "s");
        ("compile_s", med (fun p -> p.t_comp) !passes, "s");
        ("replay_s", med (fun p -> p.t_rep) !passes, "s");
        ("pipeline_s", med total !passes, "s");
        ("fail_frac", float_of_int (n_units - ok) /. float_of_int n_units, "ratio");
        ("experiments", float_of_int (Core.Policy.experiment_count p0.plan), "count");
        ("passes", float_of_int !k, "count");
        ("compile_p50_ms", ms (pct 50.0 compile_lat), "ms");
        ("compile_p99_ms", ms (pct 99.0 compile_lat), "ms");
        ("latency_samples", float_of_int (Array.length compile_lat), "count");
      ]
      @ counts @ trace_extra;
    layers;
    attempted = n_units;
    failed = !failed;
    wrong = !failed;
    notes = List.rev !notes;
    settings =
      [
        ("device", Json.String "poughkeepsie");
        ("jobs", Json.Number (float_of_int pipeline_jobs));
        ("suite_circuits", Json.Number (float_of_int (Array.length suite)));
      ];
  }

(* ---- provenance and output ---- *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s -> (
    let lines = String.split_on_char '\n' s in
    match List.find_opt (fun l -> String.length l > 10 && String.sub l 0 10 = "model name") lines with
    | Some l -> ( match String.index_opt l ':' with Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)) | None -> l)
    | None -> "unknown")

let nproc () =
  match read_file "/proc/cpuinfo" with
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    List.length
      (List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "processor") (String.split_on_char '\n' s))

let metrics_json l = Json.Object (List.map (fun (n, v, u) -> (n, Json.Object [ ("value", Json.Number v); ("unit", Json.String u) ])) l)

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "--ready-probe" then ready_probe (int_of_string Sys.argv.(2));
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 and held_out = ref false in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-hot | serve-mixed | pipeline");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--held-out", Arg.Set held_out, " use the held-out seed space (seed + 1000000), never used while tuning");
      ("--commit", Arg.Set_string commit, "REV git commit of the tree under test, for the result file");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists Net.exe) then die "%s is missing: build with perfbench/run.sh" Net.exe;
  let seed = if !held_out then !seed + 1_000_000 else !seed in
  let traced = !trace = 1 in
  let run =
    match !workload with
    | "serve-hot" -> serve_hot
    | "serve-mixed" -> serve_mixed
    | "pipeline" -> pipeline
    | w -> die "unknown workload %S" w
  in
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with () -> () | exception Invalid_argument _ -> ());
  at_exit Net.stop_all;
  (* a killed run still stops its daemons (exit runs [at_exit]) *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  mkdir_p (Filename.concat work_dir "results");
  let t0 = Trace.now () in
  let r =
    try run ~seed ~seconds:!seconds ~trace:traced
    with e ->
      Net.stop_all ();
      die "%s run failed: %s" !workload (Printexc.to_string e)
  in
  let wall = Trace.now () -. t0 in
  let correct = r.wrong = 0 in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload seed !trace in
  let self_times = Trace.self_times () in
  let spans =
    if traced then begin
      mkdir_p (Filename.concat work_dir "traces");
      Trace.dump (Filename.concat (Filename.concat work_dir "traces") (tag ^ ".ndjson"))
    end
    else 0
  in
  let show l = List.iter (fun (n, v, u) -> Printf.printf "  %-30s %14.6g %s\n" n v u) l in
  Printf.printf "perfbench %s seed %d (%.1f s measured, %.1f s wall)\n" !workload seed !seconds wall;
  Printf.printf "end-to-end:\n";
  show r.e2e;
  Printf.printf "also measured:\n";
  show r.extra;
  if traced then begin
    Printf.printf "per-layer:\n";
    show r.layers;
    Printf.printf "self time by layer over %d spans (s):\n" spans;
    List.iter (fun (l, t) -> Printf.printf "  %-30s %14.6f\n" l t) self_times
  end;
  List.iter (fun n -> Printf.printf "WRONG OUTPUT: %s\n" n) r.notes;
  let provenance =
    Json.Object
      [
        ("nproc", Json.Number (float_of_int (nproc ())));
        ("cpu_model", Json.String (cpu_model ()));
        ("ocaml_version", Json.String Sys.ocaml_version);
        ("git_commit", Json.String !commit);
        ("workload", Json.String !workload);
        ("seed", Json.Number (float_of_int seed));
        ("held_out", Json.Bool !held_out);
        ("seconds", Json.Number !seconds);
        ("trace", Json.Bool traced);
        ("settings", Json.Object r.settings);
      ]
  in
  let file = Filename.concat (Filename.concat work_dir "results") (tag ^ ".json") in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Object
              [
                ("provenance", provenance);
                ("correct", Json.Bool correct);
                ("attempted", Json.Number (float_of_int r.attempted));
                ("failed", Json.Number (float_of_int r.failed));
                ("end_to_end", metrics_json r.e2e);
                ("also_measured", metrics_json r.extra);
                ("per_layer", metrics_json r.layers);
                ("self_time_s", Json.Object (List.map (fun (l, t) -> (l, Json.Number t)) self_times));
                ("wrong_outputs", Json.Array (List.map (fun s -> Json.String s) r.notes));
              ])));
  Printf.printf "result file: %s\n" file;
  let metrics = if traced then r.layers else r.e2e in
  print_endline
    (Json.to_string ~indent:false
       (Json.Object
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Number (float_of_int r.attempted));
            ("failed", Json.Number (float_of_int r.failed));
            ("metrics", metrics_json metrics);
          ]));
  if not correct then exit 1
