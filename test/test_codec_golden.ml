(* Byte-identity goldens for the serve tier's codecs and front doors:
   the journal and replica line encodings of one fixed record, the
   router's shard placement of fixture compiles (a function of the
   route-key bytes), and the error replies a single service and the
   fleet router give to the same malformed frames.  The expected
   values were recorded from the separate journal and replica codecs,
   the router's own frame classifier and its two-pass route-key
   serializer; the shared implementations must reproduce them. *)

module Journal = Core.Journal
module Replica = Core.Replica
module Cache = Core.Cache
module Service = Core.Service
module Server = Core.Server
module Router = Core.Router
module Fleet = Core.Fleet
module Wire = Core.Wire
module Json = Core.Json

let make_registry = Test_fleet.make_registry
let bell = Test_fleet.bell

(* One compiled record with its wall-clock stats pinned, so the
   encoded bytes are a pure function of the codec. *)
let fixed_record () =
  let service = Service.create (make_registry ()) in
  match Service.compile service ~device:"example6q" (bell ~order:[ 1; 0 ] 6) with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let stats = { o.Service.stats with solve_seconds = 0.125; cpu_seconds = 0.0625 } in
    { Journal.key = o.Service.key; entry = { Cache.schedule = o.Service.schedule; stats; epoch = o.Service.epoch } }

let md5 s = Digest.to_hex (Digest.string s)

let journal_line () =
  let record = fixed_record () in
  let line = Journal.line_of_record record in
  Alcotest.(check string) "journal line digest" "38c6f1d0e8312f09ebc840950ed20e65" (md5 line);
  Alcotest.(check int) "journal line length" 546 (String.length line);
  match Journal.record_of_line line with
  | Ok r -> Alcotest.(check string) "round trip" line (Journal.line_of_record r)
  | Error e -> Alcotest.fail e

let replica_line () =
  let record = fixed_record () in
  let line = Replica.line_of_record ~shard:2 ~seq:17 record in
  Alcotest.(check string) "replica line digest" "56c2fa7ddb750acbf59f25e59d6769b5" (md5 line);
  Alcotest.(check int) "replica line length" 567 (String.length line);
  match Replica.record_of_line line with
  | Ok (shard, seq, r) ->
    Alcotest.(check (pair int int)) "shard and seq" (2, 17) (shard, seq);
    Alcotest.(check string) "round trip" line (Replica.line_of_record ~shard ~seq r)
  | Error e -> Alcotest.fail e

(* ---- route keys ----

   The router never exposes its key, but the ring places each request
   by hashing it: with 8 shards, a change to any fixture's key bytes
   moves that fixture with probability 7/8.  A recording transport
   answers every forwarded line with the shard it reached. *)

let route_fixtures =
  let compile i ?(device = "example6q") ?(params = Wire.default_params) circuit =
    Json.to_string ~indent:false
      (Wire.request_to_json
         (Wire.Compile { id = Printf.sprintf "r%d" i; device; circuit; params }))
  in
  let mitig name = match Wire.mitigation_of_name name with Ok m -> m | Error e -> failwith e in
  (* the test_fleet fixtures *)
  List.init 8 (fun i -> compile i (bell ~order:[ i mod 6; (i + 1) mod 6 ] 6))
  @ [
      (* knob variations *)
      compile 8 ~params:{ Wire.default_params with omega = 0.25 } (bell ~order:[ 0 ] 6);
      compile 9 ~params:{ Wire.default_params with threshold = 2.0 } (bell ~order:[ 0 ] 6);
      compile 10
        ~params:{ Wire.default_params with ladder_start = Core.Xtalk_sched.Windowed; window = Some 40 }
        (bell ~order:[ 0 ] 6);
      compile 11 ~params:{ Wire.default_params with mitigation = mitig "dd-x2" } (bell ~order:[ 0 ] 6);
      compile 12 ~params:{ Wire.default_params with deadline = Some 3.0 } (bell ~order:[ 0 ] 6);
      (* narrower register, widened to the device *)
      compile 13 (bell ~order:[ 1 ] 2);
      (* unknown device: no width normalization *)
      compile 14 ~device:"mystery" (bell ~order:[ 1 ] 2);
      (* too wide for the device: the invalid-circuit key *)
      compile 15 (bell ~order:[ 7 ] 8);
    ]

let placements nshards =
  let transport =
    Router.transport_of_send (fun ~shard lines ->
        Ok
          (List.map
             (fun line ->
               let id = Option.value (Wire.line_id line) ~default:"?" in
               Json.to_string ~indent:false
                 (Json.Object [ ("id", Json.String id); ("shard", Json.Number (float_of_int shard)) ]))
             lines))
  in
  let width = function "example6q" -> Some 6 | _ -> None in
  let router = Router.create ~width ~nshards ~transport () in
  let out, _ = Router.handle_lines router route_fixtures in
  List.map
    (fun line ->
      match Json.of_string line with
      | Ok doc -> (
        match Json.member "shard" doc with Some v -> Result.get_ok (Json.to_int v) | None -> -1)
      | Error e -> Alcotest.fail e)
    out

let route_keys () =
  Alcotest.(check (list int)) "8 shards" [ 0; 2; 0; 2; 3; 7; 0; 2; 0; 4; 2; 5; 4; 2; 5; 7 ] (placements 8);
  Alcotest.(check (list int)) "5 shards" [ 0; 2; 0; 2; 3; 3; 0; 2; 0; 4; 2; 0; 4; 2; 2; 1 ] (placements 5)

(* ---- frame error parity ---- *)

let bad_frames =
  [
    "";
    "   ";
    String.make (Wire.default_max_frame + 1) 'x';
    "{not json";
    "[1, 2]";
    "{\"op\":\"frobnicate\",\"id\":\"u1\"}";
    "{\"op\":\"compile\",\"id\":\"c1\"}";
    "{\"id\":\"n1\"}";
    "\t";
  ]

let frame_errors_match () =
  let service_out, service_stop = Server.handle_lines (Service.create (make_registry ())) bad_frames in
  let root = Test_fleet.fresh_dir "qcx_test_codec_golden" in
  let fleet_out, fleet_stop =
    match Fleet.create ~root ~nshards:2 ~fsync:false ~make_registry () with
    | Error e -> Alcotest.fail e
    | Ok fleet ->
      let r = Fleet.handle_lines fleet bad_frames in
      Fleet.close fleet;
      ignore (Test_fleet.fresh_dir "qcx_test_codec_golden");
      r
  in
  Alcotest.(check (list string)) "service replies"
    [
      {|{"id": null,"status": "frame_too_large","error": "input frame exceeds the 1048576 byte limit","limit": 1048576}|};
      {|{"id": null,"status": "error","error": "bad JSON: expected '\"' at position 1"}|};
      {|{"id": null,"status": "error","error": "missing field \"op\""}|};
      {|{"id": null,"status": "error","error": "unknown op frobnicate"}|};
      {|{"id": null,"status": "error","error": "missing field \"device\""}|};
      {|{"id": null,"status": "error","error": "missing field \"op\""}|};
    ]
    service_out;
  Alcotest.(check (list string)) "router replies match the service" service_out fleet_out;
  Alcotest.(check (pair bool bool)) "no shutdown" (false, false) (service_stop, fleet_stop)

let suite =
  [
    ( "serve.codec_golden",
      [
        Alcotest.test_case "journal line" `Quick journal_line;
        Alcotest.test_case "replica line" `Quick replica_line;
        Alcotest.test_case "route placement" `Quick route_keys;
        Alcotest.test_case "frame error parity" `Quick frame_errors_match;
      ] );
  ]
