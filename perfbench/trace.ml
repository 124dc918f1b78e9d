(* Monotonic clock and the in-memory span recorder of the traced run.

   Every timing in the benchmark reads [now], a CLOCK_MONOTONIC read
   (wall-clock steps never show up as negative or inflated intervals).
   Spans are recorded only when [enabled] is set: name, start, end,
   the enclosing span, and the request id they serve.  They stay in
   memory until [dump] writes them out at the end of the run. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;  (** "<layer>.<what>", e.g. "wire.parse" *)
  start : float;
  stop : float;
  parent : int;  (** enclosing span id, -1 at the root *)
  rid : string;  (** request id ("" when the span serves no request) *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* Record a span whose interval was measured by the caller (the client
   loop times requests itself, from due time to response). *)
let record ?(rid = "") name ~start ~stop =
  if !enabled then
    recorded := { id = fresh (); name; start; stop; parent = !current; rid } :: !recorded

(* Time [f] on the monotonic clock, recording it as a span (child of
   the enclosing one) when tracing is on, so probes serve both modes. *)
let timed name f =
  let t0 = now () in
  if not !enabled then begin
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let id = fresh () and parent = !current in
    current := id;
    Fun.protect
      ~finally:(fun () ->
        recorded := { id; name; start = t0; stop = now (); parent; rid = "" } :: !recorded;
        current := parent)
      (fun () ->
        let r = f () in
        (r, now () -. t0))
  end

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time per layer: a span's duration minus the part its direct
   children cover (children never outlive their parent). *)
let self_times () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !recorded;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    !recorded;
  Hashtbl.fold (fun l t acc -> (l, t) :: acc) by_layer [] |> List.sort compare

let dump path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"rid\":%S}\n" s.id
        s.name s.start s.stop s.parent s.rid)
    (List.rev !recorded);
  close_out oc;
  List.length !recorded
