module Rng = Qcx_util.Rng
module Policy = Qcx_characterization.Policy

type corruption = Nan_rate | Negative_rate | Huge_rate

let rate_of_corruption = function
  | Nan_rate -> Float.nan
  | Negative_rate -> -0.25
  | Huge_rate -> 64.0

type file_fault = Truncate | Bitflip

let file_fault_name = function Truncate -> "truncate" | Bitflip -> "bitflip"

type config = {
  hang : float;
  dropout : float;
  dropout_keep : float;
  corrupt_fit : float;
  file_fault : float;
  solver_blowup : float;
}

let default_config =
  {
    hang = 0.06;
    dropout = 0.08;
    dropout_keep = 0.25;
    corrupt_fit = 0.08;
    file_fault = 0.35;
    solver_blowup = 0.25;
  }

let none =
  {
    hang = 0.0;
    dropout = 0.0;
    dropout_keep = 1.0;
    corrupt_fit = 0.0;
    file_fault = 0.0;
    solver_blowup = 0.0;
  }

type t = { seed : int; config : config }

let create ?(config = default_config) ~seed () = { seed; config }

let config t = t.config

(* Every decision draws from a generator keyed on (plan seed, site):
   the same (day, experiment, attempt) always sees the same fault no
   matter in which order — or on how many domains — sites are
   evaluated.  Same recipe as [Qcx_device.Drift.on_day]. *)
let keyed t key = Rng.create (Hashtbl.hash (t.seed, "qcx-fault-plan", key))

let experiment_fault t ~day ~experiment ~attempt =
  let rng = keyed t (day, experiment, attempt, "experiment") in
  let u = Rng.unit_float rng in
  let c = t.config in
  if u < c.hang then Some Policy.Inject_hang
  else if u < c.hang +. c.dropout then Some (Policy.Inject_dropout c.dropout_keep)
  else if u < c.hang +. c.dropout +. c.corrupt_fit then begin
    let kind =
      match Rng.int rng 3 with 0 -> Nan_rate | 1 -> Negative_rate | _ -> Huge_rate
    in
    Some (Policy.Inject_corrupt_rate (rate_of_corruption kind))
  end
  else None

let inject t ~day ~experiment ~attempt = experiment_fault t ~day ~experiment ~attempt

let solver_blowup t ~day ~compile =
  let rng = keyed t (day, compile, "solver") in
  Rng.unit_float rng < t.config.solver_blowup

(* Cut within the first half so the damage can never amount to
   dropping only trailing whitespace: a proper prefix of a JSON
   document this short always fails to parse. *)
let truncate_string ~rng s =
  let n = String.length s in
  if n <= 1 then "" else String.sub s 0 (1 + Rng.int rng (n / 2))

(* Flip a bit of an alphanumeric byte: the victim is always a
   meaningful token character (a tag, a key, a digit, a checksum hex
   digit), never separator whitespace, so the damage is guaranteed to
   break parsing, the format tag, or checksum verification — a benign
   flip would defeat the soak's "every corruption is caught"
   accounting. *)
let bitflip_string ~rng s =
  let is_alnum c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  in
  let positions = ref [] in
  String.iteri (fun i c -> if is_alnum c then positions := i :: !positions) s;
  match !positions with
  | [] -> s
  | positions ->
    let positions = Array.of_list positions in
    let i = positions.(Rng.int rng (Array.length positions)) in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x02));
    Bytes.to_string b

let file_fault t ~day =
  let rng = keyed t (day, "file") in
  if Rng.unit_float rng < t.config.file_fault then
    Some (if Rng.bool rng then Truncate else Bitflip)
  else None

let corrupt_file t ~day contents =
  match file_fault t ~day with
  | None -> None
  | Some Truncate ->
    Some (Truncate, truncate_string ~rng:(keyed t (day, "truncate")) contents)
  | Some Bitflip ->
    Some (Bitflip, bitflip_string ~rng:(keyed t (day, "bitflip")) contents)
