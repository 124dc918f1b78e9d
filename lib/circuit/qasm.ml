let header nq =
  Printf.sprintf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[%d];\n" nq nq

let gate_line g =
  let q = List.map (Printf.sprintf "q[%d]") g.Gate.qubits in
  match (g.Gate.kind, q) with
  | Gate.Measure, [ target ] ->
    let qubit = List.hd g.Gate.qubits in
    Printf.sprintf "measure %s -> c[%d];" target qubit
  | Gate.Barrier, qs -> Printf.sprintf "barrier %s;" (String.concat ", " qs)
  | Gate.Cnot, [ c; t ] -> Printf.sprintf "cx %s, %s;" c t
  | Gate.Swap, [ a; b ] -> Printf.sprintf "swap %s, %s;" a b
  | Gate.Rx theta, [ a ] -> Printf.sprintf "rx(%g) %s;" theta a
  | Gate.Ry theta, [ a ] -> Printf.sprintf "ry(%g) %s;" theta a
  | Gate.Rz theta, [ a ] -> Printf.sprintf "rz(%g) %s;" theta a
  | Gate.U2 (phi, lam), [ a ] -> Printf.sprintf "u2(%g,%g) %s;" phi lam a
  | kind, [ a ] -> Printf.sprintf "%s %s;" (Gate.kind_name kind) a
  | kind, qs -> Printf.sprintf "%s %s;" (Gate.kind_name kind) (String.concat ", " qs)

let of_circuit c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header (Circuit.nqubits c));
  List.iter
    (fun g ->
      Buffer.add_string buf (gate_line g);
      Buffer.add_char buf '\n')
    (Circuit.gates c);
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "%s: %s" msg (String.trim line)))

(* Angle expressions: numeric literals with optional pi, e.g.
   "1.5", "pi", "-pi/2", "3*pi/4", "2*pi". *)
let parse_angle line s =
  let s = String.trim s in
  let s = String.lowercase_ascii s in
  let negate, s =
    if String.length s > 0 && s.[0] = '-' then (true, String.sub s 1 (String.length s - 1))
    else (false, s)
  in
  let value =
    match String.index_opt s '/' with
    | Some i ->
      let num = String.trim (String.sub s 0 i) in
      let den = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      let num_v =
        match String.index_opt num '*' with
        | Some j ->
          let a = String.trim (String.sub num 0 j) in
          let b = String.trim (String.sub num (j + 1) (String.length num - j - 1)) in
          (try float_of_string a with _ -> fail line ("bad angle factor " ^ a))
          *. (if b = "pi" then Float.pi else try float_of_string b with _ -> fail line ("bad angle " ^ b))
        | None -> if num = "pi" then Float.pi else (try float_of_string num with _ -> fail line ("bad angle " ^ num))
      in
      let den_v = try float_of_string den with _ -> fail line ("bad angle denominator " ^ den) in
      num_v /. den_v
    | None -> (
      match String.index_opt s '*' with
      | Some j ->
        let a = String.trim (String.sub s 0 j) in
        let b = String.trim (String.sub s (j + 1) (String.length s - j - 1)) in
        (try float_of_string a with _ -> fail line ("bad angle factor " ^ a))
        *. (if b = "pi" then Float.pi else try float_of_string b with _ -> fail line ("bad angle " ^ b))
      | None ->
        if s = "pi" then Float.pi
        else (try float_of_string s with _ -> fail line ("bad angle " ^ s)))
  in
  if negate then -.value else value

(* "q[3]" -> ("q", 3) *)
let parse_operand line s =
  let s = String.trim s in
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some i, Some j when j > i + 1 ->
    let reg = String.sub s 0 i in
    let idx = String.sub s (i + 1) (j - i - 1) in
    (try (reg, int_of_string (String.trim idx)) with _ -> fail line ("bad index in " ^ s))
  | _ -> fail line ("expected reg[index], got " ^ s)

let split_args s = List.map String.trim (String.split_on_char ',' s)

(* Strip "// ..." comments. *)
let strip_comment line =
  let rec find i =
    if i + 1 >= String.length line then String.length line
    else if line.[i] = '/' && line.[i + 1] = '/' then i
    else find (i + 1)
  in
  String.sub line 0 (find 0)

type statement =
  | Qreg of string * int
  | App of string * float list * (string * int) list
  | Barrier_stmt of (string * int) list
  | Measure_stmt of string * int
  | Skip

let parse_statement raw =
  let line = String.trim (strip_comment raw) in
  if line = "" then Skip
  else begin
    (* drop trailing ';' *)
    let line =
      if String.length line > 0 && line.[String.length line - 1] = ';' then
        String.trim (String.sub line 0 (String.length line - 1))
      else line
    in
    if line = "" then Skip
    else
      let lower = String.lowercase_ascii line in
      let starts prefix =
        String.length lower >= String.length prefix
        && String.sub lower 0 (String.length prefix) = prefix
      in
      if starts "openqasm" || starts "include" || starts "creg" then Skip
      else if starts "qreg" then begin
        let rest = String.trim (String.sub line 4 (String.length line - 4)) in
        let reg, size = parse_operand line rest in
        Qreg (reg, size)
      end
      else if starts "barrier" then begin
        let rest = String.trim (String.sub line 7 (String.length line - 7)) in
        Barrier_stmt (List.map (parse_operand line) (split_args rest))
      end
      else if starts "measure" then begin
        let rest = String.trim (String.sub line 7 (String.length line - 7)) in
        (* "q[3] -> c[3]" *)
        let source =
          match String.index_opt rest '-' with
          | Some i -> String.trim (String.sub rest 0 i)
          | None -> rest
        in
        let reg, idx = parse_operand line source in
        Measure_stmt (reg, idx)
      end
      else begin
        (* gate name, optional (params), operands *)
        let name_end =
          let rec scan i =
            if i >= String.length line then i
            else
              match line.[i] with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> scan (i + 1)
              | _ -> i
          in
          scan 0
        in
        let name = String.lowercase_ascii (String.sub line 0 name_end) in
        let rest = String.trim (String.sub line name_end (String.length line - name_end)) in
        let params, operand_str =
          if String.length rest > 0 && rest.[0] = '(' then begin
            match String.index_opt rest ')' with
            | Some j ->
              let inside = String.sub rest 1 (j - 1) in
              ( List.map (parse_angle line) (split_args inside),
                String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) )
            | None -> fail line "unterminated parameter list"
          end
          else ([], rest)
        in
        if operand_str = "" then fail line "missing operands";
        App (name, params, List.map (parse_operand line) (split_args operand_str))
      end
  end

let kind_of_app line name params =
  match (name, params) with
  | "h", [] -> Gate.H
  | "x", [] -> Gate.X
  | "y", [] -> Gate.Y
  | "z", [] -> Gate.Z
  | "s", [] -> Gate.S
  | "sdg", [] -> Gate.Sdg
  | "t", [] -> Gate.T
  | "tdg", [] -> Gate.Tdg
  | "id", [] -> Gate.Rz 0.0
  | "rx", [ theta ] -> Gate.Rx theta
  | "ry", [ theta ] -> Gate.Ry theta
  | "rz", [ theta ] -> Gate.Rz theta
  | "u1", [ lam ] -> Gate.Rz lam
  | "u2", [ phi; lam ] -> Gate.U2 (phi, lam)
  | "u3", [ theta; phi; lam ] when Float.abs (theta -. (Float.pi /. 2.0)) < 1e-9 ->
    Gate.U2 (phi, lam)
  | "u3", [ theta; _; lam ] when Float.abs theta < 1e-9 -> Gate.Rz lam
  | "cx", [] -> Gate.Cnot
  | "swap", [] -> Gate.Swap
  | _ -> fail line (Printf.sprintf "unsupported gate %s/%d" name (List.length params))

let parse text =
  try
    let lines = String.split_on_char '\n' text in
    let statements = List.map parse_statement lines in
    (* register layout: concatenate qregs in declaration order *)
    let offsets = Hashtbl.create 4 in
    let total =
      List.fold_left
        (fun acc st ->
          match st with
          | Qreg (name, size) ->
            if Hashtbl.mem offsets name then raise (Parse_error ("duplicate qreg " ^ name));
            Hashtbl.replace offsets name acc;
            acc + size
          | _ -> acc)
        0 statements
    in
    if total = 0 then Error "no qreg declaration"
    else begin
      let resolve line (reg, idx) =
        match Hashtbl.find_opt offsets reg with
        | Some off -> off + idx
        | None -> fail line ("unknown register " ^ reg)
      in
      let circuit =
        List.fold_left2
          (fun c raw st ->
            match st with
            | Skip | Qreg _ -> c
            | Barrier_stmt operands -> Circuit.barrier c (List.map (resolve raw) operands)
            | Measure_stmt (reg, idx) -> Circuit.measure c (resolve raw (reg, idx))
            | App ("cz", [], [ a; b ]) ->
              (* cz = H(target) cx H(target) in this gate set *)
              let qa = resolve raw a and qb = resolve raw b in
              let c = Circuit.h c qb in
              let c = Circuit.cnot c ~control:qa ~target:qb in
              Circuit.h c qb
            | App (name, params, operands) ->
              Circuit.add c (kind_of_app raw name params) (List.map (resolve raw) operands))
          (Circuit.create total) lines statements
      in
      Ok circuit
    end
  with
  | Parse_error msg -> Error msg
  | Invalid_argument msg -> Error msg
