module Json = Qcx_persist.Json

let ( let* ) = Result.bind

type record = { key : string; entry : Cache.entry }

(* ---- checksummed NDJSON lines (shared with Replica) ----

   A sealed line is the compact rendering of [header] followed by the
   cache entry's fields and a final crc field: the md5 of the line's
   own serialization *without* the crc.  Emission order is
   deterministic (Json preserves insertion order). *)

let seal header entry =
  (* entry_to_json always builds an object *)
  let fields = match Cache.entry_to_json entry with Json.Object f -> header @ f | _ -> header in
  let crc = Digest.to_hex (Digest.string (Json.to_string ~indent:false (Json.Object fields))) in
  Json.to_string ~indent:false (Json.Object (fields @ [ ("crc", Json.String crc) ]))

let unseal ~what line =
  let* doc = Json.of_string line in
  let* crc = Json.find_str "crc" doc in
  (* The digest must cover the bytes as written, not a parse/re-emit
     round trip: two spellings of the same float parse to one double,
     so re-emission canonicalizes damage instead of flagging it.  The
     writer appends crc as the last field, so the payload text is the
     line with that suffix cut off and the closing brace restored. *)
  let suffix = ",\"crc\": \"" ^ crc ^ "\"}" in
  let n = String.length line and k = String.length suffix in
  if n < k || String.sub line (n - k) k <> suffix then Error (what ^ " crc field malformed")
  else if String.lowercase_ascii crc = Digest.to_hex (Digest.string (String.sub line 0 (n - k) ^ "}"))
  then Ok doc
  else Error (what ^ " crc mismatch")

let line_of_record { key; entry } = seal [ ("op", Json.String "add"); ("key", Json.String key) ] entry

let record_of_line line =
  let* doc = unseal ~what:"journal" line in
  let* op = Json.find_str "op" doc in
  if op <> "add" then Error ("unknown journal op " ^ op)
  else
    let* key = Json.find_str "key" doc in
    let* entry = Cache.entry_of_json doc in
    Ok { key; entry }

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let close_fd = function
  | None -> ()
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())

(* ---- valid-prefix replay (shared with Replica) ---- *)

type 'a prefix = {
  records : 'a list;
  read : int;
  dropped : int;
  torn : bool;
  valid_bytes : int;
}

let read_prefix ~path decode =
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with _ -> ""
  in
  (* A torn tail (kill -9 mid-write) shows up as a final chunk with
     no newline or one that fails [decode].  Only a valid prefix is
     replayed: once one line fails, everything after it is untrusted. *)
  let rec walk acc read bytes = function
    | [] | [ "" ] -> { records = List.rev acc; read; dropped = 0; torn = false; valid_bytes = bytes }
    | line :: rest -> (
      match decode line with
      | Ok r -> walk (r :: acc) (read + 1) (bytes + String.length line + 1) rest
      | Error _ ->
        let dropped = List.length (List.filter (fun l -> l <> "") (line :: rest)) in
        { records = List.rev acc; read; dropped; torn = true; valid_bytes = bytes })
  in
  walk [] 0 0 (String.split_on_char '\n' text)

type replay = record prefix

let replay ~path = read_prefix ~path record_of_line

(* ---- writer ---- *)

type t = {
  path : string;
  fsync : bool;
  mutable fd : Unix.file_descr option;
  mutable appends : int;
  mutable failed_appends : int;
  mutable fault : (nth:int -> bool) option;
}

let open_append ~path ?(fsync = true) () =
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    Ok { path; fsync; fd = Some fd; appends = 0; failed_appends = 0; fault = None }
  with Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "cannot open journal %s: %s" path (Unix.error_message err))

let path t = t.path
let appends t = t.appends
let failed_appends t = t.failed_appends
let set_fault t fault = t.fault <- fault

let append t record =
  match t.fd with
  | None -> Error "journal is closed"
  | Some fd ->
    let nth = t.appends + t.failed_appends in
    let faulted = match t.fault with Some f -> f ~nth | None -> false in
    if faulted then begin
      t.failed_appends <- t.failed_appends + 1;
      Error "journal append failed: no space left on device (injected)"
    end
    else begin
      try
        write_all fd (line_of_record record ^ "\n");
        if t.fsync then Unix.fsync fd;
        t.appends <- t.appends + 1;
        Ok ()
      with Unix.Unix_error (err, _, _) ->
        t.failed_appends <- t.failed_appends + 1;
        Error (Printf.sprintf "journal append failed: %s" (Unix.error_message err))
    end

let reset t =
  match t.fd with
  | None -> Error "journal is closed"
  | Some fd -> (
    try
      Unix.ftruncate fd 0;
      if t.fsync then Unix.fsync fd;
      Ok ()
    with Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "journal reset failed: %s" (Unix.error_message err)))

let close t =
  close_fd t.fd;
  t.fd <- None
