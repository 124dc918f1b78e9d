(** Write-ahead journal for cache mutations (DESIGN.md §9).

    The cache snapshot ({!Cache.save}) is atomic but periodic; every
    insertion between checkpoints is first appended here — one
    self-checksummed NDJSON line, fsync'd — so a [kill -9] at any byte
    offset loses at most the record being written, never the cache.
    Recovery is [snapshot load] + {!replay}: the replay reads the
    longest valid prefix and stops at the first damaged line (a torn
    tail or any bit flip fails that line's crc).

    Line format:
    [{"op": "add", "key": ..., "stats": ..., "schedule": ..., "crc": md5}]
    where [crc] is the hex md5 of the line's own compact serialization
    without the crc field — recomputable because emission order is
    deterministic.

    The writer deliberately never raises: a full disk (or the injected
    chaos equivalent) degrades the journal to an [Error] the service
    records and keeps serving through — durability narrows to the
    periodic checkpoint, availability is untouched. *)

type record = { key : string; entry : Cache.entry }

val line_of_record : record -> string
(** One NDJSON line, no trailing newline. *)

val record_of_line : string -> (record, string) result
(** Parse + crc verification; any damage is an [Error]. *)

(* ---- writer ---- *)

type t

val open_append : path:string -> ?fsync:bool -> unit -> (t, string) result
(** Opens (creating if needed) for append.  [fsync] (default true)
    syncs after every record; tests switch it off for speed. *)

val append : t -> record -> (unit, string) result
(** Write one record durably.  Total: I/O failure (or an injected
    fault) is an [Error] and counts in {!failed_appends}. *)

val reset : t -> (unit, string) result
(** Truncate to zero length — called right after a checkpoint makes
    the journaled records redundant, and after a recovery replay so a
    torn tail can never be appended onto. *)

val close : t -> unit

val path : t -> string
val appends : t -> int
val failed_appends : t -> int

val set_fault : t -> (nth:int -> bool) option -> unit
(** Chaos hook: when the callback returns true for the [nth] append
    (counting every attempt since open), that append fails like a full
    disk instead of writing. *)

(* ---- replay ---- *)

type 'a prefix = {
  records : 'a list;  (** the valid prefix, in append order *)
  read : int;  (** lines successfully replayed *)
  dropped : int;  (** non-empty lines abandoned after the first bad one *)
  torn : bool;  (** replay stopped early at a damaged line *)
  valid_bytes : int;  (** byte length of the valid prefix, newlines included *)
}

type replay = record prefix

val replay : path:string -> replay
(** Never raises; a missing file is an empty replay.  After a torn
    replay the caller must checkpoint (snapshot + {!reset}) before
    appending again, or new records would be glued onto the damaged
    tail and lost to the next replay. *)

(* ---- the line codec and file plumbing, shared with {!Replica} ---- *)

val seal : (string * Qcx_persist.Json.t) list -> Cache.entry -> string
(** [seal header entry]: one compact line holding the [header] fields,
    then the entry's fields, then the crc field (hex md5 of the line
    rendered without it). *)

val unseal : what:string -> string -> (Qcx_persist.Json.t, string) result
(** Parse a sealed line and check its crc over the bytes as written;
    [what] names the file kind in error messages. *)

val read_prefix : path:string -> (string -> ('a, string) result) -> 'a prefix
(** Decode the file's lines in order up to the first one [decode]
    rejects.  A missing or unreadable file is an empty prefix. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte, looping over short writes; raises
    [Unix.Unix_error]. *)

val close_fd : Unix.file_descr option -> unit
(** Close, ignoring errors. *)
