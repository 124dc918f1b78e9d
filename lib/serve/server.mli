(** Transport layer of the compilation service.

    Newline-delimited JSON over a Unix-domain socket (stdlib [Unix]
    only), plus a channel mode used for [--once] testing and the CI
    smoke test.  Both modes funnel into {!Service.handle_batch}:
    requests that arrive together are served as one batch
    (Pool-parallel cold compiles, admission control on the batch), and
    responses come back one JSON object per line, in request order.

    The socket mode is an event-driven reactor (DESIGN.md §15): one
    [Unix.select] loop multiplexes the listener and every open
    connection over non-blocking fds, each connection framing NDJSON
    incrementally through one reusable read buffer.  Frames from
    different connections accumulate — round-robin, one frame per
    connection per pass, so a deep pipeline never starves its
    neighbours — into a shared batch dispatched when it is full or
    when the [batch_window] collection window closes, and responses
    are demultiplexed back through bounded per-connection write
    queues.  A connection whose write queue is over the bound is
    neither read from nor dispatched until the client drains it
    (backpressure), and a slow reader never head-of-line-blocks other
    connections.

    Hardened against hostile input and bad clients (DESIGN.md §9):
    frames beyond [max_frame] are discarded while buffering at most
    the bound and answered with a typed [frame_too_large]; arbitrary
    bytes never raise (every frame gets exactly one typed response); a
    handler panic closes the connections whose frames were in the
    dying batch, is counted via {!Service.note_panic}, and the reactor
    keeps accepting; a client that stops reading its responses trips
    [write_timeout] and is dropped; and a [stop] callback polled on a
    short tick lets SIGTERM drain the loop between batches.

    A [shutdown] request stops the loop after its batch is answered.
    Malformed lines get an [error] response and never kill the
    connection; client disconnects never kill the server. *)

type frame =
  | Line of string
  | Oversize  (** an input line exceeded the frame bound; bytes dropped *)

val parse_frames : ?max_frame:int -> frame list -> (string * Wire.request, string) result list
(** The parsing half of {!handle_frames}, shared with the fleet
    router: blank lines are dropped, and every other frame becomes
    [Ok (line, request)] or [Error reply] — the rendered typed error
    line for an oversized frame ([max_frame], default
    {!Wire.default_max_frame}), bad JSON, or an invalid request. *)

val handle_frames : ?max_frame:int -> Service.t -> frame list -> string list * bool
(** Parse frames, serve them as one batch, and render the response
    lines.  The flag is [true] when the batch contained a [shutdown]
    request.  Blank lines are skipped; every other frame — oversized,
    unparseable, valid — yields exactly one response line. *)

val handle_lines : ?max_frame:int -> Service.t -> string list -> string list * bool
(** {!handle_frames} over plain lines (each checked against
    [max_frame], default {!Wire.default_max_frame}). *)

val serve_channels : Service.t -> in_channel -> out_channel -> unit
(** [--once] mode: read request lines until EOF, serve them as a
    single batch (so admission control applies to the whole input),
    write response lines, flush.  Stops early at a [shutdown]. *)

(** Reactor counters, surfaced through [stats]/[health] as the
    [serving] payload: accepted/shed connections, open-connection
    gauge and peak, accept-queue depth (admitted connections with
    nothing dispatched yet), batch count and occupancy histogram
    (log2 buckets), slow-client drops, and backpressure stalls. *)
type metrics

val create_metrics : unit -> metrics
val metrics_json : metrics -> Qcx_persist.Json.t

val serve_socket_with :
  ?max_batch:int ->
  ?max_frame:int ->
  ?write_timeout:float ->
  ?stop:(unit -> bool) ->
  ?backlog:int ->
  ?max_pending:int ->
  ?note_panic:(unit -> unit) ->
  ?batch_window:float ->
  ?metrics:metrics ->
  handle:(frame list -> string list * bool) ->
  path:string ->
  unit ->
  unit
(** The reactor with a pluggable batch handler — the fleet router
    serves through this with {!Router.handle_frames} in place of the
    single-service {!handle_frames}.  [backlog] (default 16) is the
    kernel listen queue.  [max_pending] (default: none) bounds
    admitted connections that have not yet had a frame dispatched:
    every connection in the kernel queue is accepted eagerly and the
    excess beyond the bound is shed immediately with a typed
    [overloaded] response line and a close — a refused client always
    gets a parseable answer, never a silent reset or an unbounded
    wait.  [batch_window] (default 0: no added latency) holds the
    shared batch open so cold compiles from different connections can
    coalesce into one Pool-parallel dispatch.  [note_panic] is called
    when a batch handler dies (the reactor keeps accepting).
    [metrics] shares the reactor's counters with the caller. *)

val serve_socket :
  ?max_batch:int ->
  ?max_frame:int ->
  ?write_timeout:float ->
  ?stop:(unit -> bool) ->
  ?backlog:int ->
  ?max_pending:int ->
  ?batch_window:float ->
  ?metrics:metrics ->
  Service.t ->
  path:string ->
  unit
(** Bind [path] (any stale socket file is replaced) and run the
    reactor over {!Service.handle_batch}: frames available across all
    connections (up to [max_batch], default [2 * queue_bound]) are
    served as one batch and responses demultiplexed back in request
    order per connection.  Returns after a [shutdown] request, or —
    between batches — once [stop ()] turns true (graceful drain:
    frames already read are served and their responses written
    first).  [write_timeout] bounds how long a non-draining client
    may stall its write queue before being disconnected; the server
    lives on.  Registers the reactor metrics with the service, so
    [stats]/[health] expose the [serving] payload.  The socket file
    is removed on return. *)
