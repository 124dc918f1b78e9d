(* The daemon under test as a separate process, and the NDJSON clients
   that load it: a closed loop (each connection keeps a fixed number of
   requests outstanding) and an open loop (requests go out on a fixed
   schedule whatever the replies do, and are timed from when they were
   due). *)

let exe = ".perfbench/build/default/bin/qcx_serve.exe"

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send fd s = write_all fd s 0 (String.length s)

(* Incremental NDJSON reader over one fd. *)
type reader = { fd : Unix.file_descr; chunk : Bytes.t; partial : Buffer.t }

let reader fd = { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096 }

(* Read what is available (the fd must be readable) and hand every
   complete line to [f]; false at end of stream. *)
let read_lines r f =
  let n = Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) in
  if n = 0 then false
  else begin
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get r.chunk i = '\n' then begin
        let line =
          if Buffer.length r.partial = 0 then Bytes.sub_string r.chunk !start (i - !start)
          else begin
            Buffer.add_subbytes r.partial r.chunk !start (i - !start);
            let l = Buffer.contents r.partial in
            Buffer.clear r.partial;
            l
          end
        in
        f line;
        start := i + 1
      end
    done;
    if !start < n then Buffer.add_subbytes r.partial r.chunk !start (n - !start);
    true
  end

let one_line ?(timeout = 30.0) r =
  let got = ref None in
  let deadline = Trace.now () +. timeout in
  let rec loop () =
    match !got with
    | Some l -> l
    | None ->
      let left = deadline -. Trace.now () in
      if left <= 0.0 then failwith "daemon reply timed out";
      (match Unix.select [ r.fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> if not (read_lines r (fun l -> if !got = None then got := Some l)) then failwith "daemon closed the connection");
      loop ()
  in
  loop ()

let rpc path line =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      send fd line;
      one_line (reader fd))

let ok_status line =
  match Core.Json.of_string line with Ok doc -> Core.Json.find_str "status" doc = Ok "ok" | Error _ -> false

let alive pid = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false | exception Unix.Unix_error _ -> false

(* Start a daemon and wait for its first ok ping; returns it with the
   set-up time (exec to first ok ping). *)
let start ~dir ~args =
  let socket = Filename.concat dir "qcx.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    Array.of_list
      ([ exe; "--socket"; socket; "--devices"; Gen.fleet_csv; "--oracle-xtalk"; "--jobs"; "1" ] @ args)
  in
  let t0 = Trace.now () in
  let pid = Unix.create_process exe argv null log log in
  Unix.close null;
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  let rec wait () =
    if Trace.now () -. t0 > 60.0 then failwith "daemon did not answer ping within 60 s";
    if not (alive pid) then failwith ("daemon exited during start-up; see " ^ dir ^ "/daemon.log");
    match rpc socket "{\"op\":\"ping\",\"id\":\"setup\"}\n" with
    | line when ok_status line -> ()
    | _ -> failwith "daemon ping answered not ok"
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ();
  (d, Trace.now () -. t0)

(* Peak resident set (VmHWM) of a live process, MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid)) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* SIGTERM (the daemon drains and exits), SIGKILL if it lingers; waits
   until the process is gone. *)
let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Trace.now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Trace.now () -. t0 > 10.0 then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.002;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()

let stop_all () = List.iter stop !live

(* ---- load generators ---- *)

type conn = { r : reader; inflight : int Queue.t }

let open_conns d n = Array.init n (fun _ -> { r = reader (connect d.socket); inflight = Queue.create () })
let close_conns cs = Array.iter (fun c -> Unix.close c.r.fd) cs

let pump ~conns ~timeout on_line =
  let fds = Array.to_list (Array.map (fun c -> c.r.fd) conns) in
  match Unix.select fds [] [] timeout with
  | ready, _, _ ->
    List.iter
      (fun fd ->
        let c = List.find (fun c -> c.r.fd = fd) (Array.to_list conns) in
        let recv = Trace.now () in
        if not (read_lines c.r (fun line -> on_line c (Queue.pop c.inflight) line recv)) then
          failwith "daemon closed a client connection")
      ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Closed loop: request [i] goes on connection [i mod n]; each
   connection keeps [depth] outstanding and sends the next request as
   soon as a reply comes back.  [on_reply i line recv_time]. *)
let closed_loop ?(on_send = ignore) ~conns ~depth ~(lines : string array) on_reply =
  let n = Array.length conns and total = Array.length lines in
  let next = Array.init n Fun.id in
  let pending = ref total in
  let top_up c k =
    let buf = Buffer.create 4096 in
    while Queue.length c.inflight < depth && next.(k) < total do
      Queue.push next.(k) c.inflight;
      on_send next.(k);
      Buffer.add_string buf lines.(next.(k));
      next.(k) <- next.(k) + n
    done;
    if Buffer.length buf > 0 then send c.r.fd (Buffer.contents buf)
  in
  Array.iteri (fun k c -> top_up c k) conns;
  let last = ref (Trace.now ()) in
  while !pending > 0 do
    let before = !pending in
    pump ~conns ~timeout:1.0 (fun _ i line recv ->
        decr pending;
        on_reply i line recv);
    if !pending < before then begin
      last := Trace.now ();
      Array.iteri (fun k c -> top_up c k) conns
    end
    else if Trace.now () -. !last > 60.0 then failwith "closed loop: no reply for 60 s"
  done

(* Open loop: request [i] is due [offsets.(i)] seconds after the start
   and goes out on the connections in turn.  At most [max_inflight]
   requests are outstanding: after a stall of the shared machine the
   due requests go out as replies free slots, not in one burst that the
   daemon's admission bound would refuse, and each is still timed from
   when it was due.  [on_reply i line ~latency] gets the time from when
   request [i] was due to when its reply arrived; returns each request's
   lateness (send time minus due time). *)
let open_loop ~conns ~(offsets : float array) ~max_inflight ~(lines : string array) on_reply =
  let n = Array.length conns and total = Array.length lines in
  let late = Array.make total 0.0 in
  let t0 = Trace.now () +. 0.005 in
  let due i = t0 +. offsets.(i) in
  let next = ref 0 and pending = ref total in
  let last = ref t0 in
  while !pending > 0 do
    let now = Trace.now () in
    while !next < total && due !next <= now && !next - (total - !pending) < max_inflight do
      let i = !next in
      let c = conns.(i mod n) in
      Queue.push i c.inflight;
      send c.r.fd lines.(i);
      late.(i) <- Trace.now () -. due i;
      incr next
    done;
    let timeout =
      if !next < total && !next - (total - !pending) < max_inflight then Float.max 0.0 (due !next -. Trace.now ())
      else 1.0
    in
    let before = !pending in
    pump ~conns ~timeout (fun _ i line recv ->
        decr pending;
        on_reply i line ~latency:(recv -. due i));
    if !pending < before then last := Trace.now ()
    else if Trace.now () -. !last > 60.0 then failwith "open loop: no reply for 60 s"
  done;
  late
