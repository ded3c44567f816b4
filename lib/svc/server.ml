module Json = Argus_core.Json
module Clock = Argus_core.Clock
module Metrics = Argus_obs.Metrics
module Ring = Argus_obs.Ring
module Fault = Argus_rt.Fault
module Counter = Metrics.Counter
module Gauge = Metrics.Gauge

type config = {
  socket_path : string;
  listen : string option;
  port_file : string option;
  supervisor : Supervisor.config;
  drain_ms : float;
  max_line_bytes : int;
  max_conns : int;
  write_timeout_ms : float;
  idle_timeout_ms : float;
  read_deadline_ms : float;
}

let default_config ~socket_path =
  {
    socket_path;
    listen = None;
    port_file = None;
    supervisor =
      {
        Supervisor.default_config with
        Supervisor.jobs = Argus_par.Pool.default_jobs ();
      };
    drain_ms = 5000.;
    max_line_bytes = 8 * 1024 * 1024;
    max_conns = 4096;
    write_timeout_ms = 5000.;
    idle_timeout_ms = 60_000.;
    read_deadline_ms = 10_000.;
  }

(* Net-layer telemetry.  The fault counters mirror the three probe
   points on the I/O edges: a fired probe always forfeits exactly one
   connection (never the acceptor), and the counter says which edge. *)
let c_net_accepted = Counter.make "svc.net.accepted"
let c_net_fault_accept = Counter.make "svc.net.fault.accept"
let c_net_fault_read = Counter.make "svc.net.fault.read"
let c_net_fault_write = Counter.make "svc.net.fault.write"
let c_net_reaped_idle = Counter.make "svc.net.reaped.idle"
let c_net_reaped_frame = Counter.make "svc.net.reaped.read_deadline"
let g_net_conns = Gauge.make "svc.net.conns"

type conn = {
  fd : Unix.file_descr;
  kind : [ `Unix | `Tcp ];
  rbuf : Framer.t;
      (** The connection's read buffer; acceptor only. *)
  wmu : Mutex.t;
      (** Serialises every write to [fd], every mutation of [alive],
          [eof] and [inflight], and — crucially — the final
          [Unix.close]: a worker domain mid-reply can never race the
          acceptor closing (and the kernel recycling) the
          descriptor. *)
  notify : unit -> unit;
      (** Wake the acceptor and queue this connection for reaping —
          called by whichever thread discovers the connection finished
          (worker delivering the last reply, writer hitting a dead
          peer).  The acceptor no longer scans for corpses. *)
  mutable alive : bool;  (** Write side usable; guarded by [wmu]. *)
  mutable eof : bool;
      (** Client half-closed its write side (read returned 0).  Set by
          the acceptor, under [wmu] so a worker retiring the last
          in-flight reply reads it consistently. *)
  mutable inflight : int;
      (** Requests admitted on this connection and not yet replied to;
          guarded by [wmu].  Incremented by the acceptor, decremented by
          whichever thread delivers the reply. *)
  mutable last_ms : float;
      (** Last read activity — the idle reaper's clock.  Acceptor
          only. *)
  mutable frame_since : float;
      (** When the current partial frame started waiting ([nan] = no
          partial frame buffered).  A frame must complete within
          [read_deadline_ms] however slowly its bytes dribble in — the
          slow-loris bound.  Acceptor only. *)
}

(* Workers and the acceptor both write responses; each goes through the
   connection's write lock.  A dead peer (EPIPE — SIGPIPE is ignored)
   just marks the connection for reaping; so does a peer that stops
   reading, once SO_SNDTIMEO expires a write with EAGAIN — the reply is
   forfeit, but the worker is back in the pool in bounded time.  The
   [svc.net.write] probe injects exactly that outcome. *)
let write_locked conn s =
  if conn.alive then
    match Fault.point "svc.net.write" with
    | exception Fault.Injected _ ->
        Counter.incr c_net_fault_write;
        conn.alive <- false;
        conn.notify ()
    | () ->
        let n = String.length s in
        let rec go off =
          if off < n then
            match Unix.write_substring conn.fd s off (n - off) with
            | written -> go (off + written)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
            | exception Unix.Unix_error (_, _, _) ->
                conn.alive <- false;
                conn.notify ()
        in
        go 0

let write_line conn s = Mutex.protect conn.wmu (fun () -> write_locked conn s)

(* Deliver a worker's reply: flush and retire the in-flight slot in one
   critical section, so a reap can never observe "no requests pending"
   while the response bytes are still unwritten.  If this was the last
   pending reply on a finished connection, wake the acceptor to close
   it — nobody is polling for it. *)
let write_reply conn s =
  Mutex.protect conn.wmu (fun () ->
      write_locked conn s;
      conn.inflight <- conn.inflight - 1;
      if conn.inflight = 0 && ((not conn.alive) || conn.eof) then
        conn.notify ())

type t = {
  cfg : config;
  sup : Supervisor.t;
  listeners : (Unix.file_descr * [ `Unix | `Tcp ]) list;
  tcp_port : int option;
      (** The bound TCP port — the kernel's pick when [--listen] asked
          for port 0. *)
  engine : Readiness.t;
  stop : bool Atomic.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
      (** Live connections keyed by descriptor: O(1) dispatch and an
          O(1) [Hashtbl.length] for the connection cap — the old list
          walked O(n) per readable fd and per loop iteration. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (** Self-pipe: the readiness loop blocks until the next computed
          deadline, so anything that changes its work from outside —
          a worker retiring the last reply on a finished connection,
          {!stop} — writes a byte here instead of relying on a poll
          tick that no longer exists. *)
  dmu : Mutex.t;
  mutable dead : conn list;
      (** Reap queue, guarded by [dmu]: connections whose owner
          discovered them finished.  Drained by the acceptor after each
          readiness wait. *)
  mutable sweep_at : float;
      (** Earliest idle/read deadline across all connections (infinity
          when none): the readiness timeout is computed from it, never
          polled.  Maintained lazily — armed when a deadline is
          created, recomputed exactly by each sweep. *)
  mutable next_id : int;
  mutable next_trace : int;
  flight_dump : bool ref;
      (** Dump the flight recorder to stderr on drain and on worker
          crashes.  Only [run] arms it — the embedded [spawn] servers
          used by tests and the bench stay quiet. *)
  dump_requested : bool Atomic.t;  (** Set by the SIGUSR1 handler. *)
  extra_stats : (unit -> (string * Json.t) list) option;
      (** Handler-owned facts (the durable store's mode/cursors)
          appended to both the [health] and [stats] payloads. *)
  on_drain : (unit -> unit) option;
      (** Runs after the workers drain, before exit — where the
          durable store flushes and fsyncs its WAL. *)
}

let dump_flight () = Ring.dump stderr Supervisor.flight

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error _ -> ()
(* EAGAIN means a wake byte is already pending — good enough. *)

let workers_json t =
  Supervisor.worker_states t.sup |> Array.to_list
  |> List.map (fun (st, consecutive) ->
         Json.Obj
           [
             ("state", Json.Str (Supervisor.worker_state_to_string st));
             ("consecutive_restarts", Json.int consecutive);
           ])

let breakers_json t =
  Supervisor.breaker_states t.sup
  |> List.map (fun (op, st) ->
         (op, Json.Str (Argus_rt.Breaker.state_to_string st)))

let extra_stats_fields t =
  match t.extra_stats with None -> [] | Some f -> f ()

let health_json t =
  [
    ("ready", Json.Bool (Supervisor.accepting t.sup));
    ("queue_depth", Json.int (Supervisor.queue_depth t.sup));
    ("queue_capacity", Json.int t.cfg.supervisor.queue_capacity);
    ("jobs", Json.int t.cfg.supervisor.jobs);
    ("restarts", Json.int (Supervisor.restarts t.sup));
    ("workers", Json.List (workers_json t));
    ("breakers", Json.Obj (breakers_json t));
    ("metrics", Metrics.to_json ());
  ]
  @ extra_stats_fields t

(* The [stats] payload: health facts plus the full registry with
   bucket-estimated latency quantiles, and a server timestamp so a
   polling client ([argus top]) can turn counter deltas into rates
   without trusting its own clock skew. *)
let latency_prefix = "svc.request_latency_ms"

let stats_json t =
  let quantiles (s : Metrics.histogram_stats) =
    Json.Obj
      [
        ("count", Json.int s.Metrics.hcount);
        ("mean", Json.Num s.Metrics.hmean);
        ("p50", Json.Num s.Metrics.hp50);
        ("p90", Json.Num s.Metrics.hp90);
        ("p99", Json.Num s.Metrics.hp99);
        ("max", Json.Num s.Metrics.hmax);
      ]
  in
  let latency =
    Metrics.histograms ()
    |> List.filter_map (fun (name, s) ->
           if name = latency_prefix then Some ("all", quantiles s)
           else
             let pfx = latency_prefix ^ "." in
             if String.starts_with ~prefix:pfx name then
               let klen = String.length pfx in
               Some (String.sub name klen (String.length name - klen),
                     quantiles s)
             else None)
  in
  [
    ("now_ms", Json.Num (Clock.wall_ms ()));
    ("ready", Json.Bool (Supervisor.accepting t.sup));
    ("queue_depth", Json.int (Supervisor.queue_depth t.sup));
    ("queue_capacity", Json.int t.cfg.supervisor.queue_capacity);
    ("jobs", Json.int t.cfg.supervisor.jobs);
    ("restarts", Json.int (Supervisor.restarts t.sup));
    ("conns", Json.int (Hashtbl.length t.conns));
    ("max_conns", Json.int t.cfg.max_conns);
    ("readiness", Json.Str (Readiness.backend_name t.engine));
    ("workers", Json.List (workers_json t));
    ("breakers", Json.Obj (breakers_json t));
    ( "counters",
      Json.Obj
        (List.map (fun (n, v) -> (n, Json.int v)) (Metrics.counters ())) );
    ( "gauges",
      Json.Obj
        (List.map
           (fun (n, (v, m)) ->
             (n, Json.Obj [ ("value", Json.int v); ("max", Json.int m) ]))
           (Metrics.gauges ())) );
    ("latency_ms", Json.Obj latency);
    ("flight_recorded", Json.int (Ring.recorded Supervisor.flight));
  ]
  @ extra_stats_fields t

let stats_response t (req : Protocol.request) =
  let id = req.Protocol.id in
  match req.Protocol.format with
  | Some "prometheus" ->
      Protocol.ok ~id ~exit_code:0
        [
          ("content_type", Json.Str "text/plain; version=0.0.4");
          ("body", Json.Str (Argus_obs.Prom.render ()));
        ]
  | None | Some "json" -> Protocol.ok ~id ~exit_code:0 (stats_json t)
  | Some other ->
      Protocol.error ~id ~code:"svc/bad-request"
        (Printf.sprintf "unknown stats format %S (try json or prometheus)"
           other)

let handle_line t conn line =
  match Protocol.request_of_line line with
  | Error e ->
      write_line conn
        (Protocol.response_to_line
           (Protocol.error ~id:"" ~code:"svc/bad-request" e))
  | Ok req ->
      let req =
        if req.Protocol.id <> "" then req
        else begin
          t.next_id <- t.next_id + 1;
          { req with Protocol.id = Printf.sprintf "r%d" t.next_id }
        end
      in
      (* Every parsed request gets a trace id — the client's when it
         sent one, server-minted otherwise — echoed in its response
         whatever the outcome, so even a shed request correlates. *)
      let trace_id =
        match req.Protocol.trace_id with
        | Some tid -> tid
        | None ->
            t.next_trace <- t.next_trace + 1;
            Printf.sprintf "t%d" t.next_trace
      in
      let req = { req with Protocol.trace_id = Some trace_id } in
      let stamp = Protocol.with_trace_id (Some trace_id) in
      (match req.Protocol.op with
      | Protocol.Health ->
          write_line conn
            (Protocol.response_to_line
               (stamp
                  (Protocol.ok ~id:req.Protocol.id ~exit_code:0
                     (health_json t))))
      | Protocol.Stats ->
          (* Answered on the acceptor like health: monitoring must keep
             working when the queue is saturated or the workers hung. *)
          write_line conn
            (Protocol.response_to_line (stamp (stats_response t req)))
      | _ ->
          Mutex.protect conn.wmu (fun () ->
              conn.inflight <- conn.inflight + 1);
          Supervisor.submit t.sup req ~reply:(fun resp ->
              write_reply conn (Protocol.response_to_line (stamp resp))))

(* Handle every complete line in the connection's read buffer.  A line
   longer than [max_line_bytes] is refused and ends the connection: it
   is read no further, and the caller reaps it. *)
let rec drain_lines t conn =
  match Framer.next_line conn.rbuf with
  | Framer.Line line ->
      if String.trim line <> "" then handle_line t conn line;
      drain_lines t conn
  | Framer.Partial -> ()
  | Framer.Overlong ->
      Mutex.protect conn.wmu (fun () ->
          write_locked conn
            (Protocol.response_to_line
               (Protocol.error ~id:"" ~code:"svc/bad-request"
                  (Printf.sprintf "request line exceeds %d bytes"
                     t.cfg.max_line_bytes)));
          conn.alive <- false);
      Readiness.remove t.engine conn.fd

(* Arm the deadline sweep no later than [at]; exact recomputation
   happens inside the sweep itself. *)
let arm_sweep t at = if at < t.sweep_at then t.sweep_at <- at

(* Close a finished connection — acceptor only.  [try_lock] keeps a
   slow reply flush (bounded by SO_SNDTIMEO) from stalling the
   acceptor: a contended connection is retried on a short timer rather
   than polled.  Closing under [wmu] means a straggling writer finds
   [alive] false, never a recycled descriptor. *)
let reap_now t conn =
  if Hashtbl.mem t.conns conn.fd then
    if Mutex.try_lock conn.wmu then begin
      let finished = (not conn.alive) || (conn.eof && conn.inflight = 0) in
      if finished then begin
        conn.alive <- false;
        (try Unix.close conn.fd with Unix.Unix_error _ -> ());
        Mutex.unlock conn.wmu;
        Hashtbl.remove t.conns conn.fd;
        Readiness.remove t.engine conn.fd;
        Gauge.set g_net_conns (Hashtbl.length t.conns)
      end
      else Mutex.unlock conn.wmu
    end
    else begin
      Mutex.protect t.dmu (fun () -> t.dead <- conn :: t.dead);
      arm_sweep t (Clock.now_ms () +. 25.)
    end

(* Forfeit: the write side is done for (I/O error, injected fault,
   protocol violation, missed deadline) — mark and close. *)
let forfeit t conn =
  Mutex.protect conn.wmu (fun () -> conn.alive <- false);
  reap_now t conn

let service_conn t conn =
  match Fault.point "svc.net.read" with
  | exception Fault.Injected _ ->
      (* A hostile network bit this read: the connection is forfeit,
         the acceptor and every other connection keep going. *)
      Counter.incr c_net_fault_read;
      forfeit t conn
  | () -> (
      match Framer.read conn.rbuf conn.fd with
      | 0 ->
          (* Half-close, not hang-up: a client may shutdown(SHUT_WR)
             after its last request and still be reading.  Stop polling
             the fd but keep it open until every in-flight reply is
             delivered; the last [write_reply] wakes us to close it. *)
          Mutex.protect conn.wmu (fun () -> conn.eof <- true);
          Readiness.remove t.engine conn.fd;
          conn.frame_since <- Float.nan;
          reap_now t conn
      | _ ->
          let now = Clock.now_ms () in
          conn.last_ms <- now;
          drain_lines t conn;
          (* Frame deadline bookkeeping: a partial frame keeps the
             clock of its *first* byte — a dribbling client makes
             progress but never resets the bound. *)
          if Framer.pending conn.rbuf = 0 then conn.frame_since <- Float.nan
          else if Float.is_nan conn.frame_since then begin
            conn.frame_since <- now;
            if t.cfg.read_deadline_ms > 0. then
              arm_sweep t (now +. t.cfg.read_deadline_ms)
          end;
          if not conn.alive then reap_now t conn
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> forfeit t conn)

let accept_loop t lfd kind =
  let continue = ref true in
  while !continue && Hashtbl.length t.conns < t.cfg.max_conns do
    match Unix.accept ~cloexec:true lfd with
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | fd, _ -> (
        match Fault.point "svc.net.accept" with
        | exception Fault.Injected _ ->
            (* The handshake "failed": drop the would-be connection on
               the floor — the client's connect retry owns recovery. *)
            Counter.incr c_net_fault_accept;
            (try Unix.close fd with Unix.Unix_error _ -> ())
        | () ->
            (* Bound every reply write: a client that stops reading gets
               its connection forfeited after the send timeout instead
               of wedging a worker domain on a full socket buffer.
               (<= 0 disables.) *)
            if t.cfg.write_timeout_ms > 0. then
              (try
                 Unix.setsockopt_float fd Unix.SO_SNDTIMEO
                   (t.cfg.write_timeout_ms /. 1000.)
               with Unix.Unix_error _ -> ());
            if kind = `Tcp then
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
            let now = Clock.now_ms () in
            let rec conn =
              {
                fd;
                kind;
                rbuf =
                  Framer.create ~max_line_bytes:t.cfg.max_line_bytes ();
                wmu = Mutex.create ();
                notify =
                  (fun () ->
                    Mutex.protect t.dmu (fun () ->
                        t.dead <- conn :: t.dead);
                    wake t);
                alive = true;
                eof = false;
                inflight = 0;
                last_ms = now;
                frame_since = Float.nan;
              }
            in
            Hashtbl.replace t.conns fd conn;
            Readiness.add t.engine fd;
            Counter.incr c_net_accepted;
            Gauge.set g_net_conns (Hashtbl.length t.conns);
            if t.cfg.idle_timeout_ms > 0. then
              arm_sweep t (now +. t.cfg.idle_timeout_ms))
  done

(* The deadline sweep: runs only when [sweep_at] says a deadline may be
   due, walks every connection once, enforces idle and frame deadlines,
   and recomputes the exact next deadline.  Per-event work in the
   readiness loop stays O(1); the O(n) walk is amortised over the
   deadline intervals themselves (tens of seconds). *)
let sweep t now =
  let next = ref infinity in
  let frame_victims = ref [] in
  let idle_victims = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      if conn.alive then begin
        (if t.cfg.read_deadline_ms > 0. && not (Float.is_nan conn.frame_since)
         then
           let dl = conn.frame_since +. t.cfg.read_deadline_ms in
           if now >= dl then frame_victims := conn :: !frame_victims
           else if dl < !next then next := dl);
        if
          t.cfg.idle_timeout_ms > 0.
          && conn.inflight = 0
          && Float.is_nan conn.frame_since
          && not conn.eof
        then begin
          let dl = conn.last_ms +. t.cfg.idle_timeout_ms in
          if now >= dl then idle_victims := conn :: !idle_victims
          else if dl < !next then next := dl
        end
      end)
    t.conns;
  List.iter
    (fun conn ->
      Counter.incr c_net_reaped_frame;
      write_line conn
        (Protocol.response_to_line
           (Protocol.error ~id:"" ~code:"svc/bad-request"
              (Printf.sprintf
                 "read deadline exceeded: frame incomplete after %.0f ms"
                 t.cfg.read_deadline_ms)));
      forfeit t conn)
    !frame_victims;
  List.iter
    (fun conn ->
      Counter.incr c_net_reaped_idle;
      forfeit t conn)
    !idle_victims;
  t.sweep_at <- !next

(* Keep the listeners registered exactly while there is room: at the
   cap further clients wait in the listen backlog instead of consuming
   descriptors (and under [select] fallback, instead of pushing an fd
   past FD_SETSIZE where select raises). *)
let arm_listeners t =
  let under = Hashtbl.length t.conns < t.cfg.max_conns in
  List.iter
    (fun (lfd, _) ->
      if under then Readiness.add t.engine lfd
      else Readiness.remove t.engine lfd)
    t.listeners

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let drain_dead t =
  let batch = Mutex.protect t.dmu (fun () ->
      let d = t.dead in
      t.dead <- [];
      d)
  in
  List.iter (fun conn -> reap_now t conn) batch

let serve_loop t =
  let code =
    try
      Readiness.add t.engine t.wake_r;
      while not (Atomic.get t.stop) do
        let now = Clock.now_ms () in
        if now >= t.sweep_at then sweep t now;
        (* Retry contended reaps before blocking: a failed [try_lock]
           re-arms [sweep_at] a few ms out, so the wait below stays
           bounded while anything is pending. *)
        drain_dead t;
        arm_listeners t;
        (* Block until the next computed deadline — or forever when
           there is none.  Everything that could create earlier work
           (a new deadline, a finished connection, stop) either arms
           [sweep_at] on this thread or writes the self-pipe. *)
        let timeout_ms =
          if t.sweep_at = infinity then -1. else Float.max 0. (t.sweep_at -. now)
        in
        let ready = Readiness.wait t.engine ~timeout_ms in
        (* Service data before accepting: an accept may reuse a
           descriptor number closed earlier in this very batch, and a
           stale readiness entry must never reach the newcomer. *)
        let conn_ready, other =
          List.partition (fun fd -> Hashtbl.mem t.conns fd) ready
        in
        List.iter
          (fun fd ->
            match Hashtbl.find_opt t.conns fd with
            | Some conn -> service_conn t conn
            | None -> ())
          conn_ready;
        List.iter
          (fun fd ->
            if fd = t.wake_r then drain_wake t
            else
              match List.find_opt (fun (lfd, _) -> lfd = fd) t.listeners with
              | Some (lfd, kind) -> accept_loop t lfd kind
              | None -> ())
          other;
        drain_dead t;
        (* SIGUSR1 lands as an EINTR out of the wait; the handler only
           sets a flag and the dump happens here, on the acceptor,
           outside signal context. *)
        if Atomic.get t.dump_requested then begin
          Atomic.set t.dump_requested false;
          dump_flight ()
        end
      done;
      (* Drain: close the door, let the workers finish what is queued
         and in flight, under the drain deadline. *)
      List.iter
        (fun (lfd, _) ->
          try Unix.close lfd with Unix.Unix_error _ -> ())
        t.listeners;
      if t.cfg.socket_path <> "" then
        (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
      let drained = Supervisor.drain t.sup ~deadline_ms:t.cfg.drain_ms in
      (* Workers are quiet now: flush handler-owned state (the durable
         store's WAL fsync) while the process is still in charge. *)
      (match t.on_drain with None -> () | Some f -> f ());
      (* Every reply is out (or abandoned with its worker past the
         deadline); close what is left under each connection's write
         lock so a straggling writer finds [alive] false rather than a
         recycled descriptor. *)
      Hashtbl.iter
        (fun _ c ->
          Mutex.protect c.wmu (fun () ->
              c.alive <- false;
              try Unix.close c.fd with Unix.Unix_error _ -> ()))
        t.conns;
      Hashtbl.reset t.conns;
      (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
      (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
      if !(t.flight_dump) then dump_flight ();
      (match drained with
      | `Drained -> 0
      | `Expired abandoned ->
          Printf.eprintf
            "argus serve: drain deadline of %.15g ms passed; %d requests \
             abandoned\n%!"
            t.cfg.drain_ms abandoned;
          1)
    with e ->
      Printf.eprintf "argus serve: internal error: %s\n%!"
        (Printexc.to_string e);
      2
  in
  (* Flush counters/spans to whatever sinks are configured. *)
  Argus_obs.Obs.finish ();
  code

let bind_unix path =
  (* A stale socket file from a crashed predecessor would make bind
     fail; remove it if it is a socket (never clobber a regular file). *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 256;
  Unix.set_nonblock fd;
  fd

let bind_tcp spec =
  match Endpoint.of_string spec with
  | Error e -> failwith e
  | Ok (Endpoint.Unix_path _) ->
      failwith (Printf.sprintf "--listen expects HOST:PORT, got %S" spec)
  | Ok (Endpoint.Tcp (host, port)) -> (
      match Endpoint.resolve host port with
      | None -> failwith (Printf.sprintf "--listen %s: host does not resolve" spec)
      | Some addr ->
          let fd =
            Unix.socket ~cloexec:true
              (Unix.domain_of_sockaddr addr)
              Unix.SOCK_STREAM 0
          in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd addr;
          Unix.listen fd 256;
          Unix.set_nonblock fd;
          let bound =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> Some p
            | _ -> None
          in
          (fd, bound))

let make ?(handler = Handlers.handle) ?extra_stats ?on_drain cfg =
  (* The connection cap is config + RLIMIT_NOFILE, not FD_SETSIZE:
     ask for headroom above [max_conns] (listeners, self-pipe, the
     store's descriptors) while we still can. *)
  ignore (Readiness.nofile_raise (cfg.max_conns + 64));
  let listeners = ref [] in
  let tcp_port = ref None in
  if cfg.socket_path <> "" then
    listeners := (bind_unix cfg.socket_path, `Unix) :: !listeners;
  (match cfg.listen with
  | None -> ()
  | Some spec ->
      let fd, port = bind_tcp spec in
      tcp_port := port;
      listeners := (fd, `Tcp) :: !listeners);
  if !listeners = [] then
    failwith "argus serve: no listener (give a socket path or --listen)";
  (* The bound port is only useful if whoever asked for port 0 can read
     it back; tests do, through the port file. *)
  (match cfg.port_file, !tcp_port with
  | Some f, Some p ->
      let oc = open_out f in
      Printf.fprintf oc "%d\n" p;
      close_out oc
  | _ -> ());
  let flight_dump = ref false in
  let on_crash () =
    cfg.supervisor.Supervisor.on_crash ();
    if !flight_dump then dump_flight ()
  in
  let sup =
    Supervisor.create
      ~config:{ cfg.supervisor with Supervisor.on_crash }
      ~handler ()
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg;
    sup;
    listeners = !listeners;
    tcp_port = !tcp_port;
    engine = Readiness.create ();
    stop = Atomic.make false;
    conns = Hashtbl.create 256;
    wake_r;
    wake_w;
    dmu = Mutex.create ();
    dead = [];
    sweep_at = infinity;
    next_id = 0;
    next_trace = 0;
    flight_dump;
    dump_requested = Atomic.make false;
    extra_stats;
    on_drain;
  }

let listen_summary t =
  let ep = function
    | _, `Unix -> t.cfg.socket_path
    | _, `Tcp ->
        let port = match t.tcp_port with Some p -> p | None -> 0 in
        let host =
          match t.cfg.listen with
          | Some spec -> (
              match Endpoint.of_string spec with
              | Ok (Endpoint.Tcp (h, _)) -> h
              | _ -> "0.0.0.0")
          | None -> "0.0.0.0"
        in
        Printf.sprintf "%s:%d" host port
  in
  String.concat ", " (List.map ep t.listeners)

(* The major GC's pacing for a serving process (DESIGN.md §11).  OCaml
   paces the major collector by allocation; the framer allocates nothing
   per read, so at the runtime default (120) the store's heap grows
   further between cycles.  [run] sets it once, after the caller's
   recovery, so recovery keeps the default pacing. *)
let gc_space_overhead = 80

let run ?handler ?extra_stats ?on_drain cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Gc.set { (Gc.get ()) with Gc.space_overhead = gc_space_overhead };
  let t = make ?handler ?extra_stats ?on_drain cfg in
  t.flight_dump := true;
  let request_stop _ = Atomic.set t.stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Atomic.set t.dump_requested true));
  Printf.eprintf "argus serve: listening on %s (jobs=%d, queue=%d)\n%!"
    (listen_summary t) cfg.supervisor.jobs cfg.supervisor.queue_capacity;
  serve_loop t

type handle = { t : t; domain : int Domain.t }

let spawn ?handler ?extra_stats ?on_drain cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = make ?handler ?extra_stats ?on_drain cfg in
  { t; domain = Domain.spawn (fun () -> serve_loop t) }

let tcp_port h = h.t.tcp_port

let stop h =
  Atomic.set h.t.stop true;
  wake h.t;
  Domain.join h.domain
