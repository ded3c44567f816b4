(** The [argus serve] daemon: a Unix-domain-socket and/or TCP server
    speaking the line-delimited JSON {!Protocol}, dispatching to a
    supervised {!Supervisor} pool.

    The acceptor runs single-threaded over a {!Readiness} engine
    ([poll(2)] where available, [select] fallback): it owns admission
    (shedding, breaker refusals, [health] and [stats] are answered
    without touching a worker — monitoring keeps working when the queue
    is full), workers write their responses back through the
    originating connection's write lock, in completion order.  The loop
    blocks until the next {e computed} deadline — frame read deadlines
    and idle reaps are timers, not polls — and is woken through a
    self-pipe by whichever thread finishes a connection.  Every parsed
    request gets a trace id (client-sent or server-minted) echoed in
    its response; [trace: true] requests return their server-side span
    tree in the payload.  The write lock also guards the connection's
    lifecycle: a descriptor is only closed under it, so a worker
    mid-reply can never write into a recycled fd.  A client that
    half-closes its write side ([shutdown(SHUT_WR)]) after sending
    still receives every pending response — the connection is reaped
    only once nothing remains in flight on it.

    Hostile-network defenses, per connection: [TCP_NODELAY] on accepted
    TCP sockets; a frame read deadline ([read_deadline_ms]) clocked
    from the {e first} byte of a partial frame, so a byte-dribbling
    slow-loris client forfeits its connection however steady its drip;
    an idle reaper ([idle_timeout_ms]) for half-open peers that never
    write again; [SO_SNDTIMEO] for peers that never read.  Faults on
    the I/O edges ([svc.net.read], [svc.net.write], [svc.net.accept])
    forfeit exactly the connection they bit, never the acceptor.

    Graceful drain: SIGTERM or SIGINT (or {!stop}) makes the server
    stop accepting — the listening sockets are closed, the Unix socket
    unlinked — then drain queued and in-flight work under [drain_ms],
    flush the {!Argus_obs} counters, and exit by the 0/1/2 taxonomy: 0
    clean drain, 1 drain deadline expired with work abandoned, 2
    internal error.  SIGPIPE is ignored: a client that hangs up
    mid-response costs exactly its own connection.

    Flight recorder: {!run} servers dump {!Supervisor.flight} as JSONL
    to stderr on SIGUSR1, on drain, and after a worker crash;
    {!spawn} servers (tests, bench) never dump. *)

type config = {
  socket_path : string;
      (** Unix-domain listener path; [""] disables the Unix listener
          (then [listen] must be set). *)
  listen : string option;
      (** TCP listener as [HOST:PORT]; port [0] asks the kernel for an
          ephemeral port (readable back through [port_file] or
          {!tcp_port}).  [None] disables TCP. *)
  port_file : string option;
      (** When set and a TCP listener is bound, the bound port is
          written here (a line with the decimal port) before serving —
          how tests and scripts find a [--listen host:0] server. *)
  supervisor : Supervisor.config;
      (** Workers, queue capacity, breakers, budget policy and slow
          threshold ({!Supervisor.config}); [jobs] and [queue_capacity]
          are also what [health] and [stats] report.  The server runs
          its flight dump after [on_crash]. *)
  drain_ms : float;
      (** Drain deadline on shutdown.  When it passes with work left,
          the server writes [argus serve: drain deadline of N ms passed;
          K requests abandoned] to stderr and exits 1. *)
  max_line_bytes : int;
      (** A connection sending a longer request line is answered
          [svc/bad-request] and closed — bounded buffering, like the
          queue.  The bound holds however the line's bytes are split
          across reads; the connection's read buffer ({!Framer}) never
          grows past it plus one byte. *)
  max_conns : int;
      (** Simultaneous-connection cap: at the cap the listeners leave
          the readiness set, so further clients wait in the listen
          backlog.  With the poll backend the only other ceiling is
          [RLIMIT_NOFILE]; the select fallback still caps near
          [FD_SETSIZE]. *)
  write_timeout_ms : float;
      (** [SO_SNDTIMEO] on accepted sockets: a client that stops
          reading forfeits its connection once a reply write blocks
          this long, instead of wedging a worker domain forever on a
          full socket buffer.  [<= 0.] disables the bound. *)
  idle_timeout_ms : float;
      (** A connection with nothing buffered, nothing in flight and no
          read activity for this long is reaped — half-open peers do
          not hold descriptors forever.  [<= 0.] disables. *)
  read_deadline_ms : float;
      (** A partial request frame must complete within this bound,
          clocked from its first byte: the slow-loris defense.  The
          offender is answered [svc/bad-request] and closed.  [<= 0.]
          disables. *)
}

val default_config : socket_path:string -> config
(** {!Supervisor.default_config} with jobs
    {!Argus_par.Pool.default_jobs}, 5 s drain, 8 MiB lines, 4096
    connections, 5 s write timeout, 60 s idle timeout, 10 s read
    deadline, no TCP listener. *)

val run :
  ?handler:
    (Protocol.request -> budget:Argus_rt.Budget.t option -> Protocol.response) ->
  ?extra_stats:(unit -> (string * Argus_core.Json.t) list) ->
  ?on_drain:(unit -> unit) ->
  config ->
  int
(** Bind, serve until SIGTERM/SIGINT, drain, return the exit code.
    The default handler is {!Handlers.handle}.  [extra_stats] fields
    (the durable store's mode and cursors) are appended to both the
    [health] and [stats] payloads; [on_drain] runs after the workers
    drain and before exit — where the durable store flushes and
    fsyncs its WAL.  Raises [Failure] if no listener is configured or
    a listener cannot bind. *)

type handle
(** A server running in a background domain — the bench and test
    harness entry point ({!run} installs signal handlers, which are
    process-wide; [spawn] does not). *)

val spawn :
  ?handler:
    (Protocol.request -> budget:Argus_rt.Budget.t option -> Protocol.response) ->
  ?extra_stats:(unit -> (string * Argus_core.Json.t) list) ->
  ?on_drain:(unit -> unit) ->
  config ->
  handle
(** The listeners are bound and listening when [spawn] returns: a
    client may connect immediately. *)

val tcp_port : handle -> int option
(** The bound TCP port ([--listen host:0] resolves the kernel's pick),
    [None] when no TCP listener was configured. *)

val stop : handle -> int
(** Request drain, wake the acceptor, join the server domain, return
    its exit code. *)
