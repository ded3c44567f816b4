(** Supervised worker pool: the "let it crash" core of [argus serve].

    A supervisor owns [jobs] long-lived worker domains pulling requests
    off one bounded FIFO.  Admission, dispatch and the per-kind breakers
    share the supervisor's one mutex: {!submit} admits, pushes or sheds
    in one critical section, a worker pops and marks itself busy in
    another.  The robustness contract (DESIGN.md §11):

    - a worker whose handler raises (a bug, or an {!Argus_rt.Fault}
      injection at the ["svc.request"] probe, keyed by request id)
      answers its in-flight request with a typed [rt/internal-error]
      response, then restarts — re-entering its pull loop after a
      capped, seeded-jitter backoff ({!Argus_rt.Retry.delay_ms} under
      {!Argus_rt.Retry.default_policy}).  The rest of the queue is
      untouched;
    - admission refuses instead of blocking: with [queue_capacity]
      requests waiting (or a capacity [<= 0]), a request is answered
      [svc/overloaded] immediately;
    - each request kind has an {!Argus_rt.Breaker}: after
      [breaker_failures] consecutive crashes of that kind, further
      requests of the kind are answered [svc/breaker-open] without
      touching a worker, until a cooldown admits a half-open trial;
    - each admitted request gets a fresh {!Argus_rt.Budget} minted from
      the server-side default, the client's override and the server
      max (the deadline clock starts at admission, so time spent
      queued counts against it).

    Latency, drain deadlines and the restart backoff read and sleep
    through {!Argus_core.Clock}, so unit tests replay restart and
    breaker schedules deterministically under its fake; replies are
    delivered on worker domains via the [reply] callback passed to
    {!submit} (the server's callback writes the response line under the
    connection's write lock).

    Counters: [svc.accepted], [svc.shed], [svc.breaker_open],
    [svc.restarts]; histograms [svc.request_latency_ms] (aggregate) and
    [svc.request_latency_ms.<op>] (per request kind); gauge
    [svc.queue_depth] (current depth; its max is the observed
    high-water mark).

    Telemetry: every admission, shed, breaker transition, worker
    restart, drain, expired drain and over-threshold slow request is
    also recorded in the {!flight} ring; a request with [trace = true]
    has its handler run under {!Argus_obs.Span.capture} and the
    resulting span tree spliced into the successful payload as
    ["trace"]. *)

type worker_state = Idle | Busy | Restarting

type budget_policy = {
  default_deadline_ms : float option;
      (** Deadline applied when the client sends none. *)
  max_deadline_ms : float option;
      (** Upper clamp on client-requested deadlines. *)
  max_fuel : int option;  (** Upper clamp on client-requested fuel. *)
}

type config = {
  jobs : int;  (** Worker domains (min 1). *)
  queue_capacity : int;  (** Waiting requests at most; [<= 0] sheds all. *)
  breaker_failures : int;  (** [<= 0] disables the breakers. *)
  breaker_cooldown_ms : float;
  budget : budget_policy;
  slow_ms : float option;
      (** Requests slower than this (admission to reply, ms) get a
          ["slow"] flight-recorder event; [None] disables. *)
  on_crash : unit -> unit;
      (** Called on a worker domain after a crash's typed reply is out
          and the restart is booked — the server hooks a flight-recorder
          dump here.  Exceptions are swallowed. *)
}

val default_config : config
(** jobs 1, capacity 64, breaker 5 failures / 1 s cooldown, no budget
    limits, no slow threshold, no crash hook. *)

val flight : Argus_obs.Ring.t
(** The service flight recorder (ring ["svc.flight"], capacity 512). *)

type t

val create :
  ?config:config ->
  handler:
    (Protocol.request -> budget:Argus_rt.Budget.t option -> Protocol.response) ->
  unit ->
  t

val submit :
  t -> Protocol.request -> reply:(Protocol.response -> unit) -> unit
(** Never blocks.  Exactly one [reply] per submission, from a worker
    domain on success/crash or synchronously from the caller on
    shedding, breaker refusal or drain ([svc/draining]). *)

val queue_depth : t -> int
val worker_states : t -> (worker_state * int) array
(** Per worker: state and consecutive-restart count. *)

val restarts : t -> int
(** Total worker restarts since creation. *)

val breaker_states : t -> (string * Argus_rt.Breaker.state) list
(** One entry per request kind seen so far, sorted by kind. *)

val accepting : t -> bool

val await_idle : t -> unit
(** Block until no request is queued or in flight.  (Test and bench
    synchronisation point; the server uses {!drain}.) *)

val drain : t -> deadline_ms:float -> [ `Drained | `Expired of int ]
(** Stop accepting, let queued and in-flight work finish, join the
    workers.  [`Expired abandoned] when the deadline passed first:
    [abandoned] counts the requests still queued or running (their
    domains are then left to die with the process), and a
    ["drain-expired"] flight event records it with the deadline.
    Idempotent: a later call returns [`Drained] at once. *)

val worker_state_to_string : worker_state -> string
