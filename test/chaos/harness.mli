(** The chaos load harness: open-loop load plus misbehaving clients
    against live servers, with every issued request accounted for.

    Open-loop load: arrivals are drawn from a Poisson process anchored
    at the start of the run (exponential inter-arrival times via the
    seeded {!Argus_core.Prng}), so the offered rate does not adapt to
    server slowness — a worker that falls behind its schedule issues
    the overdue requests back-to-back instead of silently thinning the
    load.

    Two kinds of well-behaved traffic:
    - {e retrying workers} drive {!Argus_svc.Client} (pooling,
      seeded-backoff retries, failover across the endpoint list) one
      call at a time;
    - one {e pipelining worker} writes every currently-due request in
      a single batch on a raw connection and then collects the batch's
      responses — exercising the server's multiple-frames-per-read
      path — reconnecting (with endpoint failover) when the
      connection dies and accounting every outstanding request to the
      taxonomy rather than forgetting it.

    Alongside them runs the misbehaving-client catalog: a
    byte-dribbler (feeds a frame one byte at a time, far slower than
    the server's read deadline), a mid-frame disconnector, a
    never-reader (sends requests, never reads responses) and a
    garbage-writer — all seeded from the same root, so the abuse
    schedule is reproducible.

    Every issued request is resolved into exactly one taxonomy bucket:
    ["ok"], a server error code (["svc/overloaded"], ...), a client
    failure code (["connect"], ["timeout"], ["closed"],
    ["bad-response"]) or ["raised:<exn>"] for a client call that
    raised instead of returning.  Load generation for measurement
    belongs to [argbench/]; this harness only checks robustness. *)

val request_line : Argus_svc.Protocol.request -> string
(** One encoded request frame, trailing newline included. *)

type batch = {
  size : int;  (** Arrivals in the batch; 0 once the schedule ends. *)
  first_at : float;  (** Due time of the batch's first arrival. *)
  next : float;  (** Due time of the first arrival after the batch. *)
}

val next_batch :
  Argus_core.Prng.t -> rate:float -> next:float -> now:float ->
  t_end:float -> batch
(** The pipelining worker's schedule step.  [next] is the due time of
    the first unissued arrival.  The batch is that arrival, whether or
    not it is due yet, plus every following arrival due by [now];
    arrivals due at or after [t_end] are never issued.  The worker
    sleeps until [first_at] when it is ahead of schedule. *)

type result = {
  offered : int;  (** Requests actually issued. *)
  resolved : int;  (** Requests accounted to a taxonomy bucket. *)
  ok : int;
  taxonomy : (string * int) list;  (** Bucket -> count, sorted. *)
  chaos_conns : int;  (** Connections the misbehavers opened. *)
}

val run :
  duration_s:float -> rate:float -> clients:int -> seed:int ->
  Argus_svc.Endpoint.t list -> result
(** [clients] retrying workers plus the pipeliner share [rate]
    requests per second across the endpoints (in failover order)
    while the catalog runs.  Blocks for roughly [duration_s]; never
    past it plus the drain grace. *)

val problems : result -> string list
(** Why the run fails the harness's gate: requests left unresolved,
    or client calls that raised.  Empty when the run passes. *)
