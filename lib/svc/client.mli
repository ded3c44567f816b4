(** Resilient line-protocol client: seeded-backoff retries,
    per-attempt deadlines carved from an overall budget, and failover
    across a list of endpoints.  Every attempt opens a fresh connection
    and closes it after the response, so no connection outlives a call
    and a server restarted between calls is just the server the next
    call reaches.

    The failure semantics mirror the server's: every call resolves
    within its budget — a {!Protocol.response} (possibly a typed error
    the server chose to send) or a typed {!error} — and never hangs.
    Retries follow the deterministic schedule of {!Argus_rt.Retry}
    ([delay_ms] is a pure function of the policy seed, the key and the
    attempt number), so a test that fixes the policy sees the same
    backoff on every run.

    Retry safety per op: everything keyed by case digest — [verdict],
    [patch] addressing — or stateless — [check], [prove], [fallacies],
    [probe], [health], [stats] — is idempotent and retried blindly;
    [put] re-stores identical content at an identical digest.  [patch]
    is the one write a resend does not repeat safely: when the first
    attempt committed, the case moved off the base digest, so the
    server answers the resend [svc/unknown-digest] for a write that
    stands (ROADMAP item 2 holds the fix).  Only a patch that leaves
    the digest where it was replays onto its base, and then commits
    twice in the WAL.  A retried [patch] is therefore only accepted on
    a fresh [seq] echo in its ack — the audit trail that lets the
    caller detect the duplicate; against a server too old to echo
    [seq], the retried ack is refused as {!Bad_response}.  (DESIGN.md
    §16 has the full table.) *)

type error =
  | Connect_failed of string
      (** No endpoint accepted a connection within the attempt
          budget. *)
  | Timeout of string  (** The overall deadline expired. *)
  | Closed of string
      (** A connection died mid-exchange and the retry budget is
          spent. *)
  | Bad_response of string
      (** The server answered something unparseable — or a retried
          patch ack without a [seq] echo. *)

val error_message : error -> string

val error_code : error -> string
(** Stable taxonomy key: ["connect"], ["timeout"], ["closed"],
    ["bad-response"] — the chaos harness buckets failures by it. *)

type t

val create :
  ?policy:Argus_rt.Retry.policy ->
  ?overall_deadline_ms:float ->
  Endpoint.t list ->
  t
(** [policy] defaults to 12 attempts, 25 ms base, 400 ms cap —
    generous enough that scripts may start a server in the background
    and call immediately.  [overall_deadline_ms] (default 30 000)
    bounds the whole call including every retry and backoff sleep;
    each attempt gets [remaining / attempts_left], floored at 50 ms,
    as its connect timeout and [SO_SNDTIMEO]/[SO_RCVTIMEO].  Raises [Invalid_argument] on an empty endpoint list. *)

val endpoints : t -> Endpoint.t list

val call : ?op:Protocol.op -> t -> string -> (Protocol.response, error) result
(** One request line (no trailing newline), one response.  [op] tells
    the client which retry-safety rule applies; omitting it assumes an
    idempotent op. *)

val call_request : t -> Protocol.request -> (Protocol.response, error) result
(** {!call} on the encoded request, with the op taken from it. *)
