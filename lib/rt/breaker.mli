(** Per-request-class circuit breaker.

    A breaker guards one class of work (the service layer keeps one per
    request kind).  It opens after [failures] {e consecutive} failures
    — further work is refused immediately instead of being handed to a
    worker — and half-opens once [cooldown_ms] has elapsed, letting a
    single trial through: the trial's success closes the breaker, its
    failure re-opens it (and restarts the cooldown clock).  This keeps
    a poisoned input class (every request of kind X crashes its
    worker) from consuming the whole pool's throughput with
    crash-restart cycles, while still re-probing the class
    periodically.

    Cooldowns run on the monotonic {!Argus_core.Clock}; unit tests
    drive open → half-open → closed transitions deterministically under
    {!Argus_core.Clock.with_fake}.

    A breaker holds no lock: the caller serialises every call on it,
    {!state} included (the supervisor makes each call under its one
    mutex, admission on the acceptor and outcomes on worker domains).

    Counter: [rt.breaker_open] (transitions into [Open]). *)

type state = Closed | Open | Half_open

type t

val make : failures:int -> cooldown_ms:float -> t
(** [failures <= 0] disables the breaker: it never opens. *)

val state : t -> state
(** Consults the clock: an [Open] breaker whose cooldown has elapsed
    reports (and becomes) [Half_open]. *)

val admit : t -> bool
(** May this unit of work proceed?  [Closed] admits; [Open] refuses
    until the cooldown elapses, at which point the breaker half-opens
    and admits exactly one trial; [Half_open] refuses while that trial
    is in flight. *)

val cancel : t -> unit
(** Return an {!admit}-granted half-open trial that will not run after
    all (e.g. the request was shed at the queue): another trial becomes
    grantable immediately.  No-op in other states. *)

val success : t -> unit
(** Record a completed unit: closes a half-open breaker, resets the
    consecutive-failure count. *)

val failure : t -> unit
(** Record a failed unit: re-opens a half-open breaker immediately,
    opens a closed one at the failure threshold. *)

val state_to_string : state -> string
