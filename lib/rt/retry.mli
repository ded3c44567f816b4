(** Exponential backoff with seeded jitter.

    The service layer uses this in two places: restarting a crashed
    worker (the supervision loop of {!Argus_svc.Supervisor}) and the
    resilient client's attempt loop ({!Argus_svc.Client.call}); each
    runs its own loop and sleeps through {!Argus_core.Clock}.  Delays
    grow geometrically from [base_delay_ms] up to [max_delay_ms] and
    are then jittered *deterministically*: the jitter draw is a pure
    function of [(seed, key, attempt)] through {!Argus_core.Prng}, so a
    test that fixes the policy seed sees the exact same backoff
    schedule on every run — the same discipline as {!Argus_rt.Fault}. *)

type policy = {
  max_attempts : int;  (** Total attempts, including the first. *)
  base_delay_ms : float;  (** Delay before the second attempt. *)
  max_delay_ms : float;  (** Cap on any single delay. *)
  multiplier : float;  (** Geometric growth factor. *)
  jitter : float;
      (** Fraction of the delay randomised away, in [0, 1]: the
          effective delay is [d * (1 - jitter * u)] with [u] uniform in
          [0, 1). *)
  seed : int;  (** Jitter PRNG seed. *)
}

val default_policy : policy
(** 5 attempts, 10 ms base, 1 s cap, 2.0 multiplier, 0.5 jitter,
    seed 0. *)

val delay_ms : policy -> key:string -> attempt:int -> float
(** Delay to sleep after failed attempt number [attempt] (1-based).
    Pure: same policy, key and attempt give the same delay. *)
