module Prng = Argus_core.Prng

type policy = {
  max_attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
  multiplier : float;
  jitter : float;
  seed : int;
}

let default_policy =
  {
    max_attempts = 5;
    base_delay_ms = 10.;
    max_delay_ms = 1000.;
    multiplier = 2.0;
    jitter = 0.5;
    seed = 0;
  }

let delay_ms policy ~key ~attempt =
  let attempt = max 1 attempt in
  let raw =
    policy.base_delay_ms
    *. (policy.multiplier ** float_of_int (attempt - 1))
  in
  let capped = Float.min policy.max_delay_ms raw in
  let jitter = Float.max 0. (Float.min 1. policy.jitter) in
  if jitter = 0. then capped
  else
    (* Same recipe as Fault.draw: the jitter fraction is pure in
       (seed, key, attempt), so schedules replay exactly. *)
    let g = Prng.create (policy.seed lxor Hashtbl.hash (key, attempt)) in
    capped *. (1. -. (jitter *. Prng.float g))
