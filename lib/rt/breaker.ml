module Clock = Argus_core.Clock

type state = Closed | Open | Half_open

type t = {
  failures : int;
  cooldown_ms : float;
  mutable st : state;
  mutable consecutive : int;
  mutable opened_at : float;
}

let c_opened = Argus_obs.Counter.make "rt.breaker_open"

let make ~failures ~cooldown_ms =
  { failures; cooldown_ms; st = Closed; consecutive = 0; opened_at = 0. }

let refresh t =
  if t.st = Open && Clock.now_ms () -. t.opened_at >= t.cooldown_ms then
    t.st <- Half_open

let state t =
  refresh t;
  t.st

let admit t =
  refresh t;
  match t.st with
  | Closed -> true
  | Open -> false
  | Half_open ->
      (* One trial at a time: mark it taken by moving opened_at
         forward so the next admit sees a fresh cooldown. *)
      if t.opened_at = Float.infinity then false
      else begin
        t.opened_at <- Float.infinity;
        true
      end

let cancel t =
  if t.st = Half_open && t.opened_at = Float.infinity then t.opened_at <- 0.

let success t =
  t.consecutive <- 0;
  t.st <- Closed

let open_now t =
  t.st <- Open;
  t.opened_at <- Clock.now_ms ();
  Argus_obs.Counter.incr c_opened

let failure t =
  t.consecutive <- t.consecutive + 1;
  match t.st with
  | Half_open -> open_now t
  | Closed when t.failures > 0 && t.consecutive >= t.failures -> open_now t
  | Closed | Open -> ()

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"
