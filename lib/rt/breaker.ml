module Clock = Argus_core.Clock

type state = Closed | Open | Half_open

type t = {
  bname : string;
  failures : int;
  cooldown_ms : float;
  mu : Mutex.t;
  mutable st : state;
  mutable consecutive : int;
  mutable opened_at : float;
}

let c_opened = Argus_obs.Counter.make "rt.breaker_open"

let make ?(failures = 5) ?(cooldown_ms = 1000.) ~name () =
  {
    bname = name;
    failures;
    cooldown_ms;
    mu = Mutex.create ();
    st = Closed;
    consecutive = 0;
    opened_at = 0.;
  }

let name t = t.bname

(* Caller holds [t.mu]. *)
let refresh t =
  if t.st = Open && Clock.now_ms () -. t.opened_at >= t.cooldown_ms then
    t.st <- Half_open

let state t =
  Mutex.protect t.mu (fun () ->
      refresh t;
      t.st)

let admit t =
  Mutex.protect t.mu (fun () ->
      refresh t;
      match t.st with
      | Closed -> true
      | Open -> false
      | Half_open ->
          (* One trial at a time: mark it taken by moving opened_at
             forward so a concurrent admit sees a fresh cooldown. *)
          if t.opened_at = Float.infinity then false
          else begin
            t.opened_at <- Float.infinity;
            true
          end)

let cancel t =
  Mutex.protect t.mu (fun () ->
      if t.st = Half_open && t.opened_at = Float.infinity then
        t.opened_at <- 0.)

let success t =
  Mutex.protect t.mu (fun () ->
      t.consecutive <- 0;
      t.st <- Closed)

let open_now t =
  t.st <- Open;
  t.opened_at <- Clock.now_ms ();
  Argus_obs.Counter.incr c_opened

let failure t =
  Mutex.protect t.mu (fun () ->
      t.consecutive <- t.consecutive + 1;
      match t.st with
      | Half_open -> open_now t
      | Closed when t.failures > 0 && t.consecutive >= t.failures ->
          open_now t
      | Closed | Open -> ())

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"
