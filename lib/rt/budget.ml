module Diagnostic = Argus_core.Diagnostic
module Clock = Argus_core.Clock

type reason = Deadline | Fuel
type exhaustion = { reason : reason; engine : string; steps : int }

(* Limits are encoded without options so the hot checks are integer
   compares: [max_int] fuel/deadline means "absent".  [limited]
   short-circuits every probe on the shared {!unlimited} value, which
   therefore is never written to and is safe to share across
   domains. *)
type t = {
  limited : bool;
  deadline : int;  (** absolute {!Clock.now_ns} reading *)
  fuel : int;
  mutable steps : int;
  mutable state : exhaustion option;
}

type spec = { deadline_ms : float option; fuel : int option }

let spec_unlimited = { deadline_ms = None; fuel = None }

let spec_of_env () =
  let float_env name =
    match Sys.getenv_opt name with
    | None -> None
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some v when v > 0. -> Some v
        | _ -> None)
  in
  let int_env name =
    match Sys.getenv_opt name with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some v when v > 0 -> Some v
        | _ -> None)
  in
  { deadline_ms = float_env "ARGUS_DEADLINE_MS"; fuel = int_env "ARGUS_FUEL" }

let spec_is_unlimited s = s.deadline_ms = None && s.fuel = None

let c_exhausted = Argus_obs.Counter.make "rt.budget_exhausted"
let c_deadline_hits = Argus_obs.Counter.make "rt.deadline_hits"

let unlimited =
  { limited = false; deadline = max_int; fuel = max_int; steps = 0; state = None }

let make ?deadline_ms ?fuel () =
  let deadline =
    match deadline_ms with
    | Some ms when ms > 0. ->
        (* Capped at ~31 years so the ns sum cannot overflow. *)
        Clock.now_ns () + int_of_float (Float.min ms 1e12 *. 1e6)
    | _ -> max_int
  in
  let fuel = match fuel with Some n when n > 0 -> n | _ -> max_int in
  if deadline = max_int && fuel = max_int then unlimited
  else { limited = true; deadline; fuel; steps = 0; state = None }

let of_spec s = make ?deadline_ms:s.deadline_ms ?fuel:s.fuel ()
let is_limited b = b.limited

let exhaust b ~engine reason =
  if b.state = None then begin
    b.state <- Some { reason; engine; steps = b.steps };
    Argus_obs.Counter.incr c_exhausted;
    if reason = Deadline then Argus_obs.Counter.incr c_deadline_hits
  end

(* The clock is consulted once per [deadline_mask + 1] steps:
   [Clock.now_ns] costs ~40 ns, a counter bump ~1. *)
let deadline_mask = 255

let tick b ~engine =
  if not b.limited then true
  else
    match b.state with
    | Some _ -> false
    | None ->
        let s = b.steps + 1 in
        b.steps <- s;
        if s > b.fuel then begin
          exhaust b ~engine Fuel;
          false
        end
        else if
          b.deadline < max_int
          && s land deadline_mask = 0
          && Clock.now_ns () > b.deadline
        then begin
          exhaust b ~engine Deadline;
          false
        end
        else true

let ticks b ~engine n =
  if not b.limited then true
  else
    match b.state with
    | Some _ -> false
    | None ->
        let s = b.steps + n in
        b.steps <- s;
        if s > b.fuel then begin
          exhaust b ~engine Fuel;
          false
        end
        else if b.deadline < max_int && Clock.now_ns () > b.deadline
        then begin
          exhaust b ~engine Deadline;
          false
        end
        else true

let steps b = b.steps
let exhausted b = b.state

let reason_to_string = function Deadline -> "deadline" | Fuel -> "fuel"

let diagnostics b =
  match b.state with
  | None -> []
  | Some { reason; engine; steps } ->
      [
        Diagnostic.warningf ~code:"rt/budget-exhausted"
          "budget-exhausted: %s after %d steps (%s); result may be \
           incomplete"
          engine steps (reason_to_string reason);
      ]
