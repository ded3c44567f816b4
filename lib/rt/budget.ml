module Diagnostic = Argus_core.Diagnostic
module Clock = Argus_core.Clock

type reason = Deadline | Fuel | Depth | Solutions
type exhaustion = { reason : reason; engine : string; steps : int }

(* Limits are encoded without options so the hot checks are integer
   compares: [max_int] fuel/depth/solutions/deadline means "absent".
   [limited] short-circuits every probe on the shared {!unlimited}
   value, which therefore is never written to and is safe to share
   across domains. *)
type t = {
  limited : bool;
  deadline : int;  (** absolute {!Clock.now_ns} reading *)
  fuel : int;
  max_depth : int;
  max_solutions : int;
  mutable steps : int;
  mutable solutions : int;
  mutable state : exhaustion option;
  mutable depth_hit : bool;
}

type spec = {
  deadline_ms : float option;
  fuel : int option;
  max_depth : int option;
  max_solutions : int option;
}

let spec_unlimited =
  { deadline_ms = None; fuel = None; max_depth = None; max_solutions = None }

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
  {
    deadline_ms = float_env "ARGUS_DEADLINE_MS";
    fuel = int_env "ARGUS_FUEL";
    max_depth = None;
    max_solutions = None;
  }

let spec_is_unlimited s =
  s.deadline_ms = None && s.fuel = None && s.max_depth = None
  && s.max_solutions = None

let c_exhausted = Argus_obs.Counter.make "rt.budget_exhausted"
let c_deadline_hits = Argus_obs.Counter.make "rt.deadline_hits"

let unlimited =
  {
    limited = false;
    deadline = max_int;
    fuel = max_int;
    max_depth = max_int;
    max_solutions = max_int;
    steps = 0;
    solutions = 0;
    state = None;
    depth_hit = false;
  }

let make ?deadline_ms ?fuel ?max_depth ?max_solutions () =
  let pos_int v = match v with Some n when n > 0 -> n | _ -> max_int in
  let deadline =
    match deadline_ms with
    | Some ms when ms > 0. ->
        (* Capped at ~31 years so the ns sum cannot overflow. *)
        Clock.now_ns () + int_of_float (Float.min ms 1e12 *. 1e6)
    | _ -> max_int
  in
  let fuel = pos_int fuel
  and max_depth = pos_int max_depth
  and max_solutions = pos_int max_solutions in
  let limited =
    deadline < max_int || fuel < max_int || max_depth < max_int
    || max_solutions < max_int
  in
  if not limited then unlimited
  else
    {
      limited;
      deadline;
      fuel;
      max_depth;
      max_solutions;
      steps = 0;
      solutions = 0;
      state = None;
      depth_hit = false;
    }

let of_spec s =
  make ?deadline_ms:s.deadline_ms ?fuel:s.fuel ?max_depth:s.max_depth
    ?max_solutions:s.max_solutions ()

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

let depth_cap (b : t) = b.max_depth

let note_depth b ~engine =
  ignore engine;
  if b.limited then b.depth_hit <- true

let note_solution b ~engine =
  if not b.limited then true
  else begin
    let n = b.solutions + 1 in
    b.solutions <- n;
    if n >= b.max_solutions then begin
      exhaust b ~engine Solutions;
      false
    end
    else b.state = None
  end

let steps b = b.steps
let exhausted b = b.state
let depth_pruned b = b.depth_hit

let reason_to_string = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Depth -> "depth"
  | Solutions -> "solution cap"

let diagnostics b =
  let fatal =
    match b.state with
    | None -> []
    | Some { reason; engine; steps } ->
        [
          Diagnostic.warningf ~code:"rt/budget-exhausted"
            "budget-exhausted: %s after %d steps (%s); result may be \
             incomplete"
            engine steps (reason_to_string reason);
        ]
  in
  let depth =
    if b.depth_hit then
      [
        Diagnostic.warning ~code:"rt/budget-exhausted"
          "budget-exhausted: branches pruned at the depth cap; result may \
           be incomplete";
      ]
    else []
  in
  fatal @ depth
