(** Cooperative resource budgets for the engines.

    A budget bounds how much work an engine call may do — a deadline
    on the monotonic {!Argus_core.Clock} and a step ("fuel") counter —
    and is checked at the engines' probe points.  Exhaustion never
    raises: the engine stops exploring, returns the partial result it
    has, and the budget records what gave out, so the caller can attach
    a structured [Diagnostic.warning] (code ["rt/budget-exhausted"]) to
    its report instead of hanging or crashing on adversarial input.

    Ownership convention: {e whoever creates the budget reports it} —
    engines thread the value through but never emit its diagnostics
    themselves, so a budget shared across several engine calls yields
    exactly one warning.

    A budget is single-domain mutable state: create one per task (the
    batch checker creates one per file), never share one across a
    {!Argus_par.Pool} fan-out.  {!unlimited} is the exception — it is
    never mutated and may be shared freely; every check against it is a
    single load-and-branch, which is what keeps the budgeted hot paths
    within the bench regression gate ([rt-budget-overhead-*]).

    Counters: [rt.budget_exhausted] (budgets that gave out),
    [rt.deadline_hits] (the subset that hit the deadline). *)

type t

type reason =
  | Deadline  (** Deadline passed on the monotonic clock. *)
  | Fuel  (** Step counter exhausted. *)

type exhaustion = { reason : reason; engine : string; steps : int }
(** What gave out, in which engine, after how many consumed steps. *)

(** A budget description, separate from the running state so the CLI
    can parse flags once and mint a fresh budget per file. *)
type spec = {
  deadline_ms : float option;  (** Relative to budget creation. *)
  fuel : int option;
}

val spec_unlimited : spec

val spec_of_env : unit -> spec
(** [ARGUS_DEADLINE_MS] and [ARGUS_FUEL] (unparsable or non-positive
    values are ignored). *)

val spec_is_unlimited : spec -> bool

val make : ?deadline_ms:float -> ?fuel:int -> unit -> t
(** A fresh budget; the deadline clock starts now.  Non-positive limits
    are treated as absent. *)

val of_spec : spec -> t

val unlimited : t
(** The shared no-limit budget: never exhausts, never mutated.  Engines
    use it as the default for their [?budget] parameters. *)

val is_limited : t -> bool

val tick : t -> engine:string -> bool
(** Consume one fuel step.  [false] means the budget is exhausted (now
    or previously) and the engine must stop and return what it has.
    The clock is consulted every 256 steps, so a pure-deadline
    budget still costs only a counter bump per probe. *)

val ticks : t -> engine:string -> int -> bool
(** Consume [n] steps at once (batch probe points, e.g. one LTL
    subformula labelling over [n] positions).  Checks the deadline
    unconditionally. *)

val steps : t -> int
val exhausted : t -> exhaustion option
(** The exhaustion (deadline or fuel), if any.  When [None], the
    result of the budgeted call is complete — identical to the
    unbudgeted run. *)

val reason_to_string : reason -> string

val diagnostics : t -> Argus_core.Diagnostic.t list
(** Zero or one warning with code ["rt/budget-exhausted"], e.g.
    ["budget-exhausted: sat after 10000 steps (fuel)"]. *)
