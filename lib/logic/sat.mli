(** CNF conversion and a DPLL satisfiability solver.

    This is the mechanical-verification back end: entailment and validity
    queries over {!Prop.t} power the formal-fallacy detectors
    (incompatible premises, premise/conclusion contradiction, begging the
    question up to equivalence) and Rushby-style what-if probing.

    The solver runs on int-encoded literals over variables interned per
    call, with an array assignment, an undo trail, and two-watched-literal
    unit propagation — no persistent maps or clause-list rebuilding on
    the search path.  The original persistent-map DPLL it replaced is
    the differential-testing oracle in test/oracle ([Sat_naive]).

    Resource governance: the solving entry points take an optional
    [?budget] ({!Argus_rt.Budget.t}, default unlimited), ticked once
    per decision and once per propagated literal.  On exhaustion the
    search stops and the query answers as if unsatisfiable — callers
    that passed a budget must check {!Argus_rt.Budget.exhausted} and
    treat the answer as unknown when it is set.  Budgeted
    {!satisfiable} queries bypass the memo table so truncated answers
    are never cached.  The ["sat.decide"] fault probe fires at every
    decision (DESIGN.md §10). *)

type literal = { var : string; sign : bool }
type clause = literal list
type cnf = clause list

val tseitin : Prop.t -> cnf
(** Equisatisfiable linear-size conversion.  Introduces fresh variables
    prefixed ["_ts"]; input formulas must not use that prefix. *)

val solve :
  ?budget:Argus_rt.Budget.t -> cnf -> (string * bool) list option
(** DPLL with two-watched-literal unit propagation and pure-literal
    preprocessing.  Returns a satisfying assignment covering every
    variable that occurs (sorted by name), or [None] when
    unsatisfiable (or when the budget ran out mid-search — check
    [Budget.exhausted]). *)

val satisfiable : ?budget:Argus_rt.Budget.t -> Prop.t -> bool
val valid : ?budget:Argus_rt.Budget.t -> Prop.t -> bool

val entails : ?budget:Argus_rt.Budget.t -> Prop.t list -> Prop.t -> bool
(** [entails premises conclusion]: every model of the premises satisfies
    the conclusion. *)

val equivalent : ?budget:Argus_rt.Budget.t -> Prop.t -> Prop.t -> bool

val models :
  ?budget:Argus_rt.Budget.t -> Prop.t -> (string * bool) list option
(** A model of the formula over exactly its own variables, or [None]. *)

type count =
  | Exact of int  (** every valuation was enumerated *)
  | At_least of int
      (** the budget cut the enumeration short; the true count is at
          least this *)

val count_models : ?budget:Argus_rt.Budget.t -> Prop.t -> count
(** Number of satisfying assignments over the formula's variables, by
    exhaustive enumeration.  Intended for formulas with at most ~20
    variables; used by tests and the confidence module.  The budget is
    ticked per valuation; a cut-off (fuel or deadline) is reported as
    {!At_least}, never as an exact count. *)
