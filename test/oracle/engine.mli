(** SLD resolution over Horn-clause programs.

    Depth-first, leftmost-goal selection, clauses tried in program order
    — the strategy of a textbook Prolog interpreter.  A depth bound
    keeps recursive programs (like Figure 1's [adjacent/2] rule)
    explorable without divergence; solutions stream lazily.

    The engine resolves against a {!compiled} dispatch table rather
    than scanning the clause list: clauses are keyed by predicate
    symbol and arity, discriminated on the principal functor of the
    head's first argument, and freshened lazily — only after the index
    admits them (ground clauses are never freshened at all).  The
    [prolog.index_hits]/[prolog.index_misses] counters record the
    index's selectivity; clause order, and therefore the solution
    order, is exactly that of the naive engine.

    Every solution carries a {!derivation} tree recording which clause
    resolved each goal — the raw material the proof-to-argument
    generator (Basir/Denney pipeline) and the Figure 1 demonstration
    render.

    Resource governance: every entry point takes an optional
    [?budget] ({!Argus_rt.Budget.t}, default unlimited).  The budget is
    ticked once per clause candidate tried.  On exhaustion the engine stops and returns what it has — a partial
    [Seq], or [false] from {!provable} — and the caller reads
    {!Argus_rt.Budget.exhausted} / [diagnostics] to report
    incompleteness.  Fault probes ["prolog.solve"] and
    ["prolog.provable"] fire at entry (DESIGN.md §10).

    This is the interpreter the shipped {!Argus_prolog.Exec} replaced;
    it lives with the tests as the differential oracle (test/prolog,
    test/fuzz) and nothing in lib/ or bin/ links it. *)

module Program := Argus_prolog.Program

type derivation = Argus_prolog.Derivation.t = {
  goal : Argus_logic.Term.t;  (** The resolved goal, fully instantiated. *)
  clause_index : int;  (** Index of the program clause used (0-based). *)
  children : derivation list;  (** One per body goal of that clause. *)
}

type compiled
(** A program compiled to a predicate/arity-keyed dispatch table with
    first-argument discrimination.  Compile once, query many times. *)

val compile : Program.t -> compiled

val solve_compiled :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  compiled ->
  Argus_logic.Term.t list ->
  (Argus_logic.Term.Subst.t * derivation list) Seq.t
(** Like {!solve} against a pre-compiled program. *)

val solve :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  Program.t ->
  Argus_logic.Term.t list ->
  (Argus_logic.Term.Subst.t * derivation list) Seq.t
(** [solve program goals] enumerates solutions of the conjunction of
    [goals].  [max_depth] (default 64) bounds the resolution depth;
    branches deeper than that are abandoned (so a looping program yields
    finitely many of its solutions rather than diverging).  The
    substitution covers the goals' variables (plus internal renamings —
    use {!bindings_for} to restrict).  Compiles the program first; call
    {!solve_compiled} to amortise that over repeated queries. *)

val solve_naive :
  ?max_depth:int ->
  Program.t ->
  Argus_logic.Term.t list ->
  (Argus_logic.Term.Subst.t * derivation list) Seq.t
(** The textbook engine: linear clause scan, eager freshening, no
    index.  Solution-for-solution equivalent to {!solve}; retained as
    the differential-testing oracle (and it leaves the engine counters
    untouched). *)

val bindings_for :
  Argus_logic.Term.t list ->
  Argus_logic.Term.Subst.t ->
  (string * Argus_logic.Term.t) list
(** Restrict a solution substitution to the variables of the original
    query, fully resolved. *)

val solutions :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  ?limit:int ->
  Program.t ->
  Argus_logic.Term.t ->
  (string * Argus_logic.Term.t) list list
(** First [limit] (default 10) solutions of a single-goal query, as
    variable bindings. *)

val provable :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  Program.t ->
  Argus_logic.Term.t ->
  bool

val prove :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  Program.t ->
  Argus_logic.Term.t ->
  derivation option
