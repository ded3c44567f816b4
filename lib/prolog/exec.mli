(** Bytecode execution of {!Compile}d programs: destructive-binding
    runtime terms, a trail, and an explicit choice-point stack.

    Exactly the search the interpreted [Engine.solve] (test/oracle)
    performs — same candidate
    admission (so the [prolog.index_*] counters agree), same
    clause-try/unification/backtrack accounting, same depth semantics
    (body goals one deeper, siblings level), same budget tick per
    candidate, same solution order — just without substitution lists,
    freshening or [Seq] closures on the hot path.  The differential tests in test/prolog hold the two engines
    to that, including equal {!Argus_rt.Budget.exhausted} step counts.

    [prolog.compiled_calls] counts entries through this module.  Spans
    and fault probes mirror the interpreter's
    ([prolog.provable]/[prolog.solutions]/[prolog.prove], probe
    ["prolog.solve"] / ["prolog.provable"]). *)

val provable :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  Compile.t ->
  Compile.query ->
  bool

val solutions :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  ?limit:int ->
  Compile.t ->
  Compile.query ->
  (string * Argus_logic.Term.t) list list
(** First [limit] (default 10) solutions as bindings of the query's
    variables, in first-occurrence order.  Variables left unbound by a
    solution read back as fresh ["_G<n>"] names (the interpreter keeps
    source names there — compare up to renaming). *)

val prove :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  Compile.t ->
  Compile.query ->
  Derivation.t option
(** First derivation of a single-goal query, fully instantiated —
    clause indices identical to the interpreter's. *)

(** Compile-and-run conveniences (program through the per-domain cache,
    query compiled per call) for one-shot callers like the CLI. *)

val provable_term :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  Program.t ->
  Argus_logic.Term.t ->
  bool

val solutions_term :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  ?limit:int ->
  Program.t ->
  Argus_logic.Term.t ->
  (string * Argus_logic.Term.t) list list

val prove_term :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  Program.t ->
  Argus_logic.Term.t ->
  Derivation.t option
