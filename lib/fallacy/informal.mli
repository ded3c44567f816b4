(** Heuristic lints for informal fallacies.

    Section IV.C's point is that mechanical verification {e cannot} show
    the absence of informal fallacies.  What a tool {e can} do is raise
    candidates for human review.  These lints do exactly that — every
    finding is a warning, never a verdict.

    The flagship is the equivocation candidate detector for Horn-clause
    knowledge bases, which flags Figure 1's ['bank'] because the symbol
    occurs in argument positions of different predicates — the footprint
    an equivocation leaves once natural language is compressed into
    symbols. *)

val desert_bank_program : string
(** The Figure 1 knowledge base, verbatim in Prolog syntax. *)

val desert_bank : Argus_prolog.Program.t
(** Parsed form of {!desert_bank_program}. *)

val equivocation_candidates : Argus_prolog.Program.t -> string list
(** Constants that occur in two or more distinct (predicate, argument
    position) roles across the program — each a candidate for meaning
    different things in different clauses.  For {!desert_bank} this is
    exactly [["bank"]]. *)

val default_walk_fuel : int
(** Fuel of the internal budget the circular-support walk of
    {!Argus_ir.Fused.lint} runs under when the caller passes none
    (10,000 steps). *)
