(** The fused checker: well-formedness and the informal-fallacy lints
    in one pass over an interned case ({!Caseir}), and the CAE rules
    over an interned CAE graph.  This is the one GSN, lint and CAE
    checker that ships; the CLI, the daemon and the store all run it.

    A reimplementation with the tree-walking checkers it replaced as
    differential oracle (test/oracle: [Legacy_wellformed],
    [Legacy_informal], [Legacy_cae]): {!check}, {!lint} and
    {!check_cae} produce byte-identical diagnostic lists to them on the
    same case — same findings, same order, same budget tick accounting
    for the circular-support walk and the equivocation scan (test/ir
    holds them to it).  The
    [gsn.wf.*] counters and [gsn.wellformed*] spans fire exactly as
    the oracle's do; [ir.fused_passes] counts fused passes. *)

type result = {
  wf : Argus_core.Diagnostic.t list;
      (** Well-formedness, codes under ["gsn/"].  Errors:
          ["gsn/dangling-link"], ["gsn/bad-support-link"],
          ["gsn/bad-context-link"],
          ["gsn/solution-in-context-of-away-goal"], ["gsn/cycle"],
          ["gsn/no-root"], ["gsn/unsupported-goal"],
          ["gsn/undeveloped-strategy"], ["gsn/unknown-evidence"],
          ["gsn/empty-text"], ["gsn/placeholder-text"], and
          ({!Argus_gsn.Wellformed.Denney_pai_2013} only)
          ["gsn/dp-goal-under-goal"].  Warnings:
          ["gsn/multiple-roots"], ["gsn/root-not-goal"],
          ["gsn/undeveloped-with-support"],
          ["gsn/solution-without-evidence"], ["gsn/unreachable"],
          ["gsn/non-propositional-goal"], ["gsn/uninstantiated"],
          ["gsn/weak-evidence"]. *)
  informal : Argus_core.Diagnostic.t list;
      (** The informal lints, as {!lint}; [[]] when the pass ran with
          [~lints:false]. *)
}

val check :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  ?budget:Argus_rt.Budget.t ->
  ?lints:bool ->
  Caseir.t ->
  result
(** [ruleset] defaults to {!Argus_gsn.Wellformed.Standard}.  [budget]
    governs only the circular-support walk and the equivocation scan,
    as in {!lint}.  [lints] (default [true]) set to [false] skips the
    lints — and hence never touches the budget. *)

val lint :
  ?budget:Argus_rt.Budget.t -> Caseir.t -> Argus_core.Diagnostic.t list
(** The informal lints alone, without firing any [gsn.wf.*] counters
    or [gsn.wellformed*] spans, for callers that only lint.  Warning
    codes under ["informal/"]:
    - ["informal/circular-support"] — a descendant goal restates an
      ancestor goal's text (normalised);
    - ["informal/argument-from-ignorance"] — node text argues from
      absence of evidence ("no evidence that", "has never been
      observed", "not been shown");
    - ["informal/equivocation-candidate"] — a content word that appears
      in several sibling goals with otherwise-disjoint vocabulary,
      suggesting the word may be doing double duty.

    The circular-support walk always runs under a budget: the caller's
    when [?budget] is given (the caller then owns reporting its
    exhaustion), otherwise an internal
    {!Argus_fallacy.Informal.default_walk_fuel} one whose truncation is
    reported here as an ["rt/budget-exhausted"] warning.

    The equivocation scan runs after the walk and ticks only the
    caller's budget: one step per candidate pair of sibling goals —
    both with at least 4 content words, sharing at least one — in
    pair order.  Once the budget is spent it examines no further pair,
    so a fuel or deadline budget bounds a single wide parent.  Without
    [?budget] it is unbudgeted.  Candidates come from an inverted index
    over the parent's goal children, and a pair is compared by merging
    two rows of content-word hashes ([content_hash] in {!Caseir.t});
    [String.equal] confirms every match, so a hash collision never
    makes or hides a finding. *)

(** {2 Per-unit entry points}

    The fused pass split into its independently recomputable units,
    for the incremental store (lib/store): each returns its findings
    in {!check}'s emission order, without firing the [gsn.wf.*]
    counters or spans.  Concatenating links, shape, then per-node
    findings in node order (resp. node lints in node order, then the
    walk) and applying {!assemble} reproduces {!check}
    byte-for-byte. *)

val link_findings :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  Caseir.t ->
  Argus_core.Diagnostic.t list
(** All per-link findings, link order.  The only unit that reads the
    ruleset. *)

val shape_findings : Caseir.t -> Argus_core.Diagnostic.t list
(** The cycle witness and the root-count findings — the global graph
    shape. *)

val node_findings : Caseir.t -> int -> Argus_core.Diagnostic.t list
(** Node [i]'s well-formedness findings.  Reads only the node's
    payload, its support degree, its SupportedBy parents' universal
    flags, the evidence table's answer for its citation, its
    reachability bit and whether the case has roots. *)

val node_lint_findings : Caseir.t -> int -> Argus_core.Diagnostic.t list
(** Node [i]'s per-node lints (argument-from-ignorance, equivocation
    among its goal-like SupportedBy children), unbudgeted. *)

val walk_findings :
  ?budget:Argus_rt.Budget.t -> Caseir.t -> Argus_core.Diagnostic.t list
(** The circular-support walk, with {!check}'s budget semantics
    (internal {!Argus_fallacy.Informal.default_walk_fuel} budget when
    absent, exhaustion reported in the result).  Per visit it reads
    the SupportedBy CSR row and the integer claim key
    ([claim] in {!Caseir.t}) of the node; the normalised texts
    ([norm]) are read only for an on-path ancestor whose key
    equals the node's, and [String.equal] on them decides.  Findings,
    their order and the budget ticks are the legacy walk's. *)

val assemble :
  wf:Argus_core.Diagnostic.t list ->
  informal:Argus_core.Diagnostic.t list ->
  result
(** The final stable sort {!check} applies; the inputs must be in
    {!check}'s emission order. *)

val check_modular :
  ?pool:Argus_par.Pool.t ->
  Argus_gsn.Modular.t ->
  Argus_core.Diagnostic.t list
(** The modular checker compiled onto the IR: per-module
    well-formedness as a fused pass over each module's interned form,
    cross-module rules from {!Argus_gsn.Modular}.  Byte-identical to
    the legacy runner kept in test/oracle ([Legacy_modular], the
    tree-walking per-module check).  The CLI and the daemon both run
    this. *)

type cae_ir

val intern_cae : Argus_cae.Cae.t -> cae_ir

val check_cae : cae_ir -> Argus_core.Diagnostic.t list
(** CAE well-formedness, codes under ["cae/"]: ["cae/dangling-link"],
    ["cae/claim-without-argument"], ["cae/multiple-arguments"]
    (warning), ["cae/empty-argument"], ["cae/evidence-not-leaf"],
    ["cae/bad-support"], ["cae/cycle"], ["cae/no-root"],
    ["cae/empty-text"]. *)
