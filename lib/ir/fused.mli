(** The fused checker: well-formedness and the informal-fallacy lints
    in one pass over an interned case ({!Caseir}), and the CAE rules
    over an interned CAE graph.

    A reimplementation with the legacy checkers as differential oracle:
    {!check} produces byte-identical diagnostic lists to
    {!Argus_gsn.Wellformed.check} and
    {!Argus_fallacy.Informal.check_structure} on the same structure —
    same findings, same order, same budget tick accounting for the
    circular-support walk — and {!check_cae} likewise matches
    {!Argus_cae.Cae.check} (test/ir holds them to it).  The
    [gsn.wf.*] counters and [gsn.wellformed*] spans fire exactly as
    the legacy checker's do; [ir.fused_passes] counts fused passes. *)

type result = {
  wf : Argus_core.Diagnostic.t list;
      (** As {!Argus_gsn.Wellformed.check}. *)
  informal : Argus_core.Diagnostic.t list;
      (** As {!Argus_fallacy.Informal.check_structure}; [[]] when the
          pass ran with [~lints:false]. *)
}

val check :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  ?budget:Argus_rt.Budget.t ->
  ?lints:bool ->
  Caseir.t ->
  result
(** [budget] governs only the circular-support walk, exactly as in
    {!Argus_fallacy.Informal.check_structure}: when absent the walk
    runs under an internal {!Argus_fallacy.Informal.default_walk_fuel}
    budget whose exhaustion is reported in [informal].  [lints]
    (default [true]) set to [false] skips the lints — and hence never
    touches the budget, matching a caller that never invoked the
    legacy lint entry point. *)

val lint :
  ?budget:Argus_rt.Budget.t -> Caseir.t -> Argus_core.Diagnostic.t list
(** The informal lints alone — byte-identical to
    {!Argus_fallacy.Informal.check_structure}, without firing any
    [gsn.wf.*] counters or [gsn.wellformed*] spans, for callers that
    only lint. *)

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
    among its goal-like SupportedBy children). *)

val walk_findings :
  ?budget:Argus_rt.Budget.t -> Caseir.t -> Argus_core.Diagnostic.t list
(** The circular-support walk, with {!check}'s budget semantics
    (internal {!Argus_fallacy.Informal.default_walk_fuel} budget when
    absent, exhaustion reported in the result). *)

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
    the legacy runner [Modular.check_with ~wf:Wellformed.check] kept in
    test/oracle.  The CLI and the daemon both run this. *)

type cae_ir

val intern_cae : Argus_cae.Cae.t -> cae_ir

val check_cae : cae_ir -> Argus_core.Diagnostic.t list
(** Byte-identical to {!Argus_cae.Cae.check}. *)
