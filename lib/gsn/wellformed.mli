(** The GSN well-formedness rules: the two rule sets and the per-link /
    per-node predicates behind them.  The checker that applies them is
    {!Argus_ir.Fused.check}.

    Two rule sets:

    - {!Standard} follows the GSN Community Standard's prose syntax
      rules: goals may be supported by goals, strategies or solutions;
      strategies by goals; contextual elements support nothing; the
      SupportedBy relation is acyclic; solutions are leaves; and
      "solutions cannot be in the context of an away goal" (the rule the
      paper quotes in Section II.B).

    - {!Denney_pai_2013} reproduces the formalisation of Denney and
      Pai's SAFECOMP 2013 paper {e including its discrepancy}: their
      rule [(n -> m) ∧ l(n) = g ⇒ l(m) ∈ {{s, e, a, j, c}}] forbids
      goal-to-goal support, which the standard explicitly allows — the
      paper points this out in Section III.I.  Under this rule set a
      goal directly supported by a goal is an error
      (["gsn/dp-goal-under-goal"]). *)

type ruleset = Standard | Denney_pai_2013

val ruleset_to_string : ruleset -> string
(** ["standard"] or ["denney-pai"]: the name the CLI's [--ruleset] and
    the daemon's ["ruleset"] field use. *)

val ruleset_of_string : string -> ruleset option
(** Inverse of {!ruleset_to_string}; [None] for any other string. *)

(** {2 Rule predicates}

    The pure per-link / per-node predicates, read by the fused checker
    ({!Argus_ir.Fused}) and by the text derivations interning caches
    ({!Argus_ir.Caseir}). *)

val support_target_ok : Node.node_type -> Node.node_type -> bool
(** [support_target_ok src dst]: may [src] be supported by [dst]? *)

val context_source_ok : Node.node_type -> bool
val context_target_ok : Node.node_type -> bool

val has_placeholder : string -> bool
(** Text still contains a [{placeholder}]. *)
