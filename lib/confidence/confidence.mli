(** Confidence propagation and evidence-sufficiency analysis.

    Two pieces of machinery the paper discusses:

    {b Confidence propagation} — the "BBN modelling" style assessment
    the paper cites when warning that an asserted rule can artificially
    raise mechanically-assessed confidence.  {!assess} propagates
    evidence trust up the argument: solutions carry their evidence's
    trust; a strategy combines its subgoals conjunctively (noisy-AND,
    i.e. product); a goal with several supporters combines them
    disjunctively (noisy-OR).  The numbers are not calibrated
    probabilities — the paper is explicit that no proposed mechanism "is
    known to be adequate in all cases" — but the machinery suffices to
    run the Section VI.E experiment.

    {b Evidence-sufficiency judgment procedures} — the two procedures
    Section VI.E compares: GSN {e path tracing} ({!impact_by_tracing}:
    which claims sit above this evidence?) and Rushby's {e what-if
    probing} ({!probe_premise}: retract a premise, re-run the checker,
    see whether the conclusion still follows). *)

val assess :
  trust:(Argus_core.Evidence.t -> float) ->
  Argus_gsn.Structure.t ->
  float Argus_core.Id.Map.t
(** Confidence per node id, in [0,1].  Leaf goals with no support get
    0; solutions citing unregistered evidence get 0; undeveloped nodes
    get 0; contextual nodes are not scored.  Cycles are cut at repeat
    visits (scored 0 on the back edge). *)

val root_confidence :
  trust:(Argus_core.Evidence.t -> float) -> Argus_gsn.Structure.t -> float
(** Confidence of the (first) root, 0 for an empty structure. *)

val scores :
  trust:(Argus_core.Evidence.t -> float) ->
  find_evidence:(Argus_core.Id.t -> Argus_core.Evidence.t option) ->
  Argus_gsn.Node.t array ->
  sup_off:int array ->
  sup:int array ->
  float array
(** The kernel behind {!assess} and {!root_confidence}, over an
    entity-indexed graph: entities [0 .. n-1] are the [n] nodes in
    {!Argus_gsn.Structure.nodes} order, higher indices are dangling
    endpoints, and [sup_off]/[sup] is the SupportedBy CSR over all
    entities, targets in link order — the shape of
    {!Argus_ir.Caseir}'s [nodes], [sup_out_off] and [sup_out].
    Returns each entity's confidence, [0] for the entities {!assess}
    leaves out.  One linear pass. *)

val impact_by_tracing :
  Argus_gsn.Structure.t -> Argus_core.Id.t -> Argus_core.Id.t list
(** [impact_by_tracing s evidence_id]: every goal or strategy on a path
    from a solution citing that evidence up to a root — the set of
    claims whose support the assessor must reconsider.  Order:
    discovery order from the citing solutions upward. *)

val sensitivity :
  trust:(Argus_core.Evidence.t -> float) ->
  Argus_gsn.Structure.t ->
  Argus_core.Id.t ->
  float
(** Drop in root confidence when the given evidence item's trust is
    forced to zero — a numeric evidence-sufficiency measure. *)

val probe_premise :
  ?budget:Argus_rt.Budget.t ->
  Argus_logic.Natded.checked ->
  Argus_logic.Prop.t ->
  bool
(** Rushby's what-if: [probe_premise checked p] is whether the checked
    conclusion still follows (by SAT entailment) from the premises with
    [p] removed.  [false] means the premise is load-bearing.  The
    budget (default unlimited) governs the SAT queries; on exhaustion
    treat the answer as unknown (check {!Argus_rt.Budget.exhausted}). *)

val load_bearing_premises :
  ?budget:Argus_rt.Budget.t ->
  Argus_logic.Natded.checked ->
  Argus_logic.Prop.t list
(** Premises whose removal breaks the conclusion. *)

val probe_counterexample :
  ?budget:Argus_rt.Budget.t ->
  Argus_logic.Natded.checked ->
  Argus_logic.Prop.t ->
  (string * bool) list option
(** The other half of Rushby's what-if exploration: when retracting the
    premise breaks the conclusion, a countermodel — a valuation
    satisfying the remaining premises but not the conclusion — that the
    evaluator can "inspect".  [None] when the conclusion survives the
    retraction. *)
