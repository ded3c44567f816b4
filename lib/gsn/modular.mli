(** Modular GSN: collections of argument modules.

    The GSN standard's modular extension lets one module's argument
    cite another's goals ({e away goals}), reference whole supporting
    modules, and state inter-module {e contracts}.  A single
    {!Structure.t} holds one module; this module checks a whole
    {e collection}: every away goal must name a module in the
    collection and a public goal within it, module references must
    resolve, contracts must name modules on both sides, and the
    module-dependency graph must be acyclic.

    This is the context for the syntax rule the paper quotes
    ("solutions cannot be in the context of an away goal", enforced
    per-module by the well-formedness pass); here the cross-module half
    of the story is checked. *)

type t
(** A collection of named modules. *)

val empty : t

val add_module :
  name:Argus_core.Id.t ->
  ?public:Argus_core.Id.t list ->
  Structure.t ->
  t ->
  t
(** Adds (or replaces) a module.  [public] lists the goals other
    modules may cite with away goals; defaults to the module's root
    goals. *)

val find : Argus_core.Id.t -> t -> Structure.t option
val module_names : t -> Argus_core.Id.t list
val public_goals : Argus_core.Id.t -> t -> Argus_core.Id.t list

val dependencies : Argus_core.Id.t -> t -> Argus_core.Id.t list
(** Modules this module cites via away goals, module references or
    contracts, without duplicates. *)

val check_with :
  ?pool:Argus_par.Pool.t ->
  wf:(Structure.t -> Argus_core.Diagnostic.t list) ->
  t ->
  Argus_core.Diagnostic.t list
(** Runs [wf], the per-module well-formedness checker, on each module —
    across the pool's domains when [?pool] is given, with identical
    diagnostics in either mode — (diagnostics prefixed with the module
    name in the message), plus the cross-module rules, codes under
    ["modular/"]:
    - ["modular/unknown-module"] — an away goal, module reference or
      contract names a module not in the collection;
    - ["modular/away-goal-target"] — the cited module has no goal with
      the away goal's id (an away goal displays the referenced goal's
      identifier, so the ids must match);
    - ["modular/private-goal"] (warning) — the cited goal exists but is
      not public;
    - ["modular/dependency-cycle"] — the module dependency graph is
      cyclic.

    The shipped checker is {!Argus_ir.Fused.check_modular}, which
    passes the fused per-module pass as [wf]; the legacy runner
    ([Legacy_modular], with the tree-walking [Legacy_wellformed.check]
    as [wf]) is the differential oracle in test/oracle. *)
