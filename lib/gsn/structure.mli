(** GSN argument structures — the Denney–Pai formal object.

    Denney and Pai formalise a partial safety-case argument structure as
    a tuple ⟨N, l, t, →⟩ of nodes, a type labelling, node contents and a
    connector relation.  Here the labelling and contents live inside
    {!Node.t}; the connector relation is split into the standard's two
    link kinds, {e SupportedBy} and {e InContextOf}.

    The structure is persistent (functional updates) and deliberately
    permissive: anything can be connected, and the checker
    ({!Argus_ir.Fused.check}) reports the violations — which is what
    lets the toolkit represent the malformed arguments the experiments
    need. *)

type link = Supported_by | In_context_of

val link_to_string : link -> string
(** ["supported-by"] or ["in-context-of"]: the one spelling of a link
    kind in interchange JSON, wire edits, [argus call --edit] and the
    DSL printer. *)

val link_of_string : string -> link option
(** Inverse of {!link_to_string}. *)

type t

val empty : t

val add_node : Node.t -> t -> t
(** Replaces any existing node with the same id. *)

val remove_node : Argus_core.Id.t -> t -> t
(** Also removes all links touching the node. *)

val connect : link -> src:Argus_core.Id.t -> dst:Argus_core.Id.t -> t -> t
(** Adds a link; endpoints need not exist yet (the checker reports
    dangling endpoints).  Duplicate links are ignored. *)

val disconnect : link -> src:Argus_core.Id.t -> dst:Argus_core.Id.t -> t -> t

val add_evidence : Argus_core.Evidence.t -> t -> t
(** Registers an evidence item that solution nodes can cite. *)

val build :
  ?links:(link * Argus_core.Id.t * Argus_core.Id.t) list ->
  ?evidence:Argus_core.Evidence.t list ->
  Node.t list ->
  t
(** The bulk builder, O(n log n): the same structure as folding
    {!add_node} over the nodes, {!add_evidence} over the evidence and
    {!connect} over the links — a repeated node or evidence id keeps
    its first position with the newest payload, a repeated link is
    dropped after its first occurrence, and link endpoints need not
    exist.  Parsers collect a whole case and call this once. *)

val of_nodes :
  ?links:(link * string * string) list ->
  ?evidence:Argus_core.Evidence.t list ->
  Node.t list ->
  t
(** {!build} with link endpoints given as strings, validated as
    identifiers. *)

val find : Argus_core.Id.t -> t -> Node.t option
val find_exn : Argus_core.Id.t -> t -> Node.t
val mem : Argus_core.Id.t -> t -> bool
val nodes : t -> Node.t list
(** In insertion order. *)

val size : t -> int
val links : t -> (link * Argus_core.Id.t * Argus_core.Id.t) list
val evidence : t -> Argus_core.Evidence.t list
val find_evidence : Argus_core.Id.t -> t -> Argus_core.Evidence.t option

val children : link -> Argus_core.Id.t -> t -> Argus_core.Id.t list
(** Link targets in insertion order. *)

val parents : link -> Argus_core.Id.t -> t -> Argus_core.Id.t list

val roots : t -> Argus_core.Id.t list
(** Nodes with no incoming [Supported_by] link and a non-contextual
    type. *)

val supported_subtree : Argus_core.Id.t -> t -> Argus_core.Id.t list
(** The node plus everything reachable over [Supported_by] links,
    pre-order, each node once (the relation may be cyclic; cycles are
    cut). *)

val context_of : Argus_core.Id.t -> t -> Argus_core.Id.t list
(** [In_context_of] targets of the node. *)

val map_nodes : (Node.t -> Node.t) -> t -> t
(** The function must preserve node ids. *)

val fold_nodes : (Node.t -> 'a -> 'a) -> t -> 'a -> 'a

val restrict : Argus_core.Id.Set.t -> t -> t
(** Sub-structure induced by the kept nodes: their links among
    themselves, and the evidence table unchanged. *)

val equal : t -> t -> bool
(** Same nodes, links and evidence (order-insensitive). *)

val to_dot : t -> string
(** Graphviz rendering: goals as boxes, strategies as parallelograms,
    solutions as circles, context as rounded boxes; [Supported_by] as
    solid arrows, [In_context_of] as dashed. *)

val pp_outline : Format.formatter -> t -> unit
(** Indented text outline from the roots, for terminal display. *)
