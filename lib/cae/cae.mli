(** The Claims–Argument–Evidence notation (Bishop & Bloomfield).

    CAE structures a case as {e claims} supported by {e arguments}
    (inference steps) that cite {e evidence} and/or subclaims.  It is
    the second of the two graphical notations the paper's Section II.B
    surveys; the toolkit supports both so the reading-audience
    experiment can render the same case either way.

    Well-formedness ({!Argus_ir.Fused.check_cae}) follows the published
    methodology: every claim that is not a stipulated premise is
    supported by exactly one argument node; argument nodes cite at
    least one item of evidence or subclaim; evidence is a leaf; the
    support relation is acyclic. *)

type node_type = Claim | Argument | Evidence_ref

type node = {
  id : Argus_core.Id.t;
  node_type : node_type;
  text : string;
  premise : bool;
      (** A claim stipulated rather than argued (side-conditions). *)
}

type t

val empty : t
val claim : ?premise:bool -> string -> string -> node
val argument : string -> string -> node
val evidence_ref : string -> string -> node

val add_node : node -> t -> t
val support : src:Argus_core.Id.t -> dst:Argus_core.Id.t -> t -> t
(** [support ~src ~dst]: [dst] supports [src]. *)

val of_nodes : ?links:(string * string) list -> node list -> t
val nodes : t -> node list
val find : Argus_core.Id.t -> t -> node option
val supporters : Argus_core.Id.t -> t -> Argus_core.Id.t list
val size : t -> int

val links : t -> (Argus_core.Id.t * Argus_core.Id.t) list
(** All [(supported, supporter)] pairs in insertion order — the raw
    relation the checker ({!Argus_ir.Fused.check_cae}) walks. *)

val of_gsn : Argus_gsn.Structure.t -> t
(** Notation translation: goals become claims, strategies become
    argument nodes, solutions become evidence references; contextual
    elements become premise claims attached where they applied.  A goal
    supported directly by goals or solutions (no strategy) gets a
    synthesised argument node, as the CAE methodology requires. *)

val to_gsn : t -> Argus_gsn.Structure.t
(** Claims become goals, arguments strategies, evidence references
    solutions; premise claims become assumptions in context.  Because a
    GSN strategy cannot be supported directly by a solution, an argument
    node citing evidence gets an interposed validity goal. *)

val pp_outline : Format.formatter -> t -> unit
