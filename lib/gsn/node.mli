(** GSN argument elements.

    The node types of the GSN Community Standard, plus the modular
    extension (away goals, module references, contracts) the standard's
    rules mention — the paper quotes one such rule in Section II.B:
    "solutions cannot be in the context of an away goal". *)

type node_type =
  | Goal
  | Strategy
  | Solution
  | Context
  | Assumption
  | Justification
  | Away_goal of Argus_core.Id.t  (** Goal re-used from another module. *)
  | Module_ref of Argus_core.Id.t  (** A whole supporting module. *)
  | Contract of Argus_core.Id.t  (** A module contract. *)

(** Development/instantiation decorations (the diamond and triangle
    marks of the standard; patterns produce the uninstantiated ones). *)
type status =
  | Developed
  | Undeveloped
  | Uninstantiated
  | Undeveloped_uninstantiated

type t = {
  id : Argus_core.Id.t;
  node_type : node_type;
  text : string;
  status : status;
  formal : Argus_logic.Prop.t option;
      (** Optional formal rendering of the node's claim (Rushby-style
          partial formalisation; [None] for purely informal nodes). *)
  annotations : Metadata.annotation list;
      (** Denney–Naylor–Pai metadata; empty when unannotated. *)
  evidence : Argus_core.Id.t option;
      (** For solutions: the evidence item the node cites. *)
}

val make :
  id:Argus_core.Id.t ->
  node_type:node_type ->
  ?status:status ->
  ?formal:Argus_logic.Prop.t ->
  ?annotations:Metadata.annotation list ->
  ?evidence:Argus_core.Id.t ->
  string ->
  t
(** [make ~id ~node_type text]; [status] defaults to [Developed]. *)

val goal : string -> string -> t
(** [goal "G1" text] — convenience constructors; id strings are
    validated by {!Argus_core.Id.of_string}. *)

val strategy : string -> string -> t
val solution : ?evidence:string -> string -> string -> t
val context : string -> string -> t
val assumption : string -> string -> t
val justification : string -> string -> t

val is_goal_like : node_type -> bool
(** Goals, away goals — things that state claims. *)

val is_contextual : node_type -> bool
(** Context, assumption, justification. *)

val type_to_string : node_type -> string
val type_of_string : string -> node_type option
(** Inverse of {!type_to_string} for the simple types; modular types
    parse as ["away-goal:M"], ["module:M"], ["contract:M"]. *)

val status_to_string : status -> string
(** ["developed"], ["undeveloped"], ["uninstantiated"] or
    ["undeveloped-uninstantiated"]: the one spelling of a status in
    interchange JSON, wire edits and the DSL printer. *)

val status_of_string : string -> status option
(** Inverse of {!status_to_string}. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
