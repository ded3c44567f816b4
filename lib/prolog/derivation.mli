(** Derivation trees: which clause resolved each goal of a proof — the
    raw material the proof-to-argument generator (Basir/Denney
    pipeline) and the Figure 1 demonstration render. *)

type t = {
  goal : Argus_logic.Term.t;  (** The resolved goal, fully instantiated. *)
  clause_index : int;  (** Index of the program clause used (0-based). *)
  children : t list;  (** One per body goal of that clause. *)
}

val size : t -> int
val pp : Format.formatter -> t -> unit
(** Indented tree: goal, then the clause used, then sub-derivations. *)
