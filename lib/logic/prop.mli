(** Propositional formulas.

    This is the symbolic language in which "outer" arguments (Haley et
    al.), Rushby-style formalised premises and the formal annotations of
    DSL nodes are written.  Variables are free-form strings such as
    ["on_grnd"] or ["wcet_task_1_le_250"]. *)

type t =
  | Top
  | Bot
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t

val var : string -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val ( ==> ) : t -> t -> t
val ( <=> ) : t -> t -> t
val neg : t -> t
val conj : t list -> t
(** [conj []] is {!Top}. *)

val disj : t list -> t
(** [disj []] is {!Bot}. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val vars : t -> string list
(** Free variables in first-occurrence order, without duplicates. *)

val size : t -> int
(** Connective-and-atom count; a proxy for formula complexity. *)

val subst : (string -> t option) -> t -> t
(** Capture is impossible (no binders); replaces each [Var v] for which
    the function returns [Some f]. *)

val eval : (string -> bool) -> t -> bool
(** Evaluate under a total valuation. *)

val nnf : t -> t
(** Negation normal form.  Eliminates [Implies]/[Iff] and pushes [Not]
    to atoms.  Semantics-preserving. *)

val pp : Format.formatter -> t -> unit
(** Minimal-parenthesis ASCII rendering: [~], [&], [|], [->], [<->].
    [->] is right-associative; [&] binds tighter than [|] which binds
    tighter than [->]. *)

val to_string : t -> string

type error =
  | Too_deep  (** Parentheses nest deeper than {!max_nesting}. *)
  | Syntax of string  (** The first syntax error, described. *)

val max_nesting : int
(** [512]: the deepest parenthesis nesting {!of_string} parses.  The
    DSL, interchange JSON and wire edits all parse formulas through
    it, so no input reaches the recursive-descent parser deeper. *)

val of_string : string -> (t, error) result
(** Parser for the {!pp} syntax plus common synonyms: [!]/[~]/[not],
    [&]/[/\]/[and], [|]/[\/]/[or], [->]/[=>], [<->]/[<=>], [true],
    [false]. *)

val error_message : string -> error -> string
(** [error_message text e]: ["cannot parse formula TEXT: ..."] for a
    syntax error, ["formula nesting exceeds 512 levels"] (without the
    text, which may be megabytes) for [Too_deep]. *)

val of_string_exn : string -> t
(** @raise Failure with {!error_message} on an error. *)
