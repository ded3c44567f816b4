(** The textual assurance-case language.

    A whole case — ontology, evidence register and argument structure —
    in one human-writable file:

    {v
    case "Braking controller safety" {
      enum severity { catastrophic hazardous major minor }
      attr hazard (string, severity)

      evidence E1 analysis "Worst-case timing analysis"
        source "report T-42" strength statistical

      goal G1 "The controller is acceptably safe" {
        formal "safe_ctrl"
        meta "hazard \"H1\" catastrophic"
        in-context-of C1
        supported-by S1
      }
      strategy S1 "Argue over each hazard" { supported-by G2 }
      goal G2 "Hazard H1 is mitigated" { supported-by Sn1 }
      solution Sn1 "Timing analysis results" { evidence E1 }
      context C1 "Motorway driving only"
    }
    v}

    Node bodies may also carry [undeveloped], [uninstantiated] or
    [undeveloped-uninstantiated] marks.  Away goals, module references
    and contracts are written [away-goal(M) AG1 "text"], [module(M) ...],
    [contract(M) ...].  Comments run from [//] to end of line.

    The parser pulls tokens one at a time from a cursor over the input;
    no token list is built, so a large case's tokens never outlive the
    minor heap.  A string with no escape and no newline is one
    substring; a backslash escapes the byte after it, and an escaped
    newline still starts a line.  A lexical error — an unexpected
    character, an unterminated string, nesting beyond 256 levels — is
    reported alone, ahead of any syntax or semantic diagnostic,
    wherever it sits in the text.  A parse that runs to the end of the
    input has lexed it once and found none; only after a parse stopped
    by an error does one more pass of the same lexer over the whole
    input look for the first lexical error. *)

type case = {
  module_name : Argus_core.Id.t option;
      (** Optional module identifier, written between [case] and the
          title: [case Vehicle "Vehicle safety" { ... }].  Required for
          the cases of a multi-module file. *)
  title : string;
  ontology : Argus_gsn.Metadata.ontology;
  structure : Argus_gsn.Structure.t;
}

val parse :
  ?filename:string -> string -> (case, Argus_core.Diagnostic.t list) result
(** Syntax errors carry code ["dsl/syntax"] and a source span; semantic
    errors found while building the case carry ["dsl/duplicate-id"],
    ["dsl/bad-formula"], ["dsl/bad-annotation"],
    ["dsl/bad-evidence-kind"], ["dsl/bad-strength"] or
    ["dsl/duplicate-enum"]. *)

val parse_exn : ?filename:string -> string -> case

val print : case -> string
(** Canonical rendering; [parse (print c)] re-reads an equal case. *)

val validate_metadata : case -> Argus_core.Diagnostic.t list
(** Every node's annotations checked against the case's ontology. *)

val parse_collection :
  ?filename:string ->
  string ->
  (case list, Argus_core.Diagnostic.t list) result
(** Parses a file containing one or more [case] blocks — a modular
    assurance case, one module per block. *)

val to_modular :
  case list -> (Argus_gsn.Modular.t, Argus_core.Diagnostic.t list) result
(** Builds a module collection.  Every case must carry a module name
    when there is more than one (["dsl/unnamed-module"]); duplicate
    module names are ["dsl/duplicate-module"].  A single anonymous case
    becomes module ["Main"]. *)
