(** JSON interchange for argument structures.

    A stable, tool-neutral encoding so cases can cross between Argus,
    editors and the D-Case/SACM-style ecosystems the surveyed tooling
    papers target:

    {v
    { "nodes":    [ { "id", "type", "text", "status",
                      "formal"?, "annotations"?, "evidence"? } ],
      "links":    [ { "kind", "from", "to" } ],
      "evidence": [ { "id", "kind", "description", "source",
                      "strength" } ] }
    v}

    [to_json] followed by [of_json] is the identity on structures.  A
    node object is also the payload of the serve protocol's [add-node]
    edit ({!node_fields}, {!node_of_json}), so a node crosses the wire
    with the same seven fields.  An optional field that is [null] reads
    as absent.  A ["formal"] is parsed by {!Argus_logic.Prop.of_string},
    which refuses parentheses nested deeper than
    {!Argus_logic.Prop.max_nesting}. *)

val to_json : Structure.t -> Argus_core.Json.t

val node_fields : Node.t -> (string * Argus_core.Json.t) list
(** The fields of one node object, in the order above. *)

val node_of_json :
  Argus_core.Json.t -> (Node.t, Argus_core.Diagnostic.t) result
(** Decode one node object; fields it does not name are ignored. *)

val of_json :
  Argus_core.Json.t ->
  (Structure.t, Argus_core.Diagnostic.t list) result
(** Validation errors carry codes under ["interchange/"]:
    ["interchange/shape"] (wrong JSON shape), ["interchange/bad-id"],
    ["interchange/bad-type"], ["interchange/bad-status"],
    ["interchange/bad-kind"], ["interchange/bad-formula"],
    ["interchange/bad-annotation"]. *)

val export : Structure.t -> string
(** Pretty-printed JSON text. *)

val import : string -> (Structure.t, Argus_core.Diagnostic.t list) result
