module Id = Argus_core.Id
module Json = Argus_core.Json
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Prop = Argus_logic.Prop

let node_fields n =
  let base =
    [
      ("id", Json.Str (Id.to_string n.Node.id));
      ("type", Json.Str (Node.type_to_string n.Node.node_type));
      ("text", Json.Str n.Node.text);
      ("status", Json.Str (Node.status_to_string n.Node.status));
    ]
  in
  let formal =
    match n.Node.formal with
    | Some f -> [ ("formal", Json.Str (Prop.to_string f)) ]
    | None -> []
  in
  let annotations =
    match n.Node.annotations with
    | [] -> []
    | anns ->
        [
          ( "annotations",
            Json.List
              (List.map
                 (fun a ->
                   Json.Str (Format.asprintf "%a" Metadata.pp_annotation a))
                 anns) );
        ]
  in
  let evidence =
    match n.Node.evidence with
    | Some e -> [ ("evidence", Json.Str (Id.to_string e)) ]
    | None -> []
  in
  base @ formal @ annotations @ evidence

let node_to_json n = Json.Obj (node_fields n)

let link_to_json (kind, src, dst) =
  Json.Obj
    [
      ("kind", Json.Str (Structure.link_to_string kind));
      ("from", Json.Str (Id.to_string src));
      ("to", Json.Str (Id.to_string dst));
    ]

let evidence_to_json (ev : Evidence.t) =
  Json.Obj
    [
      ("id", Json.Str (Id.to_string ev.Evidence.id));
      ("kind", Json.Str (Evidence.kind_to_string ev.Evidence.kind));
      ("description", Json.Str ev.Evidence.description);
      ("source", Json.Str ev.Evidence.source);
      ("strength", Json.Str (Evidence.strength_to_string ev.Evidence.strength));
    ]

let to_json structure =
  Json.Obj
    [
      ("nodes", Json.List (List.map node_to_json (Structure.nodes structure)));
      ("links", Json.List (List.map link_to_json (Structure.links structure)));
      ( "evidence",
        Json.List (List.map evidence_to_json (Structure.evidence structure)) );
    ]

(* --- Decoding --- *)

exception Bad of Diagnostic.t

let err code fmt = Format.kasprintf (fun m -> raise (Bad (Diagnostic.error ~code m))) fmt

let str_field obj name =
  match Json.member name obj with
  | Some (Json.Str s) -> s
  | Some _ -> err "interchange/shape" "field %S must be a string" name
  | None -> err "interchange/shape" "missing field %S" name

let opt_str_field obj name =
  match Json.member name obj with
  | Some (Json.Str s) -> Some s
  | None | Some Json.Null -> None
  | Some _ -> err "interchange/shape" "field %S must be a string" name

let id_of s =
  match Id.of_string_opt s with
  | Some id -> id
  | None -> err "interchange/bad-id" "invalid identifier %S" s

let node_of_json_exn json =
  let id = id_of (str_field json "id") in
  let node_type =
    let t = str_field json "type" in
    match Node.type_of_string t with
    | Some ty -> ty
    | None -> err "interchange/bad-type" "unknown node type %S" t
  in
  let status =
    match opt_str_field json "status" with
    | None -> Node.Developed
    | Some s -> (
        match Node.status_of_string s with
        | Some st -> st
        | None -> err "interchange/bad-status" "unknown status %S" s)
  in
  let formal =
    match opt_str_field json "formal" with
    | None -> None
    | Some text -> (
        match Prop.of_string text with
        | Ok f -> Some f
        | Error e ->
            err "interchange/bad-formula" "%s" (Prop.error_message text e))
  in
  let annotations =
    match Json.member "annotations" json with
    | None | Some Json.Null -> []
    | Some (Json.List items) ->
        List.map
          (fun item ->
            match item with
            | Json.Str text -> (
                match Metadata.annotation_of_string text with
                | Ok a -> a
                | Error e ->
                    err "interchange/bad-annotation" "annotation %S: %s" text e)
            | _ -> err "interchange/shape" "annotations must be strings")
          items
    | Some _ -> err "interchange/shape" "annotations must be a list"
  in
  let evidence = Option.map id_of (opt_str_field json "evidence") in
  Node.make ~id ~node_type ~status ?formal ~annotations ?evidence
    (str_field json "text")

let link_of_json json =
  let kind =
    let k = str_field json "kind" in
    match Structure.link_of_string k with
    | Some kind -> kind
    | None -> err "interchange/bad-kind" "unknown link kind %S" k
  in
  (kind, id_of (str_field json "from"), id_of (str_field json "to"))

let evidence_of_json json =
  let kind =
    let k = str_field json "kind" in
    match Evidence.kind_of_string k with
    | Some kind -> kind
    | None -> err "interchange/bad-kind" "unknown evidence kind %S" k
  in
  let strength =
    match opt_str_field json "strength" with
    | None -> None
    | Some s -> (
        match Evidence.strength_of_string s with
        | Some st -> Some st
        | None -> err "interchange/bad-kind" "unknown strength %S" s)
  in
  Evidence.make
    ~id:(id_of (str_field json "id"))
    ~kind
    ?source:(opt_str_field json "source")
    ?strength
    (str_field json "description")

let list_field json name =
  match Json.member name json with
  | Some (Json.List items) -> items
  | Some _ -> err "interchange/shape" "field %S must be a list" name
  | None -> []

let node_of_json json =
  match node_of_json_exn json with n -> Ok n | exception Bad d -> Error d

let of_json json =
  match
    let nodes = List.map node_of_json_exn (list_field json "nodes") in
    let links = List.map link_of_json (list_field json "links") in
    let evidence = List.map evidence_of_json (list_field json "evidence") in
    Structure.build ~links ~evidence nodes
  with
  | s -> Ok s
  | exception Bad d -> Error [ d ]

let export structure = Json.to_string ~indent:true (to_json structure)

let import text =
  match Json.of_string text with
  | Error e -> Error [ Diagnostic.errorf ~code:"interchange/shape" "not JSON: %s" e ]
  | Ok json -> of_json json
