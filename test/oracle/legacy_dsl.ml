(* The list lexer and parser that [Argus_dsl.Dsl] used before its pull
   lexer: the whole input is tokenised into a [token list] first, then
   parsed off the list.  Kept as the differential oracle for
   [Dsl.parse] and [Dsl.parse_collection] (test/dsl): both must answer
   the same case — or the same diagnostics, locations included — on
   every input.  The one change from the retired copy: a backslash
   before a newline inside a string starts a line. *)

module Id = Argus_core.Id
module Loc = Argus_core.Loc
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Prop = Argus_logic.Prop
module Gsn = Argus_gsn
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Metadata = Argus_gsn.Metadata

type case = Argus_dsl.Dsl.case = {
  module_name : Id.t option;
  title : string;
  ontology : Metadata.ontology;
  structure : Structure.t;
}

(* --- Lexer --- *)

type token_kind =
  | Word of string  (** Identifier or keyword. *)
  | Str of string
  | TLbrace
  | TRbrace
  | TLparen
  | TRparen
  | TComma

type token = { kind : token_kind; loc : Loc.t }

exception Syntax_error of string * Loc.t

(* Hardening caps: pathological input — multi-megabyte files, or
   nesting deep enough to overflow the recursive-descent formula
   parser — must come back as a syntax diagnostic (exit 1), never a
   stack overflow or unbounded allocation.  The limits are far above
   anything a legitimate case file reaches. *)
let max_input_bytes = 8 * 1024 * 1024
let max_nesting = 256
let max_formula_nesting = 512

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.'

let tokenise ~filename s =
  let n = String.length s in
  let line = ref 1 and bol = ref 0 in
  let pos i = Loc.pos ~file:filename ~line:!line ~col:(i - !bol) () in
  let depth = ref 0 in
  let enter i =
    incr depth;
    if !depth > max_nesting then
      raise
        (Syntax_error
           ( Printf.sprintf "nesting exceeds %d levels" max_nesting,
             Loc.point (pos i) ))
  in
  let leave () = if !depth > 0 then decr depth in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '\n' ->
          incr line;
          bol := i + 1;
          go (i + 1) acc
      | ' ' | '\t' | '\r' -> go (i + 1) acc
      | '/' when i + 1 < n && s.[i + 1] = '/' ->
          let j = ref i in
          while !j < n && s.[!j] <> '\n' do
            incr j
          done;
          go !j acc
      | '{' ->
          enter i;
          go (i + 1) ({ kind = TLbrace; loc = Loc.point (pos i) } :: acc)
      | '}' ->
          leave ();
          go (i + 1) ({ kind = TRbrace; loc = Loc.point (pos i) } :: acc)
      | '(' ->
          enter i;
          go (i + 1) ({ kind = TLparen; loc = Loc.point (pos i) } :: acc)
      | ')' ->
          leave ();
          go (i + 1) ({ kind = TRparen; loc = Loc.point (pos i) } :: acc)
      | ',' -> go (i + 1) ({ kind = TComma; loc = Loc.point (pos i) } :: acc)
      | '"' ->
          let start = pos i in
          let buf = Buffer.create 32 in
          let rec scan j =
            if j >= n then
              raise (Syntax_error ("unterminated string", Loc.point start))
            else
              match s.[j] with
              | '"' -> j + 1
              | '\\' when j + 1 < n ->
                  if s.[j + 1] = '\n' then begin
                    incr line;
                    bol := j + 2
                  end;
                  Buffer.add_char buf s.[j + 1];
                  scan (j + 2)
              | '\n' ->
                  incr line;
                  bol := j + 1;
                  Buffer.add_char buf '\n';
                  scan (j + 1)
              | c ->
                  Buffer.add_char buf c;
                  scan (j + 1)
          in
          let next = scan (i + 1) in
          let tok =
            {
              kind = Str (Buffer.contents buf);
              loc = Loc.make start (pos (next - 1));
            }
          in
          go next (tok :: acc)
      | c when is_word_char c ->
          let start = pos i in
          let j = ref i in
          while !j < n && is_word_char s.[!j] do
            incr j
          done;
          let tok =
            {
              kind = Word (String.sub s i (!j - i));
              loc = Loc.make start (pos (!j - 1));
            }
          in
          go !j (tok :: acc)
      | c ->
          raise
            (Syntax_error
               (Printf.sprintf "unexpected character %C" c, Loc.point (pos i)))
  in
  go 0 []

(* --- Parser --- *)

type state = {
  mutable toks : token list;
  mutable last_loc : Loc.t;
  mutable diags : Diagnostic.t list;  (** Semantic issues, reverse order. *)
}

let peek st = match st.toks with [] -> None | t :: _ -> Some t.kind

let advance st =
  match st.toks with
  | [] -> raise (Syntax_error ("unexpected end of input", st.last_loc))
  | t :: rest ->
      st.toks <- rest;
      st.last_loc <- t.loc;
      t

let fail st msg = raise (Syntax_error (msg, st.last_loc))

let expect_word st w =
  match advance st with
  | { kind = Word w'; _ } when w = w' -> ()
  | { loc; _ } -> raise (Syntax_error (Printf.sprintf "expected %S" w, loc))

let expect st kind what =
  match advance st with
  | t when t.kind = kind -> t
  | { loc; _ } ->
      raise (Syntax_error (Printf.sprintf "expected %s" what, loc))

let p_string st what =
  match advance st with
  | { kind = Str s; _ } -> s
  | { loc; _ } ->
      raise (Syntax_error (Printf.sprintf "expected a string (%s)" what, loc))

let p_word st what =
  match advance st with
  | { kind = Word w; _ } -> w
  | { loc; _ } ->
      raise (Syntax_error (Printf.sprintf "expected a word (%s)" what, loc))

let p_id st what =
  let t = advance st in
  match t.kind with
  | Word w -> (
      match Id.of_string_opt w with
      | Some id -> id
      | None ->
          raise
            (Syntax_error (Printf.sprintf "invalid identifier %S (%s)" w what, t.loc)))
  | _ -> raise (Syntax_error (Printf.sprintf "expected an identifier (%s)" what, t.loc))

let semantic st d = st.diags <- d :: st.diags

(* Comma- or space-separated identifier list, ending before a word that
   is a body keyword or '}'. *)
let body_keywords =
  [
    "formal"; "meta"; "evidence"; "supported-by"; "in-context-of";
    "undeveloped"; "uninstantiated"; "undeveloped-uninstantiated";
  ]

let p_id_list st =
  let rec loop acc =
    match peek st with
    | Some (Word w) when not (List.mem w body_keywords) ->
        let id = p_id st "link target" in
        (match peek st with
        | Some TComma -> ignore (advance st)
        | _ -> ());
        loop (id :: acc)
    | _ -> List.rev acc
  in
  match loop [] with [] -> fail st "expected at least one identifier" | ids -> ids

let evidence_kinds = Evidence.all_kinds

let p_evidence st =
  let loc = st.last_loc in
  let id = p_id st "evidence id" in
  let kind_word = p_word st "evidence kind" in
  let kind =
    match Evidence.kind_of_string kind_word with
    | Some k -> k
    | None ->
        semantic st
          (Diagnostic.errorf ~code:"dsl/bad-evidence-kind" ~loc
             "unknown evidence kind %S (expected one of %s)" kind_word
             (String.concat ", " (List.map Evidence.kind_to_string evidence_kinds)));
        Evidence.Analysis
  in
  let description = p_string st "evidence description" in
  let source = ref None and strength = ref None in
  let rec opts () =
    match peek st with
    | Some (Word "source") ->
        ignore (advance st);
        source := Some (p_string st "evidence source");
        opts ()
    | Some (Word "strength") ->
        ignore (advance st);
        let w = p_word st "evidence strength" in
        (match Evidence.strength_of_string w with
        | Some s -> strength := Some s
        | None ->
            semantic st
              (Diagnostic.errorf ~code:"dsl/bad-strength" ~loc
                 "unknown evidence strength %S" w));
        opts ()
    | _ -> ()
  in
  opts ();
  Evidence.make ~id ~kind ?source:!source ?strength:!strength description

type node_props = {
  mutable status : Node.status;
  mutable formal : Prop.t option;
  mutable annotations : Metadata.annotation list;
  mutable evidence_ref : Id.t option;
  mutable supported : Id.t list;
  mutable contexts : Id.t list;
}

let p_node_body st =
  let props =
    {
      status = Node.Developed;
      formal = None;
      annotations = [];
      evidence_ref = None;
      supported = [];
      contexts = [];
    }
  in
  (match peek st with
  | Some TLbrace ->
      ignore (advance st);
      let rec loop () =
        match peek st with
        | Some TRbrace -> ignore (advance st)
        | Some (Word "undeveloped") ->
            ignore (advance st);
            props.status <- Node.Undeveloped;
            loop ()
        | Some (Word "uninstantiated") ->
            ignore (advance st);
            props.status <- Node.Uninstantiated;
            loop ()
        | Some (Word "undeveloped-uninstantiated") ->
            ignore (advance st);
            props.status <- Node.Undeveloped_uninstantiated;
            loop ()
        | Some (Word "formal") ->
            ignore (advance st);
            let loc = st.last_loc in
            let text = p_string st "formula" in
            (* [Prop.of_string] is recursive-descent: bound the paren
               depth before handing it a formula, or a hostile one
               overflows the stack instead of producing a
               diagnostic. *)
            let fdepth =
              let d = ref 0 and m = ref 0 in
              String.iter
                (fun c ->
                  if c = '(' then begin
                    incr d;
                    if !d > !m then m := !d
                  end
                  else if c = ')' then decr d)
                text;
              !m
            in
            if fdepth > max_formula_nesting then begin
              semantic st
                (Diagnostic.errorf ~code:"dsl/bad-formula" ~loc
                   "formula nesting exceeds %d levels" max_formula_nesting);
              loop ()
            end
            else begin
            (match Prop.of_string text with
            | Ok f -> props.formal <- Some f
            | Error (Prop.Syntax e) ->
                semantic st
                  (Diagnostic.errorf ~code:"dsl/bad-formula" ~loc
                     "cannot parse formula %S: %s" text e)
            | Error Prop.Too_deep ->
                (* [fdepth] is checked above against the same bound. *)
                assert false);
            loop ()
            end
        | Some (Word "meta") ->
            ignore (advance st);
            let loc = st.last_loc in
            let text = p_string st "annotation" in
            (match Metadata.annotation_of_string text with
            | Ok a -> props.annotations <- props.annotations @ [ a ]
            | Error e ->
                semantic st
                  (Diagnostic.errorf ~code:"dsl/bad-annotation" ~loc
                     "cannot parse annotation %S: %s" text e));
            loop ()
        | Some (Word "evidence") ->
            ignore (advance st);
            props.evidence_ref <- Some (p_id st "evidence reference");
            loop ()
        | Some (Word "supported-by") ->
            ignore (advance st);
            props.supported <- props.supported @ p_id_list st;
            loop ()
        | Some (Word "in-context-of") ->
            ignore (advance st);
            props.contexts <- props.contexts @ p_id_list st;
            loop ()
        | Some _ ->
            let t = advance st in
            raise (Syntax_error ("unexpected token in node body", t.loc))
        | None -> fail st "unterminated node body"
      in
      loop ()
  | _ -> ());
  props

let node_type_words =
  [
    "goal"; "strategy"; "solution"; "context"; "assumption"; "justification";
    "away-goal"; "module"; "contract";
  ]

let p_node st word =
  let node_type =
    match word with
    | "goal" -> Node.Goal
    | "strategy" -> Node.Strategy
    | "solution" -> Node.Solution
    | "context" -> Node.Context
    | "assumption" -> Node.Assumption
    | "justification" -> Node.Justification
    | "away-goal" | "module" | "contract" ->
        ignore (expect st TLparen "'('");
        let m = p_id st "module name" in
        ignore (expect st TRparen "')'");
        (match word with
        | "away-goal" -> Node.Away_goal m
        | "module" -> Node.Module_ref m
        | _ -> Node.Contract m)
    | _ -> fail st "expected a node type"
  in
  let id = p_id st "node id" in
  let text = p_string st "node text" in
  let props = p_node_body st in
  let node =
    Node.make ~id ~node_type ~status:props.status ?formal:props.formal
      ~annotations:props.annotations ?evidence:props.evidence_ref text
  in
  (node, props.supported, props.contexts)

let p_enum st =
  let name = p_word st "enumeration name" in
  ignore (expect st TLbrace "'{'");
  let rec members acc =
    match advance st with
    | { kind = TRbrace; _ } -> List.rev acc
    | { kind = Word w; _ } -> members (w :: acc)
    | { loc; _ } -> raise (Syntax_error ("expected an enum member or '}'", loc))
  in
  (name, members [])

let p_attr st enums =
  let name = p_word st "attribute name" in
  ignore (expect st TLparen "'('");
  let param_of_word loc w =
    match w with
    | "int" -> Metadata.Pint
    | "nat" -> Metadata.Pnat
    | "string" -> Metadata.Pstr
    | other ->
        if List.mem_assoc other enums then Metadata.Penum other
        else
          raise
            (Syntax_error
               (Printf.sprintf "unknown parameter type %S" other, loc))
  in
  let rec params acc =
    let t = advance st in
    match t.kind with
    | TRparen -> List.rev acc
    | Word w -> (
        let p = param_of_word t.loc w in
        match advance st with
        | { kind = TComma; _ } -> params (p :: acc)
        | { kind = TRparen; _ } -> List.rev (p :: acc)
        | { loc; _ } -> raise (Syntax_error ("expected ',' or ')'", loc)))
    | _ -> raise (Syntax_error ("expected a parameter type or ')'", t.loc))
  in
  Metadata.attr name (params [])

let p_case st =
  expect_word st "case";
  let module_name =
    match peek st with
    | Some (Word _) -> Some (p_id st "module name")
    | _ -> None
  in
  let title = p_string st "case title" in
  ignore (expect st TLbrace "'{'");
  (* Declarations accumulate newest-first and the structure is built
     once at the closing brace. *)
  let nodes = ref [] in
  let evidence = ref [] in
  let links = ref [] in
  let enums = ref [] in
  let attrs = ref [] in
  let seen_ids = Hashtbl.create 16 in
  let rec items () =
    match advance st with
    | { kind = TRbrace; _ } -> ()
    | { kind = Word "enum"; loc } ->
        let name, members = p_enum st in
        if List.mem_assoc name !enums then
          semantic st
            (Diagnostic.errorf ~code:"dsl/duplicate-enum" ~loc
               "enumeration %s declared twice" name)
        else enums := (name, members) :: !enums;
        items ()
    | { kind = Word "attr"; _ } ->
        attrs := p_attr st !enums :: !attrs;
        items ()
    | { kind = Word "evidence"; _ } ->
        evidence := p_evidence st :: !evidence;
        items ()
    | { kind = Word w; loc } when List.mem w node_type_words ->
        let node, supported, contexts = p_node st w in
        if Hashtbl.mem seen_ids node.Node.id then
          semantic st
            (Diagnostic.errorf ~code:"dsl/duplicate-id" ~loc
               ~subjects:[ node.Node.id ] "node %s declared twice"
               (Id.to_string node.Node.id))
        else begin
          Hashtbl.add seen_ids node.Node.id ();
          nodes := node :: !nodes;
          let add kind d = links := (kind, node.Node.id, d) :: !links in
          List.iter (add Structure.Supported_by) supported;
          List.iter (add Structure.In_context_of) contexts
        end;
        items ()
    | { loc; _ } ->
        raise
          (Syntax_error
             ( "expected a declaration (enum, attr, evidence or a node \
                type) or '}'",
               loc ))
  in
  items ();
  let structure =
    Structure.build ~links:(List.rev !links) ~evidence:(List.rev !evidence)
      (List.rev !nodes)
  in
  {
    module_name;
    title;
    ontology = Metadata.ontology ~enums:(List.rev !enums) (List.rev !attrs);
    structure;
  }

(* Shared parse driver: tokenise, run [body], collect diagnostics. *)
let run_parser ~filename text body =
  if String.length text > max_input_bytes then
    Error
      [
        Diagnostic.errorf ~code:"dsl/syntax"
          ~loc:(Loc.point (Loc.pos ~file:filename ~line:1 ~col:0 ()))
          "input is %d bytes; the limit is %d" (String.length text)
          max_input_bytes;
      ]
  else
  match tokenise ~filename text with
  | exception Syntax_error (msg, loc) ->
      Error [ Diagnostic.error ~code:"dsl/syntax" ~loc msg ]
  | tokens -> (
      let st = { toks = tokens; last_loc = Loc.dummy; diags = [] } in
      match body st with
      | result ->
          if Diagnostic.has_errors st.diags then
            Error (Diagnostic.sort (List.rev st.diags))
          else Ok result
      | exception Syntax_error (msg, loc) ->
          Error
            (Diagnostic.sort
               (Diagnostic.error ~code:"dsl/syntax" ~loc msg
               :: List.rev st.diags)))

let parse ?(filename = "<input>") text =
  run_parser ~filename text (fun st ->
      let case = p_case st in
      (match st.toks with
      | [] -> ()
      | t :: _ -> raise (Syntax_error ("trailing input after case", t.loc)));
      case)

let parse_collection ?(filename = "<input>") text =
  run_parser ~filename text (fun st ->
      let rec loop acc =
        match st.toks with
        | [] ->
            if acc = [] then
              raise (Syntax_error ("expected at least one case", st.last_loc))
            else List.rev acc
        | _ -> loop (p_case st :: acc)
      in
      loop [])
