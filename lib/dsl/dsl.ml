module Id = Argus_core.Id
module Loc = Argus_core.Loc
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Prop = Argus_logic.Prop
module Gsn = Argus_gsn
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Metadata = Argus_gsn.Metadata

type case = {
  module_name : Id.t option;
  title : string;
  ontology : Metadata.ontology;
  structure : Structure.t;
}

(* --- Lexer --- *)

(* The parser pulls one token at a time from a cursor over the input.
   The lookahead token lives in mutable fields of the state — its
   kind, its text (words and strings only) and its span as line and
   column numbers — so lexing a token allocates nothing but the text,
   and a [Loc.t] is built only when a diagnostic keeps one. *)

type kind = Eof | Word | Str | Lbrace | Rbrace | Lparen | Rparen | Comma

exception Syntax_error of string * Loc.t

(* Hardening caps: pathological input — multi-megabyte files, or
   nesting deep enough to overflow the recursive-descent parser — must
   come back as a syntax diagnostic (exit 1), never a stack overflow or
   unbounded allocation.  The limits are far above anything a
   legitimate case file reaches; formulas are bounded by
   [Prop.max_nesting]. *)
let max_input_bytes = 8 * 1024 * 1024
let max_nesting = 256

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.'

type state = {
  src : string;
  file : string;
  mutable cur : int;  (** Next byte to scan. *)
  mutable line : int;
  mutable bol : int;  (** Offset of the first byte of [line]. *)
  mutable depth : int;  (** Open braces and parentheses. *)
  mutable kind : kind;  (** The lookahead token. *)
  mutable text : string;  (** Its text, when it is a [Word] or a [Str]. *)
  mutable sl : int;
      (** Its span: start line [sl] and column [sc], stop line [el]
          and column [ec]. *)
  mutable sc : int;
  mutable el : int;
  mutable ec : int;
  mutable last_sl : int;
      (** The span of the last token consumed, which errors point at;
          line 0 before the first. *)
  mutable last_sc : int;
  mutable last_el : int;
  mutable last_ec : int;
  mutable diags : Diagnostic.t list;  (** Semantic issues, reverse order. *)
}

let pos st line col = Loc.pos ~file:st.file ~line ~col ()
let span st sl sc el ec = Loc.make (pos st sl sc) (pos st el ec)

let last_loc st =
  if st.last_sl = 0 then Loc.dummy
  else span st st.last_sl st.last_sc st.last_el st.last_ec

let error_at st i msg =
  raise (Syntax_error (msg, Loc.point (pos st st.line (i - st.bol))))

let newline st i =
  st.line <- st.line + 1;
  st.bol <- i + 1

let enter st i =
  st.depth <- st.depth + 1;
  if st.depth > max_nesting then
    error_at st i (Printf.sprintf "nesting exceeds %d levels" max_nesting)

let leave st = if st.depth > 0 then st.depth <- st.depth - 1

let punct st i kind =
  st.kind <- kind;
  st.sl <- st.line;
  st.sc <- i - st.bol;
  st.el <- st.sl;
  st.ec <- st.sc;
  st.cur <- i + 1

(* The body of a string whose escapes or newlines rule out a plain
   [String.sub]: bytes [a, b) with each backslash pair read as its
   second byte. *)
let unescape s a b =
  let buf = Buffer.create (b - a) in
  let k = ref a in
  while !k < b do
    if s.[!k] = '\\' then begin
      Buffer.add_char buf s.[!k + 1];
      k := !k + 2
    end
    else begin
      Buffer.add_char buf s.[!k];
      incr k
    end
  done;
  Buffer.contents buf

(* The string whose opening quote is at [i].  A backslash escapes the
   byte after it (a newline included: it still starts a line); a
   string with neither an escape nor a newline is one [String.sub]. *)
let lex_string st i ~keep =
  let s = st.src in
  let n = String.length s in
  st.sl <- st.line;
  st.sc <- i - st.bol;
  let j = ref (i + 1) and plain = ref true in
  while !j < n && s.[!j] <> '"' do
    match s.[!j] with
    | '\\' when !j + 1 < n ->
        plain := false;
        if s.[!j + 1] = '\n' then newline st (!j + 1);
        j := !j + 2
    | '\n' ->
        plain := false;
        newline st !j;
        incr j
    | _ -> incr j
  done;
  if !j >= n then
    raise
      (Syntax_error ("unterminated string", Loc.point (pos st st.sl st.sc)));
  st.kind <- Str;
  st.el <- st.line;
  st.ec <- !j - st.bol;
  st.cur <- !j + 1;
  if keep then
    st.text <-
      (if !plain then String.sub s (i + 1) (!j - i - 1)
       else unescape s (i + 1) !j)

let lex_word st i ~keep =
  let s = st.src in
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && is_word_char s.[!j] do
    incr j
  done;
  st.kind <- Word;
  st.sl <- st.line;
  st.sc <- i - st.bol;
  st.el <- st.line;
  st.ec <- !j - 1 - st.bol;
  st.cur <- !j;
  if keep then st.text <- String.sub s i (!j - i)

(* Scans the next token into the lookahead fields; [keep] is whether
   to cut out its text. *)
let rec lex st ~keep =
  let s = st.src in
  let n = String.length s in
  let i = st.cur in
  if i >= n then st.kind <- Eof
  else
    match s.[i] with
    | '\n' ->
        newline st i;
        st.cur <- i + 1;
        lex st ~keep
    | ' ' | '\t' | '\r' ->
        st.cur <- i + 1;
        lex st ~keep
    | '/' when i + 1 < n && s.[i + 1] = '/' ->
        let j = ref i in
        while !j < n && s.[!j] <> '\n' do
          incr j
        done;
        st.cur <- !j;
        lex st ~keep
    | '{' ->
        enter st i;
        punct st i Lbrace
    | '}' ->
        leave st;
        punct st i Rbrace
    | '(' ->
        enter st i;
        punct st i Lparen
    | ')' ->
        leave st;
        punct st i Rparen
    | ',' -> punct st i Comma
    | '"' -> lex_string st i ~keep
    | c when is_word_char c -> lex_word st i ~keep
    | c -> error_at st i (Printf.sprintf "unexpected character %C" c)

(* A lexical error — an unexpected character, an unterminated string,
   nesting beyond [max_nesting] — is reported alone, before any syntax
   or semantic diagnostic, wherever it sits in the text.  A parse body
   that returns has pulled tokens up to [Eof], so the text has none
   (whatever semantic diagnostics it left); after a parse that raised,
   one dry run of the lexer over the whole input, keeping no text,
   raises the first lexical error if there is one. *)
let validate st =
  st.cur <- 0;
  st.line <- 1;
  st.bol <- 0;
  st.depth <- 0;
  lex st ~keep:false;
  while st.kind <> Eof do
    lex st ~keep:false
  done

(* --- Parser --- *)

let advance st =
  (match st.kind with
  | Eof -> raise (Syntax_error ("unexpected end of input", last_loc st))
  | _ -> ());
  st.last_sl <- st.sl;
  st.last_sc <- st.sc;
  st.last_el <- st.el;
  st.last_ec <- st.ec;
  lex st ~keep:true

let fail st msg = raise (Syntax_error (msg, last_loc st))

(* Each [p_*] below reads the lookahead's kind and text, consumes it,
   and on a mismatch fails at the span of the token it consumed. *)

let expect_word st w =
  let k = st.kind and t = st.text in
  advance st;
  if not (k = Word && t = w) then fail st (Printf.sprintf "expected %S" w)

let expect st kind what =
  let k = st.kind in
  advance st;
  if k <> kind then fail st (Printf.sprintf "expected %s" what)

let p_string st what =
  let k = st.kind and t = st.text in
  advance st;
  match k with
  | Str -> t
  | _ -> fail st (Printf.sprintf "expected a string (%s)" what)

let p_word st what =
  let k = st.kind and t = st.text in
  advance st;
  match k with
  | Word -> t
  | _ -> fail st (Printf.sprintf "expected a word (%s)" what)

let p_id st what =
  let k = st.kind and t = st.text in
  advance st;
  match k with
  | Word -> (
      match Id.of_string_opt t with
      | Some id -> id
      | None -> fail st (Printf.sprintf "invalid identifier %S (%s)" t what))
  | _ -> fail st (Printf.sprintf "expected an identifier (%s)" what)

let semantic st d = st.diags <- d :: st.diags

(* Comma- or space-separated identifier list, ending before a word that
   is a body keyword or '}'. *)
let is_body_keyword = function
  | "formal" | "meta" | "evidence" | "supported-by" | "in-context-of"
  | "undeveloped" | "uninstantiated" | "undeveloped-uninstantiated" ->
      true
  | _ -> false

let p_id_list st =
  let rec loop acc =
    match st.kind with
    | Word when not (is_body_keyword st.text) ->
        let id = p_id st "link target" in
        (match st.kind with Comma -> advance st | _ -> ());
        loop (id :: acc)
    | _ -> List.rev acc
  in
  match loop [] with [] -> fail st "expected at least one identifier" | ids -> ids

let evidence_kinds = Evidence.all_kinds

(* Called with the [evidence] keyword just consumed: a diagnostic about
   the item points at it. *)
let p_evidence st =
  let sl = st.last_sl and sc = st.last_sc and el = st.last_el
  and ec = st.last_ec in
  let id = p_id st "evidence id" in
  let kind_word = p_word st "evidence kind" in
  let kind =
    match Evidence.kind_of_string kind_word with
    | Some k -> k
    | None ->
        semantic st
          (Diagnostic.errorf ~code:"dsl/bad-evidence-kind"
             ~loc:(span st sl sc el ec)
             "unknown evidence kind %S (expected one of %s)" kind_word
             (String.concat ", " (List.map Evidence.kind_to_string evidence_kinds)));
        Evidence.Analysis
  in
  let description = p_string st "evidence description" in
  let source = ref None and strength = ref None in
  let rec opts () =
    match st.kind with
    | Word when st.text = "source" ->
        advance st;
        source := Some (p_string st "evidence source");
        opts ()
    | Word when st.text = "strength" ->
        advance st;
        let w = p_word st "evidence strength" in
        (match Evidence.strength_of_string w with
        | Some s -> strength := Some s
        | None ->
            semantic st
              (Diagnostic.errorf ~code:"dsl/bad-strength"
                 ~loc:(span st sl sc el ec) "unknown evidence strength %S" w));
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

let p_formal st props =
  let sl = st.last_sl and sc = st.last_sc and el = st.last_el
  and ec = st.last_ec in
  let text = p_string st "formula" in
  match Prop.of_string text with
  | Ok f -> props.formal <- Some f
  | Error e ->
      semantic st
        (Diagnostic.error ~code:"dsl/bad-formula" ~loc:(span st sl sc el ec)
           (Prop.error_message text e))

let p_meta st props =
  let sl = st.last_sl and sc = st.last_sc and el = st.last_el
  and ec = st.last_ec in
  let text = p_string st "annotation" in
  match Metadata.annotation_of_string text with
  | Ok a -> props.annotations <- props.annotations @ [ a ]
  | Error e ->
      semantic st
        (Diagnostic.errorf ~code:"dsl/bad-annotation"
           ~loc:(span st sl sc el ec) "cannot parse annotation %S: %s" text e)

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
  let unexpected () =
    advance st;
    fail st "unexpected token in node body"
  in
  (match st.kind with
  | Lbrace ->
      advance st;
      let rec loop () =
        match st.kind with
        | Rbrace -> advance st
        | Eof -> fail st "unterminated node body"
        | Word -> (
            match st.text with
            | "undeveloped" ->
                advance st;
                props.status <- Node.Undeveloped;
                loop ()
            | "uninstantiated" ->
                advance st;
                props.status <- Node.Uninstantiated;
                loop ()
            | "undeveloped-uninstantiated" ->
                advance st;
                props.status <- Node.Undeveloped_uninstantiated;
                loop ()
            | "formal" ->
                advance st;
                p_formal st props;
                loop ()
            | "meta" ->
                advance st;
                p_meta st props;
                loop ()
            | "evidence" ->
                advance st;
                props.evidence_ref <- Some (p_id st "evidence reference");
                loop ()
            | "supported-by" ->
                advance st;
                props.supported <- props.supported @ p_id_list st;
                loop ()
            | "in-context-of" ->
                advance st;
                props.contexts <- props.contexts @ p_id_list st;
                loop ()
            | _ -> unexpected ())
        | _ -> unexpected ()
      in
      loop ()
  | _ -> ());
  props

let is_node_type_word = function
  | "goal" | "strategy" | "solution" | "context" | "assumption"
  | "justification" | "away-goal" | "module" | "contract" ->
      true
  | _ -> false

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
        expect st Lparen "'('";
        let m = p_id st "module name" in
        expect st Rparen "')'";
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
  expect st Lbrace "'{'";
  let rec members acc =
    let k = st.kind and t = st.text in
    advance st;
    match k with
    | Rbrace -> List.rev acc
    | Word -> members (t :: acc)
    | _ -> fail st "expected an enum member or '}'"
  in
  (name, members [])

let p_attr st enums =
  let name = p_word st "attribute name" in
  expect st Lparen "'('";
  let param_of_word w =
    match w with
    | "int" -> Metadata.Pint
    | "nat" -> Metadata.Pnat
    | "string" -> Metadata.Pstr
    | other ->
        if List.mem_assoc other enums then Metadata.Penum other
        else fail st (Printf.sprintf "unknown parameter type %S" other)
  in
  let rec params acc =
    let k = st.kind and t = st.text in
    advance st;
    match k with
    | Rparen -> List.rev acc
    | Word -> (
        let p = param_of_word t in
        let k = st.kind in
        advance st;
        match k with
        | Comma -> params (p :: acc)
        | Rparen -> List.rev (p :: acc)
        | _ -> fail st "expected ',' or ')'")
    | _ -> fail st "expected a parameter type or ')'"
  in
  Metadata.attr name (params [])

let p_case st =
  expect_word st "case";
  let module_name =
    match st.kind with Word -> Some (p_id st "module name") | _ -> None
  in
  let title = p_string st "case title" in
  expect st Lbrace "'{'";
  (* Declarations accumulate newest-first and the structure is built
     once at the closing brace. *)
  let nodes = ref [] in
  let evidence = ref [] in
  let links = ref [] in
  let enums = ref [] in
  let attrs = ref [] in
  let seen_ids = Hashtbl.create 16 in
  let bad_declaration () =
    fail st
      "expected a declaration (enum, attr, evidence or a node type) or '}'"
  in
  let rec items () =
    let k = st.kind and w = st.text in
    advance st;
    (* The declaration keyword's span, for a diagnostic about it. *)
    let sl = st.last_sl and sc = st.last_sc and el = st.last_el
    and ec = st.last_ec in
    match k with
    | Rbrace -> ()
    | Word -> (
        match w with
        | "enum" ->
            let name, members = p_enum st in
            if List.mem_assoc name !enums then
              semantic st
                (Diagnostic.errorf ~code:"dsl/duplicate-enum"
                   ~loc:(span st sl sc el ec) "enumeration %s declared twice"
                   name)
            else enums := (name, members) :: !enums;
            items ()
        | "attr" ->
            attrs := p_attr st !enums :: !attrs;
            items ()
        | "evidence" ->
            evidence := p_evidence st :: !evidence;
            items ()
        | w when is_node_type_word w ->
            let node, supported, contexts = p_node st w in
            if Hashtbl.mem seen_ids node.Node.id then
              semantic st
                (Diagnostic.errorf ~code:"dsl/duplicate-id"
                   ~loc:(span st sl sc el ec) ~subjects:[ node.Node.id ]
                   "node %s declared twice"
                   (Id.to_string node.Node.id))
            else begin
              Hashtbl.add seen_ids node.Node.id ();
              nodes := node :: !nodes;
              let add kind d = links := (kind, node.Node.id, d) :: !links in
              List.iter (add Structure.Supported_by) supported;
              List.iter (add Structure.In_context_of) contexts
            end;
            items ()
        | _ -> bad_declaration ())
    | _ -> bad_declaration ()
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

(* Shared parse driver: pull the first token, run [body], collect
   diagnostics; after a raise, let a lexical error take precedence. *)
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
    let st =
      {
        src = text;
        file = filename;
        cur = 0;
        line = 1;
        bol = 0;
        depth = 0;
        kind = Eof;
        text = "";
        sl = 0;
        sc = 0;
        el = 0;
        ec = 0;
        last_sl = 0;
        last_sc = 0;
        last_el = 0;
        last_ec = 0;
        diags = [];
      }
    in
    match
      lex st ~keep:true;
      body st
    with
    | result ->
        if Diagnostic.has_errors st.diags then
          Error (Diagnostic.sort (List.rev st.diags))
        else Ok result
    | exception Syntax_error (msg, loc) -> (
        match validate st with
        | exception Syntax_error (msg, loc) ->
            Error [ Diagnostic.error ~code:"dsl/syntax" ~loc msg ]
        | () ->
            Error
              (Diagnostic.sort
                 (Diagnostic.error ~code:"dsl/syntax" ~loc msg
                 :: List.rev st.diags)))

let parse ?(filename = "<input>") text =
  run_parser ~filename text (fun st ->
      let case = p_case st in
      (match st.kind with
      | Eof -> ()
      | _ ->
          raise
            (Syntax_error
               ("trailing input after case", span st st.sl st.sc st.el st.ec)));
      case)

let parse_collection ?(filename = "<input>") text =
  run_parser ~filename text (fun st ->
      let rec loop acc =
        match st.kind with
        | Eof ->
            if acc = [] then fail st "expected at least one case"
            else List.rev acc
        | _ -> loop (p_case st :: acc)
      in
      loop [])

let to_modular cases =
  let errs = ref [] in
  let seen = Hashtbl.create 8 in
  let named =
    match cases with
    | [ ({ module_name = None; _ } as only) ] ->
        [ (Id.of_string "Main", only) ]
    | _ ->
        List.filter_map
          (fun case ->
            match case.module_name with
            | Some name -> Some (name, case)
            | None ->
                errs :=
                  Diagnostic.errorf ~code:"dsl/unnamed-module"
                    "case %S needs a module name in a multi-module file"
                    case.title
                  :: !errs;
                None)
          cases
  in
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then
        errs :=
          Diagnostic.errorf ~code:"dsl/duplicate-module"
            "module %s declared twice" (Id.to_string name)
          :: !errs
      else Hashtbl.add seen name ())
    named;
  if !errs <> [] then Error (Diagnostic.sort (List.rev !errs))
  else
    Ok
      (List.fold_left
         (fun acc (name, case) ->
           Argus_gsn.Modular.add_module ~name case.structure acc)
         Argus_gsn.Modular.empty named)

let parse_exn ?filename text =
  match parse ?filename text with
  | Ok c -> c
  | Error ds ->
      failwith (Format.asprintf "%a" Diagnostic.pp_report ds)

(* --- Printer --- *)

let quote text =
  let buf = Buffer.create (String.length text + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | c -> Buffer.add_char buf c)
    text;
  Buffer.add_char buf '"';
  Buffer.contents buf

let param_type_word enums = function
  | Metadata.Pint -> "int"
  | Metadata.Pnat -> "nat"
  | Metadata.Pstr -> "string"
  | Metadata.Penum e ->
      ignore enums;
      e

let print case =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match case.module_name with
  | Some m -> out "case %s %s {\n" (Id.to_string m) (quote case.title)
  | None -> out "case %s {\n" (quote case.title));
  List.iter
    (fun (name, members) ->
      out "  enum %s { %s }\n" name (String.concat " " members))
    case.ontology.Metadata.enums;
  List.iter
    (fun (decl : Metadata.attribute_decl) ->
      out "  attr %s (%s)\n" decl.Metadata.name
        (String.concat ", "
           (List.map (param_type_word case.ontology.Metadata.enums)
              decl.Metadata.params)))
    case.ontology.Metadata.attributes;
  List.iter
    (fun ev ->
      out "  evidence %s %s %s source %s strength %s\n"
        (Id.to_string ev.Evidence.id)
        (Evidence.kind_to_string ev.Evidence.kind)
        (quote ev.Evidence.description)
        (quote ev.Evidence.source)
        (Evidence.strength_to_string ev.Evidence.strength))
    (Structure.evidence case.structure);
  (* Each node's outgoing links in link order, grouped in one pass:
     [find_all] answers the latest binding first, so the links are
     bound last to first. *)
  let by_source = Hashtbl.create 64 in
  List.iter
    (fun (k, s, d) -> Hashtbl.add by_source (Id.to_string s) (k, d))
    (List.rev (Structure.links case.structure));
  List.iter
    (fun n ->
      let type_word =
        match n.Node.node_type with
        | Node.Goal -> "goal"
        | Node.Strategy -> "strategy"
        | Node.Solution -> "solution"
        | Node.Context -> "context"
        | Node.Assumption -> "assumption"
        | Node.Justification -> "justification"
        | Node.Away_goal m -> Printf.sprintf "away-goal(%s)" (Id.to_string m)
        | Node.Module_ref m -> Printf.sprintf "module(%s)" (Id.to_string m)
        | Node.Contract m -> Printf.sprintf "contract(%s)" (Id.to_string m)
      in
      out "  %s %s %s" type_word (Id.to_string n.Node.id) (quote n.Node.text);
      let body_lines = ref [] in
      let addl fmt = Printf.ksprintf (fun s -> body_lines := s :: !body_lines) fmt in
      if n.Node.status <> Node.Developed then
        addl "%s" (Node.status_to_string n.Node.status);
      (match n.Node.formal with
      | Some f -> addl "formal %s" (quote (Prop.to_string f))
      | None -> ());
      List.iter
        (fun a ->
          addl "meta %s"
            (quote (Format.asprintf "%a" Metadata.pp_annotation a)))
        n.Node.annotations;
      (match n.Node.evidence with
      | Some e -> addl "evidence %s" (Id.to_string e)
      | None -> ());
      let out_links = Hashtbl.find_all by_source (Id.to_string n.Node.id) in
      let targets kind =
        List.filter_map
          (fun (k, d) -> if k = kind then Some (Id.to_string d) else None)
          out_links
      in
      List.iter
        (fun kind ->
          match targets kind with
          | [] -> ()
          | ts ->
              addl "%s %s" (Structure.link_to_string kind)
                (String.concat ", " ts))
        [ Structure.Supported_by; Structure.In_context_of ];
      (match List.rev !body_lines with
      | [] -> out "\n"
      | lines ->
          out " {\n";
          List.iter (fun l -> out "    %s\n" l) lines;
          out "  }\n"))
    (Structure.nodes case.structure);
  out "}\n";
  Buffer.contents buf

let validate_metadata case =
  Structure.fold_nodes
    (fun n acc ->
      Metadata.validate case.ontology n.Node.annotations @ acc)
    case.structure []
  |> Diagnostic.sort
