open Argus_dsl.Dsl
module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Metadata = Argus_gsn.Metadata
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf s = (Fused.check (Caseir.intern s)).Fused.wf

let sample_text =
  {|
// A small but complete case exercising every construct.
case "Braking controller safety" {
  enum severity { catastrophic hazardous major minor }
  enum likelihood { frequent probable remote }
  attr hazard (string, severity, likelihood)
  attr sil (nat)

  evidence E1 analysis "Worst-case timing analysis"
    source "report T-42" strength statistical
  evidence E2 test-results "HIL test campaign"

  goal G1 "The controller is acceptably safe" {
    formal "safe_ctrl"
    in-context-of C1
    supported-by S1
  }
  strategy S1 "Argue over each identified hazard" {
    supported-by G2, G3
    in-context-of J1
  }
  goal G2 "Hazard H1 is mitigated" {
    meta "hazard \"H1\" catastrophic remote"
    meta "sil 4"
    supported-by Sn1
  }
  goal G3 "Hazard H2 is mitigated" { undeveloped }
  solution Sn1 "Timing analysis results" { evidence E1 }
  context C1 "Motorway driving only"
  justification J1 "Hazard list reviewed by the safety board"
}
|}

let sample = parse_exn sample_text

let test_parse_sample () =
  Alcotest.(check string) "title" "Braking controller safety" sample.title;
  Alcotest.(check int) "nodes" 7 (Structure.size sample.structure);
  Alcotest.(check int) "evidence" 2
    (List.length (Structure.evidence sample.structure));
  Alcotest.(check int) "enums" 2
    (List.length sample.ontology.Metadata.enums);
  Alcotest.(check int) "attrs" 2
    (List.length sample.ontology.Metadata.attributes);
  let g1 = Structure.find_exn (Id.of_string "G1") sample.structure in
  Alcotest.(check bool) "formal parsed" true (g1.Node.formal <> None);
  let g2 = Structure.find_exn (Id.of_string "G2") sample.structure in
  Alcotest.(check int) "two annotations" 2 (List.length g2.Node.annotations);
  Alcotest.(check (list string))
    "S1 children" [ "G2"; "G3" ]
    (List.map Id.to_string
       (Structure.children Structure.Supported_by (Id.of_string "S1")
          sample.structure))

let test_sample_well_formed () =
  Alcotest.(check (list string)) "well-formed" []
    (List.map
       (fun d -> d.Diagnostic.code)
       (fused_wf sample.structure))

let test_metadata_valid () =
  Alcotest.(check (list string)) "metadata valid" []
    (List.map (fun d -> d.Diagnostic.code) (validate_metadata sample))

let test_roundtrip () =
  let printed = print sample in
  let reparsed = parse_exn printed in
  Alcotest.(check string) "title" sample.title reparsed.title;
  Alcotest.(check bool) "structure equal" true
    (Structure.equal sample.structure reparsed.structure);
  Alcotest.(check bool) "ontology equal" true
    (sample.ontology = reparsed.ontology)

let test_away_goal_syntax () =
  let c =
    parse_exn
      {|case "modular" {
          away-goal(PowertrainModule) AG1 "Powertrain is safe" { undeveloped }
          module(PowertrainModule) M1 "Powertrain safety case"
          contract(PowertrainModule) K1 "Interface contract"
        }|}
  in
  let ag = Structure.find_exn (Id.of_string "AG1") c.structure in
  (match ag.Node.node_type with
  | Node.Away_goal m ->
      Alcotest.(check string) "module ref" "PowertrainModule" (Id.to_string m)
  | _ -> Alcotest.fail "expected away goal");
  let printed = print c in
  let reparsed = parse_exn printed in
  Alcotest.(check bool) "round-trip" true
    (Structure.equal c.structure reparsed.structure)

let expect_error code text =
  match parse text with
  | Ok _ -> Alcotest.failf "expected %s for %s" code text
  | Error ds ->
      let cs = List.map (fun d -> d.Diagnostic.code) ds in
      if not (List.mem code cs) then
        Alcotest.failf "expected %s, got [%s]" code (String.concat "; " cs)

let test_syntax_errors () =
  List.iter (expect_error "dsl/syntax")
    [
      "";
      "case {}";
      {|case "x"|};
      {|case "x" { goal }|};
      {|case "x" { goal G1 }|};
      {|case "x" { goal G1 "t" { supported-by } }|};
      {|case "x" { widget W1 "t" }|};
      {|case "x" { goal G1 "t" } trailing|};
      {|case "x" { attr a (bogus) }|};
    ]

(* Hardening: pathological input must produce a diagnostic, never a
   stack overflow or unbounded allocation. *)
let test_pathological_input () =
  let deep = 100_000 in
  (* 100k-deep nested braces after a valid case header. *)
  expect_error "dsl/syntax"
    ({|case "x" { goal G1 "t" |} ^ String.make deep '{');
  (* 100k-deep parenthesised formula: must be rejected before it
     reaches the recursive-descent formula parser. *)
  expect_error "dsl/bad-formula"
    (Printf.sprintf {|case "x" { goal G1 "t is safe" { formal "%sa%s" } }|}
       (String.make deep '(') (String.make deep ')'));
  (* Oversized input: a multi-MB file is refused up front. *)
  expect_error "dsl/syntax"
    ({|case "x" { goal G1 "t" { undeveloped } } // |}
    ^ String.make (9 * 1024 * 1024) 'x')

let test_semantic_errors () =
  expect_error "dsl/duplicate-id"
    {|case "x" { goal G1 "a is safe" { undeveloped } goal G1 "b is safe" { undeveloped } }|};
  expect_error "dsl/bad-formula"
    {|case "x" { goal G1 "t is safe" { undeveloped formal "a &" } }|};
  expect_error "dsl/bad-annotation"
    {|case "x" { goal G1 "t is safe" { undeveloped meta "" } }|};
  expect_error "dsl/bad-evidence-kind"
    {|case "x" { evidence E1 vibes "description" }|};
  expect_error "dsl/bad-strength"
    {|case "x" { evidence E1 analysis "d" strength maybe }|};
  expect_error "dsl/duplicate-enum"
    {|case "x" { enum a { b } enum a { c } }|}

let test_error_location () =
  match parse ~filename:"case.arg" "case \"x\" {\n  bogus\n}" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error [ d ] -> (
      match d.Diagnostic.loc with
      | Some loc ->
          Alcotest.(check int) "line 2" 2 loc.Argus_core.Loc.start.Argus_core.Loc.line
      | None -> Alcotest.fail "expected a location")
  | Error _ -> Alcotest.fail "expected exactly one diagnostic"

let test_comments_and_multiline_strings () =
  let c =
    parse_exn
      "case \"x\" { // comment\n goal G1 \"spans\nlines and is safe\" { undeveloped } }"
  in
  let g = Structure.find_exn (Id.of_string "G1") c.structure in
  Alcotest.(check bool) "newline preserved" true
    (String.contains g.Node.text '\n')

(* A backslash before a newline inside a string escapes the newline,
   which still starts a line: the error on line 4 is reported there. *)
let test_escaped_newline_location () =
  let text =
    "case \"t\" {\n  goal G1 \"a \\\nb\"\n  goal G2 \"c\" { bogus }\n}\n"
  in
  match parse ~filename:"t.arg" text with
  | Error [ { Diagnostic.loc = Some loc; _ } ] ->
      Alcotest.(check string) "span" "t.arg:4.16-4.20"
        (Format.asprintf "%a" Argus_core.Loc.pp loc)
  | _ -> Alcotest.fail "expected exactly one located diagnostic"

(* --- Multi-module collections --- *)

let modular_text =
  {|
case Powertrain "Powertrain safety" {
  evidence PE1 analysis "Torque path analysis"
  goal PG1 "The powertrain is acceptably safe" { supported-by PSn1 }
  solution PSn1 "Analysis results" { evidence PE1 }
}

case Vehicle "Vehicle safety" {
  evidence VE1 review "Integration review"
  goal VG1 "The vehicle is acceptably safe" { supported-by S1 }
  strategy S1 "Argue over subsystems" { supported-by PG1, VG2 }
  away-goal(Powertrain) PG1 "The powertrain is acceptably safe"
  goal VG2 "The body is acceptably safe" { supported-by VSn1 }
  solution VSn1 "Review results" { evidence VE1 }
}
|}

let test_parse_collection () =
  match parse_collection ~filename:"modular.arg" modular_text with
  | Error ds -> Alcotest.failf "%s" (Format.asprintf "%a" Diagnostic.pp_report ds)
  | Ok cases ->
      Alcotest.(check int) "two cases" 2 (List.length cases);
      let names =
        List.filter_map
          (fun c -> Option.map Id.to_string c.module_name)
          cases
      in
      Alcotest.(check (list string)) "module names" [ "Powertrain"; "Vehicle" ]
        names

let test_collection_to_modular () =
  let cases = Result.get_ok (parse_collection modular_text) in
  match to_modular cases with
  | Error ds -> Alcotest.failf "%s" (Format.asprintf "%a" Diagnostic.pp_report ds)
  | Ok collection ->
      Alcotest.(check (list string))
        "modules" [ "Powertrain"; "Vehicle" ]
        (List.map Id.to_string (Argus_gsn.Modular.module_names collection));
      Alcotest.(check (list string)) "clean" []
        (List.map
           (fun d -> d.Diagnostic.code)
           (Fused.check_modular collection))

let test_collection_detects_bad_away_goal () =
  let broken =
    {|case A "a" {
        goal GA "A is acceptably safe" { supported-by GX }
        away-goal(Missing) GX "cited from nowhere"
      }|}
  in
  let cases = Result.get_ok (parse_collection broken) in
  (* A single anonymous... this one is named?  No name: single case ->
     module Main. *)
  let collection = Result.get_ok (to_modular cases) in
  Alcotest.(check bool) "unknown module reported" true
    (List.mem "modular/unknown-module"
       (List.map
          (fun d -> d.Diagnostic.code)
          (Fused.check_modular collection)))

let test_unnamed_module_rejected () =
  let cases =
    Result.get_ok
      (parse_collection
         {|case "first" { goal G1 "g is safe" { undeveloped } }
           case Second "second" { goal G2 "h is safe" { undeveloped } }|})
  in
  match to_modular cases with
  | Error ds ->
      Alcotest.(check bool) "unnamed flagged" true
        (List.exists (fun d -> d.Diagnostic.code = "dsl/unnamed-module") ds)
  | Ok _ -> Alcotest.fail "expected an error"

let test_duplicate_module_rejected () =
  let cases =
    Result.get_ok
      (parse_collection
         {|case M "first" { goal G1 "g is safe" { undeveloped } }
           case M "second" { goal G2 "h is safe" { undeveloped } }|})
  in
  match to_modular cases with
  | Error ds ->
      Alcotest.(check bool) "duplicate flagged" true
        (List.exists (fun d -> d.Diagnostic.code = "dsl/duplicate-module") ds)
  | Ok _ -> Alcotest.fail "expected an error"

let test_module_name_roundtrip () =
  let cases = Result.get_ok (parse_collection modular_text) in
  let first = List.hd cases in
  let printed = print first in
  let reparsed = parse_exn printed in
  Alcotest.(check bool) "module name preserved" true
    (reparsed.module_name = first.module_name);
  Alcotest.(check bool) "structure preserved" true
    (Structure.equal reparsed.structure first.structure)

(* --- Round-trip property over generated cases --- *)

let gen_case =
  let open QCheck.Gen in
  let* n_goals = int_range 1 6 in
  let* with_formal = list_size (return n_goals) bool in
  let* statuses =
    list_size (return n_goals)
      (oneofl [ Node.Developed; Node.Undeveloped; Node.Uninstantiated ])
  in
  let goals =
    List.mapi
      (fun i (formal, status) ->
        let id = Printf.sprintf "G%d" i in
        let base =
          Node.make ~id:(Id.of_string id) ~node_type:Node.Goal ~status
            ?formal:
              (if formal then Some (Argus_logic.Prop.of_string_exn "a -> b")
               else None)
            (Printf.sprintf "Claim %d is acceptably safe" i)
        in
        base)
      (List.combine with_formal statuses)
  in
  (* Chain them: G0 <- G1 <- ... so the structure is connected. *)
  let links =
    List.init (n_goals - 1) (fun i ->
        (Structure.Supported_by,
         Printf.sprintf "G%d" i,
         Printf.sprintf "G%d" (i + 1)))
  in
  let structure =
    Structure.of_nodes
      ~links:
        (List.map
           (fun (k, a, b) -> (k, a, b))
           links)
      goals
  in
  return
    {
      module_name = None;
      title = "generated";
      ontology = Metadata.ontology [];
      structure;
    }

let roundtrip_property =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:200
    (QCheck.make ~print:print gen_case) (fun c ->
      match parse (print c) with
      | Ok c' ->
          c.title = c'.title
          && Structure.equal c.structure c'.structure
          && c.ontology = c'.ontology
      | Error _ -> false)

(* --- print: links grouped once against the per-node scan --- *)

(* [print] as it was written before it grouped the links: every node
   rescans the whole link list for its targets.  Kept as the oracle. *)
let print_by_scan case =
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
  in
  let param_type_word = function
    | Metadata.Pint -> "int"
    | Metadata.Pnat -> "nat"
    | Metadata.Pstr -> "string"
    | Metadata.Penum e -> e
  in
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
        (String.concat ", " (List.map param_type_word decl.Metadata.params)))
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
  let links = Structure.links case.structure in
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
      let addl fmt =
        Printf.ksprintf (fun s -> body_lines := s :: !body_lines) fmt
      in
      (match n.Node.status with
      | Node.Developed -> ()
      | Node.Undeveloped -> addl "undeveloped"
      | Node.Uninstantiated -> addl "uninstantiated"
      | Node.Undeveloped_uninstantiated -> addl "undeveloped-uninstantiated");
      (match n.Node.formal with
      | Some f -> addl "formal %s" (quote (Argus_logic.Prop.to_string f))
      | None -> ());
      List.iter
        (fun a ->
          addl "meta %s"
            (quote (Format.asprintf "%a" Metadata.pp_annotation a)))
        n.Node.annotations;
      (match n.Node.evidence with
      | Some e -> addl "evidence %s" (Id.to_string e)
      | None -> ());
      let targets kind =
        List.filter_map
          (fun (k, s, d) ->
            if k = kind && Id.equal s n.Node.id then Some (Id.to_string d)
            else None)
          links
      in
      (match targets Structure.Supported_by with
      | [] -> ()
      | ts -> addl "supported-by %s" (String.concat ", " ts));
      (match targets Structure.In_context_of with
      | [] -> ()
      | ts -> addl "in-context-of %s" (String.concat ", " ts));
      (match List.rev !body_lines with
      | [] -> out "\n"
      | lines ->
          out " {\n";
          List.iter (fun l -> out "    %s\n" l) lines;
          out "  }\n"))
    (Structure.nodes case.structure);
  out "}\n";
  Buffer.contents buf

(* Random cases whose link list interleaves both kinds and many
   sources, repeats links (`Structure.build` keeps the first) and lets either
   endpoint dangle ([N n] and [N (n+1)] are never nodes). *)
let gen_linked_case =
  let open QCheck.Gen in
  let* n = int_range 1 10 in
  let* kinds = list_repeat n (int_bound 4) in
  let nodes =
    List.mapi
      (fun i k ->
        let id = Printf.sprintf "N%d" i in
        match k with
        | 0 -> Node.goal id "A claim holds"
        | 1 -> Node.strategy id "Argue over parts"
        | 2 -> Node.solution ~evidence:"E1" id "Test report"
        | 3 -> Node.context id "Operating context"
        | _ -> Node.assumption id "An assumption")
      kinds
  in
  let endpoint = map (Printf.sprintf "N%d") (int_bound (n + 1)) in
  let link =
    map3
      (fun sup a b ->
        ((if sup then Structure.Supported_by else Structure.In_context_of), a, b))
      bool endpoint endpoint
  in
  let* links = list_size (int_range 0 (3 * n)) link in
  let* repeats = list_size (int_bound 4) (if links = [] then link else oneofl links) in
  return
    {
      module_name = None;
      title = "linked";
      ontology = Metadata.ontology [];
      structure = Structure.of_nodes ~links:(links @ repeats) nodes;
    }

let print_matches_scan =
  QCheck.Test.make ~name:"print = per-node link scan (random links)"
    ~count:300
    (QCheck.make ~print:print_by_scan gen_linked_case)
    (fun c -> print c = print_by_scan c)

(* --- Bulk builder against the declaration-order fold --- *)

(* A random case as its declarations, in source order: evidence items
   (ids drawn from a small pool, so they repeat with new payloads) and
   nodes (unique ids) whose link clauses may repeat a target, name a
   node declared later, or dangle, shuffled together. *)
type decl =
  | Ev of Evidence.t
  | Nd of Node.t * (Structure.link * Id.t list) list

let gen_decls =
  let open QCheck.Gen in
  let* n_nodes = int_range 1 12 in
  let node_ids = List.init n_nodes (fun i -> Printf.sprintf "N%d" i) in
  let target = oneofl (node_ids @ [ "X0"; "X1" ]) in
  let clause =
    let* kind = oneofl [ Structure.Supported_by; Structure.In_context_of ] in
    let* ts = list_size (int_range 1 3) target in
    return (kind, List.map Id.of_string ts)
  in
  let gen_node id =
    let* node_type =
      oneofl [ Node.Goal; Node.Strategy; Node.Solution; Node.Context ]
    in
    let* status = oneofl [ Node.Developed; Node.Undeveloped ] in
    let* text = oneofl [ "the system is safe"; "argue over hazards"; "" ] in
    let* clauses = list_size (int_range 0 3) clause in
    return
      (Nd (Node.make ~id:(Id.of_string id) ~node_type ~status text, clauses))
  in
  let gen_evidence =
    let* id = oneofl [ "E0"; "E1"; "E2" ] in
    let* kind = oneofl Evidence.all_kinds in
    let* description = oneofl [ "timing analysis"; "test campaign" ] in
    return (Ev (Evidence.make ~id:(Id.of_string id) ~kind description))
  in
  let* nodes = flatten_l (List.map gen_node node_ids) in
  let* evidence = list_size (int_range 0 6) gen_evidence in
  shuffle_l (nodes @ evidence)

let render_decls decls =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "case \"generated\" {\n";
  List.iter
    (function
      | Ev ev ->
          Printf.bprintf buf "  evidence %s %s %S\n"
            (Id.to_string ev.Evidence.id)
            (Evidence.kind_to_string ev.Evidence.kind)
            ev.Evidence.description
      | Nd (n, clauses) ->
          Printf.bprintf buf "  %s %s %S {\n"
            (Node.type_to_string n.Node.node_type)
            (Id.to_string n.Node.id) n.Node.text;
          if n.Node.status = Node.Undeveloped then
            Buffer.add_string buf "    undeveloped\n";
          List.iter
            (fun (kind, ts) ->
              Printf.bprintf buf "    %s %s\n"
                (match kind with
                | Structure.Supported_by -> "supported-by"
                | Structure.In_context_of -> "in-context-of")
                (String.concat ", " (List.map Id.to_string ts)))
            clauses;
          Buffer.add_string buf "  }\n")
    decls;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* The oracle: the structure the parser used to assemble one
   declaration at a time — [add_evidence] and [add_node] in source
   order, then [connect] over the queued links: per node, all of its
   supported-by targets and then all of its in-context-of ones, each
   in clause order. *)
let fold_decls decls =
  let s, pending =
    List.fold_left
      (fun (s, pending) -> function
        | Ev ev -> (Structure.add_evidence ev s, pending)
        | Nd (n, clauses) ->
            let queued kind =
              List.concat_map
                (fun (k, ts) ->
                  if k = kind then List.map (fun d -> (kind, n.Node.id, d)) ts
                  else [])
                clauses
            in
            ( Structure.add_node n s,
              pending
              @ queued Structure.Supported_by
              @ queued Structure.In_context_of ))
      (Structure.empty, []) decls
  in
  List.fold_left
    (fun s (kind, src, dst) -> Structure.connect kind ~src ~dst s)
    s pending

let same_parts a b =
  List.equal Node.equal (Structure.nodes a) (Structure.nodes b)
  && Structure.links a = Structure.links b
  && List.equal Evidence.equal (Structure.evidence a) (Structure.evidence b)

let bulk_parse_matches_fold =
  QCheck.Test.make ~name:"bulk-built parse equals the declaration fold"
    ~count:300
    (QCheck.make ~print:render_decls gen_decls)
    (fun decls ->
      match parse (render_decls decls) with
      | Ok case -> same_parts case.structure (fold_decls decls)
      | Error _ -> false)

(* --- The pull lexer against the list lexer it replaced --- *)

module Legacy_dsl = Argus_oracle.Legacy_dsl

(* Texts for the differential: printed cases (the round-trip
   generator's, and the bulk-builder's declarations with evidence),
   collections of named cases, and damaged copies of them — a random
   prefix, or one byte inserted or replaced by one that moves the
   lexer — plus nesting around [max_nesting]. *)
let gen_dsl_text =
  let open QCheck.Gen in
  let named i c =
    { c with module_name = Some (Id.of_string (Printf.sprintf "M%d" i)) }
  in
  let collection =
    let* cases = list_size (int_range 1 3) gen_case in
    return
      (String.concat "\n" (List.mapi (fun i c -> print (named i c)) cases))
  in
  let base =
    oneof [ map print gen_case; map render_decls gen_decls; collection ]
  in
  let lexical =
    oneofl [ '"'; '\\'; '{'; '}'; '('; ')'; ','; '\n'; '/'; '@' ]
  in
  let damaged =
    let* text = base in
    let n = String.length text in
    let* i = int_bound n in
    let* c = lexical in
    let splice skip =
      String.sub text 0 i ^ String.make 1 c
      ^ String.sub text (i + skip) (n - i - skip)
    in
    oneofl
      [ String.sub text 0 i; splice 0; (if i < n then splice 1 else text) ]
  in
  let nesting =
    let* d =
      int_range (Legacy_dsl.max_nesting - 2) (Legacy_dsl.max_nesting + 2)
    in
    let* opener = oneofl [ '{'; '(' ] in
    let* closed = bool in
    let closer = if opener = '{' then '}' else ')' in
    (* The case's own brace is one level. *)
    return
      (Printf.sprintf {|case "x" { goal G1 "t" %s%s}|}
         (String.make (d - 1) opener)
         (if closed then String.make (d - 1) closer else ""))
  in
  frequency [ (3, base); (6, damaged); (1, nesting) ]

let same_case a b =
  a.module_name = b.module_name
  && a.title = b.title
  && a.ontology = b.ontology
  && Structure.equal a.structure b.structure
  && same_parts a.structure b.structure

let same_answer same a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error ds, Error ds' -> ds = ds'
  | _ -> false

let pull_lexer_matches_list_lexer =
  QCheck.Test.make ~name:"pull lexer parse equals the list-lexer oracle"
    ~count:1000
    (QCheck.make ~print:String.escaped gen_dsl_text)
    (fun text ->
      same_answer same_case (parse ~filename:"d.arg" text)
        (Legacy_dsl.parse ~filename:"d.arg" text)
      && same_answer (List.equal same_case)
           (parse_collection ~filename:"d.arg" text)
           (Legacy_dsl.parse_collection ~filename:"d.arg" text))

let () =
  Alcotest.run "argus-dsl"
    [
      ( "parsing",
        [
          Alcotest.test_case "sample case" `Quick test_parse_sample;
          Alcotest.test_case "sample well-formed" `Quick test_sample_well_formed;
          Alcotest.test_case "metadata valid" `Quick test_metadata_valid;
          Alcotest.test_case "away goals and modules" `Quick
            test_away_goal_syntax;
          Alcotest.test_case "comments and multiline strings" `Quick
            test_comments_and_multiline_strings;
        ] );
      ( "errors",
        [
          Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
          Alcotest.test_case "pathological input" `Quick
            test_pathological_input;
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
          Alcotest.test_case "error location" `Quick test_error_location;
          Alcotest.test_case "escaped newline location" `Quick
            test_escaped_newline_location;
        ] );
      ( "modular",
        [
          Alcotest.test_case "parse collection" `Quick test_parse_collection;
          Alcotest.test_case "to modular" `Quick test_collection_to_modular;
          Alcotest.test_case "bad away goal" `Quick
            test_collection_detects_bad_away_goal;
          Alcotest.test_case "unnamed module" `Quick test_unnamed_module_rejected;
          Alcotest.test_case "duplicate module" `Quick
            test_duplicate_module_rejected;
          Alcotest.test_case "module name round-trip" `Quick
            test_module_name_roundtrip;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "sample round-trip" `Quick test_roundtrip;
          QCheck_alcotest.to_alcotest roundtrip_property;
          QCheck_alcotest.to_alcotest print_matches_scan;
        ] );
      ( "bulk-builder",
        [ QCheck_alcotest.to_alcotest bulk_parse_matches_fold ] );
      ( "pull-lexer",
        [ QCheck_alcotest.to_alcotest pull_lexer_matches_list_lexer ] );
    ]
