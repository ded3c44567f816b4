open Argus_fallacy
module Prop = Argus_logic.Prop
module Syllogism = Argus_logic.Syllogism
module Exec = Argus_prolog.Exec
module Term = Argus_logic.Term
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Legacy_text = Argus_oracle.Legacy_text

(* The shipped checkers: the fused pass over the interned case. *)
let lint s = Fused.lint (Caseir.intern s)

let p = Prop.of_string_exn

(* --- Formal fallacies 1-5 (propositional) --- *)

let test_begging_the_question () =
  let arg = { Formal.premises = [ p "c"; p "a" ]; conclusion = p "c" } in
  Alcotest.(check bool) "flagged" true
    (List.mem Formal.Begging_the_question (Formal.check_propositional arg));
  (* Equivalent-but-not-equal premise also counts. *)
  let arg2 = { Formal.premises = [ p "~~c" ]; conclusion = p "c" } in
  Alcotest.(check bool) "up to equivalence" true
    (List.mem Formal.Begging_the_question (Formal.check_propositional arg2))

let test_incompatible_premises () =
  let arg =
    { Formal.premises = [ p "a"; p "~a" ]; conclusion = p "q" }
  in
  Alcotest.(check bool) "flagged" true
    (List.mem Formal.Incompatible_premises (Formal.check_propositional arg))

let test_premise_conclusion_contradiction () =
  let arg = { Formal.premises = [ p "a" ]; conclusion = p "~a" } in
  Alcotest.(check bool) "flagged" true
    (List.mem Formal.Premise_conclusion_contradiction
       (Formal.check_propositional arg))

let test_denying_antecedent () =
  let arg =
    { Formal.premises = [ p "a -> b"; p "~a" ]; conclusion = p "~b" }
  in
  Alcotest.(check bool) "flagged" true
    (List.mem Formal.Denying_the_antecedent (Formal.check_propositional arg))

let test_affirming_consequent () =
  let arg = { Formal.premises = [ p "a -> b"; p "b" ]; conclusion = p "a" } in
  Alcotest.(check bool) "flagged" true
    (List.mem Formal.Affirming_the_consequent (Formal.check_propositional arg))

let test_valid_conditional_not_flagged () =
  (* With the converse also present the inference is valid, so no
     conditional-shape fallacy should be reported. *)
  let arg =
    {
      Formal.premises = [ p "a -> b"; p "b -> a"; p "b" ];
      conclusion = p "a";
    }
  in
  Alcotest.(check (list string)) "clean" []
    (List.map Formal.finding_to_string (Formal.check_propositional arg))

let test_modus_ponens_clean () =
  let arg = { Formal.premises = [ p "a -> b"; p "a" ]; conclusion = p "b" } in
  Alcotest.(check (list string)) "clean" []
    (List.map Formal.finding_to_string (Formal.check_propositional arg));
  Alcotest.(check bool) "valid" true (Formal.is_valid_propositional arg)

(* --- Formal fallacies 6-8 (categorical) --- *)

let test_false_conversion () =
  let from = Syllogism.prop Syllogism.A "banks" "riverside_things" in
  let conv = { Formal.from; to_ = Syllogism.converse from } in
  Alcotest.(check bool) "A-conversion flagged" true
    (List.mem Formal.False_conversion (Formal.check_conversion conv));
  let from_e = Syllogism.prop Syllogism.E "fish" "mammals" in
  let conv_e = { Formal.from = from_e; to_ = Syllogism.converse from_e } in
  Alcotest.(check (list string)) "E-conversion clean" []
    (List.map Formal.finding_to_string (Formal.check_conversion conv_e))

let test_syllogistic_findings () =
  let undistributed =
    Syllogism.
      {
        major = prop A "dogs" "animals";
        minor = prop A "cats" "animals";
        conclusion = prop A "cats" "dogs";
      }
  in
  Alcotest.(check bool) "undistributed middle" true
    (List.mem Formal.Undistributed_middle (Formal.check_syllogism undistributed));
  let illicit =
    Syllogism.
      {
        major = prop A "m" "p";
        minor = prop E "s" "m";
        conclusion = prop E "s" "p";
      }
  in
  Alcotest.(check bool) "illicit distribution" true
    (List.mem Formal.Illicit_distribution (Formal.check_syllogism illicit));
  let barbara =
    Syllogism.
      {
        major = prop A "men" "mortal";
        minor = prop A "socrates" "men";
        conclusion = prop A "socrates" "mortal";
      }
  in
  Alcotest.(check (list string)) "Barbara clean" []
    (List.map Formal.finding_to_string (Formal.check_syllogism barbara))

(* --- Greenwell corpus: the Section V.B reproduction --- *)

let test_corpus_counts_match_paper () =
  List.iter
    (fun (kind, reported) ->
      let computed = List.assoc kind Greenwell.corpus_counts in
      if computed <> reported then
        Alcotest.failf "%s: corpus has %d, paper reports %d"
          (Greenwell.kind_to_string kind)
          computed reported)
    Greenwell.reported_counts;
  Alcotest.(check int) "45 total" 45 (List.length Greenwell.corpus)

let test_no_kind_is_strictly_formal () =
  List.iter
    (fun k ->
      if Greenwell.is_strictly_formal k then
        Alcotest.failf "%s claimed formal" (Greenwell.kind_to_string k))
    Greenwell.all_kinds

let test_formal_checker_blind_to_corpus () =
  (* The paper's claim, executably: every Greenwell-style instance
     passes formal validation. *)
  List.iter
    (fun (i : Greenwell.instance) ->
      (match Formal.check_propositional i.Greenwell.argument with
      | [] -> ()
      | fs ->
          Alcotest.failf "formal checker flagged %s (%s): %s"
            i.Greenwell.system
            (Greenwell.kind_to_string i.Greenwell.kind)
            (String.concat ", " (List.map Formal.finding_to_string fs)));
      if not (Formal.is_valid_propositional i.Greenwell.argument) then
        Alcotest.failf "corpus argument for %s is not deductively valid"
          i.Greenwell.system)
    Greenwell.corpus

let test_machine_help_nonempty () =
  List.iter
    (fun k ->
      if String.length (Greenwell.machine_help k) < 20 then
        Alcotest.failf "missing analysis for %s" (Greenwell.kind_to_string k))
    Greenwell.all_kinds

(* --- Figure 1: equivocation --- *)

let test_desert_bank_proves_but_lint_flags () =
  let goal = Result.get_ok (Term.of_string "adjacent(desert_bank, river)") in
  Alcotest.(check bool) "formally derivable" true
    (Exec.provable_term Informal.desert_bank goal);
  Alcotest.(check (list string))
    "equivocation candidate is exactly 'bank'" [ "bank" ]
    (Informal.equivocation_candidates Informal.desert_bank)

let test_equivocation_requires_two_roles () =
  let clean =
    Argus_prolog.Program.of_string_exn
      "parent(tom, bob). parent(bob, ann). male(tom)."
  in
  (* tom occurs in parent/2 arg 0 and male/1 arg 0: two roles -> it IS a
     candidate under the heuristic; use genuinely single-role constants. *)
  let single =
    Argus_prolog.Program.of_string_exn "edge(a, b). edge(b, c)."
  in
  Alcotest.(check (list string)) "b bridges two positions" [ "b" ]
    (Informal.equivocation_candidates single);
  Alcotest.(check bool) "tom flagged (two predicates)" true
    (List.mem "tom" (Informal.equivocation_candidates clean))

(* --- Structure lints --- *)

let test_circular_support () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "G2");
          (Structure.Supported_by, "G2", "G3");
        ]
      [
        Node.goal "G1" "The pump is acceptably safe";
        Node.goal "G2" "Dosing errors are prevented";
        { (Node.goal "G3" "The pump is acceptably safe") with
          Node.status = Node.Undeveloped };
      ]
  in
  let cs = List.map (fun d -> d.Diagnostic.code) (lint s) in
  Alcotest.(check bool) "flagged" true
    (List.mem "informal/circular-support" cs)

let test_argument_from_ignorance () =
  let s =
    Structure.of_nodes
      [
        {
          (Node.goal "G1"
             "There is no evidence that the failure mode can occur")
          with
          Node.status = Node.Undeveloped;
        };
      ]
  in
  let cs = List.map (fun d -> d.Diagnostic.code) (lint s) in
  Alcotest.(check bool) "flagged" true
    (List.mem "informal/argument-from-ignorance" cs)

let test_equivocation_candidate_in_structure () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "G2");
          (Structure.Supported_by, "G1", "G3");
        ]
      [
        Node.goal "G1" "The site is acceptably safe";
        {
          (Node.goal "G2" "The bank holds customer deposits securely overnight")
          with
          Node.status = Node.Undeveloped;
        };
        {
          (Node.goal "G3" "The bank slopes gently toward the river shoreline")
          with
          Node.status = Node.Undeveloped;
        };
      ]
  in
  let cs = List.map (fun d -> d.Diagnostic.code) (lint s) in
  Alcotest.(check bool) "flagged" true
    (List.mem "informal/equivocation-candidate" cs)

let test_clean_structure_no_lints () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "G2") ]
      [
        Node.goal "G1" "The controller is acceptably safe";
        {
          (Node.goal "G2" "Hazard H1 is mitigated by interlock I3")
          with
          Node.status = Node.Undeveloped;
        };
      ]
  in
  Alcotest.(check (list string)) "clean" []
    (List.map (fun d -> d.Diagnostic.code) (lint s))

(* --- Properties --- *)

(* Valid modus-ponens-style chains are never flagged by the formal
   detector. *)
let valid_chains_clean =
  QCheck.Test.make ~name:"valid implication chains are clean" ~count:100
    QCheck.(int_range 1 6)
    (fun n ->
      let atom i = Prop.Var (Printf.sprintf "x%d" i) in
      let rules =
        List.init n (fun i -> Prop.Implies (atom i, atom (i + 1)))
      in
      let arg =
        { Formal.premises = atom 0 :: rules; conclusion = atom n }
      in
      Formal.check_propositional arg = []
      && Formal.is_valid_propositional arg)

(* Syllogistic detector agrees with validity: a valid syllogism never
   yields distribution findings. *)
let valid_syllogisms_clean =
  QCheck.Test.make ~name:"valid syllogisms yield no findings" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun s ->
          if Syllogism.is_valid s then Formal.check_syllogism s = []
          else true)
        (Syllogism.all_moods_figures ()))

(* --- Truth-table masks vs. DPLL --- *)

module Propmask = Argus_logic.Propmask
module Sat = Argus_logic.Sat
module Budget = Argus_rt.Budget

(* Random formulas over at most Propmask.max_vars variables, so the
   mask environment always builds. *)
let gen_prop =
  let open QCheck.Gen in
  let var = map (fun i -> Prop.Var (Printf.sprintf "v%d" i)) (int_range 0 4) in
  let leaf = oneof [ var; return Prop.Top; return Prop.Bot ] in
  sized_size (int_range 0 12)
    (fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map Prop.neg (self (n - 1));
               map2 (fun a b -> Prop.And (a, b)) sub sub;
               map2 (fun a b -> Prop.Or (a, b)) sub sub;
               map2 (fun a b -> Prop.Implies (a, b)) sub sub;
               map2 (fun a b -> Prop.Iff (a, b)) sub sub;
             ]))

(* A truth table IS the propositional semantics, so every mask decision
   procedure must agree with the SAT solver wherever both apply. *)
let propmask_agrees_with_sat =
  QCheck.Test.make ~name:"truth-table masks agree with DPLL" ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Prop.to_string a ^ "  /  " ^ Prop.to_string b)
       QCheck.Gen.(pair gen_prop gen_prop))
    (fun (a, b) ->
      match Propmask.env [ a; b ] with
      | None -> false (* ≤ 5 variables by construction *)
      | Some env ->
          Bool.equal (Propmask.satisfiable env a) (Sat.satisfiable a)
          && Bool.equal (Propmask.valid env a) (Sat.valid a)
          && Bool.equal (Propmask.equivalent env a b) (Sat.equivalent a b)
          && Bool.equal
               (Propmask.entails env [ a ] b)
               (Sat.entails [ a ] b))

(* The formal-fallacy detector answers identically whether its SAT
   queries run on the mask fast path (unbudgeted) or the DPLL path (any
   limited budget forces it; a generous fuel never exhausts, so the
   findings must coincide exactly). *)
let formal_findings_path_independent =
  QCheck.Test.make ~name:"formal findings agree between mask and DPLL paths"
    ~count:200
    (QCheck.make
       ~print:(fun (ps, c) ->
         String.concat ", " (List.map Prop.to_string ps)
         ^ " |- " ^ Prop.to_string c)
       QCheck.Gen.(pair (list_size (int_range 1 3) gen_prop) gen_prop))
    (fun (premises, conclusion) ->
      let arg = { Formal.premises; conclusion } in
      let unbudgeted = Formal.check_propositional arg in
      let b = Budget.make ~fuel:(max_int - 1) () in
      let budgeted = Formal.check_propositional ~budget:b arg in
      unbudgeted = budgeted
      && Bool.equal
           (Formal.is_valid_propositional arg)
           (Formal.is_valid_propositional
              ~budget:(Budget.make ~fuel:(max_int - 1) ())
              arg))

(* The whole Greenwell corpus, both paths: the corpus sweep is the
   greenwell-corpus-check bench kernel's workload, so the mask fast
   path must answer it exactly as the DPLL path does. *)
let test_corpus_path_independent () =
  List.iter
    (fun (i : Greenwell.instance) ->
      let unbudgeted = Formal.check_propositional i.Greenwell.argument in
      let budgeted =
        Formal.check_propositional
          ~budget:(Budget.make ~fuel:(max_int - 1) ())
          i.Greenwell.argument
      in
      if unbudgeted <> budgeted then
        Alcotest.failf "%s: mask and DPLL paths disagree" i.Greenwell.system)
    Greenwell.corpus

(* --- Text derivations against their first definitions --- *)

module Textutil = Argus_core.Textutil

(* Node-text-like strings: stop words, verb and universal markers,
   ignorance phrases, the digraphs and UTF-8 logic symbols, [&],
   applied terms and half-symbols, in random case; or raw bytes. *)
let text_fragments =
  [
    "All"; "always"; "never"; "every"; "any"; "the"; "is"; "Has"; "meets";
    "bank"; "Banks"; "class"; "hazards"; "safe"; "doe"; "ha"; "it";
    "no evidence that"; "has never been observed"; "not been shown";
    "absence of any report"; "no counterexample"; "no evidence";
    "=>"; "->"; "|-"; "<->"; ":-"; "/\\"; "\\/"; "&"; "-"; ">"; "|";
    "\xc2\xac"; "\xe2\x88\xa7"; "\xe2\x88\xa8"; "\xe2\x86\x92";
    "\xe2\x87\x92"; "\xe2\x88\x80"; "\xe2\x88\x83"; "\xe2\x88";
    "\xe2";
    "wcet(task_1, 250)"; "f(x)"; "(x)"; "_("; " ("; "";
  ]

let gen_text =
  let open QCheck.Gen in
  let fragment_text =
    let* parts = list_size (int_bound 12) (oneofl text_fragments) in
    let* seps =
      list_size
        (return (List.length parts))
        (oneofl [ " "; ""; ". "; ", "; "\n" ])
    in
    let text = String.concat "" (List.map2 ( ^ ) parts seps) in
    let* flips = list_size (return (String.length text)) (int_bound 3) in
    let flips = Array.of_list flips in
    return
      (String.mapi
         (fun i c -> if flips.(i) = 0 then Char.uppercase_ascii c else c)
         text)
  in
  oneof [ fragment_text; fragment_text; string_size (int_bound 24) ]

let arb_text = QCheck.make ~print:(Printf.sprintf "%S") gen_text

let text_agrees name f oracle =
  QCheck.Test.make ~name ~count:1000 arb_text (fun t -> f t = oracle t)

let text_derivation_properties =
  [
    text_agrees "words" Textutil.words Legacy_text.words;
    text_agrees "content_words" Textutil.content_words
      Legacy_text.content_words;
    text_agrees "contains_symbolic_notation"
      Textutil.contains_symbolic_notation
      Legacy_text.contains_symbolic_notation;
    text_agrees "looks_propositional"
      (fun t ->
        Textutil.contains_symbolic_notation t || (Textutil.scan t).Textutil.verb)
      Legacy_text.looks_propositional;
    text_agrees "claims_universally"
      (fun t -> (Textutil.scan t).Textutil.universal)
      Legacy_text.claims_universally;
    text_agrees "argues_from_ignorance"
      (fun t -> (Textutil.scan t).Textutil.ignorance)
      Legacy_text.argues_from_ignorance;
  ]

(* [Caseir.derive] runs one scan for every text column; each field must
   be what the oracle's separate derivations compose to, for every node
   type.  The content row is the oracle's word list, duplicates kept,
   sorted by hash and then by string, with the hashes beside it. *)
let derive_agrees =
  let types =
    [
      Node.Goal; Node.Strategy; Node.Solution; Node.Context;
      Node.Away_goal (Argus_core.Id.of_string "M1");
    ]
  in
  QCheck.Test.make ~name:"Caseir.derive" ~count:1000
    (QCheck.pair (QCheck.oneofl types) arb_text)
    (fun (node_type, text) ->
      let d =
        Caseir.derive
          (Node.make ~id:(Argus_core.Id.of_string "N") ~node_type text)
      in
      let gl = Node.is_goal_like node_type in
      let words = Legacy_text.content_words text in
      let norm = String.concat " " words in
      let row =
        List.sort
          (fun w w' ->
            compare (Hashtbl.hash w, w) (Hashtbl.hash w', w'))
          words
      in
      let fields =
        [
          ("goal_like", d.Caseir.d_goal_like = gl);
          ("norm", d.Caseir.d_norm = norm);
          ( "claim",
            d.Caseir.d_claim
            = if gl && norm <> "" then 1 + Hashtbl.hash norm else 0 );
          ("content", Array.to_list d.Caseir.d_content = row);
          ( "content_hash",
            Array.to_list d.Caseir.d_content_hash
            = List.map Hashtbl.hash row );
          ( "ignorance",
            d.Caseir.d_ignorance = Legacy_text.argues_from_ignorance text );
          ( "universal",
            d.Caseir.d_universal = (gl && Legacy_text.claims_universally text)
          );
          ( "propositional",
            d.Caseir.d_propositional
            = (node_type <> Node.Goal || Legacy_text.looks_propositional text)
          );
        ]
      in
      match List.find_opt (fun (_, ok) -> not ok) fields with
      | None -> true
      | Some (field, _) -> QCheck.Test.fail_reportf "field %s differs" field)

(* Needles: empty, a slice of the text, a fragment, or longer than the
   text. *)
let gen_hay_needle =
  let open QCheck.Gen in
  let* hay = gen_text in
  let n = String.length hay in
  let* needle =
    oneof
      [
        return "";
        (let* i = int_bound n in
         let* len = int_bound (n - i) in
         return (String.sub hay i len));
        oneofl text_fragments;
        return (hay ^ "x");
        string_size (int_bound 3);
      ]
  in
  return (hay, needle)

let substring_scan_agrees =
  QCheck.Test.make ~name:"contains_substring" ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair string string) gen_hay_needle)
    (fun (hay, needle) ->
      Textutil.contains_substring hay needle
      = Legacy_text.contains_substring hay needle)

let () =
  Alcotest.run "argus-fallacy"
    [
      ( "formal-propositional",
        [
          Alcotest.test_case "begging the question" `Quick
            test_begging_the_question;
          Alcotest.test_case "incompatible premises" `Quick
            test_incompatible_premises;
          Alcotest.test_case "premise/conclusion contradiction" `Quick
            test_premise_conclusion_contradiction;
          Alcotest.test_case "denying the antecedent" `Quick
            test_denying_antecedent;
          Alcotest.test_case "affirming the consequent" `Quick
            test_affirming_consequent;
          Alcotest.test_case "valid conditional not flagged" `Quick
            test_valid_conditional_not_flagged;
          Alcotest.test_case "modus ponens clean" `Quick test_modus_ponens_clean;
          QCheck_alcotest.to_alcotest valid_chains_clean;
        ] );
      ( "formal-categorical",
        [
          Alcotest.test_case "false conversion" `Quick test_false_conversion;
          Alcotest.test_case "syllogistic findings" `Quick
            test_syllogistic_findings;
          QCheck_alcotest.to_alcotest valid_syllogisms_clean;
        ] );
      ( "greenwell",
        [
          Alcotest.test_case "counts match the paper" `Quick
            test_corpus_counts_match_paper;
          Alcotest.test_case "no kind is strictly formal" `Quick
            test_no_kind_is_strictly_formal;
          Alcotest.test_case "formal checker is blind to all 45" `Quick
            test_formal_checker_blind_to_corpus;
          Alcotest.test_case "analysis text present" `Quick
            test_machine_help_nonempty;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "derivable yet equivocal" `Quick
            test_desert_bank_proves_but_lint_flags;
          Alcotest.test_case "role-based candidates" `Quick
            test_equivocation_requires_two_roles;
        ] );
      ( "structure-lints",
        [
          Alcotest.test_case "circular support" `Quick test_circular_support;
          Alcotest.test_case "argument from ignorance" `Quick
            test_argument_from_ignorance;
          Alcotest.test_case "equivocation candidate" `Quick
            test_equivocation_candidate_in_structure;
          Alcotest.test_case "clean structure" `Quick
            test_clean_structure_no_lints;
        ] );
      ( "propmask",
        [
          QCheck_alcotest.to_alcotest propmask_agrees_with_sat;
          QCheck_alcotest.to_alcotest formal_findings_path_independent;
          Alcotest.test_case "greenwell corpus path-independent" `Quick
            test_corpus_path_independent;
        ] );
      ( "text-derivations",
        List.map QCheck_alcotest.to_alcotest
          (substring_scan_agrees :: text_derivation_properties
          @ [ derive_agrees ]) );
    ]
