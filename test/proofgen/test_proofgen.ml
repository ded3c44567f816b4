module Prop = Argus_logic.Prop
module Natded = Argus_logic.Natded
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Proofgen = Argus_proofgen.Proofgen
module Confidence = Argus_confidence.Confidence
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf s = (Fused.check (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))

let p = Prop.of_string_exn

let haley_proof =
  Natded.
    [
      { formula = p "i -> v"; rule = Premise };
      { formula = p "c -> h"; rule = Premise };
      { formula = p "y -> v & c"; rule = Premise };
      { formula = p "d -> y"; rule = Premise };
      { formula = p "d"; rule = Premise };
      { formula = p "y"; rule = Imp_elim (4, 5) };
      { formula = p "v & c"; rule = Imp_elim (3, 6) };
      { formula = p "v"; rule = And_elim_left 7 };
      { formula = p "c"; rule = And_elim_right 7 };
      { formula = p "h"; rule = Imp_elim (2, 9) };
      { formula = p "d -> h"; rule = Imp_intro (5, 10) };
    ]

let checked = Result.get_ok (Natded.check haley_proof)
let generated = Proofgen.generate checked

(* --- Generation --- *)

let test_generated_is_well_formed () =
  let ds = fused_wf generated in
  Alcotest.(check (list string)) "clean" []
    (List.map (fun d -> d.Diagnostic.code) ds)

let test_generated_root_is_conclusion () =
  match Structure.roots generated with
  | [ root ] ->
      let n = Structure.find_exn root generated in
      Alcotest.(check string) "text" "d -> h holds" n.Node.text;
      Alcotest.(check bool) "formal attached" true
        (n.Node.formal = Some (p "d -> h"))
  | roots ->
      Alcotest.failf "expected one root, got %d" (List.length roots)

let test_unused_premise_excluded () =
  (* Step 1 (i -> v) is never cited; no goal should be generated for it. *)
  Alcotest.(check bool) "step-1 goal absent" false
    (Structure.mem (Id.of_string "p_G1") generated)

let test_premises_get_solutions () =
  (* Steps 2-5 are premises in the cone: each has a solution citing
     expert-judgement evidence. *)
  List.iter
    (fun k ->
      let sid = Id.of_string (Printf.sprintf "p_Sn%d" k) in
      match Structure.find sid generated with
      | Some { Node.node_type = Node.Solution; Node.evidence = Some ev; _ } ->
          (match Structure.find_evidence ev generated with
          | Some e ->
              Alcotest.(check bool) "expert judgement" true
                (e.Evidence.kind = Evidence.Expert_judgement)
          | None -> Alcotest.fail "evidence missing")
      | _ -> Alcotest.failf "solution for premise %d missing" k)
    [ 2; 3; 4; 5 ]

let test_goal_texts_are_propositions () =
  (* The paper criticises generated goals that are not propositions;
     ours all are (by the checker's heuristic). *)
  List.iter
    (fun n ->
      if n.Node.node_type = Node.Goal then
        Alcotest.(check bool)
          (Printf.sprintf "%s propositional" (Id.to_string n.Node.id))
          true
          (Caseir.derive n).Caseir.d_propositional)
    (Structure.nodes generated)

(* --- Abstraction --- *)

let test_abstract_shrinks () =
  let abstracted = Proofgen.abstract generated in
  Alcotest.(check bool) "smaller" true
    (Proofgen.node_count abstracted < Proofgen.node_count generated);
  Alcotest.(check (list string)) "still well-formed" []
    (List.map (fun d -> d.Diagnostic.code) (fused_wf abstracted));
  (* Root preserved. *)
  Alcotest.(check bool) "same root" true
    (Structure.roots abstracted = Structure.roots generated)

let test_abstract_idempotent () =
  let once = Proofgen.abstract generated in
  let twice = Proofgen.abstract once in
  Alcotest.(check bool) "idempotent" true (Structure.equal once twice)

(* Random proofs: generation always yields well-formed GSN; abstraction
   preserves well-formedness, the root, and never grows. *)
let gen_proof =
  let open QCheck.Gen in
  let* n_prem = int_range 2 4 in
  let premises =
    List.init n_prem (fun i ->
        Natded.{ formula = Prop.Var (Printf.sprintf "q%d" i); rule = Premise })
  in
  let* n_steps = int_range 2 8 in
  let rec extend proof k =
    if k = 0 then return (List.rev proof)
    else
      let len = List.length proof in
      let nth_formula i = (List.nth (List.rev proof) (i - 1)).Natded.formula in
      let* i = int_range 1 len in
      let* j = int_range 1 len in
      let* choice = int_bound 1 in
      let step =
        match choice with
        | 0 ->
            Natded.
              {
                formula = Prop.And (nth_formula i, nth_formula j);
                rule = And_intro (i, j);
              }
        | _ ->
            Natded.
              {
                formula = Prop.Or (nth_formula i, Prop.Var "extra");
                rule = Or_intro_left i;
              }
      in
      extend (step :: proof) (k - 1)
  in
  extend (List.rev premises) n_steps

let generated_always_well_formed =
  QCheck.Test.make ~name:"generation yields well-formed GSN" ~count:100
    (QCheck.make gen_proof) (fun proof ->
      match Natded.check proof with
      | Error _ -> false
      | Ok c ->
          let s = Proofgen.generate c in
          let a = Proofgen.abstract s in
          well_formed s
          && well_formed a
          && Proofgen.node_count a <= Proofgen.node_count s
          && Structure.roots a = Structure.roots s)

(* --- Confidence --- *)

let uniform_trust t (_ : Evidence.t) = t

let test_confidence_on_generated () =
  let c = Confidence.root_confidence ~trust:(uniform_trust 1.0) generated in
  Alcotest.(check (float 1e-9)) "full trust gives 1" 1.0 c;
  let c0 = Confidence.root_confidence ~trust:(uniform_trust 0.0) generated in
  Alcotest.(check (float 1e-9)) "no trust gives 0" 0.0 c0;
  let ch = Confidence.root_confidence ~trust:(uniform_trust 0.9) generated in
  Alcotest.(check bool) "partial trust strictly between" true
    (ch > 0.0 && ch < 1.0)

let sample_structure =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "G2");
        (Structure.Supported_by, "S1", "G3");
        (Structure.Supported_by, "G2", "Sn1");
        (Structure.Supported_by, "G3", "Sn2");
      ]
    ~evidence:
      [
        Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Test_results "tests";
        Evidence.make ~id:(Id.of_string "E2") ~kind:Evidence.Analysis "analysis";
      ]
    [
      Node.goal "G1" "system is safe";
      Node.strategy "S1" "argue over hazards";
      Node.goal "G2" "hazard 1 is managed";
      Node.goal "G3" "hazard 2 is managed";
      Node.solution ~evidence:"E1" "Sn1" "test results";
      Node.solution ~evidence:"E2" "Sn2" "analysis results";
    ]

let test_noisy_and_behaviour () =
  let trust ev =
    if Id.to_string ev.Evidence.id = "E1" then 0.8 else 0.5
  in
  let c = Confidence.root_confidence ~trust sample_structure in
  (* Root <- strategy(noisy-AND of 0.8 and 0.5) = 0.4. *)
  Alcotest.(check (float 1e-9)) "product" 0.4 c

let test_tracing () =
  let impacted =
    Confidence.impact_by_tracing sample_structure (Id.of_string "E1")
  in
  Alcotest.(check (list string))
    "path to root" [ "G2"; "S1"; "G1" ]
    (List.map Id.to_string impacted);
  Alcotest.(check (list string)) "unknown evidence" []
    (List.map Id.to_string
       (Confidence.impact_by_tracing sample_structure (Id.of_string "Ex")))

let test_sensitivity () =
  let trust = uniform_trust 0.8 in
  let s1 = Confidence.sensitivity ~trust sample_structure (Id.of_string "E1") in
  (* Baseline 0.64; dropping either evidence zeroes the strategy. *)
  Alcotest.(check (float 1e-9)) "drop to zero" 0.64 s1

let test_probing () =
  (* Rushby's what-if on the Haley proof: premise d->y is load-bearing,
     and so are the others in the cone. *)
  Alcotest.(check bool) "d->y load-bearing" false
    (Confidence.probe_premise checked (p "d -> y"));
  let lb = Confidence.load_bearing_premises checked in
  Alcotest.(check int) "all three load-bearing" 3 (List.length lb)

let test_probe_counterexample () =
  (* Retracting d->y breaks d->h; the countermodel must satisfy the
     remaining premises and refute the conclusion. *)
  (match Confidence.probe_counterexample checked (p "d -> y") with
  | None -> Alcotest.fail "expected a countermodel"
  | Some model ->
      let v x = match List.assoc_opt x model with Some b -> b | None -> true in
      Alcotest.(check bool) "remaining premises hold" true
        (List.for_all (Prop.eval v)
           (List.filter
              (fun q -> not (Prop.equal q (p "d -> y")))
              checked.Natded.premises));
      Alcotest.(check bool) "conclusion refuted" false
        (Prop.eval v checked.Natded.conclusion));
  (* A premise whose retraction is harmless yields no countermodel. *)
  let proof =
    Natded.
      [
        { formula = p "a"; rule = Premise };
        { formula = p "b"; rule = Premise };
        { formula = p "a & b"; rule = And_intro (1, 2) };
        { formula = p "a | b"; rule = Or_intro_left 1 };
      ]
  in
  let c = Result.get_ok (Natded.check proof) in
  Alcotest.(check bool) "no countermodel for redundant premise" true
    (Confidence.probe_counterexample c (p "b") = None)

let test_probing_redundant_premise () =
  let proof =
    Natded.
      [
        { formula = p "a"; rule = Premise };
        { formula = p "a -> b"; rule = Premise };
        { formula = p "b -> a"; rule = Premise };
        { formula = p "b"; rule = Imp_elim (2, 1) };
        { formula = p "a"; rule = Imp_elim (3, 4) };
      ]
  in
  let c = Result.get_ok (Natded.check proof) in
  (* Conclusion a; premise a alone suffices, so the implications are not
     load-bearing... removing premise a still lets nothing conclude a?
     With premises {a->b, b->a} alone, a does not follow; with {a, b->a}
     (removing a->b), a still follows.  So exactly premise a is
     load-bearing. *)
  let lb = Confidence.load_bearing_premises c in
  Alcotest.(check (list string))
    "only a" [ "a" ]
    (List.map Prop.to_string lb)

let () =
  Alcotest.run "argus-proofgen"
    [
      ( "generation",
        [
          Alcotest.test_case "well-formed" `Quick test_generated_is_well_formed;
          Alcotest.test_case "root is conclusion" `Quick
            test_generated_root_is_conclusion;
          Alcotest.test_case "unused premise excluded" `Quick
            test_unused_premise_excluded;
          Alcotest.test_case "premises get solutions" `Quick
            test_premises_get_solutions;
          Alcotest.test_case "goal texts are propositions" `Quick
            test_goal_texts_are_propositions;
          QCheck_alcotest.to_alcotest generated_always_well_formed;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "shrinks" `Quick test_abstract_shrinks;
          Alcotest.test_case "idempotent" `Quick test_abstract_idempotent;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "generated argument" `Quick
            test_confidence_on_generated;
          Alcotest.test_case "noisy-and" `Quick test_noisy_and_behaviour;
          Alcotest.test_case "tracing" `Quick test_tracing;
          Alcotest.test_case "sensitivity" `Quick test_sensitivity;
          Alcotest.test_case "probing" `Quick test_probing;
          Alcotest.test_case "probe counterexample" `Quick
            test_probe_counterexample;
          Alcotest.test_case "redundant premise" `Quick
            test_probing_redundant_premise;
        ] );
    ]
