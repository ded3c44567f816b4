open Argus_kaos
module Id = Argus_core.Id
module Ltl = Argus_ltl.Ltl
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf s = (Fused.check (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))

let ltl = Ltl.of_string_exn

(* A sound UAV goal model: the refinement of the avoidance goal is
   logically valid (children jointly entail the parent). *)
let uav =
  Kaos.empty
  |> Kaos.add (Kaos.goal ~formal:(ltl "G (close -> F clear)") "G_avoid"
        "Obstacles are eventually cleared once close")
  |> Kaos.add ~parent:"G_avoid"
       (Kaos.goal ~formal:(ltl "G (close -> tracked)") "G_track"
          "Close obstacles are tracked")
  |> Kaos.add ~parent:"G_avoid"
       (Kaos.goal ~formal:(ltl "G (tracked -> F clear)") "G_resolve"
          "Tracked obstacles are eventually cleared")
  |> Kaos.add ~parent:"G_track"
       (Kaos.requirement ~agent:"daa_software" "R_sense"
          "Sensor fusion reports close obstacles")
  |> Kaos.add ~parent:"G_resolve"
       (Kaos.expectation ~agent:"pilot" "E_manoeuvre"
          "Pilot performs the avoidance manoeuvre")

(* A bogus refinement: the children do not entail the parent. *)
let bogus =
  Kaos.empty
  |> Kaos.add (Kaos.goal ~formal:(ltl "G p") "G_top" "p always holds")
  |> Kaos.add ~parent:"G_top"
       (Kaos.goal ~formal:(ltl "F p") "G_sub" "p eventually holds")
  |> Kaos.add ~parent:"G_sub"
       (Kaos.requirement ~agent:"sw" "R_p" "software raises p")

let test_structure_accessors () =
  Alcotest.(check int) "size" 5 (Kaos.size uav);
  Alcotest.(check int) "roots" 1 (List.length (Kaos.roots uav));
  Alcotest.(check int) "children of root" 2
    (List.length (Kaos.children (Id.of_string "G_avoid") uav))

let test_check_clean () =
  Alcotest.(check (list string)) "clean" []
    (List.map (fun d -> d.Diagnostic.code) (Kaos.check uav))

let test_check_unrefined () =
  let m = Kaos.empty |> Kaos.add (Kaos.goal "G" "bare goal") in
  Alcotest.(check bool) "flagged" true
    (List.mem "kaos/unrefined-goal"
       (List.map (fun d -> d.Diagnostic.code) (Kaos.check m)))

let test_check_refined_requirement () =
  let m =
    Kaos.empty
    |> Kaos.add (Kaos.requirement ~agent:"a" "R" "req")
    |> Kaos.add ~parent:"R" (Kaos.goal "G" "child")
  in
  let codes = List.map (fun d -> d.Diagnostic.code) (Kaos.check m) in
  Alcotest.(check bool) "flagged" true
    (List.mem "kaos/refined-requirement" codes)

let test_check_informal_under_formal () =
  let m =
    Kaos.empty
    |> Kaos.add (Kaos.goal ~formal:(ltl "G p") "G_top" "formal top")
    |> Kaos.add ~parent:"G_top" (Kaos.goal "G_sub" "informal subgoal")
    |> Kaos.add ~parent:"G_sub" (Kaos.requirement ~agent:"a" "R" "leaf")
  in
  Alcotest.(check bool) "warned" true
    (List.mem "kaos/informal-under-formal"
       (List.map (fun d -> d.Diagnostic.code) (Kaos.check m)))

let test_unknown_parent () =
  Alcotest.check_raises "unknown parent"
    (Invalid_argument "Kaos.add: unknown parent Ghost") (fun () ->
      ignore (Kaos.add ~parent:"Ghost" (Kaos.goal "G" "g") Kaos.empty))

let test_verify_sound_refinement () =
  match Kaos.verify_refinement uav (Id.of_string "G_avoid") with
  | Kaos.Verified_bounded n -> Alcotest.(check bool) "traces > 0" true (n > 0)
  | Kaos.Refuted trace ->
      Alcotest.failf "sound refinement refuted on a %d-state lasso"
        (Ltl.Trace.length trace)
  | Kaos.Not_applicable -> Alcotest.fail "should be applicable"

let test_verify_bogus_refinement () =
  match Kaos.verify_refinement bogus (Id.of_string "G_top") with
  | Kaos.Refuted trace ->
      (* The witness genuinely satisfies the child and violates the
         parent. *)
      Alcotest.(check bool) "child holds" true
        (Ltl.holds trace (ltl "F p"));
      Alcotest.(check bool) "parent fails" false
        (Ltl.holds trace (ltl "G p"))
  | Kaos.Verified_bounded _ -> Alcotest.fail "bogus refinement not refuted"
  | Kaos.Not_applicable -> Alcotest.fail "should be applicable"

let test_verify_not_applicable () =
  let m =
    Kaos.empty
    |> Kaos.add (Kaos.goal "G_top" "informal")
    |> Kaos.add ~parent:"G_top" (Kaos.requirement ~agent:"a" "R" "leaf")
  in
  Alcotest.(check bool) "not applicable" true
    (Kaos.verify_refinement m (Id.of_string "G_top") = Kaos.Not_applicable)

let test_verify_all () =
  let verdicts = Kaos.verify_all uav in
  (* Three refined nodes: G_avoid, G_track, G_resolve. *)
  Alcotest.(check int) "three refinements" 3 (List.length verdicts)

let test_to_gsn_well_formed () =
  let s = Kaos.to_gsn uav in
  (* No errors; warnings such as the non-propositional-text heuristic on
     user-supplied requirement descriptions are acceptable. *)
  Alcotest.(check bool) "well-formed" true (well_formed s);
  (* Structure reflects the goal model: root goal, strategies for
     refinements, solutions for assignments. *)
  Alcotest.(check (list string))
    "root preserved" [ "G_avoid" ]
    (List.map Id.to_string (Argus_gsn.Structure.roots s))

let test_verification_deterministic () =
  let v1 = Kaos.verify_all ~seed:3 uav in
  let v2 = Kaos.verify_all ~seed:3 uav in
  Alcotest.(check bool) "same verdicts" true (v1 = v2)

(* Property: refuted verdicts always carry genuine counterexamples. *)
let refutations_are_genuine =
  QCheck.Test.make ~name:"refutation witnesses are genuine" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      (* Parent G p, child F p: always refutable. *)
      let m =
        Kaos.empty
        |> Kaos.add (Kaos.goal ~formal:(ltl "G p") "G_top" "top")
        |> Kaos.add ~parent:"G_top" (Kaos.goal ~formal:(ltl "F p") "G_sub" "sub")
        |> Kaos.add ~parent:"G_sub" (Kaos.requirement ~agent:"a" "R" "leaf")
      in
      match Kaos.verify_refinement ~seed m (Id.of_string "G_top") with
      | Kaos.Refuted trace ->
          Ltl.holds trace (ltl "F p") && not (Ltl.holds trace (ltl "G p"))
      | Kaos.Verified_bounded _ | Kaos.Not_applicable -> false)

let () =
  Alcotest.run "argus-kaos"
    [
      ( "structure",
        [
          Alcotest.test_case "accessors" `Quick test_structure_accessors;
          Alcotest.test_case "clean check" `Quick test_check_clean;
          Alcotest.test_case "unrefined goal" `Quick test_check_unrefined;
          Alcotest.test_case "refined requirement" `Quick
            test_check_refined_requirement;
          Alcotest.test_case "informal under formal" `Quick
            test_check_informal_under_formal;
          Alcotest.test_case "unknown parent" `Quick test_unknown_parent;
        ] );
      ( "verification",
        [
          Alcotest.test_case "sound refinement" `Quick
            test_verify_sound_refinement;
          Alcotest.test_case "bogus refinement refuted" `Quick
            test_verify_bogus_refinement;
          Alcotest.test_case "not applicable" `Quick test_verify_not_applicable;
          Alcotest.test_case "verify all" `Quick test_verify_all;
          Alcotest.test_case "deterministic" `Quick
            test_verification_deterministic;
          QCheck_alcotest.to_alcotest refutations_are_genuine;
        ] );
      ( "derivation",
        [ Alcotest.test_case "to_gsn" `Quick test_to_gsn_well_formed ] );
    ]
