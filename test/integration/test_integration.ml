(* End-to-end integration: a realistic mid-sized case driven through the
   whole toolchain — parse, check, query, view, convert, score, probe —
   asserting the pieces compose. *)

open Argus_dsl.Dsl
module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Query = Argus_gsn.Query
module Hicase = Argus_gsn.Hicase
module Cae = Argus_cae.Cae
module Informal = Argus_fallacy.Informal
module Confidence = Argus_confidence.Confidence
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf s = (Fused.check (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))
let lint s = Fused.lint (Caseir.intern s)
let cae_check c = Fused.check_cae (Fused.intern_cae c)
let cae_well_formed c = not (Diagnostic.has_errors (cae_check c))

(* An insulin-pump safety case: three hazards, diverse evidence,
   metadata throughout, one formally-annotated goal. *)
let case_text =
  {|
case "Insulin pump safety" {
  enum severity { catastrophic hazardous major minor }
  enum likelihood { frequent probable remote improbable }
  attr hazard (string, severity, likelihood)
  attr sil (nat)

  evidence E_dose analysis "Dose computation worst-case analysis"
    source "report DC-3" strength statistical
  evidence E_hw test-results "Hardware fault-injection campaign"
    source "campaign FI-7"
  evidence E_ui review "Usability study with 30 nurses"
    source "study U-2"
  evidence E_fld field-data "Post-market surveillance, 4 years"
    source "PMS database"
  evidence E_alarm test-results "Alarm chain end-to-end tests"

  goal G_top "The pump is acceptably safe for home use" {
    formal "overdose_managed & hw_managed & use_error_managed"
    in-context-of C_ctx, A_user
    supported-by S_hazards
  }
  strategy S_hazards "Argument over each identified hazard" {
    in-context-of J_hazop
    supported-by G_overdose, G_hw, G_use
  }

  goal G_overdose "Hazard: insulin overdose is acceptably managed" {
    meta "hazard \"overdose\" catastrophic remote"
    meta "sil 4"
    supported-by G_dose_calc, G_field
  }
  goal G_dose_calc "Dose computation is bounded by the prescription" {
    supported-by Sn_dose
  }
  goal G_field "No overdose event has occurred in four years of field data" {
    supported-by Sn_fld
  }
  solution Sn_dose "Worst-case dose analysis" { evidence E_dose }
  solution Sn_fld "Surveillance data" { evidence E_fld }

  goal G_hw "Hazard: hardware fault causing free flow is acceptably managed" {
    meta "hazard \"free-flow\" catastrophic improbable"
    meta "sil 4"
    supported-by Sn_hw
  }
  solution Sn_hw "Fault injection results" { evidence E_hw }

  goal G_use "Hazard: use error leading to wrong dose is acceptably managed" {
    meta "hazard \"use-error\" hazardous probable"
    meta "sil 2"
    supported-by G_ui, G_alarm
  }
  goal G_ui "The interface prevents common programming slips" {
    supported-by Sn_ui
  }
  goal G_alarm "Unacknowledged faults are escalated as alarms" {
    supported-by Sn_alarm
  }
  solution Sn_ui "Usability study results" { evidence E_ui }
  solution Sn_alarm "Alarm chain test results" { evidence E_alarm }

  context C_ctx "Home use by adult patients, EU MDR class IIb"
  assumption A_user "Patients receive the standard training programme"
  justification J_hazop "Hazard list from HAZOP plus post-market data"
}
|}

let case = parse_exn ~filename:"pump.arg" case_text
let s = case.structure

let test_parses_and_checks () =
  Alcotest.(check int) "node count" 17 (Structure.size s);
  Alcotest.(check (list string)) "well-formed" []
    (List.map (fun d -> d.Diagnostic.code) (fused_wf s));
  Alcotest.(check (list string)) "metadata valid" []
    (List.map (fun d -> d.Diagnostic.code) (validate_metadata case));
  Alcotest.(check (list string)) "no informal lints" []
    (List.map (fun d -> d.Diagnostic.code) (lint s))

let test_queries () =
  let q = Result.get_ok (Query.of_string "sil >= 4") in
  Alcotest.(check int) "two sil-4 hazards" 2 (List.length (Query.select q s));
  let trace =
    Query.trace_view
      (Result.get_ok (Query.of_string "hazard = \"use-error\""))
      s
  in
  (* The trace view keeps the path to the root and drops the other
     hazard subtrees. *)
  Alcotest.(check bool) "keeps root" true (Structure.mem (Id.of_string "G_top") trace);
  Alcotest.(check bool) "drops other hazards" false
    (Structure.mem (Id.of_string "G_hw") trace);
  Alcotest.(check bool) "trace view well-formed" true
    (well_formed trace)

let test_views () =
  let hc = Hicase.collapse_to_depth 2 (Hicase.of_structure s) in
  let v = Hicase.visible hc in
  Alcotest.(check bool) "view smaller" true
    (Structure.size v < Structure.size s);
  Alcotest.(check bool) "view well-formed" true (well_formed v)

let test_cae_conversion () =
  let cae = Cae.of_gsn s in
  Alcotest.(check bool) "CAE well-formed" true (cae_well_formed cae);
  Alcotest.(check bool) "round-trip GSN well-formed" true
    (well_formed (Cae.to_gsn cae))

let test_confidence_and_sufficiency () =
  let trust (ev : Evidence.t) =
    match ev.Evidence.kind with
    | Evidence.Formal_proof -> 0.99
    | Evidence.Analysis -> 0.9
    | Evidence.Test_results -> 0.85
    | Evidence.Field_data -> 0.8
    | Evidence.Review -> 0.7
    | _ -> 0.6
  in
  let root = Confidence.root_confidence ~trust s in
  Alcotest.(check bool) "confidence strictly inside (0,1)" true
    (root > 0.0 && root < 1.0);
  (* The overdose hazard has diverse legs, so no single item there is
     fully load-bearing; the hardware hazard rests on one campaign. *)
  let sens id = Confidence.sensitivity ~trust s (Id.of_string id) in
  Alcotest.(check bool) "single-leg evidence dominates" true
    (sens "E_hw" > sens "E_dose");
  Alcotest.(check bool) "diverse legs damp sensitivity" true
    (sens "E_dose" < root);
  (* Tracing reaches the root from every evidence item. *)
  List.iter
    (fun eid ->
      let impacted = Confidence.impact_by_tracing s (Id.of_string eid) in
      if not (List.exists (Id.equal (Id.of_string "G_top")) impacted) then
        Alcotest.failf "%s does not trace to the root" eid)
    [ "E_dose"; "E_hw"; "E_ui"; "E_fld"; "E_alarm" ]

let test_print_parse_stability () =
  let printed = print case in
  let reparsed = parse_exn printed in
  Alcotest.(check bool) "structures equal" true
    (Structure.equal s reparsed.structure);
  Alcotest.(check string) "idempotent formatting" printed (print reparsed)

let () =
  Alcotest.run "argus-integration"
    [
      ( "insulin-pump",
        [
          Alcotest.test_case "parses and checks" `Quick test_parses_and_checks;
          Alcotest.test_case "queries" `Quick test_queries;
          Alcotest.test_case "views" `Quick test_views;
          Alcotest.test_case "cae conversion" `Quick test_cae_conversion;
          Alcotest.test_case "confidence and sufficiency" `Quick
            test_confidence_and_sufficiency;
          Alcotest.test_case "print/parse stability" `Quick
            test_print_parse_stability;
        ] );
    ]
