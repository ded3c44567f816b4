(* Quickstart: write a small safety case in the DSL, check it, query it,
   render it, and see what the checkers say when it is broken.

   Run with: dune exec examples/quickstart.exe *)

module Dsl = Argus_dsl.Dsl
module Structure = Argus_gsn.Structure
module Query = Argus_gsn.Query
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Diagnostic = Argus_core.Diagnostic

let case_text =
  {|
case "Industrial press safety" {
  enum severity { catastrophic hazardous major minor }
  attr hazard (string, severity)

  evidence E1 analysis "Interlock timing analysis" source "report IA-7"
  evidence E2 test-results "Two-hand control test campaign"
  evidence E3 field-data "Five years of incident-free operation at pilot site"

  goal G1 "The press is acceptably safe for operator use" {
    in-context-of C1
    supported-by S1
  }
  strategy S1 "Argument over each identified hazard" {
    in-context-of J1
    supported-by G2, G3
  }
  goal G2 "Hazard: crush injury during die change is acceptably managed" {
    meta "hazard \"crush\" catastrophic"
    supported-by Sn1, Sn2
  }
  goal G3 "Hazard: unexpected restart is acceptably managed" {
    meta "hazard \"restart\" hazardous"
    supported-by Sn3
  }
  solution Sn1 "Interlock analysis results" { evidence E1 }
  solution Sn2 "Two-hand control test results" { evidence E2 }
  solution Sn3 "Operational history" { evidence E3 }
  context C1 "Single-operator workshops, EU machinery directive"
  justification J1 "Hazard list from the type-C standard plus HAZOP"
}
|}

let () =
  (* 1. Parse. *)
  let case = Dsl.parse_exn ~filename:"press.arg" case_text in
  Format.printf "Parsed %S: %d nodes, %d evidence items@.@." case.Dsl.title
    (Structure.size case.Dsl.structure)
    (List.length (Structure.evidence case.Dsl.structure));

  (* 2. Check well-formedness, metadata and informal-fallacy lints. *)
  let report label ds =
    Format.printf "%s:@." label;
    if ds = [] then Format.printf "  (clean)@."
    else List.iter (fun d -> Format.printf "  %a@." Diagnostic.pp d) ds
  in
  let ir = Caseir.intern case.Dsl.structure in
  report "GSN well-formedness" (Fused.check ir).Fused.wf;
  report "Metadata vs ontology" (Dsl.validate_metadata case);
  report "Informal-fallacy lints" (Fused.lint ir);

  (* 3. Query: which catastrophic hazards are argued, and the
     traceability view to them. *)
  let q = Result.get_ok (Query.of_string "has hazard") in
  Format.printf "@.Hazard goals:@.";
  List.iter
    (fun n -> Format.printf "  %a@." Argus_gsn.Node.pp n)
    (Query.select q case.Dsl.structure);

  (* 4. Render the argument as an outline and as Graphviz. *)
  Format.printf "@.Outline:@.%a" Structure.pp_outline case.Dsl.structure;
  Format.printf "@.Graphviz header: %s...@."
    (String.sub (Structure.to_dot case.Dsl.structure) 0 24);

  (* 5. Break it and watch the checker object: support the top goal with
     a context element (a GSN type error). *)
  let broken =
    Structure.connect Structure.Supported_by
      ~src:(Argus_core.Id.of_string "G1")
      ~dst:(Argus_core.Id.of_string "C1")
      case.Dsl.structure
  in
  Format.printf "@.";
  report "After breaking it" (Fused.check (Caseir.intern broken)).Fused.wf
