(* The Brunel-Cazin scenario: a UAV safety argument whose claims carry
   LTL formalisations that are mechanically checked against behaviour
   traces — the "Detect and Avoid function is correct" example from the
   paper, plus the confidence machinery over the same argument.

   Run with: dune exec examples/uav_safety.exe *)

module Ltl = Argus_ltl.Ltl
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Confidence = Argus_confidence.Confidence
module Evidence = Argus_core.Evidence
module Id = Argus_core.Id

(* The formalised claims of the KAOS-ish goal structure. *)
let daa_correct =
  Ltl.of_string_exn
    "G (obstacle_close -> (obstacle_tracked U obstacle_cleared))"

let link_monitored = Ltl.of_string_exn "G (link_lost -> F return_home)"
let geofence = Ltl.of_string_exn "G inside_geofence"

(* Simulated flight traces: one nominal lasso, one with a DAA failure. *)
let nominal =
  Ltl.Trace.make
    ~prefix:
      [
        [ "inside_geofence" ];
        [ "inside_geofence"; "obstacle_close"; "obstacle_tracked" ];
        [ "inside_geofence"; "obstacle_tracked" ];
        [ "inside_geofence"; "obstacle_cleared" ];
      ]
    ~loop:[ [ "inside_geofence" ] ]

let faulty =
  Ltl.Trace.make
    ~prefix:
      [
        [ "inside_geofence" ];
        [ "inside_geofence"; "obstacle_close" ];
        (* Tracking drops before the obstacle clears. *)
      ]
    ~loop:[ [ "inside_geofence" ] ]

let check_claim name claim traces =
  List.iter
    (fun (trace_name, trace) ->
      Format.printf "  %-28s on %-8s : %s@." name trace_name
        (if Ltl.holds trace claim then "HOLDS" else "VIOLATED"))
    traces

(* The argument: claims carry their LTL text in the node, the evidence
   is the trace-checking itself. *)
let argument =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "G_daa");
        (Structure.Supported_by, "S1", "G_link");
        (Structure.Supported_by, "S1", "G_fence");
        (Structure.Supported_by, "G_daa", "Sn_daa");
        (Structure.Supported_by, "G_link", "Sn_link");
        (Structure.Supported_by, "G_fence", "Sn_fence");
        (Structure.In_context_of, "G1", "C1");
      ]
    ~evidence:
      [
        Evidence.make ~id:(Id.of_string "E_daa") ~kind:Evidence.Simulation
          "DAA claims checked on simulated encounter traces";
        Evidence.make ~id:(Id.of_string "E_link") ~kind:Evidence.Test_results
          "link-loss drills";
        Evidence.make ~id:(Id.of_string "E_fence") ~kind:Evidence.Analysis
          "geofence envelope analysis";
      ]
    [
      Node.goal "G1" "The UAV is acceptably safe to operate in segregated airspace";
      Node.strategy "S1" "Argument over the safety functions";
      Node.goal "G_daa" "The Detect-and-Avoid function is correct";
      Node.goal "G_link" "Link loss is handled by autonomous return";
      Node.goal "G_fence" "The UAV remains inside its geofence";
      Node.solution ~evidence:"E_daa" "Sn_daa" "Trace checking results";
      Node.solution ~evidence:"E_link" "Sn_link" "Drill results";
      Node.solution ~evidence:"E_fence" "Sn_fence" "Envelope analysis";
      Node.context "C1" "Segregated airspace, day VMC";
    ]

let () =
  Format.printf "UAV safety case (Brunel-Cazin style)@.@.";
  Format.printf "Mechanical validation of the formalised claims:@.";
  let traces = [ ("nominal", nominal); ("faulty", faulty) ] in
  check_claim "DAA correct" daa_correct traces;
  check_claim "link monitored" link_monitored traces;
  check_claim "geofence" geofence traces;

  (* The formal check is evidence, not the whole case: the argument
     still has to be well-formed and reviewed. *)
  Format.printf "@.GSN well-formedness: %s@."
    (if
       Argus_core.Diagnostic.has_errors
         (Fused.check (Caseir.intern argument)).Fused.wf
     then "BROKEN"
     else "ok");

  (* Confidence and evidence sufficiency. *)
  let trust (ev : Evidence.t) =
    match Evidence.kind_to_string ev.Evidence.kind with
    | "simulation" -> 0.7
    | "test-results" -> 0.85
    | _ -> 0.9
  in
  Format.printf "Root confidence: %.3f@."
    (Confidence.root_confidence ~trust argument);
  List.iter
    (fun eid ->
      Format.printf "  sensitivity to %-7s : %.3f (touches %d claims)@." eid
        (Confidence.sensitivity ~trust argument (Id.of_string eid))
        (List.length
           (Confidence.impact_by_tracing argument (Id.of_string eid))))
    [ "E_daa"; "E_link"; "E_fence" ];

  (* And the paper's caution: the pretty LTL names bind to reality only
     informally.  Rename the atoms and the check is as "valid" as ever. *)
  let renamed =
    Ltl.of_string_exn "G (bank_close -> (bank_tracked U bank_cleared))"
  in
  let renamed_trace =
    Ltl.Trace.make
      ~prefix:[ [ "bank_close"; "bank_tracked" ]; [ "bank_cleared" ] ]
      ~loop:[ [] ]
  in
  Format.printf
    "@.Same structure, misleading names, still 'valid': %b  (formality \
     cannot check what the symbols mean)@."
    (Ltl.holds renamed_trace renamed)
