(* The other half of the Brunel-Cazin proposal (Section III.G): develop
   a KAOS goal structure first, verify its refinements mechanically,
   then derive the safety argument from it.

   Run with: dune exec examples/goal_refinement.exe *)

module Kaos = Argus_kaos.Kaos
module Ltl = Argus_ltl.Ltl
module Id = Argus_core.Id
module Structure = Argus_gsn.Structure
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

let ltl = Ltl.of_string_exn

let uav =
  Kaos.empty
  |> Kaos.add
       (Kaos.goal
          ~formal:(ltl "G (close -> F clear)")
          "G_avoid" "Obstacles, once close, are eventually cleared")
  |> Kaos.add ~parent:"G_avoid"
       (Kaos.goal
          ~formal:(ltl "G (close -> tracked)")
          "G_track" "Close obstacles are tracked")
  |> Kaos.add ~parent:"G_avoid"
       (Kaos.goal
          ~formal:(ltl "G (tracked -> F clear)")
          "G_resolve" "Tracked obstacles are eventually cleared")
  |> Kaos.add ~parent:"G_track"
       (Kaos.requirement ~agent:"daa_software" "R_sense"
          "Sensor fusion reports close obstacles")
  |> Kaos.add ~parent:"G_resolve"
       (Kaos.expectation ~agent:"pilot" "E_manoeuvre"
          "Pilot performs the avoidance manoeuvre")

(* A deliberately broken model: the sub-goal is too weak. *)
let broken =
  Kaos.empty
  |> Kaos.add (Kaos.goal ~formal:(ltl "G safe") "G_top" "Always safe")
  |> Kaos.add ~parent:"G_top"
       (Kaos.goal ~formal:(ltl "F safe") "G_weak" "Eventually safe")
  |> Kaos.add ~parent:"G_weak"
       (Kaos.requirement ~agent:"sw" "R_w" "Software raises safe once")

let show_verdicts model =
  List.iter
    (fun (id, verdict) ->
      match verdict with
      | Kaos.Verified_bounded n ->
          Format.printf "  %-10s refinement verified (no counterexample in \
                         %d traces)@."
            (Id.to_string id) n
      | Kaos.Refuted trace ->
          Format.printf "  %-10s REFUTED by a %d-state lasso@."
            (Id.to_string id) (Ltl.Trace.length trace)
      | Kaos.Not_applicable ->
          Format.printf "  %-10s (not formalised)@." (Id.to_string id))
    (Kaos.verify_all model)

let () =
  Format.printf "KAOS goal model with mechanical refinement checking@.@.";
  Format.printf "%a@." Kaos.pp uav;
  Format.printf "Refinement verification (bounded refutation):@.";
  show_verdicts uav;

  Format.printf "@.A broken model:@.";
  Format.printf "%a@." Kaos.pp broken;
  show_verdicts broken;

  (* Derive the argument, as the surveyed proposal describes: the formal
     argument's structure reflects the goal structure's. *)
  let gsn = Kaos.to_gsn uav in
  Format.printf "@.Derived GSN argument (%d nodes, well-formed: %b):@.%a"
    (Structure.size gsn)
    (not (Diagnostic.has_errors (Fused.check (Caseir.intern gsn)).Fused.wf))
    Structure.pp_outline gsn;
  Format.printf
    "@.As Brunel & Cazin themselves note: the ultimate objective is to \
     convince a certification authority, not a temporal-logic specialist.@."
