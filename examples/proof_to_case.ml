(* The Basir/Denney/Fischer pipeline: derive a GSN safety argument from
   a natural-deduction proof, then apply the abstraction pass their
   papers call for ("the straightforward conversion ... typically
   contains too many details").

   Run with: dune exec examples/proof_to_case.exe *)

module Prop = Argus_logic.Prop
module Natded = Argus_logic.Natded
module Proofgen = Argus_proofgen.Proofgen
module Structure = Argus_gsn.Structure
module Cae = Argus_cae.Cae
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

let p = Prop.of_string_exn

(* Well-formed: the fused checker reports no errors. *)
let well_formed s =
  not (Argus_core.Diagnostic.has_errors (Fused.check (Caseir.intern s)).Fused.wf)

(* A small code-safety proof: initialisation and bounds checking imply
   no out-of-range write; no out-of-range write and valid units imply
   the hazard is absent. *)
let proof =
  Natded.
    [
      { formula = p "init_ok"; rule = Premise };
      { formula = p "bounds_checked"; rule = Premise };
      { formula = p "units_valid"; rule = Premise };
      { formula = p "init_ok & bounds_checked -> no_oob_write"; rule = Premise };
      { formula = p "no_oob_write & units_valid -> hazard_absent"; rule = Premise };
      { formula = p "init_ok & bounds_checked"; rule = And_intro (1, 2) };
      { formula = p "no_oob_write"; rule = Imp_elim (4, 6) };
      { formula = p "no_oob_write & units_valid"; rule = And_intro (7, 3) };
      { formula = p "hazard_absent"; rule = Imp_elim (5, 8) };
    ]

let () =
  Format.printf "Proof-to-argument generation (Basir, Denney & Fischer)@.@.";
  Format.printf "Input proof:@.%a@." Natded.pp proof;
  match Natded.check proof with
  | Error ds ->
      Format.printf "proof rejected: %a@." Argus_core.Diagnostic.pp_report ds
  | Ok checked ->
      let generated = Proofgen.generate checked in
      Format.printf "Generated GSN argument (%d nodes, well-formed: %b):@.%a@."
        (Proofgen.node_count generated)
        (well_formed generated)
        Structure.pp_outline generated;

      let abstracted = Proofgen.abstract generated in
      Format.printf
        "After abstraction (%d nodes -> %d nodes, still well-formed: %b):@.%a@."
        (Proofgen.node_count generated)
        (Proofgen.node_count abstracted)
        (well_formed abstracted)
        Structure.pp_outline abstracted;

      (* The same argument in the other notation the paper surveys. *)
      let cae = Cae.of_gsn abstracted in
      Format.printf "As Claims-Argument-Evidence (well-formed: %b):@.%a@."
        (not
           (Argus_core.Diagnostic.has_errors
              (Fused.check_cae (Fused.intern_cae cae))))
        Cae.pp_outline cae
