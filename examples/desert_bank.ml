(* Figure 1 of the paper, end to end: the Desert Bank knowledge base
   formally "proves" that a bank in the desert is adjacent to a river,
   because 'bank' means two different things in two premises.  The
   resolution engine derives the conclusion; the equivocation lint flags
   the symbol a human would catch.

   Run with: dune exec examples/desert_bank.exe *)

module Program = Argus_prolog.Program
module Exec = Argus_prolog.Exec
module Derivation = Argus_prolog.Derivation
module Informal = Argus_fallacy.Informal
module Term = Argus_logic.Term

let () =
  Format.printf "Figure 1: a flawed argument that passes formal validation@.@.";
  Format.printf "Knowledge base:@.%s@." Informal.desert_bank_program;

  let goal = Result.get_ok (Term.of_string "adjacent(desert_bank, river)") in
  Format.printf "Query: %a@.@." Term.pp goal;

  (match Exec.prove_term Informal.desert_bank goal with
  | Some derivation ->
      Format.printf "Formally derivable.  Derivation:@.%a@."
        Derivation.pp derivation
  | None -> Format.printf "Not derivable (unexpected!)@.");

  (* The flaw is invisible to resolution but leaves a footprint: a
     constant used in more than one predicate-argument role. *)
  Format.printf "Equivocation candidates (constants in multiple roles):@.";
  List.iter
    (fun c -> Format.printf "  %s@." c)
    (Informal.equivocation_candidates Informal.desert_bank);

  (* Contrast with a same-shape KB where the middle term really does
     mean one thing: the lint still points at the bridging constant -
     it is a candidate for review, not a verdict.  That is the paper's
     point about informal fallacies: only a human can decide. *)
  let sound_kb =
    Program.of_string_exn
      {|
        is_a(firth_of_forth_branch, riverside_branch).
        flood_risk(riverside_branch).
        flood_risk(X) :- is_a(X, Z), flood_risk(Z).
      |}
  in
  let sound_goal =
    Result.get_ok (Term.of_string "flood_risk(firth_of_forth_branch)")
  in
  Format.printf
    "@.Same argument shape, sound this time: flood_risk(firth_of_forth_branch) \
     derivable = %b@."
    (Exec.provable_term sound_kb sound_goal);
  Format.printf
    "Lint still lists the bridging constant for review: %s@."
    (String.concat ", " (Informal.equivocation_candidates sound_kb));
  Format.printf
    "@.Moral (Section IV.C): mechanical verification checks form, not \
     meaning; the same derivation is fallacious in one reading and sound \
     in the other.@."
