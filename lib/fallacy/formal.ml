module Prop = Argus_logic.Prop
module Propmask = Argus_logic.Propmask
module Sat = Argus_logic.Sat
module Syllogism = Argus_logic.Syllogism

type finding =
  | Begging_the_question
  | Incompatible_premises
  | Premise_conclusion_contradiction
  | Denying_the_antecedent
  | Affirming_the_consequent
  | False_conversion
  | Undistributed_middle
  | Illicit_distribution

type propositional = { premises : Prop.t list; conclusion : Prop.t }

type conversion = {
  from : Syllogism.proposition;
  to_ : Syllogism.proposition;
}

let all_findings =
  [
    Begging_the_question;
    Incompatible_premises;
    Premise_conclusion_contradiction;
    Denying_the_antecedent;
    Affirming_the_consequent;
    False_conversion;
    Undistributed_middle;
    Illicit_distribution;
  ]

let finding_to_string = function
  | Begging_the_question -> "begging the question"
  | Incompatible_premises -> "incompatible premises"
  | Premise_conclusion_contradiction ->
      "contradiction between premise and conclusion"
  | Denying_the_antecedent -> "denying the antecedent"
  | Affirming_the_consequent -> "affirming the consequent"
  | False_conversion -> "false conversion"
  | Undistributed_middle -> "undistributed middle term"
  | Illicit_distribution -> "illicit distribution of an end term"

(* The decision procedures for one argument: bit-parallel truth tables
   (exact, allocation-free per query) when the argument fits in
   {!Propmask.max_vars} variables and no limited budget is in play,
   DPLL otherwise.  A limited budget pins us to the SAT path because
   its tick accounting — one tick per decision and propagation — is
   part of the observable contract; the mask path does no search and
   would starve the ticks.  Either way the verdicts are identical
   (test/fallacy holds the two procedures to that differentially). *)
let mask_env ?budget premises conclusion =
  match budget with
  | Some b when Argus_rt.Budget.is_limited b -> None
  | _ -> Propmask.env (conclusion :: premises)

let is_valid_propositional ?budget { premises; conclusion } =
  match mask_env ?budget premises conclusion with
  | Some e -> Propmask.entails e premises conclusion
  | None -> Sat.entails ?budget premises conclusion

let check_propositional_uncached ?budget { premises; conclusion } =
  let env = mask_env ?budget premises conclusion in
  let sat p =
    match env with
    | Some e -> Propmask.satisfiable e p
    | None -> Sat.satisfiable ?budget p
  in
  let equivalent p q =
    match env with
    | Some e -> Propmask.equivalent e p q
    | None -> Sat.equivalent ?budget p q
  in
  let entails ps c =
    match env with
    | Some e -> Propmask.entails e ps c
    | None -> Sat.entails ?budget ps c
  in
  let out = ref [] in
  let add f = if not (List.mem f !out) then out := f :: !out in
  (* 1. Begging the question: a premise equivalent to the conclusion.
     Only meaningful when the premises are consistent (otherwise
     everything is "equivalent" in the empty model set). *)
  let premises_consistent = sat (Prop.conj premises) in
  if
    premises_consistent
    && List.exists
         (fun p -> Prop.equal p conclusion || equivalent p conclusion)
         premises
  then add Begging_the_question;
  (* 2. Incompatible premises. *)
  if (not premises_consistent) && List.length premises > 1 then
    add Incompatible_premises;
  (* 3. Premise/conclusion contradiction: some single premise is
     inconsistent with the conclusion. *)
  if
    premises_consistent
    && List.exists
         (fun p -> not (sat (Prop.And (p, conclusion))))
         premises
  then add Premise_conclusion_contradiction;
  (* 4/5. Conditional-shape fallacies, only when not actually valid. *)
  if not (entails premises conclusion) then
    List.iter
      (fun p ->
        match p with
        | Prop.Implies (a, b) ->
            let rest = List.filter (fun q -> not (Prop.equal q p)) premises in
            let has f = List.exists (fun q -> Prop.equal q f) rest in
            if has (Prop.Not a) && Prop.equal conclusion (Prop.Not b) then
              add Denying_the_antecedent;
            if has b && Prop.equal conclusion a then
              add Affirming_the_consequent
        | _ -> ())
      premises;
  List.rev !out

(* Verdict memo — the analog of the Prolog side's compiled-program
   table.  The corpus sweeps (bench, experiments, [check_many]) re-ask
   about the same argument values every scan, so an unbudgeted check is
   answered from a small per-domain table keyed on the argument's
   physical identity: a pointer scan, no hashing of formulas.  Budgeted
   calls bypass it — their DPLL tick accounting is part of the
   observable contract and must run every time.  [Sat]'s own
   (structural) memo set the precedent; this one just sits a layer up,
   where the whole finding list can be reused. *)
let memo_size = 64

let memo_key : (propositional * finding list) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let check_propositional ?budget arg =
  match budget with
  | Some b when Argus_rt.Budget.is_limited b ->
      check_propositional_uncached ~budget:b arg
  | _ -> (
      let cache = Domain.DLS.get memo_key in
      let rec find = function
        | [] -> None
        | (a, fs) :: _ when a == arg -> Some fs
        | _ :: rest -> find rest
      in
      match find !cache with
      | Some fs -> fs
      | None ->
          let fs = check_propositional_uncached ?budget arg in
          let entries = (arg, fs) :: !cache in
          cache :=
            (if List.length entries > memo_size then
               List.filteri (fun i _ -> i < memo_size) entries
             else entries);
          fs)

let check_many ?budget ?pool args =
  (* Each argument's check is pure and independent; results come back
     in input order, so the scan is identical for any worker count.
     A budget is a single mutable accumulator, so a budgeted scan runs
     sequentially rather than sharing it across domains. *)
  match budget with
  | Some b when Argus_rt.Budget.is_limited b ->
      List.map (check_propositional ~budget:b) args
  | _ -> Argus_par.Pool.map_list ?pool check_propositional args

let check_syllogism syll =
  List.filter_map
    (fun v ->
      match (v : Syllogism.violation) with
      | Syllogism.Undistributed_middle -> Some Undistributed_middle
      | Syllogism.Illicit_major | Syllogism.Illicit_minor ->
          Some Illicit_distribution
      | Syllogism.Exclusive_premises | Syllogism.Affirmative_from_negative
      | Syllogism.Negative_from_affirmatives
      | Syllogism.Existential_from_universals | Syllogism.Malformed _ ->
          None)
    (Syllogism.violations syll)
  |> List.sort_uniq compare

let check_conversion { from; to_ } =
  let is_converse =
    to_.Syllogism.subject = from.Syllogism.predicate
    && to_.Syllogism.predicate = from.Syllogism.subject
    && to_.Syllogism.form = from.Syllogism.form
  in
  if is_converse && not (Syllogism.conversion_valid from.Syllogism.form) then
    [ False_conversion ]
  else []
