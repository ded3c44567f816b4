open Argus_logic
module Cnf_direct = Argus_oracle.Cnf_direct

(* --- Generators --- *)

let gen_prop =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                return Prop.Top;
                return Prop.Bot;
                map (fun i -> Prop.Var (Printf.sprintf "v%d" i)) (int_bound 5);
              ]
          else
            frequency
              [
                (1, map (fun i -> Prop.Var (Printf.sprintf "v%d" i)) (int_bound 5));
                (2, map (fun f -> Prop.Not f) (self (n / 2)));
                ( 2,
                  map2 (fun a b -> Prop.And (a, b)) (self (n / 2)) (self (n / 2))
                );
                ( 2,
                  map2 (fun a b -> Prop.Or (a, b)) (self (n / 2)) (self (n / 2))
                );
                ( 2,
                  map2
                    (fun a b -> Prop.Implies (a, b))
                    (self (n / 2)) (self (n / 2)) );
                ( 1,
                  map2 (fun a b -> Prop.Iff (a, b)) (self (n / 2)) (self (n / 2))
                );
              ])
        (min n 8))

let arb_prop = QCheck.make ~print:Prop.to_string gen_prop

let all_valuations vars =
  let n = List.length vars in
  List.init (1 lsl n) (fun mask v ->
      let rec index i = function
        | [] -> raise Not_found
        | x :: _ when x = v -> i
        | _ :: rest -> index (i + 1) rest
      in
      mask land (1 lsl index 0 vars) <> 0)

let brute_force_sat f =
  let vars = Prop.vars f in
  List.exists (fun v -> Prop.eval v f) (all_valuations vars)

let brute_force_valid f =
  let vars = Prop.vars f in
  List.for_all (fun v -> Prop.eval v f) (all_valuations vars)

(* --- Prop --- *)

let test_prop_parse_print () =
  let cases =
    [
      "a & b -> c";
      "~(a | b) <-> ~a & ~b";
      "a -> b -> c";
      "(a -> b) -> c";
      "true | false";
      "~~a";
    ]
  in
  List.iter
    (fun s ->
      let f = Prop.of_string_exn s in
      let s' = Prop.to_string f in
      let f' = Prop.of_string_exn s' in
      if not (Prop.equal f f') then
        Alcotest.failf "round-trip changed %s -> %s" s s')
    cases

let test_prop_parse_synonyms () =
  let a = Prop.of_string_exn "not x and y or z => w <=> v" in
  let b = Prop.of_string_exn "~x & y | z -> w <-> v" in
  Alcotest.(check bool) "synonyms parse alike" true (Prop.equal a b)

let test_prop_parse_errors () =
  List.iter
    (fun s ->
      match Prop.of_string s with
      | Ok _ -> Alcotest.failf "should not parse: %s" s
      | Error _ -> ())
    [ ""; "a &"; "(a"; "a b"; "->"; "a ? b" ]

let test_prop_vars_order () =
  let f = Prop.of_string_exn "b & a | b -> c" in
  Alcotest.(check (list string)) "first occurrence" [ "b"; "a"; "c" ]
    (Prop.vars f)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"pp/of_string round-trip" ~count:300 arb_prop (fun f ->
      match Prop.of_string (Prop.to_string f) with
      | Ok f' -> Prop.equal f f'
      | Error _ -> false)

let nnf_preserves_semantics =
  QCheck.Test.make ~name:"nnf preserves semantics" ~count:300 arb_prop (fun f ->
      let g = Prop.nnf f in
      let vars = Prop.vars f @ Prop.vars g in
      List.for_all
        (fun v -> Bool.equal (Prop.eval v f) (Prop.eval v g))
        (all_valuations vars))

let nnf_is_nnf =
  QCheck.Test.make ~name:"nnf output has negations on atoms only" ~count:300
    arb_prop (fun f ->
      let rec ok = function
        | Prop.Top | Prop.Bot | Prop.Var _ -> true
        | Prop.Not (Prop.Var _) -> true
        | Prop.Not _ -> false
        | Prop.And (a, b) | Prop.Or (a, b) -> ok a && ok b
        | Prop.Implies _ | Prop.Iff _ -> false
      in
      ok (Prop.nnf f))

let test_subst () =
  let f = Prop.of_string_exn "a -> b" in
  let g =
    Prop.subst (function "a" -> Some (Prop.of_string_exn "x & y") | _ -> None) f
  in
  Alcotest.(check string) "substituted" "x & y -> b" (Prop.to_string g)

(* --- Sat --- *)

let dpll_agrees_with_bruteforce =
  QCheck.Test.make ~name:"DPLL satisfiability agrees with brute force"
    ~count:300 arb_prop (fun f ->
      Bool.equal (Sat.satisfiable f) (brute_force_sat f))

let validity_agrees_with_bruteforce =
  QCheck.Test.make ~name:"validity agrees with brute force" ~count:300 arb_prop
    (fun f -> Bool.equal (Sat.valid f) (brute_force_valid f))

let direct_cnf_equisatisfiable =
  QCheck.Test.make ~name:"direct CNF agrees with Tseitin" ~count:200 arb_prop
    (fun f ->
      Bool.equal
        (Sat.solve (Cnf_direct.cnf_of_prop f) <> None)
        (Sat.satisfiable f))

let sat_counter name =
  match List.assoc_opt name (Argus_obs.Metrics.counters ()) with
  | Some n -> n
  | None -> 0

let test_pure_literal_elimination () =
  (* [p] and [q] appear only positively in this direct CNF, so DPLL
     must assign them by pure-literal elimination rather than
     branching.  (Tseitin-encoded queries never reach this code: the
     definitional clauses mention every introduced variable in both
     polarities — see DESIGN.md.) *)
  Argus_obs.Obs.reset ();
  let cnf =
    Cnf_direct.cnf_of_prop
      (Prop.of_string_exn "(p | a) & (p | ~a) & (q | a) & (q | ~b) & (b | ~a)")
  in
  Alcotest.(check bool) "satisfiable" true (Sat.solve cnf <> None);
  Alcotest.(check bool)
    (Printf.sprintf "pure literals eliminated (got %d)"
       (sat_counter "sat.pure_eliminations"))
    true
    (sat_counter "sat.pure_eliminations" > 0)

let test_quick_witness_and_memo () =
  Argus_obs.Obs.reset ();
  let f = Prop.of_string_exn "(a -> b) & (b -> c) & a" in
  (* All-true satisfies [f]: the witness prefilter answers without
     touching DPLL. *)
  Alcotest.(check bool) "satisfiable" true (Sat.satisfiable f);
  Alcotest.(check int) "witness prefilter fired" 1
    (sat_counter "sat.quick_wins");
  Alcotest.(check int) "first ask is not a memo hit" 0
    (sat_counter "sat.memo_hits");
  (* Asking again about a structurally equal formula hits the memo and
     runs neither the prefilter nor DPLL. *)
  Alcotest.(check bool)
    "same answer" true
    (Sat.satisfiable (Prop.of_string_exn "(a -> b) & (b -> c) & a"));
  Alcotest.(check int) "second ask hits the memo" 1
    (sat_counter "sat.memo_hits");
  Alcotest.(check int) "prefilter not re-run" 1
    (sat_counter "sat.quick_wins")

let model_satisfies =
  QCheck.Test.make ~name:"returned model satisfies the formula" ~count:300
    arb_prop (fun f ->
      match Sat.models f with
      | None -> not (brute_force_sat f)
      | Some asg ->
          let v x =
            match List.assoc_opt x asg with Some b -> b | None -> true
          in
          Prop.eval v f)

let entailment_reflexive =
  QCheck.Test.make ~name:"entailment is reflexive" ~count:200 arb_prop (fun f ->
      Sat.entails [ f ] f)

let entailment_monotone =
  QCheck.Test.make ~name:"entailment is monotone" ~count:200
    (QCheck.pair arb_prop arb_prop) (fun (f, g) ->
      if Sat.entails [ f ] g then Sat.entails [ f; Prop.Var "fresh_v" ] g
      else true)

let test_entails_basic () =
  let p = Prop.of_string_exn in
  Alcotest.(check bool) "mp" true (Sat.entails [ p "a -> b"; p "a" ] (p "b"));
  Alcotest.(check bool)
    "affirming consequent is not entailment" false
    (Sat.entails [ p "a -> b"; p "b" ] (p "a"));
  Alcotest.(check bool)
    "incompatible premises entail anything" true
    (Sat.entails [ p "a"; p "~a" ] (p "q"))

(* The array solver must agree with the retained naive reference on
   both CNF conversions, and its models must actually satisfy the
   clauses it was given. *)
let array_dpll_agrees_with_naive_tseitin =
  QCheck.Test.make ~name:"array DPLL agrees with naive DPLL (Tseitin CNF)"
    ~count:300 arb_prop (fun f ->
      let cnf = Sat.tseitin f in
      Bool.equal (Sat.solve cnf <> None) (Argus_oracle.Sat_naive.solve cnf <> None))

let array_dpll_agrees_with_naive_direct =
  QCheck.Test.make ~name:"array DPLL agrees with naive DPLL (direct CNF)"
    ~count:300 arb_prop (fun f ->
      let cnf = Cnf_direct.cnf_of_prop f in
      Bool.equal (Sat.solve cnf <> None) (Argus_oracle.Sat_naive.solve cnf <> None))

let array_dpll_model_satisfies_cnf =
  QCheck.Test.make ~name:"array DPLL models satisfy the CNF" ~count:300
    arb_prop (fun f ->
      let cnf = Cnf_direct.cnf_of_prop f in
      match Sat.solve cnf with
      | None -> true
      | Some asg ->
          List.for_all
            (fun c ->
              List.exists
                (fun l ->
                  match List.assoc_opt l.Sat.var asg with
                  | Some b -> Bool.equal b l.Sat.sign
                  | None -> false)
                c)
            cnf)

let exact_count f =
  match Sat.count_models f with
  | Sat.Exact n -> n
  | Sat.At_least n ->
      Alcotest.failf "count_models truncated at %d without a budget" n

let test_count_models () =
  let p = Prop.of_string_exn in
  Alcotest.(check int) "a | b" 3 (exact_count (p "a | b"));
  Alcotest.(check int) "a & ~a" 0 (exact_count (p "a & ~a"));
  Alcotest.(check int) "xor" 2 (exact_count (p "a <-> ~b"));
  (* A budget that runs out of fuel turns the count into a lower bound,
     never a silently-wrong exact answer: three ticks evaluate the
     valuations 000, 001 and 010, two of which satisfy the formula. *)
  let b = Argus_rt.Budget.make ~fuel:3 () in
  (match Sat.count_models ~budget:b (p "a | b | c") with
  | Sat.At_least n -> Alcotest.(check int) "truncated lower bound" 2 n
  | Sat.Exact n -> Alcotest.failf "truncation reported as exact %d" n);
  Alcotest.(check bool)
    "truncated budget is exhausted" true
    (Argus_rt.Budget.exhausted b <> None)

(* --- Term --- *)

let gen_term =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Term.Var (Printf.sprintf "X%d" i)) (int_bound 3);
                map (fun i -> Term.const (Printf.sprintf "c%d" i)) (int_bound 3);
              ]
          else
            frequency
              [
                (1, map (fun i -> Term.Var (Printf.sprintf "X%d" i)) (int_bound 3));
                ( 3,
                  map2
                    (fun f args -> Term.app (Printf.sprintf "f%d" f) args)
                    (int_bound 2)
                    (list_size (int_range 1 3) (self (n / 2))) );
              ])
        (min n 6))

let arb_term = QCheck.make ~print:Term.to_string gen_term

let unify_produces_unifier =
  QCheck.Test.make ~name:"unify result equalises the terms" ~count:300
    (QCheck.pair arb_term arb_term) (fun (t1, t2) ->
      match Term.unify t1 t2 with
      | None -> true
      | Some s ->
          Term.equal (Term.Subst.apply s t1) (Term.Subst.apply s t2))

let unify_reflexive =
  QCheck.Test.make ~name:"every term unifies with itself" ~count:200 arb_term
    (fun t ->
      match Term.unify t t with
      | Some s ->
          (* The unifier must not bind variables to anything but variables
             (a most-general unifier of t with itself is a renaming). *)
          List.for_all
            (fun (_, u) -> match u with Term.Var _ -> true | _ -> false)
            (Term.Subst.bindings s)
      | None -> false)

let test_unify_basic () =
  let t s = Result.get_ok (Term.of_string s) in
  (match Term.unify (t "f(X, b)") (t "f(a, Y)") with
  | Some s ->
      Alcotest.(check bool)
        "X=a" true
        (Term.Subst.find "X" s = Some (Term.const "a"));
      Alcotest.(check bool)
        "Y=b" true
        (Term.Subst.find "Y" s = Some (Term.const "b"))
  | None -> Alcotest.fail "should unify");
  Alcotest.(check bool) "clash" true (Term.unify (t "f(a)") (t "g(a)") = None);
  Alcotest.(check bool)
    "arity clash" true
    (Term.unify (t "f(a)") (t "f(a, b)") = None)

let test_occurs_check () =
  let x = Term.var "X" in
  let fx = Term.app "f" [ Term.var "X" ] in
  Alcotest.(check bool) "occurs check rejects X = f(X)" true
    (Term.unify x fx = None)

let test_term_parse () =
  (match Term.of_string "adjacent(desert_bank, river)" with
  | Ok t ->
      Alcotest.(check bool) "parse shape" true
        (Term.equal t
           (Term.app "adjacent" [ Term.const "desert_bank"; Term.const "river" ]))
  | Error e -> Alcotest.fail e);
  (match Term.of_string "f(X, g(Y, c))" with
  | Ok t ->
      Alcotest.(check (list string)) "vars" [ "X"; "Y" ] (Term.vars t)
  | Error e -> Alcotest.fail e);
  match Term.of_string "f(" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should not parse"

let term_print_parse_roundtrip =
  QCheck.Test.make ~name:"term pp/of_string round-trip" ~count:300 arb_term
    (fun t ->
      match Term.of_string (Term.to_string t) with
      | Ok t' -> Term.equal t t'
      | Error _ -> false)

let subst_compose_is_sequential =
  QCheck.Test.make ~name:"compose applies right-then-left" ~count:200
    (QCheck.triple arb_term arb_term arb_term) (fun (t, a, b) ->
      match (Term.unify t a, Term.unify t b) with
      | Some s1, Some s2 ->
          Term.equal
            (Term.Subst.apply (Term.Subst.compose s2 s1) t)
            (Term.Subst.apply s2 (Term.Subst.apply s1 t))
      | _ -> true)

(* --- Natded --- *)

let haley_proof =
  (* The eleven-step proof from Haley et al. 2008 (Section III.K):
     I->V, C->H, Y->V&C, D->Y, D |- D->H *)
  let p = Prop.of_string_exn in
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

let test_haley_proof_checks () =
  match Natded.check haley_proof with
  | Error ds ->
      Alcotest.failf "Haley proof rejected: %s"
        (Format.asprintf "%a" Argus_core.Diagnostic.pp_report ds)
  | Ok c ->
      Alcotest.(check string)
        "conclusion" "d -> h"
        (Prop.to_string c.Natded.conclusion);
      (* Premise 5 (D) is discharged; premises 1-4 remain, but only those
         the conclusion depends on: I->V is never used... it IS used via
         step 8?  No: step 8 derives V from step 7; premise 1 is unused. *)
      Alcotest.(check bool)
        "discharged D" true
        (not (List.mem (Prop.of_string_exn "d") c.Natded.premises));
      Alcotest.(check bool) "sound" true (Natded.semantically_sound c)

let string_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

let test_haley_pretty_print () =
  let s = Format.asprintf "%a" Natded.pp haley_proof in
  Alcotest.(check bool) "mentions Detach" true (string_contains s "Detach");
  Alcotest.(check bool) "mentions Conclusion" true
    (string_contains s "Conclusion")

let test_bad_citation () =
  let p = Prop.of_string_exn in
  let proof =
    Natded.[ { formula = p "a"; rule = Reiterate 5 } ]
  in
  match Natded.check proof with
  | Error [ d ] ->
      Alcotest.(check string) "code" "natded/bad-citation" d.Argus_core.Diagnostic.code
  | _ -> Alcotest.fail "expected one bad-citation error"

let test_rule_mismatch () =
  let p = Prop.of_string_exn in
  (* Affirming the consequent: a->b, b |- a must be rejected. *)
  let proof =
    Natded.
      [
        { formula = p "a -> b"; rule = Premise };
        { formula = p "b"; rule = Premise };
        { formula = p "a"; rule = Imp_elim (1, 2) };
      ]
  in
  match Natded.check proof with
  | Error (d :: _) ->
      Alcotest.(check string) "code" "natded/rule-mismatch"
        d.Argus_core.Diagnostic.code
  | _ -> Alcotest.fail "expected rule-mismatch"

let test_empty_proof () =
  match Natded.check [] with
  | Error [ d ] ->
      Alcotest.(check string) "code" "natded/empty-proof"
        d.Argus_core.Diagnostic.code
  | _ -> Alcotest.fail "expected empty-proof error"

let test_reductio () =
  let p = Prop.of_string_exn in
  let proof =
    Natded.
      [
        { formula = p "a -> b"; rule = Premise };
        { formula = p "~b"; rule = Premise };
        { formula = p "a"; rule = Assumption };
        { formula = p "b"; rule = Imp_elim (1, 3) };
        { formula = p "false"; rule = Not_elim (4, 2) };
        { formula = p "~a"; rule = Not_intro (3, 5) };
      ]
  in
  match Natded.check proof with
  | Ok c ->
      Alcotest.(check string) "modus tollens" "~a" (Prop.to_string c.Natded.conclusion);
      Alcotest.(check int) "two premises remain" 2 (List.length c.Natded.premises);
      Alcotest.(check bool) "sound" true (Natded.semantically_sound c)
  | Error ds ->
      Alcotest.failf "rejected: %s"
        (Format.asprintf "%a" Argus_core.Diagnostic.pp_report ds)

let test_or_elim () =
  let p = Prop.of_string_exn in
  let proof =
    Natded.
      [
        { formula = p "a | b"; rule = Premise };
        { formula = p "a -> c"; rule = Premise };
        { formula = p "b -> c"; rule = Premise };
        { formula = p "c"; rule = Or_elim (1, 2, 3) };
      ]
  in
  Alcotest.(check bool) "or-elim accepted" true (Natded.is_valid proof)

let test_excluded_middle () =
  let p = Prop.of_string_exn in
  let good = Natded.[ { formula = p "a | ~a"; rule = Excluded_middle } ] in
  let bad = Natded.[ { formula = p "a | ~b"; rule = Excluded_middle } ] in
  Alcotest.(check bool) "good" true (Natded.is_valid good);
  Alcotest.(check bool) "bad" false (Natded.is_valid bad)

(* Mutating any single step formula of a valid proof to something
   syntactically different should make the checker reject it (the rules
   pin formulas exactly). *)
let test_mutation_rejected () =
  List.iteri
    (fun k _ ->
      let mutated =
        List.mapi
          (fun i (s : Natded.step) ->
            if i = k then { s with Natded.formula = Prop.Var "zz_mutant" }
            else s)
          haley_proof
      in
      (* Mutating a premise still yields a valid proof shape unless cited
         formulas stop matching; every step of this proof is cited, so
         all mutations except of step 1 break it.  Step 1 (i -> v) is
         never cited, so mutating it is still checkable. *)
      if k <> 0 && Natded.is_valid mutated then
        Alcotest.failf "mutation of step %d was accepted" (k + 1))
    haley_proof

(* Generate random valid proofs by forward application of rules and check
   they are accepted and semantically sound. *)
let gen_valid_proof =
  let open QCheck.Gen in
  let* n_prem = int_range 1 4 in
  let premises =
    List.init n_prem (fun i ->
        Natded.{ formula = Prop.Var (Printf.sprintf "p%d" i); rule = Premise })
  in
  let* n_steps = int_range 1 6 in
  let rec extend proof k =
    if k = 0 then return (List.rev proof)
    else
      let len = List.length proof in
      let nth_formula i = (List.nth (List.rev proof) (i - 1)).Natded.formula in
      let* i = int_range 1 len in
      let* j = int_range 1 len in
      let* choice = int_bound 2 in
      let step =
        match choice with
        | 0 ->
            Natded.
              {
                formula = Prop.And (nth_formula i, nth_formula j);
                rule = And_intro (i, j);
              }
        | 1 ->
            Natded.
              {
                formula = Prop.Or (nth_formula i, Prop.Var "w");
                rule = Or_intro_left i;
              }
        | _ -> Natded.{ formula = nth_formula i; rule = Reiterate i }
      in
      extend (step :: proof) (k - 1)
  in
  extend (List.rev premises) n_steps

let generated_proofs_check =
  QCheck.Test.make ~name:"generated proofs are accepted and sound" ~count:200
    (QCheck.make gen_valid_proof) (fun proof ->
      match Natded.check proof with
      | Ok c -> Natded.semantically_sound c
      | Error _ -> false)

(* --- Proof_text --- *)

let haley_text =
  {|# the Haley outer argument
1. i -> v      premise
2. c -> h      premise
3. y -> v & c  premise
4. d -> y      premise
5. d           premise
6. y           detach 4 5
7. v & c       detach 3 6
8. v           split-left 7
9. c           split-right 7
10. h          detach 2 9
11. d -> h     conclusion 5 10
|}

let test_proof_text_parse () =
  let proof = Proof_text.parse_exn haley_text in
  Alcotest.(check bool) "equals the programmatic proof" true
    (proof = haley_proof);
  Alcotest.(check bool) "checks" true (Natded.is_valid proof)

let test_proof_text_numbering_optional () =
  let unnumbered = "a premise\nb premise\na & b join 1 2" in
  Alcotest.(check bool) "parses" true
    (Result.is_ok (Proof_text.parse unnumbered))

let test_proof_text_errors () =
  List.iter
    (fun (text, fragment) ->
      match Proof_text.parse text with
      | Ok _ -> Alcotest.failf "should not parse: %s" text
      | Error e ->
          if
            not
              (let nh = String.length e and nn = String.length fragment in
               let rec go i =
                 if i + nn > nh then false
                 else String.sub e i nn = fragment || go (i + 1)
               in
               go 0)
          then Alcotest.failf "error %S does not mention %S" e fragment)
    [
      ("", "empty");
      ("a zap", "unknown rule");
      ("2. a premise", "numbered 2 but is step 1");
      ("a & premise", "cannot parse formula");
      ("a detach 1", "takes 2 citation(s)");
      ("a premise 1", "takes 0 citation(s)");
    ]

let test_proof_text_rule_coverage () =
  (* Every keyword round-trips through a one-rule proof skeleton. *)
  Alcotest.(check int) "18 rule keywords" 18
    (List.length Proof_text.rule_keywords)

let proof_text_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip on generated proofs"
    ~count:200 (QCheck.make gen_valid_proof) (fun proof ->
      match Proof_text.parse (Proof_text.print proof) with
      | Ok proof' -> proof = proof'
      | Error _ -> false)

let test_proof_text_haley_roundtrip () =
  let printed = Proof_text.print haley_proof in
  Alcotest.(check bool) "round-trip" true
    (Proof_text.parse_exn printed = haley_proof)

(* --- Syllogism --- *)

let test_exactly_fifteen_valid_forms () =
  let valid = List.filter Syllogism.is_valid (Syllogism.all_moods_figures ()) in
  Alcotest.(check int) "15 valid forms" 15 (List.length valid);
  List.iter
    (fun s ->
      match Syllogism.name_of s with
      | Some _ -> ()
      | None -> Alcotest.failf "valid but unnamed syllogism")
    valid

let test_named_forms_are_valid () =
  Alcotest.(check int) "name list has 15" 15
    (List.length Syllogism.valid_form_names)

let test_barbara () =
  (* All men are mortal; Socrates is a man (as: all Socrates are men);
     therefore Socrates is mortal. *)
  let s =
    Syllogism.
      {
        major = prop A "men" "mortal";
        minor = prop A "socrates" "men";
        conclusion = prop A "socrates" "mortal";
      }
  in
  Alcotest.(check bool) "valid" true (Syllogism.is_valid s);
  Alcotest.(check (option string)) "named" (Some "Barbara") (Syllogism.name_of s);
  Alcotest.(check (option int)) "figure 1" (Some 1) (Syllogism.figure s)

let test_undistributed_middle () =
  (* All banks are adjacent-to-rivers; Desert Bank is a bank... the
     valid version.  The classic undistributed middle: All P are M, All
     S are M |- All S are P. *)
  let s =
    Syllogism.
      {
        major = prop A "dogs" "animals";
        minor = prop A "cats" "animals";
        conclusion = prop A "cats" "dogs";
      }
  in
  Alcotest.(check bool) "invalid" false (Syllogism.is_valid s);
  Alcotest.(check bool) "diagnosed" true
    (List.mem Syllogism.Undistributed_middle (Syllogism.violations s))

let test_illicit_major () =
  (* All M are P; No S are M |- No S are P: P distributed in conclusion
     (E) but not in major premise (A-predicate). *)
  let s =
    Syllogism.
      {
        major = prop A "m" "p";
        minor = prop E "s" "m";
        conclusion = prop E "s" "p";
      }
  in
  Alcotest.(check bool) "invalid" false (Syllogism.is_valid s);
  Alcotest.(check bool) "diagnosed" true
    (List.mem Syllogism.Illicit_major (Syllogism.violations s))

let test_exclusive_premises () =
  let s =
    Syllogism.
      {
        major = prop E "m" "p";
        minor = prop O "s" "m";
        conclusion = prop O "s" "p";
      }
  in
  Alcotest.(check bool) "diagnosed" true
    (List.mem Syllogism.Exclusive_premises (Syllogism.violations s))

let test_malformed () =
  let s =
    Syllogism.
      {
        major = prop A "x" "y";
        minor = prop A "z" "w";
        conclusion = prop A "q" "r";
      }
  in
  match Syllogism.violations s with
  | [ Syllogism.Malformed _ ] -> ()
  | _ -> Alcotest.fail "expected a malformed diagnosis"

let test_conversion () =
  Alcotest.(check bool) "E converts" true (Syllogism.conversion_valid Syllogism.E);
  Alcotest.(check bool) "I converts" true (Syllogism.conversion_valid Syllogism.I);
  Alcotest.(check bool) "A does not" false (Syllogism.conversion_valid Syllogism.A);
  Alcotest.(check bool) "O does not" false (Syllogism.conversion_valid Syllogism.O);
  let p = Syllogism.prop Syllogism.A "banks" "riverside_things" in
  let c = Syllogism.converse p in
  Alcotest.(check string) "swap" "riverside_things" c.Syllogism.subject

(* Semantic cross-check: encode a syllogism over a tiny universe and
   verify that rule-validity coincides with semantic validity (checked by
   enumerating all set assignments over a 3-element universe; 3 elements
   suffice to refute every invalid AEIO form under the modern reading). *)
let semantic_check syll =
  let universe = [ 0; 1; 2 ] in
  let subsets =
    (* All subsets of the universe as membership predicates. *)
    List.init 8 (fun mask x -> mask land (1 lsl x) <> 0)
  in
  let holds pred (p : Syllogism.proposition) s_of =
    ignore pred;
    let s_set = s_of p.Syllogism.subject and p_set = s_of p.Syllogism.predicate in
    match p.Syllogism.form with
    | Syllogism.A -> List.for_all (fun x -> (not (s_set x)) || p_set x) universe
    | Syllogism.E -> List.for_all (fun x -> not (s_set x && p_set x)) universe
    | Syllogism.I -> List.exists (fun x -> s_set x && p_set x) universe
    | Syllogism.O -> List.exists (fun x -> s_set x && not (p_set x)) universe
  in
  let terms =
    List.sort_uniq String.compare
      Syllogism.
        [
          syll.major.subject;
          syll.major.predicate;
          syll.minor.subject;
          syll.minor.predicate;
          syll.conclusion.subject;
          syll.conclusion.predicate;
        ]
  in
  match terms with
  | [ t1; t2; _t3 ] ->
      let ok = ref true in
      List.iter
        (fun s1 ->
          List.iter
            (fun s2 ->
              List.iter
                (fun s3 ->
                  let s_of t =
                    if t = t1 then s1 else if t = t2 then s2 else s3
                  in
                  if
                    holds () syll.Syllogism.major s_of
                    && holds () syll.Syllogism.minor s_of
                    && not (holds () syll.Syllogism.conclusion s_of)
                  then ok := false)
                subsets)
            subsets)
        subsets;
      Some !ok
  | _ -> None

let test_rules_match_semantics () =
  List.iter
    (fun syll ->
      match semantic_check syll with
      | None -> ()
      | Some semantically_valid ->
          let rule_valid = Syllogism.is_valid syll in
          if Bool.equal rule_valid semantically_valid then ()
          else if (not rule_valid) && semantically_valid then
            (* The classical rules are sound but reject the five forms
               needing existential import; under the modern reading those
               are semantically invalid too (empty sets), so with subsets
               including the empty set the two must agree exactly. *)
            Alcotest.failf "rules reject a semantically valid form: %s"
              (Format.asprintf "%a" Syllogism.pp syll)
          else
            Alcotest.failf "rules accept a semantically invalid form: %s"
              (Format.asprintf "%a" Syllogism.pp syll))
    (Syllogism.all_moods_figures ())

let () =
  Alcotest.run "argus-logic"
    [
      ( "prop",
        [
          Alcotest.test_case "parse/print cases" `Quick test_prop_parse_print;
          Alcotest.test_case "synonyms" `Quick test_prop_parse_synonyms;
          Alcotest.test_case "parse errors" `Quick test_prop_parse_errors;
          Alcotest.test_case "vars order" `Quick test_prop_vars_order;
          Alcotest.test_case "subst" `Quick test_subst;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest nnf_preserves_semantics;
          QCheck_alcotest.to_alcotest nnf_is_nnf;
        ] );
      ( "sat",
        [
          Alcotest.test_case "basic entailment" `Quick test_entails_basic;
          Alcotest.test_case "model counting" `Quick test_count_models;
          Alcotest.test_case "pure-literal elimination" `Quick
            test_pure_literal_elimination;
          Alcotest.test_case "witness prefilter and memo" `Quick
            test_quick_witness_and_memo;
          QCheck_alcotest.to_alcotest dpll_agrees_with_bruteforce;
          QCheck_alcotest.to_alcotest validity_agrees_with_bruteforce;
          QCheck_alcotest.to_alcotest direct_cnf_equisatisfiable;
          QCheck_alcotest.to_alcotest array_dpll_agrees_with_naive_tseitin;
          QCheck_alcotest.to_alcotest array_dpll_agrees_with_naive_direct;
          QCheck_alcotest.to_alcotest array_dpll_model_satisfies_cnf;
          QCheck_alcotest.to_alcotest model_satisfies;
          QCheck_alcotest.to_alcotest entailment_reflexive;
          QCheck_alcotest.to_alcotest entailment_monotone;
        ] );
      ( "term",
        [
          Alcotest.test_case "basic unification" `Quick test_unify_basic;
          Alcotest.test_case "occurs check" `Quick test_occurs_check;
          Alcotest.test_case "parsing" `Quick test_term_parse;
          QCheck_alcotest.to_alcotest unify_produces_unifier;
          QCheck_alcotest.to_alcotest unify_reflexive;
          QCheck_alcotest.to_alcotest term_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest subst_compose_is_sequential;
        ] );
      ( "natded",
        [
          Alcotest.test_case "Haley 2008 proof" `Quick test_haley_proof_checks;
          Alcotest.test_case "pretty print" `Quick test_haley_pretty_print;
          Alcotest.test_case "bad citation" `Quick test_bad_citation;
          Alcotest.test_case "rule mismatch" `Quick test_rule_mismatch;
          Alcotest.test_case "empty proof" `Quick test_empty_proof;
          Alcotest.test_case "reductio" `Quick test_reductio;
          Alcotest.test_case "or elimination" `Quick test_or_elim;
          Alcotest.test_case "excluded middle" `Quick test_excluded_middle;
          Alcotest.test_case "mutations rejected" `Quick test_mutation_rejected;
          QCheck_alcotest.to_alcotest generated_proofs_check;
        ] );
      ( "proof-text",
        [
          Alcotest.test_case "parse Haley file" `Quick test_proof_text_parse;
          Alcotest.test_case "numbering optional" `Quick
            test_proof_text_numbering_optional;
          Alcotest.test_case "errors" `Quick test_proof_text_errors;
          Alcotest.test_case "rule coverage" `Quick
            test_proof_text_rule_coverage;
          Alcotest.test_case "Haley round-trip" `Quick
            test_proof_text_haley_roundtrip;
          QCheck_alcotest.to_alcotest proof_text_roundtrip;
        ] );
      ( "syllogism",
        [
          Alcotest.test_case "15 valid forms" `Quick
            test_exactly_fifteen_valid_forms;
          Alcotest.test_case "name list" `Quick test_named_forms_are_valid;
          Alcotest.test_case "Barbara" `Quick test_barbara;
          Alcotest.test_case "undistributed middle" `Quick
            test_undistributed_middle;
          Alcotest.test_case "illicit major" `Quick test_illicit_major;
          Alcotest.test_case "exclusive premises" `Quick test_exclusive_premises;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "conversion" `Quick test_conversion;
          Alcotest.test_case "rules match semantics" `Slow
            test_rules_match_semantics;
        ] );
    ]
