open Argus_prolog
module Engine = Argus_oracle.Engine
module Term = Argus_logic.Term

let term s = Result.get_ok (Term.of_string s)

let desert_bank =
  Program.of_string_exn
    {|
      % Figure 1 of the paper: premises that are individually true but
      % equivocate on 'bank'.
      is_a(desert_bank, bank).
      adjacent(bank, river).
      adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y).
    |}

let family =
  Program.of_string_exn
    {|
      parent(tom, bob).
      parent(bob, ann).
      parent(bob, pat).
      ancestor(X, Y) :- parent(X, Y).
      ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
    |}

(* --- Parsing --- *)

let test_parse_program () =
  Alcotest.(check int) "clauses" 3 (List.length desert_bank);
  Alcotest.(check int) "predicates" 2 (List.length (Program.predicates desert_bank));
  let r = List.nth desert_bank 2 in
  Alcotest.(check int) "rule body" 2 (List.length r.Program.body);
  Alcotest.(check (list string))
    "clause vars" [ "X"; "Y"; "Z" ]
    (Program.clause_vars r)

let test_parse_roundtrip () =
  let text = Program.to_string family in
  let family' = Program.of_string_exn text in
  Alcotest.(check int) "same clause count" (List.length family)
    (List.length family');
  Alcotest.(check string) "stable text" text (Program.to_string family')

let test_parse_errors () =
  List.iter
    (fun s ->
      match Program.of_string s with
      | Ok _ -> Alcotest.failf "should not parse: %S" s
      | Error _ -> ())
    [ "f(a)"; "f(a) :- ."; "f(a,)."; ":- g."; "f(a)) ." ]

let test_comments_ignored () =
  let p = Program.of_string_exn "% just a comment\nf(a). % trailing\n" in
  Alcotest.(check int) "one clause" 1 (List.length p)

(* --- Figure 1 --- *)

let test_desert_bank_derivable () =
  (* The paper's point: the flawed conclusion is formally derivable. *)
  Alcotest.(check bool) "adjacent(desert_bank, river) 'proved'" true
    (Engine.provable desert_bank (term "adjacent(desert_bank, river)"));
  match Engine.prove desert_bank (term "adjacent(desert_bank, river)") with
  | None -> Alcotest.fail "expected a derivation"
  | Some d ->
      Alcotest.(check int) "uses the recursive clause" 2 d.Engine.clause_index;
      Alcotest.(check int) "two sub-goals" 2 (List.length d.Engine.children);
      Alcotest.(check int) "derivation size" 3 (Derivation.size d)

let test_desert_bank_not_everything () =
  Alcotest.(check bool) "unrelated goal fails" false
    (Engine.provable desert_bank (term "adjacent(river, desert_bank)"))

(* --- Resolution --- *)

let test_facts () =
  Alcotest.(check bool) "fact" true (Engine.provable family (term "parent(tom, bob)"));
  Alcotest.(check bool) "non-fact" false
    (Engine.provable family (term "parent(bob, tom)"))

let test_recursive_rule () =
  Alcotest.(check bool) "transitive" true
    (Engine.provable family (term "ancestor(tom, pat)"))

let test_solution_enumeration () =
  let sols = Engine.solutions family (term "ancestor(tom, X)") in
  let values =
    List.map
      (fun bindings ->
        match bindings with
        | [ ("X", t) ] -> Term.to_string t
        | _ -> "?")
      sols
  in
  List.iter
    (fun expected ->
      if not (List.mem expected values) then
        Alcotest.failf "missing solution %s (got: %s)" expected
          (String.concat ", " values))
    [ "bob"; "ann"; "pat" ];
  Alcotest.(check int) "exactly three" 3 (List.length values)

let test_conjunction () =
  let sols =
    Engine.solve family [ term "parent(tom, X)"; term "parent(X, Y)" ]
  in
  let first = Seq.uncons sols in
  match first with
  | Some ((subst, derivs), _) ->
      Alcotest.(check int) "two derivations" 2 (List.length derivs);
      let bindings =
        Engine.bindings_for [ term "parent(tom, X)"; term "parent(X, Y)" ] subst
      in
      Alcotest.(check bool) "X=bob" true
        (List.assoc "X" bindings = Term.const "bob")
  | None -> Alcotest.fail "expected a solution"

let test_depth_bound_terminates () =
  (* A left-recursive looping program must not diverge. *)
  let looping = Program.of_string_exn "p(X) :- p(X). p(a)." in
  Alcotest.(check bool) "still finds the fact" true
    (Engine.provable ~max_depth:16 looping (term "p(a)"));
  let no_fact = Program.of_string_exn "p(X) :- p(X)." in
  Alcotest.(check bool) "pure loop is unprovable" false
    (Engine.provable ~max_depth:16 no_fact (term "p(a)"))

let test_variable_query () =
  let sols = Engine.solutions ~limit:5 family (term "parent(P, C)") in
  Alcotest.(check int) "three parent facts" 3 (List.length sols)

let test_freshening () =
  (* Two uses of the same clause must not share variables: classic
     grandparent query via one rule with variables X, Y. *)
  let p =
    Program.of_string_exn
      "g(X, Y) :- parent(X, Z), parent(Z, Y). parent(a, b). parent(b, c)."
  in
  Alcotest.(check bool) "grandparent" true (Engine.provable p (term "g(a, c)"));
  Alcotest.(check bool) "not reflexive" false (Engine.provable p (term "g(a, b)"))

(* --- Properties --- *)

(* Random ground-fact databases: provable iff the fact is in the
   database. *)
let fact_db_complete =
  QCheck.Test.make ~name:"ground facts are provable iff present" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 15) (int_bound 9)) (int_bound 9))
    (fun (facts, probe) ->
      let program =
        List.map
          (fun i -> Program.fact (Term.app "f" [ Term.const (Printf.sprintf "c%d" i) ]))
          facts
      in
      let goal = Term.app "f" [ Term.const (Printf.sprintf "c%d" probe) ] in
      Bool.equal (Engine.provable program goal) (List.mem probe facts))

(* Chain programs: edge facts c0->c1->...->cn plus transitive closure;
   path(c0, ck) provable for every k in range. *)
let chain_reachability =
  QCheck.Test.make ~name:"transitive closure over chains" ~count:50
    QCheck.(int_range 1 8)
    (fun n ->
      let edges =
        List.init n (fun i ->
            Program.fact
              (Term.app "edge"
                 [
                   Term.const (Printf.sprintf "c%d" i);
                   Term.const (Printf.sprintf "c%d" (i + 1));
                 ]))
      in
      let rules =
        [
          Program.rule
            (Term.app "path" [ Term.var "X"; Term.var "Y" ])
            [ Term.app "edge" [ Term.var "X"; Term.var "Y" ] ];
          Program.rule
            (Term.app "path" [ Term.var "X"; Term.var "Y" ])
            [
              Term.app "edge" [ Term.var "X"; Term.var "Z" ];
              Term.app "path" [ Term.var "Z"; Term.var "Y" ];
            ];
        ]
      in
      let program = edges @ rules in
      List.for_all
        (fun k ->
          Engine.provable program
            (Term.app "path" [ Term.const "c0"; Term.const (Printf.sprintf "c%d" k) ]))
        (List.init n (fun i -> i + 1))
      && not
           (Engine.provable program
              (Term.app "path" [ Term.const "c1"; Term.const "c0" ])))

(* --- Indexed engine vs. the naive reference --- *)

(* The indexed engine only skips clauses whose head unification was
   guaranteed to fail, so its solution stream must equal the naive
   engine's — same bindings, same order — up to the names of freshened
   variables. *)
let rec term_similar t1 t2 =
  match (t1, t2) with
  | Term.Var _, Term.Var _ -> true
  | Term.App (f, a1), Term.App (g, a2) ->
      Argus_core.Symbol.equal f g
      && List.compare_lengths a1 a2 = 0
      && List.for_all2 term_similar a1 a2
  | _ -> false

let bindings_similar b1 b2 =
  List.compare_lengths b1 b2 = 0
  && List.for_all2
       (fun (v1, t1) (v2, t2) -> String.equal v1 v2 && term_similar t1 t2)
       b1 b2

let take_bindings goal limit seq =
  let rec go n seq =
    if n <= 0 then []
    else
      match Seq.uncons seq with
      | None -> []
      | Some ((subst, _), rest) ->
          Engine.bindings_for [ goal ] subst :: go (n - 1) rest
  in
  go limit seq

(* Random databases mixing predicates, arities, compound and constant
   first arguments — the shapes first-argument indexing discriminates
   on — plus optional variable-bodied rules, probed with goals whose
   arguments may be variables. *)
let gen_program_and_goal =
  let open QCheck.Gen in
  let const i = Term.const (Printf.sprintf "c%d" i) in
  let atom =
    oneof
      [
        map const (int_range 0 3);
        map (fun i -> Term.app "s" [ const i ]) (int_range 0 2);
      ]
  in
  let fact =
    map2
      (fun name args -> Program.fact (Term.app name args))
      (oneofl [ "p"; "q"; "r" ])
      (list_size (int_range 1 2) atom)
  in
  let rule_pool =
    [
      Program.rule
        (Term.app "t" [ Term.var "X" ])
        [ Term.app "p" [ Term.var "X" ] ];
      Program.rule
        (Term.app "t" [ Term.var "X" ])
        [ Term.app "q" [ Term.var "X"; Term.var "Y" ] ];
      Program.rule
        (Term.app "t" [ Term.var "X" ])
        [ Term.app "p" [ Term.var "X" ]; Term.app "r" [ Term.var "X" ] ];
    ]
  in
  let goal_arg = oneof [ atom; map Term.var (oneofl [ "G"; "H" ]) ] in
  pair
    (pair (list_size (int_range 2 12) fact) bool)
    (pair (oneofl [ "p"; "q"; "r"; "t" ]) (list_size (int_range 1 2) goal_arg))
  |> map (fun ((facts, use_rules), (gname, gargs)) ->
         ((if use_rules then facts @ rule_pool else facts),
          Term.app gname gargs))

let indexed_agrees_with_naive =
  QCheck.Test.make ~name:"indexed engine = naive engine (solutions, in order)"
    ~count:300
    (QCheck.make
       ~print:(fun (p, g) ->
         Program.to_string p ^ " ?- " ^ Term.to_string g)
       gen_program_and_goal)
    (fun (program, goal) ->
      let idx =
        take_bindings goal 12 (Engine.solve ~max_depth:24 program [ goal ])
      in
      let naive =
        take_bindings goal 12
          (Engine.solve_naive ~max_depth:24 program [ goal ])
      in
      List.compare_lengths idx naive = 0
      && List.for_all2 bindings_similar idx naive)

let chain_program n =
  List.init n (fun i ->
      Program.fact
        (Term.app "edge"
           [
             Term.const (Printf.sprintf "c%d" i);
             Term.const (Printf.sprintf "c%d" (i + 1));
           ]))
  @ [
      Program.rule
        (Term.app "path" [ Term.var "X"; Term.var "Y" ])
        [ Term.app "edge" [ Term.var "X"; Term.var "Y" ] ];
      Program.rule
        (Term.app "path" [ Term.var "X"; Term.var "Y" ])
        [
          Term.app "edge" [ Term.var "X"; Term.var "Z" ];
          Term.app "path" [ Term.var "Z"; Term.var "Y" ];
        ];
    ]

let indexed_agrees_on_recursion =
  QCheck.Test.make
    ~name:"indexed engine = naive engine (recursive provability)" ~count:80
    QCheck.(pair (int_range 1 6) (pair (int_bound 7) (int_bound 7)))
    (fun (n, (a, b)) ->
      let program = chain_program n in
      let goal =
        Term.app "path"
          [
            Term.const (Printf.sprintf "c%d" a);
            Term.const (Printf.sprintf "c%d" b);
          ]
      in
      Bool.equal
        (not (Seq.is_empty (Engine.solve ~max_depth:32 program [ goal ])))
        (not
           (Seq.is_empty (Engine.solve_naive ~max_depth:32 program [ goal ]))))

(* Counter invariants on the Figure 1 workload (the same query the
   test/cli/trace.t cram test pins exact values for): every index
   lookup accounts for the whole program as hits + misses, lazy answer
   streams can only try admitted clauses, and each try is exactly one
   unification. *)
let test_index_counter_invariants () =
  let hits = Argus_obs.Counter.make "prolog.index_hits"
  and misses = Argus_obs.Counter.make "prolog.index_misses"
  and tries = Argus_obs.Counter.make "prolog.clause_tries"
  and unifs = Argus_obs.Counter.make "prolog.unifications" in
  let snap () =
    ( Argus_obs.Counter.value hits,
      Argus_obs.Counter.value misses,
      Argus_obs.Counter.value tries,
      Argus_obs.Counter.value unifs )
  in
  let h0, m0, t0, u0 = snap () in
  let goal = term "adjacent(desert_bank, river)" in
  let n = Seq.length (Engine.solve desert_bank [ goal ]) in
  Alcotest.(check int) "one solution" 1 n;
  let h1, m1, t1, u1 = snap () in
  let dh = h1 - h0 and dm = m1 - m0 and dt = t1 - t0 and du = u1 - u0 in
  Alcotest.(check int) "hits + misses cover the program at every lookup" 0
    ((dh + dm) mod List.length desert_bank);
  Alcotest.(check bool) "tries never exceed admitted candidates" true
    (dt <= dh);
  Alcotest.(check int) "each try is exactly one unification" dt du;
  Alcotest.(check bool) "the index pruned something" true (dm > 0)

(* Derivations are sound: replaying a derivation bottom-up, each node's
   goal must unify with its clause's head under some instantiation. *)
let derivations_replayable =
  QCheck.Test.make ~name:"derivation nodes match their clauses" ~count:50
    QCheck.(int_range 1 6)
    (fun n ->
      let program =
        List.init n (fun i ->
            Program.fact (Term.app "q" [ Term.const (Printf.sprintf "k%d" i) ]))
        @ [
            Program.rule
              (Term.app "all_q" [ Term.var "X" ])
              [ Term.app "q" [ Term.var "X" ] ];
          ]
      in
      match Engine.prove program (Term.app "all_q" [ Term.var "W" ]) with
      | None -> false
      | Some d ->
          let rec sound d =
            let clause = List.nth program d.Engine.clause_index in
            Term.unify clause.Program.head d.Engine.goal <> None
            && List.length d.Engine.children = List.length clause.Program.body
            && List.for_all sound d.Engine.children
          in
          sound d)

(* --- Compiled executor vs. the interpreter --- *)

module Exec = Argus_prolog.Exec
module Budget = Argus_rt.Budget

(* The compiled executor performs exactly the interpreter's search, so
   the solution streams must agree — same bindings, same order — up to
   the names of variables a solution leaves unbound (the executor reads
   those back as fresh [_G<n>] names). *)
let compiled_agrees_with_interpreter =
  QCheck.Test.make ~name:"compiled executor = interpreter (solutions, in order)"
    ~count:300
    (QCheck.make
       ~print:(fun (p, g) -> Program.to_string p ^ " ?- " ^ Term.to_string g)
       gen_program_and_goal)
    (fun (program, goal) ->
      let interp =
        take_bindings goal 12 (Engine.solve ~max_depth:24 program [ goal ])
      in
      let compiled =
        Exec.solutions_term ~max_depth:24 ~limit:12 program goal
      in
      List.compare_lengths interp compiled = 0
      && List.for_all2 bindings_similar interp compiled)

let compiled_agrees_on_recursion =
  QCheck.Test.make
    ~name:"compiled executor = interpreter (recursive provability)" ~count:80
    QCheck.(pair (int_range 1 6) (pair (int_bound 7) (int_bound 7)))
    (fun (n, (a, b)) ->
      let program = chain_program n in
      let goal =
        Term.app "path"
          [
            Term.const (Printf.sprintf "c%d" a);
            Term.const (Printf.sprintf "c%d" b);
          ]
      in
      Bool.equal
        (Engine.provable ~max_depth:32 program goal)
        (Exec.provable_term ~max_depth:32 program goal))

(* Both engines tick the budget once per clause candidate tried and
   stop enumerating at the same answer limit, so under the same fuel
   they must stop at the same step count with the same partial answer
   list. *)
let compiled_budget_parity =
  QCheck.Test.make
    ~name:"compiled executor ticks the budget like the interpreter" ~count:150
    (QCheck.make
       ~print:(fun ((p, g), fuel) ->
         Printf.sprintf "%s ?- %s  (fuel %d)" (Program.to_string p)
           (Term.to_string g) fuel)
       QCheck.Gen.(pair gen_program_and_goal (int_range 1 40)))
    (fun ((program, goal), fuel) ->
      let b1 = Budget.make ~fuel () in
      let b2 = Budget.make ~fuel () in
      let interp =
        Engine.solutions ~max_depth:24 ~budget:b1 ~limit:8 program goal
      in
      let compiled =
        Exec.solutions_term ~max_depth:24 ~budget:b2 ~limit:8 program goal
      in
      List.compare_lengths interp compiled = 0
      && List.for_all2 bindings_similar interp compiled
      && Budget.steps b1 = Budget.steps b2
      && Bool.equal (Budget.exhausted b1 <> None) (Budget.exhausted b2 <> None))

(* Regression for the one-entry compile cache: alternating between two
   programs must not recompile on every call (the original cache held a
   single entry, so A/B/A/B thrashed it). *)
let test_compile_cache_holds_alternating_programs () =
  let compilations = Argus_obs.Counter.make "prolog.compilations" in
  let g_bank = term "adjacent(desert_bank, river)" in
  let g_family = term "parent(tom, X)" in
  (* Warm both cache entries. *)
  ignore (Exec.provable_term desert_bank g_bank);
  ignore (Exec.provable_term family g_family);
  let c0 = Argus_obs.Counter.value compilations in
  for _ = 1 to 10 do
    ignore (Exec.provable_term desert_bank g_bank);
    ignore (Exec.provable_term family g_family)
  done;
  Alcotest.(check int) "alternating programs never recompile" 0
    (Argus_obs.Counter.value compilations - c0)

(* The compiled-calls counter attributes work to the executor. *)
let test_compiled_calls_counted () =
  let calls = Argus_obs.Counter.make "prolog.compiled_calls" in
  let c0 = Argus_obs.Counter.value calls in
  ignore (Exec.provable_term desert_bank (term "adjacent(desert_bank, river)"));
  Alcotest.(check bool) "prolog.compiled_calls advanced" true
    (Argus_obs.Counter.value calls > c0)

let () =
  Alcotest.run "argus-prolog"
    [
      ( "parsing",
        [
          Alcotest.test_case "program" `Quick test_parse_program;
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments" `Quick test_comments_ignored;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "desert bank derivable" `Quick
            test_desert_bank_derivable;
          Alcotest.test_case "engine is not trivial" `Quick
            test_desert_bank_not_everything;
        ] );
      ( "resolution",
        [
          Alcotest.test_case "facts" `Quick test_facts;
          Alcotest.test_case "recursive rules" `Quick test_recursive_rule;
          Alcotest.test_case "enumeration" `Quick test_solution_enumeration;
          Alcotest.test_case "conjunction" `Quick test_conjunction;
          Alcotest.test_case "depth bound" `Quick test_depth_bound_terminates;
          Alcotest.test_case "variable query" `Quick test_variable_query;
          Alcotest.test_case "clause freshening" `Quick test_freshening;
          QCheck_alcotest.to_alcotest fact_db_complete;
          QCheck_alcotest.to_alcotest chain_reachability;
          QCheck_alcotest.to_alcotest derivations_replayable;
        ] );
      ( "indexing",
        [
          QCheck_alcotest.to_alcotest indexed_agrees_with_naive;
          QCheck_alcotest.to_alcotest indexed_agrees_on_recursion;
          Alcotest.test_case "counter invariants" `Quick
            test_index_counter_invariants;
        ] );
      ( "compiled",
        [
          QCheck_alcotest.to_alcotest compiled_agrees_with_interpreter;
          QCheck_alcotest.to_alcotest compiled_agrees_on_recursion;
          QCheck_alcotest.to_alcotest compiled_budget_parity;
          Alcotest.test_case "cache holds alternating programs" `Quick
            test_compile_cache_holds_alternating_programs;
          Alcotest.test_case "compiled calls counted" `Quick
            test_compiled_calls_counted;
        ] );
    ]
