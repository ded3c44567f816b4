(* Robustness: every parser returns a result (never raises) on arbitrary
   input, and every checker is total on arbitrary structures — the
   failure-injection half of the test plan.  Inputs here are adversarial
   by construction: random printable garbage, half-mutated valid
   documents, and randomly-wired graphs with every node type. *)

module Id = Argus_core.Id
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Wellformed = Argus_gsn.Wellformed
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf ?ruleset s = (Fused.check ?ruleset (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))
let lint s = Fused.lint (Caseir.intern s)
let cae_check c = Fused.check_cae (Fused.intern_cae c)

let printable_char = QCheck.Gen.(map Char.chr (int_range 32 126))

let garbage = QCheck.Gen.(string_size ~gen:printable_char (int_bound 200))

(* Mutate a valid document: splice garbage into the middle. *)
let mutated base =
  QCheck.Gen.(
    let* splice = string_size ~gen:printable_char (int_bound 20) in
    let* pos = int_bound (max 1 (String.length base - 1)) in
    return
      (String.sub base 0 pos ^ splice
      ^ String.sub base pos (String.length base - pos)))

let valid_case =
  {|case "x" {
     evidence E1 analysis "a"
     goal G1 "g is safe" { supported-by Sn1 }
     solution Sn1 "s" { evidence E1 }
   }|}

let total name f gen =
  QCheck.Test.make ~name ~count:500 (QCheck.make gen) (fun input ->
      match f input with _ -> true | exception _ -> false)

let parser_totality =
  [
    total "Prop.of_string is total" Argus_logic.Prop.of_string garbage;
    total "Term.of_string is total" Argus_logic.Term.of_string garbage;
    total "Ltl.of_string is total" Argus_ltl.Ltl.of_string garbage;
    total "Program.of_string is total" Argus_prolog.Program.of_string garbage;
    total "Toulmin.of_string is total" Argus_toulmin.Toulmin.of_string garbage;
    total "Dsl.parse is total on garbage" Argus_dsl.Dsl.parse garbage;
    total "Dsl.parse is total on mutated cases" Argus_dsl.Dsl.parse
      (mutated valid_case);
    total "Dsl.parse_collection is total" Argus_dsl.Dsl.parse_collection
      (mutated (valid_case ^ "\n" ^ valid_case));
    total "Query.of_string is total" Argus_gsn.Query.of_string garbage;
    total "Metadata.annotation_of_string is total"
      Argus_gsn.Metadata.annotation_of_string garbage;
    total "Proof_text.parse is total" Argus_logic.Proof_text.parse garbage;
  ]

(* Random structures wired arbitrarily: any node type, any link,
   dangling endpoints, self-loops, cycles. *)
let gen_chaotic_structure =
  let open QCheck.Gen in
  let* n_nodes = int_range 0 12 in
  let* n_links = int_range 0 25 in
  let node_type i =
    match i mod 9 with
    | 0 -> Node.Goal
    | 1 -> Node.Strategy
    | 2 -> Node.Solution
    | 3 -> Node.Context
    | 4 -> Node.Assumption
    | 5 -> Node.Justification
    | 6 -> Node.Away_goal (Id.of_string "M")
    | 7 -> Node.Module_ref (Id.of_string "M")
    | _ -> Node.Contract (Id.of_string "M")
  in
  let* type_seeds = list_size (return n_nodes) (int_bound 8) in
  let* statuses =
    list_size (return n_nodes)
      (oneofl
         [
           Node.Developed; Node.Undeveloped; Node.Uninstantiated;
           Node.Undeveloped_uninstantiated;
         ])
  in
  let nodes =
    List.mapi
      (fun i (seed, status) ->
        Node.make
          ~id:(Id.of_string (Printf.sprintf "n%d" i))
          ~node_type:(node_type seed) ~status
          (if i mod 3 = 0 then "" else Printf.sprintf "node %d text {x}" i))
      (List.combine type_seeds statuses)
  in
  let* link_pairs =
    list_size (return n_links)
      (triple (int_bound (max 1 n_nodes + 2)) (int_bound (max 1 n_nodes + 2)) bool)
  in
  let structure = List.fold_left (fun s n -> Structure.add_node n s) Structure.empty nodes in
  let structure =
    List.fold_left
      (fun s (a, b, ctx) ->
        Structure.connect
          (if ctx then Structure.In_context_of else Structure.Supported_by)
          ~src:(Id.of_string (Printf.sprintf "n%d" a))
          ~dst:(Id.of_string (Printf.sprintf "n%d" b))
          s)
      structure link_pairs
  in
  return structure

let checker_totality =
  [
    QCheck.Test.make ~name:"Wellformed.check is total on chaos" ~count:300
      (QCheck.make gen_chaotic_structure) (fun s ->
        match fused_wf s with _ -> true | exception _ -> false);
    QCheck.Test.make ~name:"strict ruleset is total on chaos" ~count:300
      (QCheck.make gen_chaotic_structure) (fun s ->
        match fused_wf ~ruleset:Wellformed.Denney_pai_2013 s with
        | _ -> true
        | exception _ -> false);
    QCheck.Test.make ~name:"informal lints are total on chaos" ~count:300
      (QCheck.make gen_chaotic_structure) (fun s ->
        match lint s with
        | _ -> true
        | exception _ -> false);
    QCheck.Test.make ~name:"CAE conversion+check total on chaos" ~count:300
      (QCheck.make gen_chaotic_structure) (fun s ->
        match cae_check (Argus_cae.Cae.of_gsn s) with
        | _ -> true
        | exception _ -> false);
    QCheck.Test.make ~name:"has_cycle is total on chaos" ~count:300
      (QCheck.make gen_chaotic_structure) (fun s ->
        match Caseir.has_cycle (Caseir.intern s) with
        | _ -> true
        | exception _ -> false);
    QCheck.Test.make ~name:"outline printing is total on chaos" ~count:300
      (QCheck.make gen_chaotic_structure) (fun s ->
        match Format.asprintf "%a" Structure.pp_outline s with
        | _ -> true
        | exception _ -> false);
    QCheck.Test.make ~name:"dot rendering is total on chaos" ~count:300
      (QCheck.make gen_chaotic_structure) (fun s ->
        match Structure.to_dot s with _ -> true | exception _ -> false);
  ]

(* --- Budget soundness ---

   For any budget, a budgeted engine call must either (a) finish within
   the budget and return a result identical to the unbudgeted run, or
   (b) record exhaustion and produce a non-empty diagnostic — and in no
   case raise.  A wrong answer without an exhaustion mark is the bug
   these properties hunt. *)

module Budget = Argus_rt.Budget
module Prop = Argus_logic.Prop
module Sat = Argus_logic.Sat

let gen_prop =
  let open QCheck.Gen in
  let var = map (fun i -> Prop.Var (Printf.sprintf "v%d" i)) (int_bound 6) in
  fix
    (fun self depth ->
      if depth = 0 then var
      else
        frequency
          [
            (2, var);
            (1, return Prop.Top);
            (1, return Prop.Bot);
            (2, map (fun p -> Prop.Not p) (self (depth - 1)));
            ( 3,
              map2 (fun a b -> Prop.And (a, b)) (self (depth - 1))
                (self (depth - 1)) );
            ( 3,
              map2 (fun a b -> Prop.Or (a, b)) (self (depth - 1))
                (self (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Prop.Implies (a, b))
                (self (depth - 1))
                (self (depth - 1)) );
          ])
    5

let gen_fuel = QCheck.Gen.int_range 1 2000

(* Complete-or-marked: the shared shape of every property below. *)
let complete_or_marked b ~same =
  match Budget.exhausted b with
  | None -> same ()
  | Some _ -> Budget.diagnostics b <> []

let budget_sat =
  QCheck.Test.make ~name:"budgeted SAT: complete or marked" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_prop gen_fuel))
    (fun (f, fuel) ->
      let b = Budget.make ~fuel () in
      match Sat.satisfiable ~budget:b f with
      | r -> complete_or_marked b ~same:(fun () -> r = Sat.satisfiable f)
      | exception _ -> false)

let budget_count_models =
  QCheck.Test.make ~name:"budgeted count_models: exact or truncated"
    ~count:300
    (* At most 128 valuations (seven variables): fuel up to 128 cuts
       some enumerations short and lets others finish. *)
    (QCheck.make QCheck.Gen.(pair gen_prop (int_range 1 128)))
    (fun (f, fuel) ->
      let b = Budget.make ~fuel () in
      match Sat.count_models ~budget:b f with
      | exception _ -> false
      | Sat.At_least n ->
          (* A truncated count is always a sound lower bound and is
             always marked. *)
          Budget.exhausted b <> None
          && Budget.diagnostics b <> []
          && (match Sat.count_models f with
             | Sat.Exact m -> n <= m
             | Sat.At_least _ -> false)
      | Sat.Exact n -> (
          Budget.exhausted b = None
          && match Sat.count_models f with Sat.Exact m -> n = m | _ -> false))

let prolog_program =
  match
    Argus_prolog.Program.of_string
      {|edge(a, b). edge(b, c). edge(c, a). edge(c, d).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        blocked(X) :- blocked(X), blocked(X).
        blocked(X) :- blocked(X).|}
  with
  | Ok p -> p
  | Error e -> failwith e

let budget_prolog =
  let goals =
    [| "path(a, d)"; "path(d, a)"; "path(a, X)"; "blocked(q)"; "path(X, X)" |]
  in
  QCheck.Test.make ~name:"budgeted provable: complete or marked" ~count:200
    (QCheck.make
       QCheck.Gen.(pair (int_bound (Array.length goals - 1)) gen_fuel))
    (fun (gi, fuel) ->
      let goal =
        match Argus_logic.Term.of_string goals.(gi) with
        | Ok t -> t
        | Error e -> failwith e
      in
      let b = Budget.make ~fuel () in
      match Argus_prolog.Exec.provable_term ~budget:b prolog_program goal with
      | r ->
          complete_or_marked b ~same:(fun () ->
              r = Argus_prolog.Exec.provable_term prolog_program goal)
      | exception _ -> false)

let gen_ltl =
  let open QCheck.Gen in
  let module L = Argus_ltl.Ltl in
  let var = map (fun i -> L.Atom (Printf.sprintf "a%d" i)) (int_bound 3) in
  fix
    (fun self depth ->
      if depth = 0 then var
      else
        frequency
          [
            (2, var);
            (2, map (fun p -> L.Not p) (self (depth - 1)));
            ( 2,
              map2 (fun a b -> L.And (a, b)) (self (depth - 1))
                (self (depth - 1)) );
            ( 2,
              map2 (fun a b -> L.Or (a, b)) (self (depth - 1))
                (self (depth - 1)) );
            (2, map (fun p -> L.Next p) (self (depth - 1)));
            ( 2,
              map2 (fun a b -> L.Until (a, b)) (self (depth - 1))
                (self (depth - 1)) );
            (2, map (fun p -> L.Eventually p) (self (depth - 1)));
            (2, map (fun p -> L.Always p) (self (depth - 1)));
          ])
    4

let gen_trace =
  let open QCheck.Gen in
  let state = list_size (int_bound 3) (map (Printf.sprintf "a%d") (int_bound 3)) in
  let* prefix = list_size (int_bound 4) state in
  let* loop = list_size (int_range 1 4) state in
  return (Argus_ltl.Ltl.Trace.make ~prefix ~loop)

let budget_ltl =
  QCheck.Test.make ~name:"budgeted LTL holds: complete or marked" ~count:500
    (QCheck.make QCheck.Gen.(triple gen_ltl gen_trace gen_fuel))
    (fun (f, tr, fuel) ->
      let b = Budget.make ~fuel () in
      match Argus_ltl.Ltl.holds ~budget:b tr f with
      | r ->
          complete_or_marked b ~same:(fun () -> r = Argus_ltl.Ltl.holds tr f)
      | exception _ -> false)

let budget_soundness =
  [ budget_sat; budget_count_models; budget_prolog; budget_ltl ]

(* Cross-check: the well-formedness verdict does not depend on whether
   the pass also ran the lints (the wf-only pass is what the modular
   checker and a lint-free `argus check` run). *)
let wellformed_consistency =
  QCheck.Test.make ~name:"is_well_formed agrees with check" ~count:300
    (QCheck.make gen_chaotic_structure) (fun s ->
      let ir = Caseir.intern s in
      Bool.equal (well_formed s)
        (not (Diagnostic.has_errors (Fused.check ~lints:false ir).Fused.wf)))

let () =
  Alcotest.run "argus-fuzz"
    [
      ("parser-totality", List.map QCheck_alcotest.to_alcotest parser_totality);
      ( "checker-totality",
        List.map QCheck_alcotest.to_alcotest checker_totality );
      ( "budget-soundness",
        List.map QCheck_alcotest.to_alcotest budget_soundness );
      ( "consistency",
        [ QCheck_alcotest.to_alcotest wellformed_consistency ] );
    ]
