open Argus_cae
module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Diagnostic = Argus_core.Diagnostic
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf s = (Fused.check (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))
let cae_check c = Fused.check_cae (Fused.intern_cae c)
let cae_well_formed c = not (Diagnostic.has_errors (cae_check c))

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

(* A small well-formed CAE case. *)
let sample =
  Cae.of_nodes
    ~links:
      [
        ("C1", "A1");
        ("A1", "E1");
        ("A1", "C2");
        ("C2", "A2");
        ("A2", "E2");
      ]
    [
      Cae.claim "C1" "The system is acceptably secure";
      Cae.argument "A1" "Argument over the attack surface";
      Cae.evidence_ref "E1" "Penetration test report";
      Cae.claim "C2" "The update channel is authenticated";
      Cae.argument "A2" "Cryptographic review";
      Cae.evidence_ref "E2" "Review minutes";
    ]

let test_sample_well_formed () =
  Alcotest.(check (list string)) "clean" [] (codes (cae_check sample))

let test_claim_without_argument () =
  let c = Cae.of_nodes [ Cae.claim "C1" "unsupported claim" ] in
  Alcotest.(check bool) "flagged" true
    (List.mem "cae/claim-without-argument" (codes (cae_check c)))

let test_premise_claims_allowed () =
  let c = Cae.of_nodes [ Cae.claim ~premise:true "C1" "stipulated" ] in
  Alcotest.(check bool) "premises need no argument" true
    (not (List.mem "cae/claim-without-argument" (codes (cae_check c))))

let test_empty_argument () =
  let c =
    Cae.of_nodes
      ~links:[ ("C1", "A1") ]
      [ Cae.claim "C1" "claim"; Cae.argument "A1" "empty inference" ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "cae/empty-argument" (codes (cae_check c)))

let test_evidence_not_leaf () =
  let c =
    Cae.of_nodes
      ~links:[ ("C1", "A1"); ("A1", "E1"); ("E1", "C2") ]
      [
        Cae.claim "C1" "claim";
        Cae.argument "A1" "argument";
        Cae.evidence_ref "E1" "evidence";
        Cae.claim ~premise:true "C2" "sub";
      ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "cae/evidence-not-leaf" (codes (cae_check c)))

let test_direct_evidence_under_claim () =
  let c =
    Cae.of_nodes
      ~links:[ ("C1", "E1") ]
      [ Cae.claim "C1" "claim"; Cae.evidence_ref "E1" "evidence" ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "cae/bad-support" (codes (cae_check c)))

let test_cycle () =
  let c =
    Cae.of_nodes
      ~links:[ ("C1", "A1"); ("A1", "C2"); ("C2", "A2"); ("A2", "C1") ]
      [
        Cae.claim "C1" "claim one";
        Cae.argument "A1" "arg one";
        Cae.claim "C2" "claim two";
        Cae.argument "A2" "arg two";
      ]
  in
  let cs = codes (cae_check c) in
  Alcotest.(check bool) "cycle" true (List.mem "cae/cycle" cs);
  Alcotest.(check bool) "no root" true (List.mem "cae/no-root" cs)

(* A chain of 200 diamonds — claim C(i) supported by arguments A(i) and
   B(i), both supported by claim C(i+1) — has 2^200 support paths; the
   cycle check must still visit each entity once.  One back edge from
   the deepest argument to the top claim closes a cycle. *)
let test_diamond_chain () =
  let k = 200 in
  let id fmt = Printf.sprintf fmt in
  let nodes =
    List.concat
      (List.init k (fun i ->
           [
             Cae.claim (id "C%d" i) "claim";
             Cae.argument (id "A%d" i) "left";
             Cae.argument (id "B%d" i) "right";
           ]))
    @ [
        Cae.claim (id "C%d" k) "claim";
        Cae.argument "Z" "last";
        Cae.evidence_ref "E" "report";
      ]
  in
  let links =
    List.concat
      (List.init k (fun i ->
           [
             (id "C%d" i, id "A%d" i);
             (id "C%d" i, id "B%d" i);
             (id "A%d" i, id "C%d" (i + 1));
             (id "B%d" i, id "C%d" (i + 1));
           ]))
    @ [ (id "C%d" k, "Z"); ("Z", "E") ]
  in
  let cs = codes (cae_check (Cae.of_nodes ~links nodes)) in
  Alcotest.(check bool) "acyclic chain" false (List.mem "cae/cycle" cs);
  let cs =
    codes (cae_check (Cae.of_nodes ~links:(("Z", "C0") :: links) nodes))
  in
  Alcotest.(check bool) "back edge closes a cycle" true
    (List.mem "cae/cycle" cs)

let test_dangling () =
  let c =
    Cae.of_nodes ~links:[ ("C1", "Ghost") ] [ Cae.claim "C1" "claim" ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "cae/dangling-link" (codes (cae_check c)))

let test_multiple_arguments_warned () =
  let c =
    Cae.of_nodes
      ~links:[ ("C1", "A1"); ("C1", "A2"); ("A1", "E1"); ("A2", "E1") ]
      [
        Cae.claim "C1" "claim";
        Cae.argument "A1" "first route";
        Cae.argument "A2" "second route";
        Cae.evidence_ref "E1" "shared evidence";
      ]
  in
  Alcotest.(check bool) "warned" true
    (List.mem "cae/multiple-arguments" (codes (cae_check c)));
  Alcotest.(check bool) "warning only" true (cae_well_formed c)

(* --- GSN conversion --- *)

let gsn_sample =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "G2");
        (Structure.Supported_by, "G2", "Sn1");
        (Structure.In_context_of, "G1", "C1");
        (Structure.In_context_of, "S1", "J1");
      ]
    ~evidence:
      [ Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Analysis "a" ]
    [
      Node.goal "G1" "The system is acceptably safe";
      Node.strategy "S1" "Argue over hazards";
      Node.goal "G2" "Hazard H1 is managed";
      Node.solution ~evidence:"E1" "Sn1" "Analysis results";
      Node.context "C1" "Operating context";
      Node.justification "J1" "HAZOP-derived list";
    ]

let test_of_gsn_well_formed () =
  let cae = Cae.of_gsn gsn_sample in
  Alcotest.(check (list string)) "clean" [] (codes (cae_check cae));
  (* Goals became claims, strategy an argument node, solution evidence. *)
  let find id = Cae.find (Id.of_string id) cae in
  (match find "G1" with
  | Some { Cae.node_type = Cae.Claim; _ } -> ()
  | _ -> Alcotest.fail "G1 should be a claim");
  (match find "S1" with
  | Some { Cae.node_type = Cae.Argument; _ } -> ()
  | _ -> Alcotest.fail "S1 should be an argument");
  match find "Sn1" with
  | Some { Cae.node_type = Cae.Evidence_ref; _ } -> ()
  | _ -> Alcotest.fail "Sn1 should be evidence"

let test_of_gsn_synthesises_arguments () =
  (* A goal supported directly by a solution needs a synthesised
     argument node in CAE. *)
  let gsn =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "Sn1") ]
      ~evidence:
        [ Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Review "r" ]
      [
        Node.goal "G1" "claim is safe";
        Node.solution ~evidence:"E1" "Sn1" "review results";
      ]
  in
  let cae = Cae.of_gsn gsn in
  Alcotest.(check (list string)) "clean" [] (codes (cae_check cae));
  let args =
    List.filter (fun n -> n.Cae.node_type = Cae.Argument) (Cae.nodes cae)
  in
  Alcotest.(check int) "one synthesised argument" 1 (List.length args)

let test_to_gsn_round () =
  let gsn' = Cae.to_gsn sample in
  (* The translation of a well-formed CAE case is well-formed GSN except
     that evidence references are not registered items (solutions warn,
     never error). *)
  Alcotest.(check bool) "well-formed GSN" true (well_formed gsn')

(* Random GSN trees (goals/strategies/solutions) convert to well-formed
   CAE. *)
let gen_gsn =
  let open QCheck.Gen in
  let* n = int_range 1 5 in
  let counter = ref 0 in
  let fresh p =
    incr counter;
    Printf.sprintf "%s%d" p !counter
  in
  let rec goal depth =
    let gid = fresh "G" in
    let g = Node.goal gid (Printf.sprintf "claim %s is safe" gid) in
    if depth = 0 then
      let sid = fresh "Sn" in
      ( [ g; Node.solution sid "results" ],
        [ (Structure.Supported_by, gid, sid) ] )
    else
      let sid = fresh "S" in
      let strat = Node.strategy sid "decompose" in
      let children = List.init (1 + (depth mod 2)) (fun _ -> goal (depth - 1)) in
      ( (g :: strat :: List.concat_map fst children),
        ((Structure.Supported_by, gid, sid)
        :: List.map
             (fun (ns, _) ->
               (Structure.Supported_by, sid, Id.to_string (List.hd ns).Node.id))
             children)
        @ List.concat_map snd children )
  in
  let nodes, links = goal (n mod 3) in
  return (Structure.of_nodes ~links nodes)

let conversion_preserves_wellformedness =
  QCheck.Test.make ~name:"of_gsn yields well-formed CAE" ~count:100
    (QCheck.make gen_gsn) (fun gsn ->
      not (Diagnostic.has_errors (cae_check (Cae.of_gsn gsn))))

let conversion_preserves_claims =
  QCheck.Test.make ~name:"every goal becomes a claim" ~count:100
    (QCheck.make gen_gsn) (fun gsn ->
      let cae = Cae.of_gsn gsn in
      List.for_all
        (fun n ->
          match n.Node.node_type with
          | Node.Goal -> (
              match Cae.find n.Node.id cae with
              | Some { Cae.node_type = Cae.Claim; _ } -> true
              | _ -> false)
          | _ -> true)
        (Structure.nodes gsn))

let () =
  Alcotest.run "argus-cae"
    [
      ( "checks",
        [
          Alcotest.test_case "sample well-formed" `Quick test_sample_well_formed;
          Alcotest.test_case "claim without argument" `Quick
            test_claim_without_argument;
          Alcotest.test_case "premise claims" `Quick test_premise_claims_allowed;
          Alcotest.test_case "empty argument" `Quick test_empty_argument;
          Alcotest.test_case "evidence not leaf" `Quick test_evidence_not_leaf;
          Alcotest.test_case "direct evidence" `Quick
            test_direct_evidence_under_claim;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "dangling" `Quick test_dangling;
          Alcotest.test_case "multiple arguments" `Quick
            test_multiple_arguments_warned;
          Alcotest.test_case "cycle check on a diamond chain" `Quick
            test_diamond_chain;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "of_gsn" `Quick test_of_gsn_well_formed;
          Alcotest.test_case "synthesised arguments" `Quick
            test_of_gsn_synthesises_arguments;
          Alcotest.test_case "to_gsn" `Quick test_to_gsn_round;
          QCheck_alcotest.to_alcotest conversion_preserves_wellformedness;
          QCheck_alcotest.to_alcotest conversion_preserves_claims;
        ] );
    ]
