open Argus_toulmin
module Prop = Argus_logic.Prop
module Natded = Argus_logic.Natded
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf s = (Fused.check (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))

(* The paper's Section III.K inner-argument example. *)
let haley_inner_text =
  {|
    given grounds G2: "Valid credentials are given only to HR members"
    warranted by (
      given grounds G3: "Credentials are given in person"
      warranted by G4: "Credential administrators are honest and reliable"
      thus claim C1: "Credential administration is correct")
    thus claim P2: "HR credentials provided --> HR member"
    rebutted by R1: "HR member is dishonest"
  |}

let haley_inner = Toulmin.of_string_exn haley_inner_text

let test_parse_haley () =
  Alcotest.(check int) "one ground" 1 (List.length haley_inner.Toulmin.grounds);
  Alcotest.(check string) "claim label" "P2" haley_inner.Toulmin.claim.Toulmin.label;
  Alcotest.(check int) "one rebuttal" 1 (List.length haley_inner.Toulmin.rebuttals);
  (match haley_inner.Toulmin.warrant with
  | Some (Toulmin.Warrant_argument nested) ->
      Alcotest.(check string) "nested claim" "C1"
        nested.Toulmin.claim.Toulmin.label
  | _ -> Alcotest.fail "expected a nested warrant argument");
  Alcotest.(check int) "depth 2" 2 (Toulmin.depth haley_inner);
  Alcotest.(check (list string))
    "labels in document order"
    [ "G2"; "G3"; "G4"; "C1"; "P2"; "R1" ]
    (Toulmin.labels haley_inner)

let test_roundtrip_haley () =
  let printed = Toulmin.to_string haley_inner in
  let reparsed = Toulmin.of_string_exn printed in
  Alcotest.(check bool) "round-trip" true (reparsed = haley_inner)

let test_multiple_grounds () =
  let a =
    Toulmin.of_string_exn
      {|given grounds G1: "first", G2: "second"
        warranted by W1: "together they suffice"
        thus claim C1: "the claim"|}
  in
  Alcotest.(check int) "two grounds" 2 (List.length a.Toulmin.grounds);
  Alcotest.(check (list Alcotest.string)) "no issues" []
    (List.map (fun d -> d.Diagnostic.code) (Toulmin.check a))

let test_parse_errors () =
  List.iter
    (fun s ->
      match Toulmin.of_string s with
      | Ok _ -> Alcotest.failf "should not parse: %S" s
      | Error _ -> ())
    [
      "";
      {|thus claim C: "c"|};
      {|given grounds G1: "g" thus claim|};
      {|given grounds G1 thus claim C: "c"|};
      {|given grounds G1: "g" thus claim C: "c" extra|};
      {|given grounds (given grounds G: "g" thus claim C: "c" thus claim D: "d"|};
    ]

let test_check_duplicate_label () =
  let a =
    Toulmin.of_string_exn
      {|given grounds X: "g" thus claim X: "c"|}
  in
  let codes = List.map (fun d -> d.Diagnostic.code) (Toulmin.check a) in
  Alcotest.(check bool) "duplicate flagged" true
    (List.mem "toulmin/duplicate-label" codes)

let test_check_empty_text () =
  let a = Toulmin.of_string_exn {|given grounds G: "  " thus claim C: "c"|} in
  let codes = List.map (fun d -> d.Diagnostic.code) (Toulmin.check a) in
  Alcotest.(check bool) "empty text flagged" true
    (List.mem "toulmin/empty-text" codes)

let test_check_unwarranted () =
  let a =
    Toulmin.of_string_exn
      {|given grounds G1: "a", G2: "b" thus claim C: "c"|}
  in
  let codes = List.map (fun d -> d.Diagnostic.code) (Toulmin.check a) in
  Alcotest.(check bool) "unwarranted flagged" true
    (List.mem "toulmin/unwarranted" codes)

let test_check_self_support () =
  let a =
    Toulmin.of_string_exn
      {|given grounds G1: "the claim holds",
        (given grounds G2: "weak evidence" thus claim C2: "the claim holds")
        warranted by W: "w"
        thus claim C: "top"|}
  in
  let codes = List.map (fun d -> d.Diagnostic.code) (Toulmin.check a) in
  Alcotest.(check bool) "circularity flagged" true
    (List.mem "toulmin/self-support" codes)

let test_haley_is_clean () =
  Alcotest.(check (list Alcotest.string)) "no findings" []
    (List.map (fun d -> d.Diagnostic.code) (Toulmin.check haley_inner))

let test_make_requires_grounds () =
  Alcotest.check_raises "no grounds"
    (Invalid_argument "Toulmin.make: no grounds") (fun () ->
      ignore (Toulmin.make ~grounds:[] (Toulmin.element "C" "c")))

(* --- Round-trip property --- *)

let gen_element =
  QCheck.Gen.(
    let* l = int_range 0 30 in
    let* t = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
    return (Toulmin.element (Printf.sprintf "L%d" l) t))

let gen_argument =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      let* n_grounds = int_range 1 3 in
      let* grounds =
        flatten_l
          (List.init n_grounds (fun _ ->
               if depth <= 0 then
                 map (fun e -> Toulmin.Ground_statement e) gen_element
               else
                 frequency
                   [
                     (3, map (fun e -> Toulmin.Ground_statement e) gen_element);
                     (1, map (fun a -> Toulmin.Ground_argument a) (self (depth - 1)));
                   ]))
      in
      let* warrant =
        if depth <= 0 then
          map (fun e -> Some (Toulmin.Warrant_statement e)) gen_element
        else
          frequency
            [
              (1, return None);
              (2, map (fun e -> Some (Toulmin.Warrant_statement e)) gen_element);
              ( 1,
                map (fun a -> Some (Toulmin.Warrant_argument a)) (self (depth - 1))
              );
            ]
      in
      let* claim = gen_element in
      let* rebuttals = list_size (int_bound 2) gen_element in
      return { Toulmin.grounds; warrant; claim; rebuttals })
    2

let roundtrip_property =
  QCheck.Test.make ~name:"pp/of_string round-trip" ~count:200
    (QCheck.make ~print:Toulmin.to_string gen_argument) (fun a ->
      match Toulmin.of_string (Toulmin.to_string a) with
      | Ok a' -> a = a'
      | Error _ -> false)

let size_counts_elements =
  QCheck.Test.make ~name:"size equals label count" ~count:200
    (QCheck.make gen_argument) (fun a ->
      Toulmin.size a = List.length (Toulmin.labels a))

(* --- Satisfaction arguments --- *)

let p = Prop.of_string_exn

(* Haley 2008 outer proof: I->V, C->H, Y->V&C, D->Y, D |- D->H. *)
let outer_proof =
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

let simple_inner text =
  Toulmin.of_string_exn
    (Printf.sprintf
       {|given grounds G: "observation" warranted by W: "domain knowledge" thus claim C: "%s"|}
       text)

(* Note a faithful quirk of the original: premise 1 (I -> V) is stated
   in Haley et al.'s proof but never cited by any step, so it is not a
   trust assumption of the conclusion.  Only the three premises the
   proof actually uses need inner arguments. *)
let full_satisfaction =
  {
    Satisfaction.requirement = p "d -> h";
    outer = outer_proof;
    inner =
      [
        (p "c -> h", simple_inner "credentials imply HR membership");
        (p "y -> v & c", simple_inner "tokens carry valid credentials");
        (p "d -> y", simple_inner "display requires a token");
      ];
  }

let test_satisfaction_ok () =
  let ds = Satisfaction.check full_satisfaction in
  Alcotest.(check (list Alcotest.string)) "clean" []
    (List.map (fun d -> d.Diagnostic.code) ds);
  Alcotest.(check bool) "satisfied" true
    (Satisfaction.is_satisfied full_satisfaction)

let test_satisfaction_trust_assumptions () =
  let tas = Satisfaction.trust_assumptions full_satisfaction in
  (* D was discharged by the Conclusion step and I -> V is never cited;
     three premises remain. *)
  Alcotest.(check int) "three assumptions" 3 (List.length tas);
  Alcotest.(check bool) "d discharged" true
    (not (List.exists (Prop.equal (p "d")) tas));
  Alcotest.(check bool) "unused premise not an assumption" true
    (not (List.exists (Prop.equal (p "i -> v")) tas))

let test_satisfaction_missing_inner () =
  let broken =
    { full_satisfaction with Satisfaction.inner = List.tl full_satisfaction.Satisfaction.inner }
  in
  let codes =
    List.map (fun d -> d.Diagnostic.code) (Satisfaction.check broken)
  in
  Alcotest.(check bool) "unsupported premise" true
    (List.mem "satisfaction/unsupported-premise" codes);
  Alcotest.(check bool) "not satisfied" false (Satisfaction.is_satisfied broken)

let test_satisfaction_wrong_conclusion () =
  let broken = { full_satisfaction with Satisfaction.requirement = p "d -> v" } in
  let codes =
    List.map (fun d -> d.Diagnostic.code) (Satisfaction.check broken)
  in
  Alcotest.(check bool) "wrong conclusion" true
    (List.mem "satisfaction/wrong-conclusion" codes)

let test_satisfaction_rebutted () =
  let rebutted =
    Toulmin.of_string_exn
      {|given grounds G: "g" thus claim C: "c" rebutted by R: "the admin might be dishonest"|}
  in
  let with_rebuttal =
    {
      full_satisfaction with
      Satisfaction.inner =
        (p "c -> h", rebutted) :: List.tl full_satisfaction.Satisfaction.inner;
    }
  in
  let codes =
    List.map (fun d -> d.Diagnostic.code) (Satisfaction.check with_rebuttal)
  in
  Alcotest.(check bool) "rebutted assumption warned" true
    (List.mem "satisfaction/rebutted-assumption" codes);
  Alcotest.(check bool) "warnings do not block satisfaction" true
    (Satisfaction.is_satisfied with_rebuttal)

let test_satisfaction_dangling () =
  let extra =
    {
      full_satisfaction with
      Satisfaction.inner =
        (p "unrelated", simple_inner "spurious") :: full_satisfaction.Satisfaction.inner;
    }
  in
  let codes = List.map (fun d -> d.Diagnostic.code) (Satisfaction.check extra) in
  Alcotest.(check bool) "dangling inner warned" true
    (List.mem "satisfaction/dangling-inner" codes)

let test_satisfaction_invalid_outer () =
  let bad_proof =
    Natded.[ { formula = p "h"; rule = Imp_elim (1, 1) } ]
  in
  let broken =
    { full_satisfaction with Satisfaction.outer = bad_proof }
  in
  let codes =
    List.map (fun d -> d.Diagnostic.code) (Satisfaction.check broken)
  in
  Alcotest.(check bool) "outer invalid" true
    (List.mem "satisfaction/outer-invalid" codes)

(* --- GSN conversion --- *)

let test_to_gsn_haley () =
  let s = To_gsn.convert haley_inner in
  Alcotest.(check bool) "well-formed" true
    (well_formed s);
  (* One root: the outer claim. *)
  (match Argus_gsn.Structure.roots s with
  | [ root ] ->
      let n = Argus_gsn.Structure.find_exn root s in
      Alcotest.(check string) "root is P2's claim"
        "HR credentials provided --> HR member"
        n.Argus_gsn.Node.text
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
  (* The rebuttal appears as an assumption. *)
  Alcotest.(check bool) "rebuttal recorded" true
    (List.exists
       (fun n ->
         n.Argus_gsn.Node.node_type = Argus_gsn.Node.Assumption)
       (Argus_gsn.Structure.nodes s))

let to_gsn_always_well_formed =
  QCheck.Test.make ~name:"conversion yields well-formed GSN" ~count:100
    (QCheck.make ~print:Toulmin.to_string gen_argument) (fun arg ->
      well_formed (To_gsn.convert arg))

let () =
  Alcotest.run "argus-toulmin"
    [
      ( "notation",
        [
          Alcotest.test_case "parse Haley example" `Quick test_parse_haley;
          Alcotest.test_case "round-trip Haley example" `Quick
            test_roundtrip_haley;
          Alcotest.test_case "multiple grounds" `Quick test_multiple_grounds;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          QCheck_alcotest.to_alcotest roundtrip_property;
          QCheck_alcotest.to_alcotest size_counts_elements;
        ] );
      ( "checks",
        [
          Alcotest.test_case "duplicate label" `Quick test_check_duplicate_label;
          Alcotest.test_case "empty text" `Quick test_check_empty_text;
          Alcotest.test_case "unwarranted" `Quick test_check_unwarranted;
          Alcotest.test_case "self support" `Quick test_check_self_support;
          Alcotest.test_case "Haley example is clean" `Quick test_haley_is_clean;
          Alcotest.test_case "make requires grounds" `Quick
            test_make_requires_grounds;
        ] );
      ( "satisfaction",
        [
          Alcotest.test_case "full framework checks" `Quick test_satisfaction_ok;
          Alcotest.test_case "trust assumptions" `Quick
            test_satisfaction_trust_assumptions;
          Alcotest.test_case "missing inner" `Quick test_satisfaction_missing_inner;
          Alcotest.test_case "wrong conclusion" `Quick
            test_satisfaction_wrong_conclusion;
          Alcotest.test_case "rebutted assumption" `Quick test_satisfaction_rebutted;
          Alcotest.test_case "dangling inner" `Quick test_satisfaction_dangling;
          Alcotest.test_case "invalid outer" `Quick test_satisfaction_invalid_outer;
        ] );
      ( "to-gsn",
        [
          Alcotest.test_case "Haley inner argument" `Quick test_to_gsn_haley;
          QCheck_alcotest.to_alcotest to_gsn_always_well_formed;
        ] );
    ]
