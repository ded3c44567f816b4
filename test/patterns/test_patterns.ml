open Argus_patterns
module Gsn = Argus_gsn
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf s = (Fused.check (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))

let codes = function
  | Error ds -> List.map (fun d -> d.Diagnostic.code) ds
  | Ok _ -> []

(* The classic hazard-avoidance pattern: argue over each hazard in a
   list, with a CPU-utilisation side claim demonstrating the range check
   from Matsuno's paper. *)
let hazard_pattern =
  let structure =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G_top", "S_hazards");
          (Structure.Supported_by, "S_hazards", "G_hazard");
          (Structure.Supported_by, "G_hazard", "Sn_hazard");
          (Structure.Supported_by, "G_top", "G_util");
          (Structure.Supported_by, "G_util", "Sn_util");
          (Structure.In_context_of, "G_top", "C_sys");
        ]
      ~evidence:
        [
          Evidence.make ~id:(Id.of_string "E_hz") ~kind:Evidence.Analysis
            "hazard analysis";
          Evidence.make ~id:(Id.of_string "E_util") ~kind:Evidence.Analysis
            "schedulability analysis";
        ]
      [
        Node.goal "G_top" "{system} is acceptably safe";
        Node.strategy "S_hazards" "Argument over each identified hazard";
        Node.goal "G_hazard" "Hazard {hazard} is acceptably managed";
        Node.solution ~evidence:"E_hz" "Sn_hazard" "Analysis of hazard {hazard}";
        Node.goal "G_util" "CPU utilisation is below {util} percent";
        Node.solution ~evidence:"E_util" "Sn_util" "Schedulability analysis";
        Node.context "C_sys" "Definition of {system}";
      ]
  in
  Pattern.make ~name:"hazard-avoidance"
    ~description:"argue safety hazard-by-hazard"
    ~params:
      [
        { Pattern.pname = "system"; ptype = Pattern.Pstring };
        {
          Pattern.pname = "util";
          ptype = Pattern.Pint { min = Some 0; max = Some 100 };
        };
        {
          Pattern.pname = "hazard";
          ptype = Pattern.Plist Pattern.Pstring;
        };
      ]
    ~replicate:[ ("G_hazard", "hazard") ]
    structure

let good_binding =
  [
    ("system", Pattern.Vstr "The braking controller");
    ("util", Pattern.Vint 85);
    ( "hazard",
      Pattern.Vlist [ Pattern.Vstr "unintended braking"; Pattern.Vstr "brake failure" ]
    );
  ]

let test_pattern_is_clean () =
  Alcotest.(check (list string)) "no issues" []
    (List.map (fun d -> d.Diagnostic.code) (Pattern.check_pattern hazard_pattern))

let test_placeholders () =
  Alcotest.(check (list string))
    "extracted" [ "system"; "hazard" ]
    (Pattern.placeholders "{system} avoids {hazard}")

let test_instantiate_ok () =
  match Pattern.instantiate hazard_pattern good_binding with
  | Error ds ->
      Alcotest.failf "instantiation failed: %s"
        (Format.asprintf "%a" Diagnostic.pp_report ds)
  | Ok s ->
      (* Two hazards: the G_hazard/Sn_hazard pair is duplicated. *)
      Alcotest.(check bool) "copy 1" true (Structure.mem (Id.of_string "G_hazard_1") s);
      Alcotest.(check bool) "copy 2" true (Structure.mem (Id.of_string "G_hazard_2") s);
      Alcotest.(check bool) "template removed" false
        (Structure.mem (Id.of_string "G_hazard") s);
      let g1 = Structure.find_exn (Id.of_string "G_hazard_1") s in
      Alcotest.(check string) "first element substituted"
        "Hazard unintended braking is acceptably managed" g1.Node.text;
      let top = Structure.find_exn (Id.of_string "G_top") s in
      Alcotest.(check string) "scalar substituted"
        "The braking controller is acceptably safe" top.Node.text;
      (* Instantiation output is well-formed GSN. *)
      let ds = fused_wf s in
      Alcotest.(check (list string)) "well-formed" []
        (List.map (fun d -> d.Diagnostic.code) ds)

let test_missing_param () =
  let binding = List.remove_assoc "util" good_binding in
  Alcotest.(check bool) "missing" true
    (List.mem "instantiate/missing-param"
       (codes (Pattern.instantiate hazard_pattern binding)))

let test_out_of_range () =
  (* Matsuno's example: CPU utilisation must lie in 0-100. *)
  let binding =
    ("util", Pattern.Vint 250) :: List.remove_assoc "util" good_binding
  in
  Alcotest.(check bool) "range" true
    (List.mem "instantiate/out-of-range"
       (codes (Pattern.instantiate hazard_pattern binding)))

let test_type_mismatch () =
  (* The "Railway hazards" misuse from Matsuno & Taguchi: a string where
     an integer parameter is expected. *)
  let binding =
    ("util", Pattern.Vstr "Railway hazards") :: List.remove_assoc "util" good_binding
  in
  Alcotest.(check bool) "mismatch" true
    (List.mem "instantiate/type-mismatch"
       (codes (Pattern.instantiate hazard_pattern binding)))

let test_unknown_param () =
  let binding = ("extra", Pattern.Vint 1) :: good_binding in
  Alcotest.(check bool) "unknown" true
    (List.mem "instantiate/unknown-param"
       (codes (Pattern.instantiate hazard_pattern binding)))

let test_empty_list () =
  let binding =
    ("hazard", Pattern.Vlist []) :: List.remove_assoc "hazard" good_binding
  in
  Alcotest.(check bool) "empty list" true
    (List.mem "instantiate/empty-list"
       (codes (Pattern.instantiate hazard_pattern binding)))

let test_enum_membership () =
  let p =
    Pattern.make ~name:"enum-test"
      ~params:
        [
          {
            Pattern.pname = "sev";
            ptype = Pattern.Penum [ "catastrophic"; "major"; "minor" ];
          };
        ]
      (Structure.of_nodes
         [
           {
             (Node.goal "G" "Severity {sev} hazards are managed")
             with
             Node.status = Node.Undeveloped;
           };
         ])
  in
  (match Pattern.instantiate p [ ("sev", Pattern.Venum "major") ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "member should instantiate");
  Alcotest.(check bool) "non-member rejected" true
    (List.mem "instantiate/not-a-member"
       (codes (Pattern.instantiate p [ ("sev", Pattern.Venum "trivial") ])))

let test_undeclared_placeholder () =
  let p =
    Pattern.make ~name:"bad" ~params:[]
      (Structure.of_nodes
         [
           {
             (Node.goal "G" "The {mystery} is safe")
             with
             Node.status = Node.Undeveloped;
           };
         ])
  in
  Alcotest.(check bool) "flagged" true
    (List.exists
       (fun d -> d.Diagnostic.code = "pattern/undeclared-placeholder")
       (Pattern.check_pattern p))

let test_unused_param () =
  let p =
    Pattern.make ~name:"lazy"
      ~params:[ { Pattern.pname = "ghost"; ptype = Pattern.Pstring } ]
      (Structure.of_nodes
         [ { (Node.goal "G" "all is safe") with Node.status = Node.Undeveloped } ])
  in
  Alcotest.(check bool) "warned" true
    (List.exists
       (fun d -> d.Diagnostic.code = "pattern/unused-param")
       (Pattern.check_pattern p))

let test_replicate_not_list () =
  let p =
    Pattern.make ~name:"bad-rep"
      ~params:[ { Pattern.pname = "x"; ptype = Pattern.Pstring } ]
      ~replicate:[ ("G", "x") ]
      (Structure.of_nodes
         [ { (Node.goal "G" "{x} is safe") with Node.status = Node.Undeveloped } ])
  in
  Alcotest.(check bool) "flagged" true
    (List.exists
       (fun d -> d.Diagnostic.code = "pattern/replicate-not-list")
       (Pattern.check_pattern p))

(* Property: for any list length 1-6, instantiation yields a well-formed
   structure with exactly n copies, and no placeholders remain. *)
let replication_scales =
  QCheck.Test.make ~name:"replication produces n well-formed copies" ~count:50
    QCheck.(int_range 1 6)
    (fun n ->
      let binding =
        [
          ("system", Pattern.Vstr "S");
          ("util", Pattern.Vint 50);
          ( "hazard",
            Pattern.Vlist
              (List.init n (fun i -> Pattern.Vstr (Printf.sprintf "hazard %d" i)))
          );
        ]
      in
      match Pattern.instantiate hazard_pattern binding with
      | Error _ -> false
      | Ok s ->
          let copies =
            List.filter
              (fun node ->
                let id = Id.to_string node.Node.id in
                String.length id > 9 && String.sub id 0 9 = "G_hazard_")
              (Structure.nodes s)
          in
          List.length copies = n
          && well_formed s
          && Structure.fold_nodes
               (fun node ok -> ok && Pattern.placeholders node.Node.text = [])
               s true)

let int_range_check =
  QCheck.Test.make ~name:"int range accepts exactly [0,100]" ~count:200
    QCheck.(int_range (-50) 150)
    (fun i ->
      let ok =
        Pattern.value_type_ok
          (Pattern.Pint { min = Some 0; max = Some 100 })
          (Pattern.Vint i)
      in
      Bool.equal ok (i >= 0 && i <= 100))

(* --- Catalogue --- *)

let test_catalogue_definitions_clean () =
  List.iter
    (fun (name, pattern) ->
      let errors =
        List.filter
          (fun d -> d.Diagnostic.severity = Diagnostic.Error)
          (Pattern.check_pattern pattern)
      in
      if errors <> [] then
        Alcotest.failf "catalogue pattern %s has definition errors: %s" name
          (Format.asprintf "%a" Diagnostic.pp_report errors))
    Catalogue.all

let test_catalogue_instantiations () =
  let str s = Pattern.Vstr s in
  let strs l = Pattern.Vlist (List.map str l) in
  let cases =
    [
      ( Catalogue.hazard_avoidance,
        [
          ("system", str "The autonomous shuttle");
          ("hazards", strs [ "collision"; "door trap" ]);
        ] );
      ( Catalogue.functional_decomposition,
        [
          ("system", str "The infusion pump");
          ("functions", strs [ "dosing"; "alarm handling"; "logging" ]);
        ] );
      ( Catalogue.alarp,
        [
          ("system", str "The crane");
          ("intolerable_hazards", strs [ "load drop over crowd" ]);
          ("tolerable_hazards", strs [ "slow slew"; "cab vibration" ]);
          ("risk_budget", Pattern.Vint 100);
        ] );
      ( Catalogue.diverse_evidence,
        [
          ("claim", str "The watchdog restarts hung tasks");
          ("primary_kind", Pattern.Venum "test");
          ("secondary", str "field experience from the previous variant");
        ] );
    ]
  in
  List.iter
    (fun (pattern, binding) ->
      match Pattern.instantiate pattern binding with
      | Error ds ->
          Alcotest.failf "instantiation failed: %s"
            (Format.asprintf "%a" Diagnostic.pp_report ds)
      | Ok s ->
          if not (well_formed s) then
            Alcotest.failf "instantiated %s not well-formed"
              (Format.asprintf "%a" Structure.pp_outline s))
    cases

let test_catalogue_find () =
  Alcotest.(check bool) "finds alarp" true (Catalogue.find "alarp" <> None);
  Alcotest.(check bool) "unknown" true (Catalogue.find "nonesuch" = None);
  Alcotest.(check int) "four patterns" 4 (List.length Catalogue.all)

let test_alarp_budget_range () =
  let binding =
    [
      ("system", Pattern.Vstr "x");
      ("intolerable_hazards", Pattern.Vlist [ Pattern.Vstr "h" ]);
      ("tolerable_hazards", Pattern.Vlist [ Pattern.Vstr "k" ]);
      ("risk_budget", Pattern.Vint 5000);
    ]
  in
  Alcotest.(check bool) "budget range enforced" true
    (List.mem "instantiate/out-of-range"
       (codes (Pattern.instantiate Catalogue.alarp binding)))

let () =
  Alcotest.run "argus-patterns"
    [
      ( "definition",
        [
          Alcotest.test_case "hazard pattern is clean" `Quick
            test_pattern_is_clean;
          Alcotest.test_case "placeholders" `Quick test_placeholders;
          Alcotest.test_case "undeclared placeholder" `Quick
            test_undeclared_placeholder;
          Alcotest.test_case "unused param" `Quick test_unused_param;
          Alcotest.test_case "replicate not list" `Quick test_replicate_not_list;
        ] );
      ( "instantiation",
        [
          Alcotest.test_case "successful instantiation" `Quick
            test_instantiate_ok;
          Alcotest.test_case "missing param" `Quick test_missing_param;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "type mismatch" `Quick test_type_mismatch;
          Alcotest.test_case "unknown param" `Quick test_unknown_param;
          Alcotest.test_case "empty list" `Quick test_empty_list;
          Alcotest.test_case "enum membership" `Quick test_enum_membership;
          QCheck_alcotest.to_alcotest replication_scales;
          QCheck_alcotest.to_alcotest int_range_check;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "definitions clean" `Quick
            test_catalogue_definitions_clean;
          Alcotest.test_case "instantiations well-formed" `Quick
            test_catalogue_instantiations;
          Alcotest.test_case "lookup" `Quick test_catalogue_find;
          Alcotest.test_case "alarp budget range" `Quick
            test_alarp_budget_range;
        ] );
    ]
