open Argus_gsn
module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Diagnostic = Argus_core.Diagnostic
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

(* The shipped checkers: the fused pass over the interned case. *)
let fused_wf ?ruleset s = (Fused.check ?ruleset (Caseir.intern s)).Fused.wf
let well_formed s = not (Diagnostic.has_errors (fused_wf s))

let id = Id.of_string
let codes ds = List.map (fun d -> d.Diagnostic.code) ds

(* A small well-formed safety case used across tests. *)
let sample =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "G2");
        (Structure.Supported_by, "S1", "G3");
        (Structure.Supported_by, "G2", "Sn1");
        (Structure.Supported_by, "G3", "Sn2");
        (Structure.In_context_of, "G1", "C1");
        (Structure.In_context_of, "S1", "J1");
      ]
    ~evidence:
      [
        Evidence.make ~id:(id "E1") ~kind:Evidence.Test_results
          "unit test results for the control loop";
        Evidence.make ~id:(id "E2") ~kind:Evidence.Analysis
          "worst-case timing analysis";
      ]
    [
      Node.goal "G1" "The system is acceptably safe in its operating context";
      Node.strategy "S1" "Argument over each identified hazard";
      Node.goal "G2" "Hazard H1 is acceptably managed";
      Node.goal "G3" "Hazard H2 is acceptably managed";
      Node.solution ~evidence:"E1" "Sn1" "Test results for hazard H1";
      Node.solution ~evidence:"E2" "Sn2" "Timing analysis for hazard H2";
      Node.context "C1" "Operating context: motorway driving";
      Node.justification "J1" "Hazard list from the HAZOP study";
    ]

(* --- Structure --- *)

let test_structure_basics () =
  Alcotest.(check int) "size" 8 (Structure.size sample);
  Alcotest.(check int) "links" 7 (List.length (Structure.links sample));
  Alcotest.(check (list string))
    "roots" [ "G1" ]
    (List.map Id.to_string (Structure.roots sample));
  Alcotest.(check (list string))
    "children of S1" [ "G2"; "G3" ]
    (List.map Id.to_string
       (Structure.children Structure.Supported_by (id "S1") sample));
  Alcotest.(check (list string))
    "parents of G2" [ "S1" ]
    (List.map Id.to_string
       (Structure.parents Structure.Supported_by (id "G2") sample));
  Alcotest.(check (list string))
    "context of G1" [ "C1" ]
    (List.map Id.to_string (Structure.context_of (id "G1") sample))

let test_subtree () =
  Alcotest.(check (list string))
    "subtree of S1 preorder" [ "S1"; "G2"; "Sn1"; "G3"; "Sn2" ]
    (List.map Id.to_string (Structure.supported_subtree (id "S1") sample))

let test_remove_node () =
  let s = Structure.remove_node (id "G3") sample in
  Alcotest.(check int) "one fewer node" 7 (Structure.size s);
  Alcotest.(check bool) "links pruned" true
    (not
       (List.exists
          (fun (_, a, b) ->
            Id.to_string a = "G3" || Id.to_string b = "G3")
          (Structure.links s)))

let test_restrict () =
  let keep = Id.Set.of_list [ id "G1"; id "S1"; id "G2" ] in
  let s = Structure.restrict keep sample in
  Alcotest.(check int) "kept nodes" 3 (Structure.size s);
  Alcotest.(check int) "kept links" 2 (List.length (Structure.links s))

let test_cycle_detection () =
  Alcotest.(check bool) "sample acyclic" true
    (Caseir.has_cycle (Caseir.intern sample) = None);
  let cyclic =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "A", "B");
          (Structure.Supported_by, "B", "A");
        ]
      [ Node.goal "A" "a is safe"; Node.goal "B" "b is safe" ]
  in
  Alcotest.(check bool) "cycle found" true
    (Caseir.has_cycle (Caseir.intern cyclic) <> None)

let string_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

let test_dot_output () =
  let dot = Structure.to_dot sample in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "mentions G1" true (string_contains dot "G1")

(* --- Wellformed --- *)

let test_sample_well_formed () =
  let ds = fused_wf sample in
  Alcotest.(check (list string)) "no findings" [] (codes ds)

let test_dangling_link () =
  let s =
    Structure.connect Structure.Supported_by ~src:(id "G1") ~dst:(id "nowhere")
      sample
  in
  Alcotest.(check bool) "dangling" true
    (List.mem "gsn/dangling-link" (codes (fused_wf s)))

let test_bad_support_link () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "Sn", "G") ]
      [ Node.solution "Sn" "results"; Node.goal "G" "g is safe" ]
  in
  Alcotest.(check bool) "solution cannot support" true
    (List.mem "gsn/bad-support-link" (codes (fused_wf s)))

let test_context_under_support () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G", "C") ]
      [ Node.goal "G" "g is safe"; Node.context "C" "ctx" ]
  in
  Alcotest.(check bool) "context is not support" true
    (List.mem "gsn/bad-support-link" (codes (fused_wf s)))

let test_solution_in_context_of_away_goal () =
  (* The exact rule the paper quotes from the GSN standard. *)
  let away =
    Node.make ~id:(id "AG1")
      ~node_type:(Node.Away_goal (id "ModuleX"))
      "Away goal from module X"
  in
  let s =
    Structure.of_nodes
      ~links:[ (Structure.In_context_of, "AG1", "Sn") ]
      [ away; Node.solution "Sn" "results" ]
  in
  Alcotest.(check bool) "specific code" true
    (List.mem "gsn/solution-in-context-of-away-goal"
       (codes (fused_wf s)))

let test_goal_under_goal_rulesets () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "G2");
          (Structure.Supported_by, "G2", "Sn");
        ]
      ~evidence:
        [ Evidence.make ~id:(id "E") ~kind:Evidence.Review "review record" ]
      [
        Node.goal "G1" "top claim is safe";
        Node.goal "G2" "sub claim is safe";
        Node.solution ~evidence:"E" "Sn" "review results";
      ]
  in
  (* The GSN standard allows goal-to-goal support... *)
  Alcotest.(check bool) "standard allows" true (well_formed s);
  (* ...but the Denney-Pai 2013 formalisation forbids it. *)
  Alcotest.(check bool) "Denney-Pai forbids" true
    (List.mem "gsn/dp-goal-under-goal"
       (codes (fused_wf ~ruleset:Wellformed.Denney_pai_2013 s)))

let test_cycle_reported () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "A", "B");
          (Structure.Supported_by, "B", "A");
        ]
      [ Node.goal "A" "a is safe"; Node.goal "B" "b is safe" ]
  in
  let cs = codes (fused_wf s) in
  Alcotest.(check bool) "cycle" true (List.mem "gsn/cycle" cs);
  Alcotest.(check bool) "no root" true (List.mem "gsn/no-root" cs)

let test_unsupported_goal () =
  let s = Structure.of_nodes [ Node.goal "G" "g is safe" ] in
  Alcotest.(check bool) "unsupported" true
    (List.mem "gsn/unsupported-goal" (codes (fused_wf s)));
  let ok =
    Structure.of_nodes
      [ { (Node.goal "G" "g is safe") with Node.status = Node.Undeveloped } ]
  in
  Alcotest.(check bool) "undeveloped accepted" true (well_formed ok)

let test_undeveloped_strategy () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G", "S") ]
      [
        { (Node.goal "G" "g is safe") with Node.status = Node.Developed };
        Node.strategy "S" "argue over components";
      ]
  in
  Alcotest.(check bool) "leaf strategy" true
    (List.mem "gsn/undeveloped-strategy" (codes (fused_wf s)))

let test_non_propositional_goal () =
  let s =
    Structure.of_nodes
      [
        {
          (Node.goal "G" "Formal proof for the quaternion code")
          with
          Node.status = Node.Undeveloped;
        };
      ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "gsn/non-propositional-goal" (codes (fused_wf s)))

let test_placeholder_text () =
  let s =
    Structure.of_nodes
      [
        {
          (Node.goal "G" "The {system} is acceptably safe")
          with
          Node.status = Node.Developed;
        };
      ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "gsn/placeholder-text" (codes (fused_wf s)))

let test_unknown_evidence () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G", "Sn") ]
      [
        Node.goal "G" "g is safe";
        Node.solution ~evidence:"Emissing" "Sn" "results";
      ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "gsn/unknown-evidence" (codes (fused_wf s)))

let test_weak_evidence () =
  (* The paper's wcet example: universal claim on unit-test evidence. *)
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G", "Sn") ]
      ~evidence:
        [ Evidence.make ~id:(id "E") ~kind:Evidence.Test_results "unit tests" ]
      [
        Node.goal "G" "The task always meets its deadline in all modes";
        Node.solution ~evidence:"E" "Sn" "unit test results";
      ]
  in
  Alcotest.(check bool) "flagged" true
    (List.mem "gsn/weak-evidence" (codes (fused_wf s)))

let test_unreachable () =
  let s =
    Structure.add_node
      { (Node.goal "Gx" "orphan is safe") with Node.status = Node.Undeveloped }
      sample
  in
  let cs = codes (fused_wf s) in
  (* Gx is a second root (not unreachable); attach below a solution? No —
     instead an orphan context node is unreachable. *)
  Alcotest.(check bool) "second root warned" true
    (List.mem "gsn/multiple-roots" cs);
  let s2 = Structure.add_node (Node.context "Cx" "orphan context") sample in
  Alcotest.(check bool) "orphan context unreachable" true
    (List.mem "gsn/unreachable" (codes (fused_wf s2)))

(* --- Random well-formed cases, and the hicase invariant --- *)

let gen_wf_structure =
  let open QCheck.Gen in
  (* A random alternating goal/strategy tree with solution leaves. *)
  let* seed = int_bound 10_000 in
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let rec build_goal depth rng =
    let gid = fresh "G" in
    let node = Node.goal gid (Printf.sprintf "Claim %s is acceptably safe" gid) in
    if depth <= 0 then
      let sid = fresh "Sn" in
      let eid = "E" ^ sid in
      ( [ node; Node.solution ~evidence:eid sid "supporting results" ],
        [ (Structure.Supported_by, gid, sid) ],
        [ Evidence.make ~id:(id eid) ~kind:Evidence.Analysis "analysis" ],
        gid )
    else begin
      let use_strategy = Random.State.bool rng in
      if use_strategy then begin
        let sid = fresh "S" in
        let strat = Node.strategy sid "argument by decomposition" in
        let n_children = 1 + Random.State.int rng 2 in
        let parts =
          List.init n_children (fun _ -> build_goal (depth - 1) rng)
        in
        let nodes = node :: strat :: List.concat_map (fun (n, _, _, _) -> n) parts in
        let links =
          ((Structure.Supported_by, gid, sid)
          :: List.map (fun (_, _, _, cid) -> (Structure.Supported_by, sid, cid)) parts)
          @ List.concat_map (fun (_, l, _, _) -> l) parts
        in
        let evs = List.concat_map (fun (_, _, e, _) -> e) parts in
        (nodes, links, evs, gid)
      end
      else begin
        let sub_nodes, sub_links, sub_evs, sub_gid = build_goal (depth - 1) rng in
        ( node :: sub_nodes,
          (Structure.Supported_by, gid, sub_gid) :: sub_links,
          sub_evs,
          gid )
      end
    end
  in
  let rng = Random.State.make [| seed |] in
  let depth = 1 + Random.State.int rng 3 in
  let nodes, links, evs, _root = build_goal depth rng in
  return (Structure.of_nodes ~links ~evidence:evs nodes)

let arb_wf =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Structure.pp_outline s)
    gen_wf_structure

let generated_cases_are_well_formed =
  QCheck.Test.make ~name:"generated cases are well-formed" ~count:100 arb_wf
    well_formed

let hicase_views_stay_well_formed =
  QCheck.Test.make ~name:"every fold state yields a well-formed view"
    ~count:100
    (QCheck.pair arb_wf (QCheck.list_of_size (QCheck.Gen.int_bound 5) QCheck.(int_bound 50)))
    (fun (s, picks) ->
      let all = Structure.nodes s in
      let n = List.length all in
      let hc =
        List.fold_left
          (fun hc k ->
            let node = List.nth all (k mod n) in
            Hicase.collapse node.Node.id hc)
          (Hicase.of_structure s) picks
      in
      well_formed (Hicase.visible hc))

let hicase_collapse_expand_roundtrip =
  QCheck.Test.make ~name:"expand undoes collapse" ~count:100 arb_wf (fun s ->
      let all = Structure.nodes s in
      let target = (List.hd all).Node.id in
      let hc = Hicase.of_structure s in
      let hc' = Hicase.expand target (Hicase.collapse target hc) in
      Structure.equal (Hicase.visible hc') (Hicase.visible hc))

let hicase_visible_smaller =
  QCheck.Test.make ~name:"collapsing never grows the view" ~count:100 arb_wf
    (fun s ->
      let hc = Hicase.of_structure s in
      let full = Hicase.visible_count hc in
      List.for_all
        (fun node ->
          Hicase.visible_count (Hicase.collapse node.Node.id hc) <= full)
        (Structure.nodes s))

let test_hicase_depth_overview () =
  let hc = Hicase.collapse_to_depth 0 (Hicase.of_structure sample) in
  Alcotest.(check int) "only root and its context visible" 2
    (Hicase.visible_count hc);
  let v = Hicase.visible hc in
  Alcotest.(check bool) "root marked undeveloped" true
    ((Structure.find_exn (id "G1") v).Node.status = Node.Undeveloped);
  Alcotest.(check bool) "view well-formed" true (well_formed v)

let test_hicase_leaf_collapse_noop () =
  let hc = Hicase.of_structure sample in
  let hc' = Hicase.collapse (id "Sn1") hc in
  Alcotest.(check int) "leaf collapse is a no-op" (Hicase.visible_count hc)
    (Hicase.visible_count hc')

(* --- Metadata --- *)

let hazard_ontology =
  Metadata.ontology
    ~enums:
      [
        ("severity", [ "catastrophic"; "hazardous"; "major"; "minor" ]);
        ("likelihood", [ "frequent"; "probable"; "remote"; "extremely-improbable" ]);
        ("element", [ "aileron"; "elevator"; "flaps" ]);
      ]
    [
      Metadata.attr "hazard" [ Metadata.Pstr; Metadata.Penum "severity"; Metadata.Penum "likelihood" ];
      Metadata.attr "component" [ Metadata.Penum "element" ];
      Metadata.attr "sil" [ Metadata.Pnat ];
    ]

let test_metadata_ok () =
  let anns =
    [
      { Metadata.attr = "hazard"; args = [ Metadata.Str "H1"; Metadata.Enum "catastrophic"; Metadata.Enum "remote" ] };
      { Metadata.attr = "sil"; args = [ Metadata.Nat 3 ] };
    ]
  in
  Alcotest.(check (list string)) "clean" []
    (codes (Metadata.validate hazard_ontology anns))

let test_metadata_errors () =
  let cases =
    [
      ({ Metadata.attr = "unknown"; args = [] }, "metadata/unknown-attribute");
      ( { Metadata.attr = "sil"; args = [] }, "metadata/arity");
      ( { Metadata.attr = "sil"; args = [ Metadata.Int (-1) ] },
        "metadata/negative-nat" );
      ( { Metadata.attr = "component"; args = [ Metadata.Enum "rudder" ] },
        "metadata/not-a-member" );
      ( { Metadata.attr = "component"; args = [ Metadata.Str "aileron" ] },
        "metadata/type" );
    ]
  in
  List.iter
    (fun (ann, expected) ->
      let cs = codes (Metadata.validate hazard_ontology [ ann ]) in
      if not (List.mem expected cs) then
        Alcotest.failf "expected %s, got [%s]" expected (String.concat "; " cs))
    cases

let test_metadata_parse () =
  (match Metadata.annotation_of_string "hazard \"H1\" catastrophic remote" with
  | Ok a ->
      Alcotest.(check string) "attr" "hazard" a.Metadata.attr;
      Alcotest.(check int) "args" 3 (List.length a.Metadata.args)
  | Error e -> Alcotest.fail e);
  (match Metadata.annotation_of_string "sil 4" with
  | Ok { Metadata.args = [ Metadata.Nat 4 ]; _ } -> ()
  | _ -> Alcotest.fail "nat parse");
  match Metadata.annotation_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty should fail"

(* --- Query --- *)

let annotated_sample =
  let annotate nid anns s =
    Structure.add_node
      { (Structure.find_exn (id nid) s) with Node.annotations = anns }
      s
  in
  sample
  |> annotate "G2"
       [
         {
           Metadata.attr = "hazard";
           args =
             [ Metadata.Str "H1"; Metadata.Enum "catastrophic"; Metadata.Enum "remote" ];
         };
         { Metadata.attr = "sil"; args = [ Metadata.Nat 4 ] };
       ]
  |> annotate "G3"
       [
         {
           Metadata.attr = "hazard";
           args = [ Metadata.Str "H2"; Metadata.Enum "minor"; Metadata.Enum "probable" ];
         };
         { Metadata.attr = "sil"; args = [ Metadata.Nat 1 ] };
       ]

let test_query_select () =
  let q = Query.Type_is Node.Goal in
  Alcotest.(check int) "three goals" 3
    (List.length (Query.select q annotated_sample));
  let q = Query.Has_attr "hazard" in
  Alcotest.(check int) "two hazards" 2
    (List.length (Query.select q annotated_sample));
  let q = Query.Attr_ge ("sil", 3) in
  Alcotest.(check (list string))
    "high sil" [ "G2" ]
    (List.map
       (fun n -> Id.to_string n.Node.id)
       (Query.select q annotated_sample))

let test_query_parser () =
  (match Query.of_string "type = goal & text ~ \"hazard\"" with
  | Ok q ->
      Alcotest.(check int) "two goals about hazards" 2
        (List.length (Query.select q annotated_sample))
  | Error e -> Alcotest.fail e);
  (match Query.of_string "sil >= 3 | sil <= 0" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Query.of_string "!(has hazard)" with
  | Ok q ->
      Alcotest.(check int) "six unannotated" 6
        (List.length (Query.select q annotated_sample))
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Query.of_string s with
      | Ok _ -> Alcotest.failf "should not parse: %S" s
      | Error _ -> ())
    [ ""; "type ="; "sil >="; "has"; "a = b extra junk =" ]

let test_trace_view () =
  (* The Denney-Naylor-Pai example: view of traceability to hazards
     that are catastrophic and remote. *)
  let catastrophic_remote =
    Query.And (Query.Has_attr "hazard", Query.Attr_ge ("sil", 4))
  in
  let view = Query.trace_view catastrophic_remote annotated_sample in
  (* G2 matches; ancestors S1, G1 kept; context C1 (of G1) and J1 (of S1)
     kept; G3/Sn1/Sn2 dropped...  Sn1 is a child of G2, not an ancestor,
     so it is dropped too. *)
  let kept = List.map (fun n -> Id.to_string n.Node.id) (Structure.nodes view) in
  List.iter
    (fun must -> Alcotest.(check bool) (must ^ " kept") true (List.mem must kept))
    [ "G1"; "S1"; "G2"; "C1"; "J1" ];
  List.iter
    (fun mustnt ->
      Alcotest.(check bool) (mustnt ^ " dropped") false (List.mem mustnt kept))
    [ "G3"; "Sn1"; "Sn2" ]

let query_roundtrip =
  QCheck.Test.make ~name:"query pp/of_string round-trip on select outputs"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         let base =
           oneofl
             [
               Query.Any;
               Query.Type_is Node.Goal;
               Query.Has_attr "hazard";
               Query.Attr_is ("sil", Metadata.Nat 3);
               Query.Attr_ge ("sil", 2);
               Query.Text_contains "hazard";
             ]
         in
         let* a = base in
         let* b = base in
         oneofl
           [ a; Query.Not a; Query.And (a, b); Query.Or (a, b) ]))
    (fun q ->
      match Query.of_string (Format.asprintf "%a" Query.pp q) with
      | Ok q' ->
          List.for_all
            (fun n -> Query.matches q n = Query.matches q' n)
            (Structure.nodes annotated_sample)
      | Error _ -> false)

(* --- Modular --- *)

(* A two-module collection: the system module cites the powertrain
   module's root goal as an away goal. *)
let powertrain =
  Structure.of_nodes
    ~links:[ (Structure.Supported_by, "PG1", "PSn1") ]
    ~evidence:
      [ Evidence.make ~id:(id "PE1") ~kind:Evidence.Analysis "analysis" ]
    [
      Node.goal "PG1" "The powertrain is acceptably safe";
      Node.solution ~evidence:"PE1" "PSn1" "Powertrain analysis";
    ]

let system_module =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "AG_PG1");
        (Structure.Supported_by, "S1", "G2");
        (Structure.Supported_by, "G2", "Sn1");
      ]
    ~evidence:[ Evidence.make ~id:(id "E1") ~kind:Evidence.Review "review" ]
    [
      Node.goal "G1" "The vehicle is acceptably safe";
      Node.strategy "S1" "Argue over subsystems";
      Node.make ~id:(id "AG_PG1") ~node_type:(Node.Away_goal (id "Powertrain"))
        "The powertrain is acceptably safe";
      Node.goal "G2" "The body controller is acceptably safe";
      Node.solution ~evidence:"E1" "Sn1" "Review results";
    ]

let good_collection =
  Modular.empty
  |> Modular.add_module ~name:(id "Powertrain") ~public:[ id "PG1" ] powertrain
  |> Modular.add_module ~name:(id "Vehicle") system_module

let test_modular_away_goal_id_mismatch () =
  (* AG_PG1's id must match a goal in Powertrain; it does not, so the
     collection reports the target error. *)
  Alcotest.(check bool) "mismatch flagged" true
    (List.mem "modular/away-goal-target" (codes (Fused.check_modular good_collection)))

let matched_collection =
  (* Rename the away goal to carry the cited goal's id, the standard's
     convention. *)
  let sys =
    system_module
    |> Structure.remove_node (id "AG_PG1")
    |> Structure.add_node
         (Node.make ~id:(id "PG1")
            ~node_type:(Node.Away_goal (id "Powertrain"))
            "The powertrain is acceptably safe")
    |> Structure.connect Structure.Supported_by ~src:(id "S1") ~dst:(id "PG1")
  in
  Modular.empty
  |> Modular.add_module ~name:(id "Powertrain") ~public:[ id "PG1" ] powertrain
  |> Modular.add_module ~name:(id "Vehicle") sys

let test_modular_clean () =
  Alcotest.(check (list string)) "clean" []
    (codes (Fused.check_modular matched_collection))

let test_modular_unknown_module () =
  let collection =
    Modular.empty |> Modular.add_module ~name:(id "Vehicle") system_module
  in
  Alcotest.(check bool) "unknown module" true
    (List.mem "modular/unknown-module" (codes (Fused.check_modular collection)))

let test_modular_private_goal () =
  let collection =
    Modular.empty
    |> Modular.add_module ~name:(id "Powertrain") ~public:[] powertrain
    |> Modular.add_module ~name:(id "Vehicle")
         (system_module
         |> Structure.remove_node (id "AG_PG1")
         |> Structure.add_node
              (Node.make ~id:(id "PG1")
                 ~node_type:(Node.Away_goal (id "Powertrain"))
                 "The powertrain is acceptably safe")
         |> Structure.connect Structure.Supported_by ~src:(id "S1")
              ~dst:(id "PG1"))
  in
  Alcotest.(check bool) "private goal warned" true
    (List.mem "modular/private-goal" (codes (Fused.check_modular collection)))

let test_modular_dependency_cycle () =
  let m_a =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "GA", "GB") ]
      [
        Node.goal "GA" "A is safe";
        Node.make ~id:(id "GB") ~node_type:(Node.Away_goal (id "B"))
          "B is safe";
      ]
  in
  let m_b =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "GB", "GA") ]
      [
        Node.goal "GB" "B is safe";
        Node.make ~id:(id "GA") ~node_type:(Node.Away_goal (id "A"))
          "A is safe";
      ]
  in
  let collection =
    Modular.empty
    |> Modular.add_module ~name:(id "A") m_a
    |> Modular.add_module ~name:(id "B") m_b
  in
  Alcotest.(check bool) "cycle flagged" true
    (List.mem "modular/dependency-cycle" (codes (Fused.check_modular collection)))

let test_modular_dependencies () =
  Alcotest.(check (list string))
    "vehicle depends on powertrain" [ "Powertrain" ]
    (List.map Id.to_string
       (Modular.dependencies (id "Vehicle") matched_collection));
  Alcotest.(check (list string))
    "powertrain is a leaf" []
    (List.map Id.to_string
       (Modular.dependencies (id "Powertrain") matched_collection))

(* --- Interchange --- *)

let test_interchange_roundtrip_sample () =
  let text = Interchange.export annotated_sample in
  match Interchange.import text with
  | Ok s ->
      Alcotest.(check bool) "round-trip" true
        (Structure.equal s annotated_sample)
  | Error ds ->
      Alcotest.failf "import failed: %s"
        (Format.asprintf "%a" Argus_core.Diagnostic.pp_report ds)

let test_interchange_with_formal_and_modular () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "AG1") ]
      [
        {
          (Node.goal "G1" "top claim is safe") with
          Node.formal = Some (Argus_logic.Prop.of_string_exn "a -> b");
        };
        Node.make ~id:(id "AG1")
          ~node_type:(Node.Away_goal (id "M"))
          "away claim";
      ]
  in
  match Interchange.import (Interchange.export s) with
  | Ok s' -> Alcotest.(check bool) "round-trip" true (Structure.equal s s')
  | Error ds ->
      Alcotest.failf "import failed: %s"
        (Format.asprintf "%a" Argus_core.Diagnostic.pp_report ds)

let test_interchange_errors () =
  List.iter
    (fun (text, code) ->
      match Interchange.import text with
      | Ok _ -> Alcotest.failf "should fail: %s" text
      | Error ds ->
          if not (List.exists (fun d -> d.Argus_core.Diagnostic.code = code) ds)
          then
            Alcotest.failf "expected %s for %s, got %s" code text
              (String.concat ";"
                 (List.map (fun d -> d.Argus_core.Diagnostic.code) ds)))
    [
      ("not json at all", "interchange/shape");
      ({|{"nodes": [{"id": "1bad", "type": "goal", "text": "t"}]}|},
       "interchange/bad-id");
      ({|{"nodes": [{"id": "G", "type": "widget", "text": "t"}]}|},
       "interchange/bad-type");
      ({|{"nodes": [{"id": "G", "type": "goal", "text": "t", "status": "odd"}]}|},
       "interchange/bad-status");
      ({|{"nodes": [{"id": "G", "type": "goal", "text": "t", "formal": "a &"}]}|},
       "interchange/bad-formula");
      ( Printf.sprintf
          {|{"nodes": [{"id": "G", "type": "goal", "text": "t", "formal": "%sa%s"}]}|}
          (String.make 513 '(') (String.make 513 ')'),
        "interchange/bad-formula" );
      ({|{"links": [{"kind": "sideways", "from": "a", "to": "b"}]}|},
       "interchange/bad-kind");
      ({|{"nodes": [{"type": "goal", "text": "t"}]}|}, "interchange/shape");
    ]

let interchange_roundtrip_property =
  QCheck.Test.make ~name:"export/import round-trip" ~count:100 arb_wf (fun s ->
      match Interchange.import (Interchange.export s) with
      | Ok s' -> Structure.equal s s'
      | Error _ -> false)

(* --- Bulk builder against the fold --- *)

(* Raw builder inputs as a parser meets them: node ids repeat (the
   newest payload wins, the first position stays), evidence ids
   repeat, links repeat and name endpoints that are never declared. *)
type raw = {
  r_nodes : Node.t list;
  r_evidence : Evidence.t list;
  r_links : (Structure.link * string * string) list;
}

let gen_raw =
  let open QCheck.Gen in
  let node =
    let* i = int_bound 7 in
    let* node_type =
      oneofl [ Node.Goal; Node.Strategy; Node.Solution; Node.Context ]
    in
    let* text = oneofl [ "the system is safe"; "argue over hazards"; "x" ] in
    return (Node.make ~id:(id (Printf.sprintf "N%d" i)) ~node_type text)
  in
  let evidence =
    let* i = int_bound 3 in
    let* kind = oneofl Evidence.all_kinds in
    let* description = oneofl [ "timing analysis"; "test campaign" ] in
    return (Evidence.make ~id:(id (Printf.sprintf "E%d" i)) ~kind description)
  in
  let link =
    let* kind = oneofl [ Structure.Supported_by; Structure.In_context_of ] in
    let* src = int_bound 9 and* dst = int_bound 9 in
    return (kind, Printf.sprintf "N%d" src, Printf.sprintf "N%d" dst)
  in
  let* r_nodes = list_size (int_bound 12) node in
  let* r_evidence = list_size (int_bound 6) evidence in
  let* r_links = list_size (int_bound 20) link in
  return { r_nodes; r_evidence; r_links }

let print_raw r =
  Printf.sprintf "nodes [%s] evidence [%s] links [%s]"
    (String.concat "; "
       (List.map (fun n -> Format.asprintf "%a" Node.pp n) r.r_nodes))
    (String.concat "; "
       (List.map (fun e -> Format.asprintf "%a" Evidence.pp e) r.r_evidence))
    (String.concat "; "
       (List.map
          (fun (k, s, d) ->
            Printf.sprintf "%s%s%s" s
              (if k = Structure.Supported_by then "->" else "~>")
              d)
          r.r_links))

let arb_raw = QCheck.make ~print:print_raw gen_raw

(* The oracle: [add_node], [add_evidence] and [connect] one at a time,
   as the DSL parser and the interchange importer used to. *)
let fold_raw r =
  let s =
    List.fold_left
      (fun s n -> Structure.add_node n s)
      Structure.empty r.r_nodes
  in
  let s =
    List.fold_left (fun s e -> Structure.add_evidence e s) s r.r_evidence
  in
  List.fold_left
    (fun s (kind, src, dst) ->
      Structure.connect kind ~src:(id src) ~dst:(id dst) s)
    s r.r_links

let same_parts a b =
  List.equal Node.equal (Structure.nodes a) (Structure.nodes b)
  && Structure.links a = Structure.links b
  && List.equal Evidence.equal (Structure.evidence a) (Structure.evidence b)

let build_matches_fold =
  QCheck.Test.make ~name:"build and of_nodes equal the fold" ~count:500 arb_raw
    (fun r ->
      let links = List.map (fun (k, s, d) -> (k, id s, id d)) r.r_links in
      same_parts
        (Structure.build ~links ~evidence:r.r_evidence r.r_nodes)
        (fold_raw r)
      && same_parts
           (Structure.of_nodes ~links:r.r_links ~evidence:r.r_evidence
              r.r_nodes)
           (fold_raw r))

let raw_to_json r =
  let module Json = Argus_core.Json in
  let str s = Json.Str s in
  Json.Obj
    [
      ( "nodes",
        Json.List
          (List.map
             (fun n ->
               Json.Obj
                 [
                   ("id", str (Id.to_string n.Node.id));
                   ("type", str (Node.type_to_string n.Node.node_type));
                   ("text", str n.Node.text);
                 ])
             r.r_nodes) );
      ( "links",
        Json.List
          (List.map
             (fun (k, s, d) ->
               Json.Obj
                 [
                   ( "kind",
                     str
                       (match k with
                       | Structure.Supported_by -> "supported-by"
                       | Structure.In_context_of -> "in-context-of") );
                   ("from", str s);
                   ("to", str d);
                 ])
             r.r_links) );
      ( "evidence",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("id", str (Id.to_string e.Evidence.id));
                   ("kind", str (Evidence.kind_to_string e.Evidence.kind));
                   ("description", str e.Evidence.description);
                 ])
             r.r_evidence) );
    ]

let of_json_matches_fold =
  QCheck.Test.make ~name:"of_json equals the fold" ~count:500 arb_raw (fun r ->
      match Interchange.of_json (raw_to_json r) with
      | Ok s -> same_parts s (fold_raw r)
      | Error _ -> false)

(* --- Metrics --- *)

let test_metrics_sample () =
  let m = Metrics.measure sample in
  Alcotest.(check int) "nodes" 8 m.Metrics.nodes;
  Alcotest.(check int) "goals" 3 m.Metrics.goals;
  Alcotest.(check int) "strategies" 1 m.Metrics.strategies;
  Alcotest.(check int) "solutions" 2 m.Metrics.solutions;
  Alcotest.(check int) "contextual" 2 m.Metrics.contextual;
  Alcotest.(check int) "links" 7 m.Metrics.links;
  (* G1 -> S1 -> G2 -> Sn1 is the longest chain: 4 nodes. *)
  Alcotest.(check int) "depth" 4 m.Metrics.depth;
  Alcotest.(check int) "fanout" 2 m.Metrics.max_fanout;
  Alcotest.(check int) "evidence" 2 m.Metrics.evidence_items;
  Alcotest.(check (float 1e-9)) "no formalisation" 0.0
    m.Metrics.formalisation_ratio

let test_metrics_empty () =
  let m = Metrics.measure Structure.empty in
  Alcotest.(check int) "nodes" 0 m.Metrics.nodes;
  Alcotest.(check int) "depth" 0 m.Metrics.depth;
  Alcotest.(check (float 1e-9)) "ease" 100.0 m.Metrics.reading_ease

let metrics_total_on_chaos =
  QCheck.Test.make ~name:"metrics counts partition the nodes" ~count:100
    arb_wf (fun s ->
      let m = Metrics.measure s in
      m.Metrics.goals + m.Metrics.strategies + m.Metrics.solutions
      + m.Metrics.contextual + m.Metrics.modular
      = m.Metrics.nodes)

let () =
  Alcotest.run "argus-gsn"
    [
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_structure_basics;
          Alcotest.test_case "subtree" `Quick test_subtree;
          Alcotest.test_case "remove node" `Quick test_remove_node;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ( "wellformed",
        [
          Alcotest.test_case "sample is clean" `Quick test_sample_well_formed;
          Alcotest.test_case "dangling link" `Quick test_dangling_link;
          Alcotest.test_case "bad support link" `Quick test_bad_support_link;
          Alcotest.test_case "context under support" `Quick
            test_context_under_support;
          Alcotest.test_case "solution in context of away goal" `Quick
            test_solution_in_context_of_away_goal;
          Alcotest.test_case "goal under goal rulesets" `Quick
            test_goal_under_goal_rulesets;
          Alcotest.test_case "cycle reported" `Quick test_cycle_reported;
          Alcotest.test_case "unsupported goal" `Quick test_unsupported_goal;
          Alcotest.test_case "undeveloped strategy" `Quick
            test_undeveloped_strategy;
          Alcotest.test_case "non-propositional goal" `Quick
            test_non_propositional_goal;
          Alcotest.test_case "placeholder text" `Quick test_placeholder_text;
          Alcotest.test_case "unknown evidence" `Quick test_unknown_evidence;
          Alcotest.test_case "weak evidence" `Quick test_weak_evidence;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          QCheck_alcotest.to_alcotest generated_cases_are_well_formed;
        ] );
      ( "hicase",
        [
          Alcotest.test_case "depth overview" `Quick test_hicase_depth_overview;
          Alcotest.test_case "leaf collapse no-op" `Quick
            test_hicase_leaf_collapse_noop;
          QCheck_alcotest.to_alcotest hicase_views_stay_well_formed;
          QCheck_alcotest.to_alcotest hicase_collapse_expand_roundtrip;
          QCheck_alcotest.to_alcotest hicase_visible_smaller;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "valid annotations" `Quick test_metadata_ok;
          Alcotest.test_case "invalid annotations" `Quick test_metadata_errors;
          Alcotest.test_case "annotation parser" `Quick test_metadata_parse;
        ] );
      ( "query",
        [
          Alcotest.test_case "select" `Quick test_query_select;
          Alcotest.test_case "parser" `Quick test_query_parser;
          Alcotest.test_case "trace view" `Quick test_trace_view;
          QCheck_alcotest.to_alcotest query_roundtrip;
        ] );
      ( "modular",
        [
          Alcotest.test_case "away goal id mismatch" `Quick
            test_modular_away_goal_id_mismatch;
          Alcotest.test_case "matched collection clean" `Quick
            test_modular_clean;
          Alcotest.test_case "unknown module" `Quick test_modular_unknown_module;
          Alcotest.test_case "private goal" `Quick test_modular_private_goal;
          Alcotest.test_case "dependency cycle" `Quick
            test_modular_dependency_cycle;
          Alcotest.test_case "dependencies" `Quick test_modular_dependencies;
        ] );
      ( "interchange",
        [
          Alcotest.test_case "annotated sample round-trip" `Quick
            test_interchange_roundtrip_sample;
          Alcotest.test_case "formal and modular nodes" `Quick
            test_interchange_with_formal_and_modular;
          Alcotest.test_case "errors" `Quick test_interchange_errors;
          QCheck_alcotest.to_alcotest interchange_roundtrip_property;
          QCheck_alcotest.to_alcotest of_json_matches_fold;
        ] );
      ( "bulk-build",
        [ QCheck_alcotest.to_alcotest build_matches_fold ] );
      ( "metrics",
        [
          Alcotest.test_case "sample" `Quick test_metrics_sample;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          QCheck_alcotest.to_alcotest metrics_total_on_chaos;
        ] );
    ]
