(* The fused array-IR checker against its tree-walking oracles
   (test/oracle): for every structure, Fused.check must render
   byte-identically to Legacy_wellformed.check +
   Legacy_informal.check_structure (same findings, same order, same
   budget ticks), and Fused.check_cae to Legacy_cae.check. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Budget = Argus_rt.Budget
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Cae = Argus_cae.Cae
module Legacy_wellformed = Argus_oracle.Legacy_wellformed
module Legacy_informal = Argus_oracle.Legacy_informal
module Legacy_cae = Argus_oracle.Legacy_cae
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

let render ds = Format.asprintf "%a" Diagnostic.pp_report ds
let rulesets = [ Wellformed.Standard; Wellformed.Denney_pai_2013 ]
let fuels = [ 1; 2; 3; 5; 100; 400 ]

(* --- The adversarial case battery --- *)

let battery : (string * Structure.t) list =
  [
    ( "clean",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "S1");
            (Structure.Supported_by, "S1", "G2");
            (Structure.Supported_by, "G2", "Sn1");
            (Structure.In_context_of, "G1", "C1");
          ]
        ~evidence:
          [
            Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Test_results
              "tests";
          ]
        [
          Node.goal "G1" "The system is acceptably safe";
          Node.strategy "S1" "Argue over hazards";
          Node.goal "G2" "Hazard H1 is mitigated";
          Node.solution ~evidence:"E1" "Sn1" "Test report";
          Node.context "C1" "Operating context";
        ] );
    ( "dangling",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Gmissing");
            (Structure.Supported_by, "Gmissing", "Gmissing2");
            (Structure.Supported_by, "Gzz", "G1");
            (Structure.In_context_of, "Cnope", "G1");
          ]
        [ Node.goal "G1" "Claim one holds" ] );
    ( "cycle",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "G2");
            (Structure.Supported_by, "G2", "G3");
            (Structure.Supported_by, "G3", "G1");
          ]
        [
          Node.goal "G1" "A holds";
          Node.goal "G2" "B holds";
          Node.goal "G3" "C holds";
        ] );
    ( "cycle-dangling",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Gx");
            (Structure.Supported_by, "Gx", "G1");
          ]
        [ Node.goal "G1" "A holds" ] );
    ( "badlinks",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "C1", "G1");
            (Structure.Supported_by, "Sn1", "G1");
            (Structure.Supported_by, "S1", "Sn1");
            (Structure.In_context_of, "AG1", "Sn1");
            (Structure.In_context_of, "Sn1", "C1");
            (Structure.In_context_of, "G1", "G2");
          ]
        [
          Node.goal "G1" "All inputs are validated always";
          Node.goal "G2" "Another goal is here";
          Node.strategy "S1" "Argue by cases";
          Node.solution "Sn1" "Evidence doc";
          Node.context "C1" "Some context";
          Node.make ~id:(Id.of_string "AG1")
            ~node_type:(Node.Away_goal (Id.of_string "M1"))
            "Away goal claim text";
        ] );
    ( "statuses",
      Structure.of_nodes
        ~links:[ (Structure.Supported_by, "G1", "G2") ]
        [
          Node.make ~id:(Id.of_string "G1") ~node_type:Node.Goal
            ~status:Node.Undeveloped "Top claim {TBD} is safe";
          Node.make ~id:(Id.of_string "G2") ~node_type:Node.Goal
            ~status:Node.Uninstantiated "Formal proof of Quat4::quat";
          Node.make ~id:(Id.of_string "G3") ~node_type:Node.Goal
            ~status:Node.Undeveloped_uninstantiated "";
          Node.strategy "S1" "   ";
        ] );
    ( "weak-evidence",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Sn1");
            (Structure.Supported_by, "G2", "Sn1");
            (Structure.Supported_by, "G1", "G2");
          ]
        ~evidence:
          [
            Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Test_results
              "a test";
          ]
        [
          Node.goal "G1" "The system never deadlocks";
          Node.goal "G2" "Deadlock is impossible in every mode";
          Node.solution ~evidence:"E1" "Sn1" "Test log";
        ] );
    ( "evidence-refs",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Sn1");
            (Structure.Supported_by, "G1", "Sn2");
          ]
        [
          Node.goal "G1" "Claims are supported";
          Node.solution ~evidence:"Enope" "Sn1" "Missing evidence";
          Node.solution "Sn2" "No evidence cited";
        ] );
    ( "informal",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "S1");
            (Structure.Supported_by, "S1", "G2");
            (Structure.Supported_by, "S1", "G3");
            (Structure.Supported_by, "G2", "G4");
            (Structure.Supported_by, "G1", "G5");
            (Structure.Supported_by, "G5", "G6");
          ]
        [
          Node.goal "G1" "The system is acceptably safe to operate";
          Node.strategy "S1" "Argue over banks";
          Node.goal "G2" "The river bank erosion control scheme performs well";
          Node.goal "G3" "The bank branch office ledger computation is audited";
          Node.goal "G4" "There is no evidence that failures occur";
          Node.goal "G5" "Intermediate claim stands firmly";
          Node.goal "G6" "The system is acceptably safe to operate";
        ] );
    ( "multi-root",
      Structure.of_nodes [ Node.goal "G1" "A is true"; Node.goal "G2" "B is true" ]
    );
    ( "root-not-goal",
      Structure.of_nodes
        ~links:[ (Structure.Supported_by, "S1", "G1") ]
        [ Node.strategy "S1" "Argue somehow"; Node.goal "G1" "A claim is made" ]
    );
    ( "no-root",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "G2");
            (Structure.Supported_by, "G2", "G1");
          ]
        [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ] );
    ("empty", Structure.of_nodes []);
    ( "unreachable",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "G2");
            (Structure.Supported_by, "G3", "G3b");
            (Structure.Supported_by, "G3b", "G3");
            (Structure.In_context_of, "G2", "C1");
          ]
        [
          Node.goal "G1" "Root claim is here";
          Node.goal "G2" "Child claim is here";
          Node.goal "G3" "Island claim floats";
          Node.goal "G3b" "Island partner floats";
          Node.context "C1" "Reachable context";
        ] );
  ]

(* Full parity on one structure: wf and informal for both rulesets,
   budgeted informal with identical step accounting, and CAE.  Returns
   an error description, or None when everything matches. *)
let parity_failure name s =
  let fail = ref None in
  let record fmt = Printf.ksprintf (fun m -> if !fail = None then fail := Some m) fmt in
  List.iter
    (fun ruleset ->
      let legacy_wf = Legacy_wellformed.check ~ruleset s in
      let fused = Fused.check ~ruleset (Caseir.intern s) in
      if render legacy_wf <> render fused.Fused.wf then
        record "%s: wf mismatch\n--- legacy:\n%s--- fused:\n%s" name
          (render legacy_wf) (render fused.Fused.wf);
      let legacy_inf = Legacy_informal.check_structure s in
      if render legacy_inf <> render fused.Fused.informal then
        record "%s: informal mismatch\n--- legacy:\n%s--- fused:\n%s" name
          (render legacy_inf) (render fused.Fused.informal);
      List.iter
        (fun fuel ->
          let b1 = Budget.make ~fuel () in
          let b2 = Budget.make ~fuel () in
          let legacy_b = Legacy_informal.check_structure ~budget:b1 s in
          let fused_b = Fused.check ~ruleset ~budget:b2 (Caseir.intern s) in
          if render legacy_b <> render fused_b.Fused.informal then
            record "%s: budgeted informal mismatch at fuel %d" name fuel;
          if Budget.steps b1 <> Budget.steps b2 then
            record "%s: step mismatch at fuel %d (legacy %d, fused %d)" name
              fuel (Budget.steps b1) (Budget.steps b2))
        fuels)
    rulesets;
  let cae = Cae.of_gsn s in
  let legacy_cae = Legacy_cae.check cae in
  let fused_cae = Fused.check_cae (Fused.intern_cae cae) in
  if render legacy_cae <> render fused_cae then
    record "%s: CAE mismatch\n--- legacy:\n%s--- fused:\n%s" name
      (render legacy_cae) (render fused_cae);
  let lint = Fused.lint (Caseir.intern s) in
  if render (Legacy_informal.check_structure s) <> render lint then
    record "%s: Fused.lint mismatch" name;
  !fail

let test_battery () =
  List.iter
    (fun (name, s) ->
      match parity_failure name s with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    battery

(* ~lints:false must skip the lints entirely — and hence never touch
   the budget, matching a caller that never invoked the legacy lint
   entry point. *)
let test_lints_off_leaves_budget_untouched () =
  let s = List.assoc "informal" battery in
  let b = Budget.make ~fuel:50 () in
  let r = Fused.check ~budget:b ~lints:false (Caseir.intern s) in
  Alcotest.(check int) "no informal findings" 0 (List.length r.Fused.informal);
  Alcotest.(check int) "no budget ticks" 0 (Budget.steps b);
  Alcotest.(check string) "wf unchanged" (render (Legacy_wellformed.check s))
    (render r.Fused.wf)

let test_ir_counters_advance () =
  let interned = Argus_obs.Counter.make "ir.interned"
  and passes = Argus_obs.Counter.make "ir.fused_passes" in
  let i0 = Argus_obs.Counter.value interned
  and p0 = Argus_obs.Counter.value passes in
  let s = List.assoc "clean" battery in
  let ir = Caseir.intern s in
  ignore (Fused.check ir);
  ignore (Fused.lint ir);
  Alcotest.(check bool) "ir.interned advanced" true
    (Argus_obs.Counter.value interned > i0);
  Alcotest.(check bool) "ir.fused_passes counted both passes" true
    (Argus_obs.Counter.value passes >= p0 + 2)

(* --- claim-key collisions --- *)

(* The circular-support walk compares integer claim keys first and the
   norm strings only on a key match, so two distinct claims whose keys
   collide must still not count as a restatement.  A birthday search
   over generated goal texts finds such a pair (the key is 30 bits, so
   ~2^15 texts suffice); each case is also held to the legacy walk. *)
let colliding_claims () =
  let seen = Hashtbl.create 65536 in
  let word n =
    let b = Buffer.create 8 in
    let rec go n =
      Buffer.add_char b (Char.chr (Char.code 'a' + (n mod 26)));
      if n >= 26 then go ((n / 26) - 1)
    in
    go n;
    Buffer.contents b
  in
  let rec search n =
    if n > 1 lsl 22 then Alcotest.fail "no claim-key collision found"
    else
      let text = Printf.sprintf "The %s subsystem holds" (word n) in
      let d = Caseir.derive (Node.goal "G" text) in
      match Hashtbl.find_opt seen d.Caseir.d_claim with
      | Some (text', norm') when norm' <> d.Caseir.d_norm -> (text', text)
      | Some _ -> search (n + 1)
      | None ->
          Hashtbl.add seen d.Caseir.d_claim (text, d.Caseir.d_norm);
          search (n + 1)
  in
  search 0

let circular_ids ds =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.code = "informal/circular-support" then
        Some (String.concat "," (List.map Id.to_string d.Diagnostic.subjects))
      else None)
    ds

(* Goals [texts] chained top-down, a strategy between each pair. *)
let goal_chain texts =
  let n = List.length texts in
  Structure.of_nodes
    ~links:
      (List.concat
         (List.init (n - 1) (fun k ->
              [
                (Structure.Supported_by, Printf.sprintf "G%d" k,
                 Printf.sprintf "S%d" k);
                (Structure.Supported_by, Printf.sprintf "S%d" k,
                 Printf.sprintf "G%d" (k + 1));
              ])))
    (List.concat
       (List.mapi
          (fun k text ->
            Node.goal (Printf.sprintf "G%d" k) text
            :: (if k < n - 1 then
                  [ Node.strategy (Printf.sprintf "S%d" k) "Argue over parts" ]
                else []))
          texts))

let test_colliding_claim_keys () =
  let a, b = colliding_claims () in
  let key t = (Caseir.derive (Node.goal "G" t)).Caseir.d_claim in
  Alcotest.(check int) "the pair collides" (key a) (key b);
  let circular s =
    (match parity_failure "collision" s with
    | None -> ()
    | Some msg -> Alcotest.fail msg);
    let ir = Caseir.intern s in
    let from_check = circular_ids (Fused.check ir).Fused.informal in
    Alcotest.(check (list string)) "lint agrees with check" from_check
      (circular_ids (Fused.lint ir));
    from_check
  in
  Alcotest.(check (list string)) "colliding keys are not a restatement" []
    (circular (goal_chain [ a; b ]));
  Alcotest.(check (list string)) "equal texts are" [ "G1" ]
    (circular (goal_chain [ a; a ]));
  (* The nearest matching key is the impostor; the search must go on
     past it to the real restatement. *)
  Alcotest.(check (list string)) "a colliding ancestor does not hide one"
    [ "G2" ]
    (circular (goal_chain [ a; b; a ]))

(* --- content-word hash collisions --- *)

(* The equivocation scan merges sibling rows by word hash and compares
   strings only on a hash tie, so two distinct words with equal hashes
   must neither make a shared word nor hide one.  A birthday search
   finds such a pair among generated words (30-bit hashes: ~2^15 words
   suffice); the words avoid stop words and a trailing 's', so each is
   its own content word. *)
let colliding_words () =
  let seen = Hashtbl.create 65536 in
  let word n =
    let b = Buffer.create 8 in
    Buffer.add_char b 'q';
    let rec go n =
      Buffer.add_char b (Char.chr (Char.code 'a' + (n mod 26)));
      if n >= 26 then go ((n / 26) - 1)
    in
    go n;
    Buffer.contents b
  in
  let hash w =
    let d = Caseir.derive (Node.goal "G" w) in
    if d.Caseir.d_content <> [| w |] then None
    else Some d.Caseir.d_content_hash.(0)
  in
  let rec search n =
    if n > 1 lsl 22 then Alcotest.fail "no content-word hash collision found"
    else
      let w = word n in
      match hash w with
      | None -> search (n + 1)
      | Some h -> (
          match Hashtbl.find_opt seen h with
          | Some w' -> (w', w)
          | None ->
              Hashtbl.add seen h w;
              search (n + 1))
  in
  search 0

let equivocations ds =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.code = "informal/equivocation-candidate" then
        Some
          (String.concat "," (List.map Id.to_string d.Diagnostic.subjects)
          ^ " " ^ d.Diagnostic.message)
      else None)
    ds

(* A strategy over goals [texts] (ids [G0], [G1], ...), after [filler]
   short goals that can never fire — enough filler puts the pair on the
   inverted-index path. *)
let siblings ?(filler = 0) texts =
  let fill = List.init filler (fun k -> Printf.sprintf "Filler %d holds" k) in
  let goals =
    List.mapi (fun k t -> Node.goal (Printf.sprintf "G%d" k) t) (fill @ texts)
  in
  Structure.of_nodes
    ~links:
      ((Structure.Supported_by, "R", "S")
      :: List.map
           (fun (g : Node.t) ->
             (Structure.Supported_by, "S", Id.to_string g.Node.id))
           goals)
    (Node.goal "R" "The root claim holds" :: Node.strategy "S" "Argue" :: goals)

let test_colliding_content_words () =
  let a, b = colliding_words () in
  let hash w = (Caseir.derive (Node.goal "G" w)).Caseir.d_content_hash in
  Alcotest.(check (array int)) "the pair collides" (hash a) (hash b);
  List.iter
    (fun filler ->
      let found texts =
        let s = siblings ~filler texts in
        (match parity_failure "collision" s with
        | None -> ()
        | Some msg -> Alcotest.fail msg);
        let ir = Caseir.intern s in
        let from_check = equivocations (Fused.check ir).Fused.informal in
        Alcotest.(check (list string)) "lint agrees with check" from_check
          (equivocations (Fused.lint ir));
        from_check
      in
      let g k = Printf.sprintf "G%d,G%d" (filler + k) (filler + k + 1) in
      Alcotest.(check (list string)) "colliding words are not shared" []
        (found
           [ "alpha beta gamma " ^ a; "delta epsilon zeta " ^ b ]);
      Alcotest.(check (list string)) "one shared word fires"
        [ Printf.sprintf "%s the word %S links otherwise-unrelated sibling \
                          goals; check it means the same thing in both"
            (g 0) a ]
        (found [ "alpha beta gamma " ^ a; "delta epsilon zeta " ^ a ]);
      (* [b] sits beside [a] in the second row: it must not count as a
         second copy of the shared word. *)
      Alcotest.(check (list string)) "a colliding neighbour does not hide one"
        [ Printf.sprintf "%s the word %S links otherwise-unrelated sibling \
                          goals; check it means the same thing in both"
            (g 0) a ]
        (found [ "alpha beta gamma " ^ a; "delta epsilon " ^ a ^ " " ^ b ]);
      Alcotest.(check (list string)) "nor make a second shared word" [
        Printf.sprintf "%s the word %S links otherwise-unrelated sibling \
                        goals; check it means the same thing in both"
          (g 0) "kappa" ]
        (found
           [ "alpha beta gamma kappa " ^ a; "delta epsilon zeta kappa " ^ b ]))
    [ 0; 9 ]

(* --- the equivocation scan stops at its budget --- *)

(* One strategy over 4000 sibling goals, every pair of which shares
   exactly one word ("bank") and nothing else, so every pair is a
   candidate and fires.  The walk visits the root, the strategy and
   the 4000 goals; the scan then gets the rest of the fuel, one tick
   per pair.  Counting findings counts the pairs the scan examined:
   without the ticks it would examine all ~8M. *)
let test_scan_stops_at_fuel () =
  let k = 4000 in
  let s =
    siblings
      (List.init k (fun i ->
           Printf.sprintf "bank x%da x%db x%dc" i i i))
  in
  let ir = Caseir.intern s in
  let walk = k + 2 in
  List.iter
    (fun extra ->
      let b = Budget.make ~fuel:(walk + extra) () in
      let ds = Fused.lint ~budget:b ir in
      Alcotest.(check int)
        (Printf.sprintf "pairs examined with %d fuel left" extra)
        extra
        (List.length (equivocations ds));
      Alcotest.(check int) "steps stop at the fuel" (walk + extra + 1)
        (Budget.steps b);
      let b' = Budget.make ~fuel:(walk + extra) () in
      Alcotest.(check int) "check stops as lint does" extra
        (List.length
           (equivocations (Fused.check ~budget:b' ir).Fused.informal));
      Alcotest.(check int) "same steps" (Budget.steps b) (Budget.steps b'))
    [ 0; 1; 1000 ]

(* --- Random structures --- *)

(* Texts chosen to tickle every lint: ignorance phrases, shared-word
   equivocation among goal siblings, universal claims, placeholders,
   blanks, non-propositional goal text. *)
let texts =
  [|
    "The system is acceptably safe";
    "There is no evidence that failures occur";
    "The river bank erosion control scheme performs well";
    "The bank branch office ledger computation is audited";
    "All inputs are always validated";
    "Deadlock is impossible in every mode";
    "";
    "Claim {TBD} is pending";
    "Formal proof of Quat4::quat";
    "Argue over hazards";
    "Test report";
  |]

let gen_structure =
  let open QCheck.Gen in
  let node i =
    map2
      (fun (tcode, scode) text ->
        let node_type =
          match tcode with
          | 0 | 1 -> Node.Goal
          | 2 -> Node.Strategy
          | 3 -> Node.Solution
          | 4 -> Node.Context
          | 5 -> Node.Assumption
          | _ -> Node.Away_goal (Id.of_string "M1")
        in
        let status =
          match scode with
          | 0 | 1 -> Node.Developed
          | 2 -> Node.Undeveloped
          | 3 -> Node.Uninstantiated
          | _ -> Node.Undeveloped_uninstantiated
        in
        Node.make
          ~id:(Id.of_string (Printf.sprintf "N%d" i))
          ~node_type ~status
          texts.(text mod Array.length texts))
      (pair (int_bound 6) (int_bound 4))
      (int_bound (Array.length texts - 1))
  in
  let link n =
    map2
      (fun (kind, dangle) (a, b) ->
        let name j = Printf.sprintf "N%d" j in
        let src = if dangle = 0 then "Nowhere" else name (a mod n) in
        let dst = if dangle = 1 then "Nada" else name (b mod n) in
        ((if kind then Structure.Supported_by else Structure.In_context_of),
         src, dst))
      (pair bool (int_bound 11))
      (pair (int_bound (n - 1)) (int_bound (n - 1)))
  in
  int_range 1 8 >>= fun n ->
  pair
    (flatten_l (List.init n node))
    (list_size (int_range 0 12) (link n))
  |> map (fun (nodes, links) -> Structure.of_nodes ~links nodes)

(* Wide parents for the equivocation scan: one parent (a goal or a
   strategy, under a root goal) over 2-40 children, most of them goal
   -like, some solutions the scan must skip.  Texts come from a small
   vocabulary: each draws words from one topic, so siblings on
   different topics share nothing, plus now and then a bridge word the
   topics have in common — so pairs that share exactly one word are
   frequent.  Words repeat within a text, plurals and "ss" endings
   normalise differently, case varies, and stop words pad. *)
let topics =
  [|
    [| "river"; "Rivers"; "erosion"; "flood"; "levee"; "silt" |];
    [| "ledger"; "office"; "audit"; "Audits"; "teller"; "vault" |];
    [| "class"; "glass"; "press"; "boss"; "MASS"; "passes" |];
    [| "pump"; "pumps"; "valve"; "Valves"; "seal"; "flow" |];
  |]

let bridges = [| "bank"; "Banks"; "BANK"; "charge"; "Charges" |]

let gen_wide_text =
  let open QCheck.Gen in
  let* topic = oneofa topics in
  let* own = list_size (int_range 1 6) (oneofa topic) in
  let* bridge = list_size (int_bound 2) (oneofa bridges) in
  let* pad = list_size (int_bound 2) (oneofl [ "the"; "is"; "of"; "All" ]) in
  let* words = shuffle_l (own @ bridge @ pad) in
  oneof
    [ return (String.concat " " words); oneofa texts ]

let gen_wide =
  let open QCheck.Gen in
  let* m = int_range 2 40 in
  let* parent_is_goal = bool in
  let child c =
    map2
      (fun kind text ->
        let id = Id.of_string (Printf.sprintf "C%d" c) in
        let node_type =
          match kind with
          | 0 -> Node.Solution
          | 1 -> Node.Away_goal (Id.of_string "M1")
          | _ -> Node.Goal
        in
        Node.make ~id ~node_type text)
      (int_bound 7) gen_wide_text
  in
  let* children = flatten_l (List.init m child) in
  let parent =
    if parent_is_goal then Node.goal "P" "Parent claim holds"
    else Node.strategy "P" "Argue over each item"
  in
  return
    (Structure.of_nodes
       ~links:
         ((Structure.Supported_by, "R", "P")
         :: List.map
              (fun (c : Node.t) ->
                (Structure.Supported_by, "P", Id.to_string c.Node.id))
              children)
       (Node.goal "R" "The root claim holds" :: parent :: children))

let print_structure s =
  String.concat "; "
    (List.map
       (fun (n : Node.t) ->
         Printf.sprintf "%s %s %S" (Id.to_string n.Node.id)
           (Node.type_to_string n.Node.node_type)
           n.Node.text)
       (Structure.nodes s))

let fused_matches_legacy_on_random_structures =
  QCheck.Test.make ~name:"fused checker = legacy checkers (random structures)"
    ~count:600
    (QCheck.make ~print:print_structure
       QCheck.Gen.(oneof [ gen_structure; gen_wide ]))
    (fun s ->
      match parity_failure "random" s with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* --- incremental re-interning: a payload edit = full re-intern --- *)

(* Replace one node's text through [Caseir.apply], which writes it in
   place: no index map, and checking the patched IR must be
   byte-identical to checking a fresh intern of the edited
   structure. *)
let set_node_parity =
  QCheck.Test.make ~name:"set_node = full re-intern (random text edits)"
    ~count:600
    (QCheck.make
       ~print:(fun (s, _, _) -> print_structure s)
       QCheck.Gen.(
         oneof [ gen_structure; gen_wide ] >>= fun s ->
         let n = List.length (Structure.nodes s) in
         pair (int_bound (max 0 (n - 1))) gen_wide_text
         >>= fun (pick, text) -> return (s, pick, text)))
    (fun (s, pick, text) ->
      let ir = Caseir.intern s in
      let nodes = Structure.nodes s in
      let node = List.nth nodes (pick mod List.length nodes) in
      let n' =
        Node.make ~id:node.Node.id ~node_type:node.Node.node_type
          ~status:node.Node.status ?formal:node.Node.formal
          ~annotations:node.Node.annotations ?evidence:node.Node.evidence text
      in
      let s' = Structure.add_node n' s in
      let patched =
        match Caseir.apply ir [ Caseir.Set_text (node.Node.id, text) ] with
        | Ok (patched, None) -> patched
        | Ok (_, Some _) -> QCheck.Test.fail_report "a text edit moved indices"
        | Error msg -> QCheck.Test.fail_report ("a text edit was refused: " ^ msg)
      in
      let a = Fused.check ~lints:true patched in
      let b = Fused.check ~lints:true (Caseir.intern s') in
      let show r =
        render r.Fused.wf ^ "\x00" ^ render r.Fused.informal
      in
      if show a <> show b then
        QCheck.Test.fail_report
          (Printf.sprintf "patched IR drifted\n-- patched --\n%s\n-- fresh --\n%s"
             (show a) (show b))
      else true)

(* --- the cycle witness --- *)

(* Larger random graphs than [gen_structure]: up to 30 nodes and 60
   SupportedBy links, so shared subtrees (the ones the linear search
   clears early) and self-loops are common, plus dangling endpoints on
   either side. *)
let gen_graph =
  let open QCheck.Gen in
  int_range 1 30 >>= fun n ->
  let name j = Printf.sprintf "N%d" j in
  let link =
    map2
      (fun dangle (a, b) ->
        let src = if dangle = 0 then "Nowhere" else name (a mod n) in
        let dst = if dangle = 1 then "Nada" else name (b mod n) in
        (Structure.Supported_by, src, dst))
      (int_bound 15)
      (pair (int_bound (n - 1)) (int_bound (n - 1)))
  in
  list_size (int_range 0 (2 * n)) link
  |> map (fun links ->
         Structure.of_nodes ~links
           (List.init n (fun j -> Node.goal (name j) "t holds")))

let cycle_witness_matches_legacy =
  QCheck.Test.make ~name:"has_cycle witness = List.mem search (random graphs)"
    ~count:500
    (QCheck.make
       ~print:(fun s ->
         String.concat " "
           (List.map
              (fun (_, a, b) -> Id.to_string a ^ ">" ^ Id.to_string b)
              (Structure.links s)))
       QCheck.Gen.(oneof [ gen_graph; gen_structure ]))
    (fun s ->
      let ir = Caseir.intern s in
      let show = function
        | None -> "none"
        | Some w -> String.concat " " (List.map Id.to_string w)
      in
      let got = Caseir.has_cycle ir
      and want = Legacy_wellformed.has_cycle s in
      if got <> want then
        QCheck.Test.fail_reportf "witness %s, legacy %s" (show got) (show want)
      else true)

(* --- the compiled modular checker --- *)

module Modular = Argus_gsn.Modular

let gen_collection =
  let open QCheck.Gen in
  int_range 1 4 >>= fun m ->
  flatten_l
    (List.init m (fun k ->
         gen_structure >>= fun s -> return (Id.of_string (Printf.sprintf "M%d" k), s)))
  |> map
       (List.fold_left
          (fun acc (name, s) -> Modular.add_module ~name s acc)
          Modular.empty)

let check_modular_matches_legacy =
  QCheck.Test.make
    ~name:"Fused.check_modular = Modular.check (random collections)"
    ~count:200
    (QCheck.make
       ~print:(fun c ->
         String.concat ", " (List.map Id.to_string (Modular.module_names c)))
       gen_collection)
    (fun c ->
      let a = render (Fused.check_modular c) in
      let b = render (Argus_oracle.Legacy_modular.check c) in
      if a <> b then
        QCheck.Test.fail_report
          (Printf.sprintf "modular drift\n-- fused --\n%s\n-- legacy --\n%s" a b)
      else true)

let () =
  Alcotest.run "argus-ir"
    [
      ( "parity",
        [
          Alcotest.test_case "adversarial battery" `Quick test_battery;
          Alcotest.test_case "lints off leaves budget untouched" `Quick
            test_lints_off_leaves_budget_untouched;
          Alcotest.test_case "counters advance" `Quick test_ir_counters_advance;
          QCheck_alcotest.to_alcotest fused_matches_legacy_on_random_structures;
          QCheck_alcotest.to_alcotest set_node_parity;
          QCheck_alcotest.to_alcotest check_modular_matches_legacy;
          QCheck_alcotest.to_alcotest cycle_witness_matches_legacy;
          Alcotest.test_case "colliding claim keys" `Quick
            test_colliding_claim_keys;
          Alcotest.test_case "colliding content words" `Quick
            test_colliding_content_words;
          Alcotest.test_case "equivocation scan stops at its fuel" `Quick
            test_scan_stops_at_fuel;
        ] );
    ]
