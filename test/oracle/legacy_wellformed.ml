(* The tree-walking GSN well-formedness checker, kept as the
   differential oracle for {!Argus_ir.Fused.check} (test/ir holds the
   two to byte-identical diagnostic lists).  It walks [Structure.t]'s
   lists directly and shares only the rule predicates with the fused
   pass. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
open Argus_gsn.Wellformed

let has_cycle t =
  let open Structure in
  (* DFS over Supported_by with a recursion stack; returns the stack
     when a back edge is found. *)
  let rec visit path visited id =
    if List.exists (Id.equal id) path then
      Some (List.rev (id :: path))
    else if Id.Set.mem id visited then None
    else
      let path = id :: path in
      List.fold_left
        (fun found child ->
          match found with Some _ -> found | None -> visit path visited child)
        None
        (children Supported_by id t)
  in
  (* Visit every node as a potential entry; keep a global visited set to
     stay linear-ish (nodes proven cycle-free are skipped). *)
  let visited = ref Id.Set.empty in
  List.fold_left
    (fun found id ->
      match found with
      | Some _ -> found
      | None ->
          let r = visit [] !visited id in
          if r = None then visited := Id.Set.add id !visited;
          r)
    None (List.map (fun n -> n.Node.id) (nodes t))

(* Checker counters (catalogue in DESIGN.md). *)
let c_nodes_visited = Argus_obs.Counter.make "gsn.wf.nodes_visited"
let c_links_checked = Argus_obs.Counter.make "gsn.wf.links_checked"
let c_findings = Argus_obs.Counter.make "gsn.wf.findings"

let check ?(ruleset = Standard) structure =
  Argus_obs.Span.with_ ~name:"gsn.wellformed" @@ fun () ->
  let out = ref [] in
  let add d =
    Argus_obs.Counter.incr c_findings;
    out := d :: !out
  in
  let node id = Structure.find id structure in
  (* Link rules. *)
  Argus_obs.Span.with_ ~name:"gsn.wellformed.links" (fun () ->
  List.iter
    (fun (kind, src, dst) ->
      Argus_obs.Counter.incr c_links_checked;
      match (node src, node dst) with
      | None, _ | _, None ->
          add
            (Diagnostic.errorf ~code:"gsn/dangling-link" ~subjects:[ src; dst ]
               "link references a missing node")
      | Some s, Some d -> (
          match kind with
          | Structure.Supported_by ->
              if not (support_target_ok s.Node.node_type d.Node.node_type) then
                add
                  (Diagnostic.errorf ~code:"gsn/bad-support-link"
                     ~subjects:[ src; dst ]
                     "a %s cannot be supported by a %s"
                     (Node.type_to_string s.Node.node_type)
                     (Node.type_to_string d.Node.node_type))
              else if
                ruleset = Denney_pai_2013
                && s.Node.node_type = Node.Goal
                && d.Node.node_type = Node.Goal
              then
                add
                  (Diagnostic.errorf ~code:"gsn/dp-goal-under-goal"
                     ~subjects:[ src; dst ]
                     "goal directly supports a goal (forbidden by the \
                      Denney-Pai 2013 formalisation, though the GSN \
                      standard allows it)")
          | Structure.In_context_of ->
              let bad_src = not (context_source_ok s.Node.node_type) in
              let bad_dst = not (context_target_ok d.Node.node_type) in
              if bad_src || bad_dst then
                if
                  (match s.Node.node_type with
                  | Node.Away_goal _ -> true
                  | _ -> false)
                  && d.Node.node_type = Node.Solution
                then
                  add
                    (Diagnostic.errorf
                       ~code:"gsn/solution-in-context-of-away-goal"
                       ~subjects:[ src; dst ]
                       "a solution cannot be in the context of an away goal")
                else
                  add
                    (Diagnostic.errorf ~code:"gsn/bad-context-link"
                       ~subjects:[ src; dst ]
                       "%s cannot be in the context of %s"
                       (Node.type_to_string d.Node.node_type)
                       (Node.type_to_string s.Node.node_type))))
    (Structure.links structure));
  (* Cycles. *)
  Argus_obs.Span.with_ ~name:"gsn.wellformed.cycles" (fun () ->
  match has_cycle structure with
  | None -> ()
  | Some witness ->
      add
        (Diagnostic.errorf ~code:"gsn/cycle" ~subjects:witness
           "the SupportedBy relation is cyclic"));
  (* Roots and reachability. *)
  let roots = Structure.roots structure in
  (if Structure.size structure > 0 then
     match roots with
     | [] ->
         add
           (Diagnostic.error ~code:"gsn/no-root"
              "no root element (every non-contextual node is supported)")
     | [ root ] -> (
         match node root with
         | Some n when n.Node.node_type <> Node.Goal ->
             add
               (Diagnostic.warningf ~code:"gsn/root-not-goal"
                  ~subjects:[ root ] "the root element is a %s, not a goal"
                  (Node.type_to_string n.Node.node_type))
         | _ -> ())
     | _ :: _ :: _ ->
         add
           (Diagnostic.warningf ~code:"gsn/multiple-roots" ~subjects:roots
              "%d root elements (a connected argument has one)"
              (List.length roots)));
  let reachable =
    List.fold_left
      (fun acc root ->
        let sub = Structure.supported_subtree root structure in
        let with_ctx =
          List.concat_map (fun id -> Structure.context_of id structure) sub
        in
        Id.Set.union acc (Id.Set.of_list (sub @ with_ctx)))
      Id.Set.empty roots
  in
  (* Per-node rules. *)
  Argus_obs.Span.with_ ~name:"gsn.wellformed.nodes" (fun () ->
  List.iter
    (fun n ->
      Argus_obs.Counter.incr c_nodes_visited;
      let id = n.Node.id in
      let support_children =
        Structure.children Structure.Supported_by id structure
      in
      if String.trim n.Node.text = "" then
        add
          (Diagnostic.errorf ~code:"gsn/empty-text" ~subjects:[ id ]
             "node has no text");
      (match n.Node.status with
      | Node.Developed ->
          if has_placeholder n.Node.text then
            add
              (Diagnostic.errorf ~code:"gsn/placeholder-text" ~subjects:[ id ]
                 "developed node still contains a {placeholder}")
      | Node.Uninstantiated | Node.Undeveloped_uninstantiated ->
          add
            (Diagnostic.warningf ~code:"gsn/uninstantiated" ~subjects:[ id ]
               "node awaits instantiation")
      | Node.Undeveloped ->
          if support_children <> [] then
            add
              (Diagnostic.warningf ~code:"gsn/undeveloped-with-support"
                 ~subjects:[ id ]
                 "node is marked undeveloped yet has supporting elements"));
      (match n.Node.node_type with
      | Node.Goal ->
          if
            support_children = []
            && (n.Node.status = Node.Developed
               || n.Node.status = Node.Uninstantiated)
          then
            add
              (Diagnostic.errorf ~code:"gsn/unsupported-goal" ~subjects:[ id ]
                 "goal is neither supported nor marked undeveloped");
          if not (Legacy_text.looks_propositional n.Node.text) then
            add
              (Diagnostic.warningf ~code:"gsn/non-propositional-goal"
                 ~subjects:[ id ]
                 "goal text does not read as a proposition")
      | Node.Strategy ->
          if
            support_children = []
            && (n.Node.status = Node.Developed
               || n.Node.status = Node.Uninstantiated)
          then
            add
              (Diagnostic.errorf ~code:"gsn/undeveloped-strategy"
                 ~subjects:[ id ]
                 "strategy has no supporting goals and is not marked \
                  undeveloped")
      | Node.Solution -> (
          match n.Node.evidence with
          | None ->
              add
                (Diagnostic.warningf ~code:"gsn/solution-without-evidence"
                   ~subjects:[ id ] "solution cites no evidence item")
          | Some ev_id -> (
              match Structure.find_evidence ev_id structure with
              | None ->
                  add
                    (Diagnostic.errorf ~code:"gsn/unknown-evidence"
                       ~subjects:[ id; ev_id ]
                       "solution cites an unregistered evidence item")
              | Some ev ->
                  (* The paper's wcet example: a universal claim resting
                     on evidence that cannot support universals. *)
                  let parents =
                    Structure.parents Structure.Supported_by id structure
                  in
                  List.iter
                    (fun pid ->
                      match node pid with
                      | Some p
                        when Node.is_goal_like p.Node.node_type
                             && Legacy_text.claims_universally p.Node.text
                             && not
                                  (Evidence.supports_kind ev.Evidence.kind
                                     Evidence.Universal) ->
                          add
                            (Diagnostic.warningf ~code:"gsn/weak-evidence"
                               ~subjects:[ pid; id ]
                               "universal claim rests on %s evidence"
                               (Evidence.kind_to_string ev.Evidence.kind))
                      | _ -> ())
                    parents))
      | Node.Context | Node.Assumption | Node.Justification | Node.Away_goal _
      | Node.Module_ref _ | Node.Contract _ ->
          ());
      if (not (Id.Set.mem id reachable)) && roots <> [] then
        add
          (Diagnostic.warningf ~code:"gsn/unreachable" ~subjects:[ id ]
             "node is not reachable from any root"))
    (Structure.nodes structure));
  Diagnostic.sort (List.rev !out)

let is_well_formed ?ruleset structure =
  not (Diagnostic.has_errors (check ?ruleset structure))
