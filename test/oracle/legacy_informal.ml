(* The tree-walking informal-fallacy lints over [Structure.t], kept as
   the differential oracle for {!Argus_ir.Fused.lint} and the lint half
   of {!Argus_ir.Fused.check} (test/ir holds them to byte-identical
   findings and identical budget ticks). *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Textutil = Argus_core.Textutil
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Budget = Argus_rt.Budget
open Argus_fallacy.Informal

let check_structure ?budget structure =
  (* The equivocation scan ticks only a caller's budget. *)
  let scan_budget = Option.value budget ~default:Budget.unlimited in
  let budget, internal =
    match budget with
    | Some b -> (b, false)
    | None -> (Budget.make ~fuel:default_walk_fuel (), true)
  in
  let out = ref [] in
  let add d = out := d :: !out in
  (* Circular support: descendant goal restating an ancestor goal.  The
     walk carries the path (for the restatement check) and cuts cycles
     so it terminates on arbitrary graphs. *)
  let norm text = String.concat " " (Textutil.content_words text) in
  let rec walk ancestors on_path id =
    if Id.Set.mem id on_path || not (Budget.tick budget ~engine:"informal")
    then ()
    else
      match Structure.find id structure with
      | None -> ()
      | Some n ->
          let here = norm n.Node.text in
          if
            Node.is_goal_like n.Node.node_type
            && here <> ""
            && List.exists
                 (fun (aid, atext) ->
                   (not (Id.equal aid id)) && atext = here)
                 ancestors
          then
            add
              (Diagnostic.warningf ~code:"informal/circular-support"
                 ~subjects:[ id ]
                 "goal restates an ancestor goal's claim");
          let ancestors' =
            if Node.is_goal_like n.Node.node_type then (id, here) :: ancestors
            else ancestors
          in
          let on_path' = Id.Set.add id on_path in
          List.iter
            (walk ancestors' on_path')
            (Structure.children Structure.Supported_by id structure)
  in
  List.iter (walk [] Id.Set.empty) (Structure.roots structure);
  if internal then List.iter add (Budget.diagnostics budget);
  (* Argument from ignorance. *)
  List.iter
    (fun n ->
      if Legacy_text.argues_from_ignorance n.Node.text then
        add
          (Diagnostic.warningf ~code:"informal/argument-from-ignorance"
             ~subjects:[ n.Node.id ]
             "claim argued from absence of evidence; confirm the search \
              procedure was adequate"))
    (Structure.nodes structure);
  (* Equivocation candidates among sibling goals: a shared content word
     whose surrounding vocabularies are otherwise disjoint.  A pair that
     could fire — both sides with 4 or more words, some word shared —
     ticks the budget first, and is skipped once it is spent. *)
  let goal_children id =
    Structure.children Structure.Supported_by id structure
    |> List.filter_map (fun cid ->
           match Structure.find cid structure with
           | Some c when Node.is_goal_like c.Node.node_type -> Some c
           | _ -> None)
  in
  List.iter
    (fun n ->
      let siblings = goal_children n.Node.id in
      if List.length siblings >= 2 then
        let word_sets =
          List.map
            (fun s ->
              (s.Node.id, Textutil.content_words s.Node.text))
            siblings
        in
        let rec pairs = function
          | [] -> []
          | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
        in
        List.iter
          (fun (((id1 : Id.t), ws1), (id2, ws2)) ->
            let shared = List.filter (fun w -> List.mem w ws2) ws1 in
            let only1 = List.filter (fun w -> not (List.mem w ws2)) ws1 in
            let only2 = List.filter (fun w -> not (List.mem w ws1)) ws2 in
            let candidate =
              shared <> [] && List.length ws1 >= 4 && List.length ws2 >= 4
            in
            let spent () =
              not (Budget.tick scan_budget ~engine:"informal")
            in
            match shared with
            | _ when candidate && spent () -> ()
            | [ word ]
              when List.length only1 >= 3 && List.length only2 >= 3 ->
                add
                  (Diagnostic.warningf
                     ~code:"informal/equivocation-candidate"
                     ~subjects:[ id1; id2 ]
                     "the word %S links otherwise-unrelated sibling goals; \
                      check it means the same thing in both"
                     word)
            | _ -> ())
          (pairs word_sets))
    (Structure.nodes structure);
  Diagnostic.sort (List.rev !out)
