module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic

type entry = { structure : Structure.t; public : Id.t list }

type t = { modules : entry Id.Map.t; order : Id.t list }

let empty = { modules = Id.Map.empty; order = [] }

let add_module ~name ?public structure t =
  let public =
    match public with Some p -> p | None -> Structure.roots structure
  in
  {
    modules = Id.Map.add name { structure; public } t.modules;
    order =
      (if List.exists (Id.equal name) t.order then t.order
       else t.order @ [ name ]);
  }

let find name t =
  Option.map (fun e -> e.structure) (Id.Map.find_opt name t.modules)

let module_names t = t.order

let public_goals name t =
  match Id.Map.find_opt name t.modules with
  | Some e -> e.public
  | None -> []

let cited_modules structure =
  Structure.fold_nodes
    (fun n acc ->
      match n.Node.node_type with
      | Node.Away_goal m | Node.Module_ref m | Node.Contract m ->
          if List.exists (Id.equal m) acc then acc else acc @ [ m ]
      | Node.Goal | Node.Strategy | Node.Solution | Node.Context
      | Node.Assumption | Node.Justification ->
          acc)
    structure []

let dependencies name t =
  match Id.Map.find_opt name t.modules with
  | None -> []
  | Some e -> cited_modules e.structure

let dependency_cycle t =
  let rec visit path visited name =
    if List.exists (Id.equal name) path then Some (List.rev (name :: path))
    else if Id.Set.mem name visited then None
    else
      List.fold_left
        (fun found dep ->
          match found with
          | Some _ -> found
          | None -> visit (name :: path) visited dep)
        None (dependencies name t)
  in
  let visited = ref Id.Set.empty in
  List.fold_left
    (fun found name ->
      match found with
      | Some _ -> found
      | None ->
          let r = visit [] !visited name in
          if r = None then visited := Id.Set.add name !visited;
          r)
    None t.order

let check_with ?pool ~wf t =
  let out = ref [] in
  let add d = out := d :: !out in
  (* Per-module well-formedness, with module-qualified messages.  Each
     module's check is independent, so the collection fans out across
     the pool; diagnostics come back in module order either way. *)
  let per_module =
    Argus_par.Pool.map_list ?pool
      (fun name ->
        match Id.Map.find_opt name t.modules with
        | None -> []
        | Some e ->
            List.map
              (fun d ->
                {
                  d with
                  Diagnostic.message =
                    Printf.sprintf "[module %s] %s" (Id.to_string name)
                      d.Diagnostic.message;
                })
              (wf e.structure))
      t.order
  in
  List.iter (List.iter add) per_module;
  (* Cross-module rules. *)
  List.iter
    (fun name ->
      match Id.Map.find_opt name t.modules with
      | None -> ()
      | Some e ->
          Structure.fold_nodes
            (fun n () ->
              match n.Node.node_type with
              | Node.Away_goal target -> (
                  match Id.Map.find_opt target t.modules with
                  | None ->
                      add
                        (Diagnostic.errorf ~code:"modular/unknown-module"
                           ~subjects:[ n.Node.id; target ]
                           "[module %s] away goal cites unknown module %s"
                           (Id.to_string name) (Id.to_string target))
                  | Some cited -> (
                      match Structure.find n.Node.id cited.structure with
                      | Some { Node.node_type = Node.Goal; _ } ->
                          if
                            not
                              (List.exists (Id.equal n.Node.id) cited.public)
                          then
                            add
                              (Diagnostic.warningf
                                 ~code:"modular/private-goal"
                                 ~subjects:[ n.Node.id; target ]
                                 "[module %s] away goal cites a goal that \
                                  module %s does not publish"
                                 (Id.to_string name) (Id.to_string target))
                      | Some _ | None ->
                          add
                            (Diagnostic.errorf
                               ~code:"modular/away-goal-target"
                               ~subjects:[ n.Node.id; target ]
                               "[module %s] module %s has no goal %s"
                               (Id.to_string name) (Id.to_string target)
                               (Id.to_string n.Node.id))))
              | Node.Module_ref target | Node.Contract target ->
                  if not (Id.Map.mem target t.modules) then
                    add
                      (Diagnostic.errorf ~code:"modular/unknown-module"
                         ~subjects:[ n.Node.id; target ]
                         "[module %s] reference to unknown module %s"
                         (Id.to_string name) (Id.to_string target))
              | Node.Goal | Node.Strategy | Node.Solution | Node.Context
              | Node.Assumption | Node.Justification ->
                  ())
            e.structure ())
    t.order;
  (match dependency_cycle t with
  | None -> ()
  | Some witness ->
      add
        (Diagnostic.errorf ~code:"modular/dependency-cycle" ~subjects:witness
           "module dependencies are cyclic"));
  Diagnostic.sort (List.rev !out)
