(* The first confidence propagation, verbatim: a recursion over ids
   with an [Id.Map] memo and an [Id.Set] of the nodes on the current
   path.  {!Argus_confidence.Confidence.assess} now runs one pass over
   an entity array and a SupportedBy CSR instead; this is its
   differential oracle (test/store), which must agree bit for bit. *)

module Id = Argus_core.Id
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node

let noisy_or xs = 1.0 -. List.fold_left (fun acc x -> acc *. (1.0 -. x)) 1.0 xs
let noisy_and xs = List.fold_left ( *. ) 1.0 xs

let assess ~trust structure =
  (* One pass over the link list up front: [Structure.children] scans
     every link on every call, which turns the assessment quadratic on
     big cases (the store's 100k-node benchmarks made it the single
     slowest pass in the repo).  The grouped map preserves link order,
     so the child fold — and therefore every float — is unchanged. *)
  let children_map =
    List.fold_left
      (fun m (kind, src, dst) ->
        if kind = Structure.Supported_by then
          Id.Map.update src
            (function None -> Some [ dst ] | Some l -> Some (dst :: l))
            m
        else m)
      Id.Map.empty (Structure.links structure)
    |> Id.Map.map List.rev
  in
  let children id =
    Option.value (Id.Map.find_opt id children_map) ~default:[]
  in
  let memo = ref Id.Map.empty in
  let rec conf visiting id =
    match Id.Map.find_opt id !memo with
    | Some c -> c
    | None ->
        if Id.Set.mem id visiting then 0.0
        else
          let c =
            match Structure.find id structure with
            | None -> 0.0
            | Some n -> (
                let visiting = Id.Set.add id visiting in
                let kids = children id in
                let kid_confs = List.map (conf visiting) kids in
                match n.Node.node_type with
                | Node.Solution -> (
                    match n.Node.evidence with
                    | None -> 0.0
                    | Some ev_id -> (
                        match Structure.find_evidence ev_id structure with
                        | None -> 0.0
                        | Some ev -> trust ev))
                | Node.Strategy ->
                    if kids = [] then 0.0 else noisy_and kid_confs
                | Node.Goal | Node.Away_goal _ ->
                    if
                      n.Node.status = Node.Undeveloped
                      || n.Node.status = Node.Undeveloped_uninstantiated
                    then 0.0
                    else if kids = [] then 0.0
                    else noisy_or kid_confs
                | Node.Module_ref _ | Node.Contract _ ->
                    if kids = [] then 0.0 else noisy_or kid_confs
                | Node.Context | Node.Assumption | Node.Justification -> 0.0)
          in
          memo := Id.Map.add id c !memo;
          c
  in
  List.iter
    (fun n ->
      if not (Node.is_contextual n.Node.node_type) then
        ignore (conf Id.Set.empty n.Node.id))
    (Structure.nodes structure);
  !memo

let root_confidence ~trust structure =
  match Structure.roots structure with
  | [] -> 0.0
  | root :: _ -> (
      match Id.Map.find_opt root (assess ~trust structure) with
      | Some c -> c
      | None -> 0.0)

