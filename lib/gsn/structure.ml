module Id = Argus_core.Id
module Evidence = Argus_core.Evidence

type link = Supported_by | In_context_of

let link_to_string = function
  | Supported_by -> "supported-by"
  | In_context_of -> "in-context-of"

let link_of_string = function
  | "supported-by" -> Some Supported_by
  | "in-context-of" -> Some In_context_of
  | _ -> None

type t = {
  node_map : Node.t Id.Map.t;
  node_order : Id.t list;  (** Insertion order, newest last. *)
  link_list : (link * Id.t * Id.t) list;  (** Insertion order, newest last. *)
  evidence_map : Evidence.t Id.Map.t;
  evidence_order : Id.t list;
}

let empty =
  {
    node_map = Id.Map.empty;
    node_order = [];
    link_list = [];
    evidence_map = Id.Map.empty;
    evidence_order = [];
  }

let mem id t = Id.Map.mem id t.node_map

let add_node node t =
  let order =
    if mem node.Node.id t then t.node_order else t.node_order @ [ node.Node.id ]
  in
  { t with node_map = Id.Map.add node.Node.id node t.node_map; node_order = order }

let remove_node id t =
  {
    t with
    node_map = Id.Map.remove id t.node_map;
    node_order = List.filter (fun i -> not (Id.equal i id)) t.node_order;
    link_list =
      List.filter
        (fun (_, s, d) -> not (Id.equal s id || Id.equal d id))
        t.link_list;
  }

(* Link equality at its type: polymorphic comparison of the tuples
   dominated connect/disconnect on large cases. *)
let is_link kind src dst (k, s, d) = k = kind && Id.equal s src && Id.equal d dst

let connect kind ~src ~dst t =
  if List.exists (is_link kind src dst) t.link_list then t
  else { t with link_list = t.link_list @ [ (kind, src, dst) ] }

let disconnect kind ~src ~dst t =
  {
    t with
    link_list = List.filter (fun l -> not (is_link kind src dst l)) t.link_list;
  }

let add_evidence ev t =
  let order =
    if Id.Map.mem ev.Evidence.id t.evidence_map then t.evidence_order
    else t.evidence_order @ [ ev.Evidence.id ]
  in
  {
    t with
    evidence_map = Id.Map.add ev.Evidence.id ev t.evidence_map;
    evidence_order = order;
  }

(* Bulk construction: same semantics as folding {!add_node},
   {!add_evidence} and {!connect} over the lists — duplicate ids keep
   their first position in the order (the newest payload wins),
   duplicate links keep their first occurrence — but built with
   reversed accumulators and a hashed duplicate table instead of
   re-scanning and appending, so a 100k-node case assembles in
   O(n log n) rather than the fold's O(n^2). *)
module Link_tbl = Hashtbl.Make (struct
  type t = link * Id.t * Id.t

  let equal (k1, s1, d1) (k2, s2, d2) =
    k1 = k2 && Id.equal s1 s2 && Id.equal d1 d2

  let hash = Hashtbl.hash
end)

let build ?(links = []) ?(evidence = []) node_list =
  let node_map, node_order_rev =
    List.fold_left
      (fun (m, order) n ->
        let order =
          if Id.Map.mem n.Node.id m then order else n.Node.id :: order
        in
        (Id.Map.add n.Node.id n m, order))
      (Id.Map.empty, []) node_list
  in
  let evidence_map, evidence_order_rev =
    List.fold_left
      (fun (m, order) e ->
        let order =
          if Id.Map.mem e.Evidence.id m then order else e.Evidence.id :: order
        in
        (Id.Map.add e.Evidence.id e m, order))
      (Id.Map.empty, []) evidence
  in
  let seen = Link_tbl.create (List.length links) in
  let link_list_rev =
    List.fold_left
      (fun acc l ->
        if Link_tbl.mem seen l then acc
        else begin
          Link_tbl.add seen l ();
          l :: acc
        end)
      [] links
  in
  {
    node_map;
    node_order = List.rev node_order_rev;
    link_list = List.rev link_list_rev;
    evidence_map;
    evidence_order = List.rev evidence_order_rev;
  }

let of_nodes ?(links = []) ?evidence node_list =
  build
    ~links:
      (List.map
         (fun (kind, src, dst) -> (kind, Id.of_string src, Id.of_string dst))
         links)
    ?evidence node_list

let find id t = Id.Map.find_opt id t.node_map

let find_exn id t =
  match find id t with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Structure.find_exn: %s" (Id.to_string id))

let nodes t = List.filter_map (fun id -> find id t) t.node_order
let size t = Id.Map.cardinal t.node_map
let links t = t.link_list

let evidence t =
  List.filter_map (fun id -> Id.Map.find_opt id t.evidence_map) t.evidence_order

let find_evidence id t = Id.Map.find_opt id t.evidence_map

let children kind id t =
  List.filter_map
    (fun (k, s, d) -> if k = kind && Id.equal s id then Some d else None)
    t.link_list

let parents kind id t =
  List.filter_map
    (fun (k, s, d) -> if k = kind && Id.equal d id then Some s else None)
    t.link_list

let roots t =
  let supported =
    List.filter_map
      (fun (k, _, d) -> if k = Supported_by then Some d else None)
      t.link_list
    |> Id.Set.of_list
  in
  List.filter
    (fun id ->
      (not (Id.Set.mem id supported))
      &&
      match find id t with
      | Some n -> not (Node.is_contextual n.Node.node_type)
      | None -> false)
    t.node_order

let supported_subtree id t =
  let rec go visited acc id =
    if Id.Set.mem id visited then (visited, acc)
    else
      let visited = Id.Set.add id visited in
      let acc = id :: acc in
      List.fold_left
        (fun (visited, acc) child -> go visited acc child)
        (visited, acc)
        (children Supported_by id t)
  in
  let _, acc = go Id.Set.empty [] id in
  List.rev acc

let context_of id t = children In_context_of id t

let map_nodes f t =
  {
    t with
    node_map =
      Id.Map.map
        (fun n ->
          let n' = f n in
          if not (Id.equal n'.Node.id n.Node.id) then
            invalid_arg "Structure.map_nodes: node id changed";
          n')
        t.node_map;
  }

let fold_nodes f t init = List.fold_left (fun acc n -> f n acc) init (nodes t)

let restrict keep t =
  {
    t with
    node_map = Id.Map.filter (fun id _ -> Id.Set.mem id keep) t.node_map;
    node_order = List.filter (fun id -> Id.Set.mem id keep) t.node_order;
    link_list =
      List.filter
        (fun (_, s, d) -> Id.Set.mem s keep && Id.Set.mem d keep)
        t.link_list;
  }

let equal a b =
  Id.Map.equal Node.equal a.node_map b.node_map
  && List.sort compare a.link_list = List.sort compare b.link_list
  && Id.Map.equal Evidence.equal a.evidence_map b.evidence_map

(* --- Rendering --- *)

let dot_shape = function
  | Node.Goal -> "box"
  | Node.Away_goal _ -> "box"
  | Node.Strategy -> "parallelogram"
  | Node.Solution -> "circle"
  | Node.Context -> "box"
  | Node.Assumption | Node.Justification -> "ellipse"
  | Node.Module_ref _ -> "folder"
  | Node.Contract _ -> "tab"

let dot_style = function
  | Node.Context -> ", style=rounded"
  | Node.Away_goal _ -> ", peripheries=2"
  | _ -> ""

let escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph gsn {\n  rankdir=TB;\n";
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=%s%s, label=\"%s\\n%s\"];\n"
           (Id.to_string n.Node.id)
           (dot_shape n.Node.node_type)
           (dot_style n.Node.node_type)
           (Id.to_string n.Node.id)
           (escape n.Node.text)))
    (nodes t);
  List.iter
    (fun (kind, s, d) ->
      let style = match kind with Supported_by -> "solid" | In_context_of -> "dashed" in
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [style=%s];\n" (Id.to_string s)
           (Id.to_string d) style))
    t.link_list;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_outline ppf t =
  let rec go indent visited id =
    match find id t with
    | None -> ()
    | Some n ->
        Format.fprintf ppf "%s%a@." indent Node.pp n;
        if Id.Set.mem id visited then
          Format.fprintf ppf "%s  (cycle)@." indent
        else begin
          let visited = Id.Set.add id visited in
          List.iter
            (fun c ->
              match find c t with
              | Some cn when Node.is_contextual cn.Node.node_type ->
                  Format.fprintf ppf "%s  ~ %a@." indent Node.pp cn
              | _ -> ())
            (context_of id t);
          List.iter (go (indent ^ "  ") visited) (children Supported_by id t)
        end
  in
  List.iter (go "" Id.Set.empty) (roots t)
