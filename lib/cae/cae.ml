module Id = Argus_core.Id
module Gsn = Argus_gsn

type node_type = Claim | Argument | Evidence_ref

type node = {
  id : Id.t;
  node_type : node_type;
  text : string;
  premise : bool;
}

type t = {
  node_map : node Id.Map.t;
  node_order : Id.t list;
  links : (Id.t * Id.t) list;  (** (supported, supporter). *)
}

let empty = { node_map = Id.Map.empty; node_order = []; links = [] }

let claim ?(premise = false) id text =
  { id = Id.of_string id; node_type = Claim; text; premise }

let argument id text =
  { id = Id.of_string id; node_type = Argument; text; premise = false }

let evidence_ref id text =
  { id = Id.of_string id; node_type = Evidence_ref; text; premise = false }

let add_node n t =
  let order =
    if Id.Map.mem n.id t.node_map then t.node_order else t.node_order @ [ n.id ]
  in
  { t with node_map = Id.Map.add n.id n t.node_map; node_order = order }

let support ~src ~dst t =
  let l = (src, dst) in
  if List.mem l t.links then t else { t with links = t.links @ [ l ] }

let of_nodes ?(links = []) ns =
  let t = List.fold_left (fun t n -> add_node n t) empty ns in
  List.fold_left
    (fun t (src, dst) ->
      support ~src:(Id.of_string src) ~dst:(Id.of_string dst) t)
    t links

let nodes t = List.filter_map (fun id -> Id.Map.find_opt id t.node_map) t.node_order
let find id t = Id.Map.find_opt id t.node_map

let supporters id t =
  List.filter_map
    (fun (s, d) -> if Id.equal s id then Some d else None)
    t.links

let size t = Id.Map.cardinal t.node_map
let links t = t.links

(* --- GSN conversion --- *)

let of_gsn structure =
  let open Gsn in
  let t = ref empty in
  let add n = t := add_node n !t in
  let link src dst = t := support ~src ~dst !t in
  (* Nodes. *)
  List.iter
    (fun n ->
      let id = Id.to_string n.Node.id in
      match n.Node.node_type with
      | Node.Goal | Node.Away_goal _ ->
          add (claim id n.Node.text)
      | Node.Strategy -> add (argument id n.Node.text)
      | Node.Solution -> add (evidence_ref id n.Node.text)
      | Node.Context | Node.Assumption | Node.Justification ->
          add (claim ~premise:true id n.Node.text)
      | Node.Module_ref _ | Node.Contract _ ->
          add (claim ~premise:true id n.Node.text))
    (Structure.nodes structure);
  (* Links; goals supported directly by non-strategies get a synthesised
     argument node. *)
  let gen = Id.Gen.create ~prefix:"A_synth" () in
  let used =
    Structure.nodes structure
    |> List.map (fun n -> n.Node.id)
    |> Id.Set.of_list
  in
  List.iter
    (fun n ->
      match n.Node.node_type with
      | Node.Goal | Node.Away_goal _ ->
          let kids =
            Structure.children Structure.Supported_by n.Node.id structure
          in
          let strategies, others =
            List.partition
              (fun k ->
                match Structure.find k structure with
                | Some { Node.node_type = Node.Strategy; _ } -> true
                | _ -> false)
              kids
          in
          List.iter (fun s -> link n.Node.id s) strategies;
          if others <> [] then begin
            let aid = Id.Gen.fresh_avoiding gen used in
            add (argument (Id.to_string aid) "direct support");
            link n.Node.id aid;
            List.iter (fun o -> link aid o) others
          end
      | Node.Strategy ->
          List.iter
            (fun k -> link n.Node.id k)
            (Structure.children Structure.Supported_by n.Node.id structure)
      | Node.Solution | Node.Context | Node.Assumption | Node.Justification
      | Node.Module_ref _ | Node.Contract _ ->
          ())
    (Structure.nodes structure);
  (* Contextual elements hang off their anchors as cited premises. *)
  List.iter
    (fun (kind, src, dst) ->
      match kind with
      | Structure.In_context_of ->
          (* Route through the claim's argument if there is one?  The
             simplest faithful move: premise claims support the anchor's
             argument node when the anchor is a strategy, else attach to
             the synthesised/first argument below the goal... attach
             directly: premise claims are allowed below arguments only,
             so attach under the anchor when it is an argument, else
             leave unattached (it remains a root premise). *)
          (match Structure.find src structure with
          | Some { Node.node_type = Node.Strategy; _ } -> link src dst
          | _ -> ())
      | Structure.Supported_by -> ())
    (Structure.links structure);
  !t

let to_gsn t =
  let open Gsn in
  let s = ref Structure.empty in
  List.iter
    (fun n ->
      let id = Id.to_string n.id in
      let gnode =
        match n.node_type with
        | Claim when n.premise -> Gsn.Node.assumption id n.text
        | Claim -> Gsn.Node.goal id n.text
        | Argument -> Gsn.Node.strategy id n.text
        | Evidence_ref -> Gsn.Node.solution id n.text
      in
      s := Structure.add_node gnode !s)
    (nodes t);
  (* A GSN strategy cannot be supported directly by a solution, so an
     argument node citing evidence gets an interposed goal. *)
  let gen = Id.Gen.create ~prefix:"G_ev" () in
  let used = nodes t |> List.map (fun n -> n.id) |> Id.Set.of_list in
  List.iter
    (fun (src, dst) ->
      match (find src t, find dst t) with
      | Some _, Some { node_type = Claim; premise = true; _ } ->
          s := Structure.connect Structure.In_context_of ~src ~dst !s
      | Some { node_type = Argument; _ }, Some { node_type = Evidence_ref; text; _ }
        ->
          let gid = Id.Gen.fresh_avoiding gen used in
          let goal =
            Gsn.Node.make ~id:gid ~node_type:Gsn.Node.Goal
              (Printf.sprintf "The cited evidence (%s) is valid and applicable"
                 text)
          in
          s := Structure.add_node goal !s;
          s := Structure.connect Structure.Supported_by ~src ~dst:gid !s;
          s := Structure.connect Structure.Supported_by ~src:gid ~dst !s
      | Some _, Some _ ->
          s := Structure.connect Structure.Supported_by ~src ~dst !s
      | _ -> ())
    t.links;
  !s

let pp_outline ppf t =
  let incoming id = List.exists (fun (_, d) -> Id.equal d id) t.links in
  let rec go indent visited id =
    match find id t with
    | None -> ()
    | Some n ->
        let tag =
          match n.node_type with
          | Claim when n.premise -> "premise"
          | Claim -> "claim"
          | Argument -> "argument"
          | Evidence_ref -> "evidence"
        in
        Format.fprintf ppf "%s[%s] %a: %s@." indent tag Id.pp n.id n.text;
        if not (Id.Set.mem id visited) then
          List.iter
            (go (indent ^ "  ") (Id.Set.add id visited))
            (supporters id t)
  in
  List.iter
    (fun n -> if not (incoming n.id) then go "" Id.Set.empty n.id)
    (nodes t)
