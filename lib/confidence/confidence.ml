module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Prop = Argus_logic.Prop
module Sat = Argus_logic.Sat
module Natded = Argus_logic.Natded
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node

(* Confidence over an entity-indexed graph: entities [0 .. n-1] are the
   nodes in insertion order, higher indices dangling SupportedBy
   endpoints, [sup_off]/[sup] the SupportedBy CSR in link order.  One
   depth-first pass with a float memo and an on-path bitmap, entered at
   every non-contextual node in order: a node on the current path
   scores 0 on the back edge (and is not memoised there), a dangling
   entity scores 0, and every child is scored before the node's own
   type is consulted, so the memo fills in exactly the order of the
   original id-keyed recursion and every float is the same product in
   the same order. *)
let kernel ~trust ~find_evidence nodes ~sup_off ~sup =
  let n = Array.length nodes in
  let n_entities = Array.length sup_off - 1 in
  let score = Array.make (max 1 n_entities) 0.0 in
  let scored = Bytes.make (max 1 n_entities) '\000' in
  let on_path = Bytes.make (max 1 n_entities) '\000' in
  let rec conf i =
    if Bytes.get scored i = '\001' then score.(i)
    else if Bytes.get on_path i = '\001' then 0.0
    else begin
      let c =
        if i >= n then 0.0
        else begin
          Bytes.set on_path i '\001';
          (* noisy-AND is the product of the children's confidences,
             noisy-OR one minus the product of their complements. *)
          let all = ref 1.0 and none = ref 1.0 in
          for k = sup_off.(i) to sup_off.(i + 1) - 1 do
            let x = conf sup.(k) in
            all := !all *. x;
            none := !none *. (1.0 -. x)
          done;
          Bytes.set on_path i '\000';
          let nd = nodes.(i) in
          let leaf = sup_off.(i + 1) = sup_off.(i) in
          match nd.Node.node_type with
          | Node.Solution -> (
              match nd.Node.evidence with
              | None -> 0.0
              | Some ev_id -> (
                  match find_evidence ev_id with
                  | None -> 0.0
                  | Some ev -> trust ev))
          | Node.Strategy -> if leaf then 0.0 else !all
          | Node.Goal | Node.Away_goal _ ->
              if
                nd.Node.status = Node.Undeveloped
                || nd.Node.status = Node.Undeveloped_uninstantiated
              then 0.0
              else if leaf then 0.0
              else 1.0 -. !none
          | Node.Module_ref _ | Node.Contract _ ->
              if leaf then 0.0 else 1.0 -. !none
          | Node.Context | Node.Assumption | Node.Justification -> 0.0
        end
      in
      score.(i) <- c;
      Bytes.set scored i '\001';
      c
    end
  in
  Array.iteri
    (fun i nd ->
      if not (Node.is_contextual nd.Node.node_type) then ignore (conf i))
    nodes;
  (score, scored)

let scores ~trust ~find_evidence nodes ~sup_off ~sup =
  fst (kernel ~trust ~find_evidence nodes ~sup_off ~sup)

module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* The light index the structure-level entry points run the kernel
   over: node ids to positions, dangling SupportedBy endpoints after
   them (newest first in [dangling]), the SupportedBy CSR, and whether
   each entity has a SupportedBy parent, for the root — no text is
   read. *)
let index structure =
  let nodes = Array.of_list (Structure.nodes structure) in
  let n = Array.length nodes in
  let pos = Tbl.create (2 * (n + 1)) in
  Array.iteri (fun i nd -> Tbl.add pos (Id.to_string nd.Node.id) i) nodes;
  let dangling = ref [] and next = ref n in
  let entity id =
    let key = Id.to_string id in
    match Tbl.find_opt pos key with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Tbl.add pos key i;
        dangling := id :: !dangling;
        i
  in
  let links =
    List.filter_map
      (fun (kind, src, dst) ->
        if kind = Structure.Supported_by then Some (entity src, entity dst)
        else None)
      (Structure.links structure)
  in
  let n_entities = !next in
  (* Count into the successor's offset, prefix-sum, fill advancing
     each offset to its successor's start, shift back. *)
  let sup_off = Array.make (n_entities + 1) 0 in
  List.iter (fun (s, _) -> sup_off.(s + 1) <- sup_off.(s + 1) + 1) links;
  for i = 0 to n_entities - 1 do
    sup_off.(i + 1) <- sup_off.(i) + sup_off.(i + 1)
  done;
  let sup = Array.make sup_off.(n_entities) 0 in
  let supported = Bytes.make (max 1 n_entities) '\000' in
  List.iter
    (fun (s, d) ->
      sup.(sup_off.(s)) <- d;
      sup_off.(s) <- sup_off.(s) + 1;
      Bytes.set supported d '\001')
    links;
  for i = n_entities downto 1 do
    sup_off.(i) <- sup_off.(i - 1)
  done;
  sup_off.(0) <- 0;
  (nodes, !dangling, sup_off, sup, supported)

let evidence_lookup structure =
  let tbl = Tbl.create 64 in
  List.iter
    (fun ev -> Tbl.replace tbl (Id.to_string ev.Evidence.id) ev)
    (Structure.evidence structure);
  fun id -> Tbl.find_opt tbl (Id.to_string id)

let assess ~trust structure =
  let nodes, dangling, sup_off, sup, _ = index structure in
  let score, scored =
    kernel ~trust ~find_evidence:(evidence_lookup structure) nodes ~sup_off ~sup
  in
  let n_entities = Array.length sup_off - 1 in
  let m = ref Id.Map.empty in
  let add i id =
    if Bytes.get scored i = '\001' then m := Id.Map.add id score.(i) !m
  in
  Array.iteri (fun i nd -> add i nd.Node.id) nodes;
  List.iteri (fun j id -> add (n_entities - 1 - j) id) dangling;
  !m

let root_confidence ~trust structure =
  let nodes, _, sup_off, sup, supported = index structure in
  (* The first root: a node without a SupportedBy parent whose type is
     not contextual, as {!Structure.roots} orders them. *)
  let rec first i =
    if i >= Array.length nodes then None
    else if
      Bytes.get supported i = '\000'
      && not (Node.is_contextual nodes.(i).Node.node_type)
    then Some i
    else first (i + 1)
  in
  match first 0 with
  | None -> 0.0
  | Some r ->
      (scores ~trust ~find_evidence:(evidence_lookup structure) nodes ~sup_off
         ~sup).(r)

let impact_by_tracing structure evidence_id =
  let citing =
    List.filter
      (fun n ->
        n.Node.node_type = Node.Solution
        && n.Node.evidence = Some evidence_id)
      (Structure.nodes structure)
  in
  let seen = ref Id.Set.empty in
  let order = ref [] in
  let rec up id =
    List.iter
      (fun parent ->
        if not (Id.Set.mem parent !seen) then begin
          seen := Id.Set.add parent !seen;
          order := parent :: !order;
          up parent
        end)
      (Structure.parents Structure.Supported_by id structure)
  in
  List.iter (fun n -> up n.Node.id) citing;
  List.rev !order

let sensitivity ~trust structure evidence_id =
  let baseline = root_confidence ~trust structure in
  let trust' ev =
    if Id.equal ev.Evidence.id evidence_id then 0.0 else trust ev
  in
  baseline -. root_confidence ~trust:trust' structure

let probe_premise ?budget checked premise =
  let remaining =
    List.filter
      (fun p -> not (Prop.equal p premise))
      checked.Natded.premises
  in
  Sat.entails ?budget remaining checked.Natded.conclusion

let load_bearing_premises ?budget checked =
  List.filter
    (fun p -> not (probe_premise ?budget checked p))
    checked.Natded.premises

let probe_counterexample ?budget checked premise =
  if probe_premise ?budget checked premise then None
  else
    let remaining =
      List.filter
        (fun p -> not (Prop.equal p premise))
        checked.Natded.premises
    in
    Sat.models ?budget
      (Prop.And (Prop.conj remaining, Prop.Not checked.Natded.conclusion))
