(* The tree-walking CAE well-formedness checker, kept as the
   differential oracle for {!Argus_ir.Fused.check_cae} (test/ir holds
   the two to byte-identical diagnostic lists). *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
open Argus_cae.Cae

let has_cycle t =
  let rec visit path visited id =
    if List.exists (Id.equal id) path then true
    else if Id.Set.mem id visited then false
    else
      List.exists (visit (id :: path) visited) (supporters id t)
  in
  List.exists
    (fun id -> visit [] Id.Set.empty id)
    (List.map (fun n -> n.id) (nodes t))

let check t =
  let out = ref [] in
  let add d = out := d :: !out in
  List.iter
    (fun (src, dst) ->
      match (find src t, find dst t) with
      | None, _ | _, None ->
          add
            (Diagnostic.errorf ~code:"cae/dangling-link" ~subjects:[ src; dst ]
               "support link references a missing node")
      | Some s, Some d -> (
          match (s.node_type, d.node_type) with
          | Claim, Argument | Argument, (Claim | Evidence_ref) -> ()
          | Claim, Evidence_ref ->
              (* Direct evidence under a claim is tolerated by some CAE
                 dialects but not the published methodology. *)
              add
                (Diagnostic.errorf ~code:"cae/bad-support"
                   ~subjects:[ src; dst ]
                   "evidence must support a claim via an argument node")
          | _ ->
              add
                (Diagnostic.errorf ~code:"cae/bad-support"
                   ~subjects:[ src; dst ]
                   "a %s cannot be supported by a %s"
                   (match s.node_type with
                   | Claim -> "claim"
                   | Argument -> "argument"
                   | Evidence_ref -> "evidence")
                   (match d.node_type with
                   | Claim -> "claim"
                   | Argument -> "argument"
                   | Evidence_ref -> "evidence"))))
    (links t);
  if has_cycle t then
    add (Diagnostic.error ~code:"cae/cycle" "the support relation is cyclic");
  let incoming id =
    List.exists (fun (_, d) -> Id.equal d id) (links t)
  in
  let root_claims =
    List.filter
      (fun n -> n.node_type = Claim && not (incoming n.id))
      (nodes t)
  in
  if size t > 0 && root_claims = [] then
    add (Diagnostic.error ~code:"cae/no-root" "no top-level claim");
  List.iter
    (fun n ->
      if String.trim n.text = "" then
        add
          (Diagnostic.errorf ~code:"cae/empty-text" ~subjects:[ n.id ]
             "node has no text");
      let sup = supporters n.id t in
      match n.node_type with
      | Claim ->
          let args =
            List.filter
              (fun sid ->
                match find sid t with
                | Some { node_type = Argument; _ } -> Some sid <> None
                | _ -> false)
              sup
          in
          if (not n.premise) && args = [] then
            add
              (Diagnostic.errorf ~code:"cae/claim-without-argument"
                 ~subjects:[ n.id ]
                 "claim is not a premise and has no supporting argument");
          if List.length args > 1 then
            add
              (Diagnostic.warningf ~code:"cae/multiple-arguments"
                 ~subjects:[ n.id ]
                 "claim has %d argument nodes (the methodology expects one)"
                 (List.length args))
      | Argument ->
          if sup = [] then
            add
              (Diagnostic.errorf ~code:"cae/empty-argument" ~subjects:[ n.id ]
                 "argument node cites no evidence or subclaims")
      | Evidence_ref ->
          if sup <> [] then
            add
              (Diagnostic.errorf ~code:"cae/evidence-not-leaf"
                 ~subjects:[ n.id ] "evidence must be a leaf"))
    (nodes t);
  Diagnostic.sort (List.rev !out)

let is_well_formed t = not (Diagnostic.has_errors (check t))
