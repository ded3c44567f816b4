(* The reference semantics of an edit batch: each edit replayed on the
   structure with {!Argus_gsn.Structure}'s own operation.
   {!Argus_ir.Caseir.apply} edits the interned case instead, and the
   store suite (test/store) holds it to this replay: every batch it
   accepts must give the IR a fresh intern of the replayed structure
   gives, and it must refuse the batches this refuses, with the same
   message. *)

module Id = Argus_core.Id
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Caseir = Argus_ir.Caseir

let refusal what id = Printf.sprintf "%s: no node %s" what (Id.to_string id)

(* A [Set_text] or [Remove_node] on a node that is not there, at that
   point of the batch, refuses the whole batch. *)
let replay structure edits =
  let rec go s = function
    | [] -> Ok s
    | Caseir.Set_text (id, text) :: rest -> (
        match Structure.find id s with
        | None -> Error (refusal "set-text" id)
        | Some n -> go (Structure.add_node { n with Node.text } s) rest)
    | Caseir.Add_node n :: rest -> go (Structure.add_node n s) rest
    | Caseir.Remove_node id :: rest ->
        if Structure.mem id s then go (Structure.remove_node id s) rest
        else Error (refusal "remove-node" id)
    | Caseir.Link (kind, src, dst) :: rest ->
        go (Structure.connect kind ~src ~dst s) rest
    | Caseir.Unlink (kind, src, dst) :: rest ->
        go (Structure.disconnect kind ~src ~dst s) rest
  in
  go structure edits
