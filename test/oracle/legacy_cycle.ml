(* The first interned cycle search, kept as the witness oracle for
   {!Argus_ir.Caseir.has_cycle} (test/ir): DFS from each node entity in
   insertion order with the recursion stack as the path, "on the path"
   answered by [List.mem], and only entry points marked cycle-free —
   so a shared subtree is searched again from every path into it. *)

module Caseir = Argus_ir.Caseir

let has_cycle (ir : Caseir.t) =
  let cleared = Array.make (max 1 ir.Caseir.n_entities) false in
  let rec visit path i =
    if List.mem i path then Some (List.rev (i :: path))
    else if cleared.(i) then None
    else
      let path = i :: path in
      let rec go k =
        if k >= ir.Caseir.sup_out_off.(i + 1) then None
        else
          match visit path ir.Caseir.sup_out.(k) with
          | Some _ as w -> w
          | None -> go (k + 1)
      in
      go ir.Caseir.sup_out_off.(i)
  in
  let rec entries i =
    if i >= ir.Caseir.n_nodes then None
    else
      match visit [] i with
      | Some w -> Some (List.map (fun e -> ir.Caseir.ids.(e)) w)
      | None ->
          cleared.(i) <- true;
          entries (i + 1)
  in
  entries 0
