module Term = Argus_logic.Term

type t = { goal : Term.t; clause_index : int; children : t list }

let rec size d = 1 + List.fold_left (fun acc c -> acc + size c) 0 d.children

let pp ppf deriv =
  let rec go indent d =
    Format.fprintf ppf "%s%a   [clause %d]@." indent Term.pp d.goal
      d.clause_index;
    List.iter (go (indent ^ "  ")) d.children
  in
  go "" deriv
