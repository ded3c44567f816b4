module Prop = Argus_logic.Prop
module Sat = Argus_logic.Sat

let lit var sign = { Sat.var; sign }

let rec cnf_of_nnf = function
  | Prop.Top -> []
  | Prop.Bot -> [ [] ]
  | Prop.Var v -> [ [ lit v true ] ]
  | Prop.Not (Prop.Var v) -> [ [ lit v false ] ]
  | Prop.And (a, b) -> cnf_of_nnf a @ cnf_of_nnf b
  | Prop.Or (a, b) ->
      let ca = cnf_of_nnf a and cb = cnf_of_nnf b in
      List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) cb) ca
  | Prop.Not _ | Prop.Implies _ | Prop.Iff _ ->
      invalid_arg "cnf_of_nnf: input not in NNF"

let cnf_of_prop f = cnf_of_nnf (Prop.nnf f)
