type ruleset = Standard | Denney_pai_2013

let ruleset_to_string = function
  | Standard -> "standard"
  | Denney_pai_2013 -> "denney-pai"

let ruleset_of_string = function
  | "standard" -> Some Standard
  | "denney-pai" -> Some Denney_pai_2013
  | _ -> None

let support_target_ok src dst =
  match (src : Node.node_type) with
  | Node.Goal | Node.Away_goal _ -> (
      match (dst : Node.node_type) with
      | Node.Goal | Node.Away_goal _ | Node.Strategy | Node.Solution
      | Node.Module_ref _ | Node.Contract _ ->
          true
      | Node.Context | Node.Assumption | Node.Justification -> false)
  | Node.Strategy -> (
      match dst with
      | Node.Goal | Node.Away_goal _ | Node.Module_ref _ | Node.Contract _ ->
          true
      | Node.Strategy | Node.Solution | Node.Context | Node.Assumption
      | Node.Justification ->
          false)
  | Node.Solution | Node.Context | Node.Assumption | Node.Justification
  | Node.Module_ref _ | Node.Contract _ ->
      false

let context_source_ok = function
  | Node.Goal | Node.Away_goal _ | Node.Strategy -> true
  | Node.Solution | Node.Context | Node.Assumption | Node.Justification
  | Node.Module_ref _ | Node.Contract _ ->
      false

let context_target_ok = function
  | Node.Context | Node.Assumption | Node.Justification | Node.Away_goal _ ->
      true
  | Node.Goal | Node.Strategy | Node.Solution | Node.Module_ref _
  | Node.Contract _ ->
      false

let has_placeholder text =
  String.contains text '{' && String.contains text '}'
