module Id = Argus_core.Id

type node_type =
  | Goal
  | Strategy
  | Solution
  | Context
  | Assumption
  | Justification
  | Away_goal of Id.t
  | Module_ref of Id.t
  | Contract of Id.t

type status =
  | Developed
  | Undeveloped
  | Uninstantiated
  | Undeveloped_uninstantiated

type t = {
  id : Id.t;
  node_type : node_type;
  text : string;
  status : status;
  formal : Argus_logic.Prop.t option;
  annotations : Metadata.annotation list;
  evidence : Id.t option;
}

let make ~id ~node_type ?(status = Developed) ?formal ?(annotations = [])
    ?evidence text =
  { id; node_type; text; status; formal; annotations; evidence }

let goal id text = make ~id:(Id.of_string id) ~node_type:Goal text
let strategy id text = make ~id:(Id.of_string id) ~node_type:Strategy text

let solution ?evidence id text =
  make ~id:(Id.of_string id) ~node_type:Solution
    ?evidence:(Option.map Id.of_string evidence)
    text

let context id text = make ~id:(Id.of_string id) ~node_type:Context text

let assumption id text = make ~id:(Id.of_string id) ~node_type:Assumption text

let justification id text =
  make ~id:(Id.of_string id) ~node_type:Justification text

let is_goal_like = function
  | Goal | Away_goal _ -> true
  | Strategy | Solution | Context | Assumption | Justification | Module_ref _
  | Contract _ ->
      false

let is_contextual = function
  | Context | Assumption | Justification -> true
  | Goal | Strategy | Solution | Away_goal _ | Module_ref _ | Contract _ ->
      false

let type_to_string = function
  | Goal -> "goal"
  | Strategy -> "strategy"
  | Solution -> "solution"
  | Context -> "context"
  | Assumption -> "assumption"
  | Justification -> "justification"
  | Away_goal m -> "away-goal:" ^ Id.to_string m
  | Module_ref m -> "module:" ^ Id.to_string m
  | Contract m -> "contract:" ^ Id.to_string m

let type_of_string s =
  match s with
  | "goal" -> Some Goal
  | "strategy" -> Some Strategy
  | "solution" -> Some Solution
  | "context" -> Some Context
  | "assumption" -> Some Assumption
  | "justification" -> Some Justification
  | _ -> (
      match String.index_opt s ':' with
      | None -> None
      | Some i -> (
          let kind = String.sub s 0 i in
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match (kind, Id.of_string_opt rest) with
          | "away-goal", Some m -> Some (Away_goal m)
          | "module", Some m -> Some (Module_ref m)
          | "contract", Some m -> Some (Contract m)
          | _ -> None))

let status_to_string = function
  | Developed -> "developed"
  | Undeveloped -> "undeveloped"
  | Uninstantiated -> "uninstantiated"
  | Undeveloped_uninstantiated -> "undeveloped-uninstantiated"

let status_of_string s =
  List.find_opt
    (fun st -> String.equal (status_to_string st) s)
    [ Developed; Undeveloped; Uninstantiated; Undeveloped_uninstantiated ]

let pp ppf n =
  Format.fprintf ppf "[%s] %a: %s" (type_to_string n.node_type) Id.pp n.id
    n.text;
  match n.formal with
  | None -> ()
  | Some f -> Format.fprintf ppf " {%a}" Argus_logic.Prop.pp f

let equal a b = a = b
