module Json = Argus_core.Json
module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Structure = Argus_gsn.Structure
module Interchange = Argus_gsn.Interchange
module Store = Argus_store.Store

type op =
  | Check
  | Prove
  | Fallacies
  | Probe
  | Health
  | Stats
  | Put
  | Patch
  | Verdict

type request = {
  id : string;
  op : op;
  source : string;
  filename : string;
  goal : string option;
  ruleset : string;
  lints : bool;
  deadline_ms : float option;
  fuel : int option;
  trace : bool;
  trace_id : string option;
  format : string option;
  digest : string option;
  edits : Store.edit list;
}

type response = {
  rid : string;
  outcome : (int * (string * Json.t) list, string * string) result;
  rtrace_id : string option;
}

let op_to_string = function
  | Check -> "check"
  | Prove -> "prove"
  | Fallacies -> "fallacies"
  | Probe -> "probe"
  | Health -> "health"
  | Stats -> "stats"
  | Put -> "put"
  | Patch -> "patch"
  | Verdict -> "verdict"

let ops =
  [ Check; Prove; Fallacies; Probe; Health; Stats; Put; Patch; Verdict ]

let op_of_string s =
  List.find_opt (fun op -> String.equal (op_to_string op) s) ops

let request ?(id = "") ?(source = "") ?(filename = "<request>") ?goal
    ?(ruleset = "standard") ?(lints = false) ?deadline_ms ?fuel
    ?(trace = false) ?trace_id ?format ?digest ?(edits = []) op =
  {
    id;
    op;
    source;
    filename;
    goal;
    ruleset;
    lints;
    deadline_ms;
    fuel;
    trace;
    trace_id;
    format;
    digest;
    edits;
  }

(* --- the edit codec (patch requests) --- *)

let link_edit_json op kind src dst =
  Json.Obj
    [
      ("op", Json.Str op);
      ("kind", Json.Str (Structure.link_to_string kind));
      ("src", Json.Str (Id.to_string src));
      ("dst", Json.Str (Id.to_string dst));
    ]

let edit_to_json = function
  | Store.Set_text (id, text) ->
      Json.Obj
        [
          ("op", Json.Str "set-text");
          ("id", Json.Str (Id.to_string id));
          ("text", Json.Str text);
        ]
  | Store.Add_node n ->
      Json.Obj (("op", Json.Str "add-node") :: Interchange.node_fields n)
  | Store.Remove_node id ->
      Json.Obj
        [ ("op", Json.Str "remove-node"); ("id", Json.Str (Id.to_string id)) ]
  | Store.Link (kind, src, dst) -> link_edit_json "link" kind src dst
  | Store.Unlink (kind, src, dst) -> link_edit_json "unlink" kind src dst

let edit_of_json json =
  let req name =
    match Json.member name json with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "edit field %S must be a string" name)
  in
  let req_id name =
    match req name with
    | Error _ as e -> e
    | Ok s -> (
        match Id.of_string_opt s with
        | Some id -> Ok id
        | None -> Error (Printf.sprintf "edit field %S: bad id %S" name s))
  in
  let link_edit ctor =
    match req "kind" with
    | Error _ as e -> e
    | Ok k -> (
        match Structure.link_of_string k with
        | None ->
            Error
              (Printf.sprintf "edit field \"kind\" must be %S or %S, not %S"
                 (Structure.link_to_string Structure.Supported_by)
                 (Structure.link_to_string Structure.In_context_of)
                 k)
        | Some kind -> (
            match (req_id "src", req_id "dst") with
            | Ok src, Ok dst -> Ok (ctor kind src dst)
            | (Error _ as e), _ | _, (Error _ as e) -> e))
  in
  match json with
  | Json.Obj _ -> (
      match req "op" with
      | Error _ as e -> e
      | Ok "set-text" -> (
          match (req_id "id", req "text") with
          | Ok id, Ok text -> Ok (Store.Set_text (id, text))
          | (Error _ as e), _ | _, (Error _ as e) -> e)
      | Ok "add-node" -> (
          match Interchange.node_of_json json with
          | Ok n -> Ok (Store.Add_node n)
          | Error d -> Error ("edit: " ^ d.Diagnostic.message))
      | Ok "remove-node" -> (
          match req_id "id" with
          | Ok id -> Ok (Store.Remove_node id)
          | Error _ as e -> e)
      | Ok "link" -> link_edit (fun k s d -> Store.Link (k, s, d))
      | Ok "unlink" -> link_edit (fun k s d -> Store.Unlink (k, s, d))
      | Ok op -> Error (Printf.sprintf "unknown edit op %S" op))
  | _ -> Error "each edit must be a JSON object"

let edits_of_json = function
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          match (acc, edit_of_json item) with
          | Error _, _ -> acc
          | _, (Error _ as e) -> e
          | Ok es, Ok e -> Ok (e :: es))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "field \"edits\" must be a list"

let request_to_json r =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    ((if r.id = "" then [] else [ ("id", Json.Str r.id) ])
    @ [ ("op", Json.Str (op_to_string r.op)) ]
    @ (if r.source = "" then [] else [ ("source", Json.Str r.source) ])
    @ (if r.filename = "<request>" then []
       else [ ("filename", Json.Str r.filename) ])
    @ opt "goal" (fun g -> Json.Str g) r.goal
    @ (if r.ruleset = "standard" then []
       else [ ("ruleset", Json.Str r.ruleset) ])
    @ (if r.lints then [ ("lints", Json.Bool true) ] else [])
    @ opt "deadline_ms" (fun d -> Json.Num d) r.deadline_ms
    @ opt "fuel" (fun f -> Json.int f) r.fuel
    @ (if r.trace then [ ("trace", Json.Bool true) ] else [])
    @ opt "trace_id" (fun t -> Json.Str t) r.trace_id
    @ opt "format" (fun f -> Json.Str f) r.format
    @ opt "digest" (fun d -> Json.Str d) r.digest
    @
    if r.edits = [] then []
    else [ ("edits", Json.List (List.map edit_to_json r.edits)) ])

let str_field name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let num_field name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Num n) -> Ok (Some n)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let bool_field name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let ( let* ) = Result.bind

let request_of_json json =
  match json with
  | Json.Obj _ ->
      let* op_str = str_field "op" json in
      let* op =
        match op_str with
        | None -> Error "missing \"op\" field"
        | Some s -> (
            match op_of_string s with
            | Some op -> Ok op
            | None -> Error (Printf.sprintf "unknown op %S" s))
      in
      let* id = str_field "id" json in
      let* source = str_field "source" json in
      let* filename = str_field "filename" json in
      let* goal = str_field "goal" json in
      let* ruleset = str_field "ruleset" json in
      let* lints = bool_field "lints" json in
      let* deadline_ms = num_field "deadline_ms" json in
      let* deadline_ms =
        match deadline_ms with
        | Some d when not (Float.is_finite d && d >= 0.) ->
            Error "field \"deadline_ms\" must be a finite non-negative number"
        | d -> Ok d
      in
      let* fuel = num_field "fuel" json in
      (* [int_of_float] is unspecified for NaN and out-of-range floats,
         so validate before converting: client-supplied garbage becomes
         svc/bad-request, never a bogus budget. *)
      let* fuel =
        match fuel with
        | None -> Ok None
        | Some f when Float.is_integer f && f >= 0. && f <= 1e15 ->
            Ok (Some (int_of_float f))
        | Some _ ->
            Error
              "field \"fuel\" must be a non-negative integer (at most 1e15)"
      in
      let* trace = bool_field "trace" json in
      let* trace_id = str_field "trace_id" json in
      let* format = str_field "format" json in
      let* digest = str_field "digest" json in
      let* edits =
        match Json.member "edits" json with
        | None | Some Json.Null -> Ok []
        | Some j -> edits_of_json j
      in
      Ok
        {
          id = Option.value id ~default:"";
          op;
          source = Option.value source ~default:"";
          filename = Option.value filename ~default:"<request>";
          goal;
          ruleset = Option.value ruleset ~default:"standard";
          lints = Option.value lints ~default:false;
          deadline_ms;
          fuel;
          trace = Option.value trace ~default:false;
          trace_id;
          format;
          digest;
          edits;
        }
  | _ -> Error "request must be a JSON object"

let request_of_line line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok json -> request_of_json json

let ok ?trace_id ~id ~exit_code payload =
  { rid = id; outcome = Ok (exit_code, payload); rtrace_id = trace_id }

let error ?trace_id ~id ~code message =
  { rid = id; outcome = Error (code, message); rtrace_id = trace_id }

let with_trace_id trace_id r = { r with rtrace_id = trace_id }

let response_to_json r =
  (* The trace id rides right after [id] in every response, success or
     failure, so a client can correlate even a shed request. *)
  let tid =
    match r.rtrace_id with
    | None -> []
    | Some t -> [ ("trace_id", Json.Str t) ]
  in
  match r.outcome with
  | Ok (exit_code, payload) ->
      Json.Obj
        ((("id", Json.Str r.rid) :: tid)
        @ ("status", Json.Str "ok")
          :: ("exit", Json.int exit_code)
          :: payload)
  | Error (code, message) ->
      Json.Obj
        ((("id", Json.Str r.rid) :: tid)
        @ [
            ("status", Json.Str "error");
            ("code", Json.Str code);
            ("message", Json.Str message);
          ])

let response_to_line r = Json.to_line (response_to_json r)

let response_of_line line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok json -> (
      let* id = str_field "id" json in
      let id = Option.value id ~default:"" in
      let* trace_id = str_field "trace_id" json in
      let* status = str_field "status" json in
      match status with
      | Some "ok" -> (
          match Json.member "exit" json with
          | Some (Json.Num n) ->
              let payload =
                match json with
                | Json.Obj kvs ->
                    List.filter
                      (fun (k, _) ->
                        k <> "id" && k <> "status" && k <> "exit"
                        && k <> "trace_id")
                      kvs
                | _ -> []
              in
              Ok (ok ?trace_id ~id ~exit_code:(int_of_float n) payload)
          | _ -> Error "ok response needs a numeric \"exit\"")
      | Some "error" ->
          let* code = str_field "code" json in
          let* message = str_field "message" json in
          Ok
            (error ?trace_id ~id
               ~code:(Option.value code ~default:"svc/unknown")
               (Option.value message ~default:""))
      | Some s -> Error (Printf.sprintf "unknown status %S" s)
      | None -> Error "missing \"status\" field")

let exit_code_of_response r =
  match r.outcome with Ok (code, _) -> code | Error _ -> 2
