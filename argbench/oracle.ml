(* The output oracle: every answer the server gave is recomputed
   in-process through the same public functions and compared byte for
   byte.  It runs after the timed phase, so the load generator stays
   light. *)

module P = Argus_svc.Protocol
module H = Argus_svc.Handlers
module Json = Argus_core.Json

type t = { mutable checked : int; mutable mismatches : int; mutable shown : int }

let create () = { checked = 0; mismatches = 0; shown = 0 }

let mismatch o what detail =
  o.mismatches <- o.mismatches + 1;
  if o.shown < 5 then begin
    o.shown <- o.shown + 1;
    Printf.eprintf "argbench: oracle mismatch (%s): %s\n%!" what detail
  end

let clip s = if String.length s <= 300 then s else String.sub s 0 300 ^ "..."

let expect o (r : Drive.rq) expected =
  o.checked <- o.checked + 1;
  if r.Drive.resp <> expected then
    mismatch o r.Drive.id
      (Printf.sprintf "server %s\n  in-process %s" (clip r.Drive.resp) (clip expected))

let strip line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\n' then String.sub line 0 (n - 1) else line

let decode line =
  match P.request_of_line line with
  | Ok req -> req
  | Error e -> failwith ("generated request does not decode: " ^ e)

(* The line the server must have sent for [req] answered [resp]: the
   server stamps the request's trace id on every reply. *)
let render (req : P.request) resp = strip (P.response_to_line (P.with_trace_id req.P.trace_id resp))

let stateless line =
  let req = decode line in
  render req (H.handle req ~budget:None)

let stateful shadow line =
  let req = decode line in
  render req (H.with_store shadow req ~budget:None)

(* The same stateless answer for another request id: the handlers
   never read the id except to echo it. *)
let restamp (req : P.request) (resp : P.response) id =
  render { req with P.trace_id = Some id } { resp with P.rid = id }

let report line =
  match Json.of_string line with
  | Ok j -> Json.member "report" j
  | Error _ -> None

let int_field line key =
  match Json.of_string line with
  | Ok j -> (
      match Json.member key j with Some (Json.Num f) -> Some (int_of_float f) | _ -> None)
  | Error _ -> None

(* Health and stats answers carry live server state, so only their
   shape is checked. *)
let monitoring o (r : Drive.rq) =
  o.checked <- o.checked + 1;
  match P.response_of_line r.Drive.resp with
  | Ok { P.outcome = Ok (0, payload); _ } when r.Drive.op = "stats" || List.assoc_opt "ready" payload = Some (Json.Bool true) -> ()
  | _ -> mismatch o r.Drive.id ("unexpected monitoring answer " ^ clip r.Drive.resp)
