module Json = Argus_core.Json
module Diagnostic = Argus_core.Diagnostic
module Budget = Argus_rt.Budget
module Dsl = Argus_dsl.Dsl
module Wellformed = Argus_gsn.Wellformed
module Program = Argus_prolog.Program
module Derivation = Argus_prolog.Derivation
module Exec = Argus_prolog.Exec
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Lterm = Argus_logic.Term
module Proof_text = Argus_logic.Proof_text
module Natded = Argus_logic.Natded
module Prop = Argus_logic.Prop
module Confidence = Argus_confidence.Confidence
module Store = Argus_store.Store
module Durable = Argus_store.Durable

(* --- the typed ops --- *)

type rejection = Invalid of Diagnostic.t list | Unreadable of string
type 'a answer = { result : ('a, rejection) result; exit_code : int }

let budget_diags = function None -> [] | Some b -> Budget.diagnostics b

(* The one exit-code rule (DESIGN.md section 10): rejected input and
   findings exit 1, a clean answer 0. *)
let reject r = { result = Error r; exit_code = 1 }
let answer ~findings v = { result = Ok v; exit_code = (if findings then 1 else 0) }

(* A report op's answer: the findings plus the budget's truncation
   warnings, which count as findings.  The budget is read here, after
   [ds] was computed; appending it with [@] inside the op would read it
   first (OCaml evaluates the right operand first) and drop it. *)
let report ?budget ds =
  let warnings = budget_diags budget in
  answer ~findings:(Diagnostic.has_errors ds || warnings <> []) (ds @ warnings)

let check ?pool ?budget ~ruleset ~lints ~filename source =
  let lint structure =
    if lints then Fused.lint ?budget (Caseir.intern structure) else []
  in
  match Dsl.parse_collection ~filename source with
  | Error ds -> reject (Invalid ds)
  | Ok [ case ] when case.Dsl.module_name = None ->
      (* Single-case fast path: one interning, one fused pass. *)
      let fused =
        Fused.check ~ruleset ?budget ~lints (Caseir.intern case.Dsl.structure)
      in
      report ?budget
        (fused.Fused.wf @ Dsl.validate_metadata case @ fused.Fused.informal)
  | Ok cases -> (
      match Dsl.to_modular cases with
      | Error ds -> reject (Invalid ds)
      | Ok collection ->
          report ?budget
            (Fused.check_modular ?pool collection
            @ List.concat_map Dsl.validate_metadata cases
            @ List.concat_map (fun c -> lint c.Dsl.structure) cases))

let fallacies ?budget ~filename source =
  match Dsl.parse ~filename source with
  | Error ds -> reject (Invalid ds)
  | Ok case ->
      report ?budget (Fused.lint ?budget (Caseir.intern case.Dsl.structure))

type proof = { derivation : Derivation.t option; warnings : Diagnostic.t list }

let prove ?max_depth ?budget ~goal source =
  match Program.of_string source with
  | Error e -> reject (Unreadable ("program error: " ^ e))
  | Ok program -> (
      match Lterm.of_string goal with
      | Error e -> reject (Unreadable ("goal error: " ^ e))
      | Ok goal ->
          let derivation = Exec.prove_term ?max_depth ?budget program goal in
          let warnings = budget_diags budget in
          answer
            ~findings:(derivation = None || warnings <> [])
            { derivation; warnings })

type probe = { premise : Prop.t; countermodel : (string * bool) list option }

type probes = {
  theorem : Prop.t;
  probes : probe list;
  warnings : Diagnostic.t list;
}

let probe ?budget source =
  match Proof_text.parse source with
  | Error e -> reject (Unreadable ("proof error: " ^ e))
  | Ok proof -> (
      match Natded.check proof with
      | Error ds -> reject (Invalid ds)
      | Ok checked ->
          let probes =
            List.map
              (fun premise ->
                {
                  premise;
                  countermodel =
                    Confidence.probe_counterexample ?budget checked premise;
                })
              checked.Natded.premises
          in
          let warnings = budget_diags budget in
          answer ~findings:(warnings <> [])
            { theorem = Natded.theorem checked; probes; warnings })

(* --- the protocol encoders --- *)

let report_payload ds = [ ("report", Diagnostic.report_to_json ds) ]
let warnings_payload ds = if ds = [] then [] else report_payload ds

let respond ~id payload (a : _ answer) =
  Protocol.ok ~id ~exit_code:a.exit_code
    (match a.result with
    | Ok v -> payload v
    | Error (Invalid ds) -> report_payload ds
    | Error (Unreadable msg) -> [ ("message", Json.Str msg) ])

let proof_payload (p : proof) =
  [
    ("derivable", Json.Bool (p.derivation <> None));
    ( "derivation",
      match p.derivation with
      | None -> Json.Null
      | Some d -> Json.Str (Format.asprintf "%a" Derivation.pp d) );
  ]
  @ warnings_payload p.warnings

let probes_payload (p : probes) =
  let probe { premise; countermodel } =
    Json.Obj
      [
        ("premise", Json.Str (Prop.to_string premise));
        ("load_bearing", Json.Bool (countermodel <> None));
        ( "countermodel",
          match countermodel with
          | None -> Json.Null
          | Some model ->
              Json.Obj (List.map (fun (v, b) -> (v, Json.Bool b)) model) );
      ]
  in
  [
    ("theorem", Json.Str (Prop.to_string p.theorem));
    ("probes", Json.List (List.map probe p.probes));
  ]
  @ warnings_payload p.warnings

(* The request's rule set, or a bad-request answer naming the accepted
   values: an unknown name must not fall back to the standard rules. *)
let with_ruleset (req : Protocol.request) k =
  match Wellformed.ruleset_of_string req.Protocol.ruleset with
  | Some ruleset -> k ruleset
  | None ->
      Protocol.error ~id:req.Protocol.id ~code:"svc/bad-request"
        (Printf.sprintf "unknown ruleset %S (try %s or %s)"
           req.Protocol.ruleset
           (Wellformed.ruleset_to_string Wellformed.Standard)
           (Wellformed.ruleset_to_string Wellformed.Denney_pai_2013))

let handle (req : Protocol.request) ~budget =
  let id = req.Protocol.id and source = req.Protocol.source in
  match req.Protocol.op with
  | Protocol.Check ->
      with_ruleset req @@ fun ruleset ->
      respond ~id report_payload
        (check ?budget ~ruleset ~lints:req.Protocol.lints
           ~filename:req.Protocol.filename source)
  | Protocol.Fallacies ->
      respond ~id report_payload
        (fallacies ?budget ~filename:req.Protocol.filename source)
  | Protocol.Prove ->
      respond ~id proof_payload
        (match req.Protocol.goal with
        | None -> reject (Unreadable "prove needs a \"goal\" field")
        | Some goal -> prove ?budget ~goal source)
  | Protocol.Probe -> respond ~id probes_payload (probe ?budget source)
  | Protocol.Health | Protocol.Stats ->
      Protocol.error ~id:req.Protocol.id ~code:"svc/bad-request"
        (Printf.sprintf "%s is answered by the server, not a worker"
           (Protocol.op_to_string req.Protocol.op))
  | Protocol.Put | Protocol.Patch | Protocol.Verdict ->
      Protocol.error ~id:req.Protocol.id ~code:"svc/bad-request"
        (Printf.sprintf
           "%s needs a stateful server: start it with \"argus serve --store\""
           (Protocol.op_to_string req.Protocol.op))

(* --- the stateful handler: store ops over a shared Durable.t --- *)

(* Each refusal keeps its own wire code so `argus call` (and any
   client) can tell "that digest is gone" from "your batch is
   malformed" from "the disk failed and the store is read-only" —
   only the last one means "retry after an operator restart". *)
let store_error ~id (e : Durable.error) =
  let code =
    match e with
    | Durable.Store_error (Store.Unknown_digest _) -> "svc/unknown-digest"
    | Durable.Store_error (Store.Bad_edit _) -> "svc/bad-request"
    | Durable.Read_only _ -> "svc/store-read-only"
  in
  Protocol.error ~id ~code (Durable.error_message e)

let put store (req : Protocol.request) =
  let id = req.Protocol.id in
  with_ruleset req @@ fun ruleset ->
  match
    Dsl.parse_collection ~filename:req.Protocol.filename req.Protocol.source
  with
  | Error ds -> respond ~id report_payload (reject (Invalid ds))
  | Ok [ case ] when case.Dsl.module_name = None -> (
      match Durable.put ~ruleset store case.Dsl.structure with
      | Error e -> store_error ~id e
      | Ok (digest, seq) ->
          (* The seq echo is the retry audit trail: a client that had
             to resend sees whether its write committed once or twice
             (the digest cannot tell — replays converge on it). *)
          Protocol.ok ~id ~exit_code:0
            [ ("digest", Json.Str digest); ("seq", Json.int seq) ])
  | Ok _ ->
      Protocol.error ~id ~code:"svc/bad-request"
        "put stores exactly one unnamed case"

let with_digest (req : Protocol.request) k =
  match req.Protocol.digest with
  | None ->
      Protocol.error ~id:req.Protocol.id ~code:"svc/bad-request"
        (Printf.sprintf "%s needs a \"digest\" field"
           (Protocol.op_to_string req.Protocol.op))
  | Some digest -> k digest

let patch store (req : Protocol.request) =
  let id = req.Protocol.id in
  with_digest req (fun digest ->
      match Durable.patch store ~digest req.Protocol.edits with
      | Error e -> store_error ~id e
      | Ok (digest', seq) ->
          Protocol.ok ~id ~exit_code:0
            [ ("digest", Json.Str digest'); ("seq", Json.int seq) ])

let verdict store (req : Protocol.request) =
  let id = req.Protocol.id in
  with_digest req (fun digest ->
      match Durable.verdict store ~digest with
      | Error e -> store_error ~id e
      | Ok v ->
          let ds =
            v.Store.result.Fused.wf @ v.Store.result.Fused.informal
          in
          Protocol.ok ~id
            ~exit_code:(if Diagnostic.has_errors ds then 1 else 0)
            [
              ("digest", Json.Str v.Store.vdigest);
              ("report", Diagnostic.report_to_json ds);
              ("confidence", Json.Num v.Store.confidence);
              ("from_memo", Json.Bool v.Store.from_memo);
            ])

let with_store store (req : Protocol.request) ~budget =
  match req.Protocol.op with
  | Protocol.Put -> put store req
  | Protocol.Patch -> patch store req
  | Protocol.Verdict -> verdict store req
  | _ -> handle req ~budget
