(** The serve wire protocol: line-delimited JSON over a local socket.

    One request per line, one response line per request, in completion
    order (the [id] field correlates them).  The grammar is documented
    in DESIGN.md §11; this module is the single codec both the server
    and the [argus call] client use, so the two cannot drift.

    Requests:
    {v
    {"id": "r1", "op": "check", "source": "case \"t\" { ... }",
     "filename": "t.arg", "ruleset": "standard", "lints": false,
     "deadline_ms": 500, "fuel": 100000}
    v}
    [op] is one of [check], [prove] (needs ["goal"]), [fallacies],
    [probe], [health], [stats] — plus the stateful store ops [put]
    (source in, digest out), [patch] (["digest"] + ["edits"] in, new
    digest out) and [verdict] (["digest"] in, report + confidence
    out), answered only by a server started with a store.  An edit is
    [{"op": "set-text", "id", "text"}], [{"op": "add-node", ...node}]
    where [node] is an {!Argus_gsn.Interchange} node object (["id"],
    ["type"], ["text"], ["status"]?, ["formal"]?, ["annotations"]?,
    ["evidence"]?, decoded by {!Argus_gsn.Interchange.node_of_json}),
    [{"op": "remove-node", "id"}] or [{"op": "link"|"unlink", "kind",
    "src", "dst"}] with a {!Argus_gsn.Structure.link_to_string} kind; a
    malformed edit rejects the whole request as [svc/bad-request].
    Everything but [op] is optional: a
    missing [id] is assigned by the server, [source] defaults to empty.
    ["trace": true] asks the server to capture the request's span tree
    and return it in the payload; ["trace_id"] names the request for
    correlation (minted by the server when absent and echoed in the
    response); ["format"] selects the [stats] exposition (["json"],
    the default, or ["prometheus"]).

    Responses: [{"id", "trace_id"?, "status": "ok", "exit": 0|1,
    ...payload}] or [{"id", "trace_id"?, "status": "error", "code",
    "message"}].  Error codes: [svc/bad-request], [svc/overloaded],
    [svc/breaker-open], [svc/draining], [rt/internal-error].

    Both decoders ignore unknown fields, so either end can grow the
    schema without breaking the other. *)

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
  filename : string;  (** Label used in diagnostics; default ["<request>"]. *)
  goal : string option;  (** [prove] only. *)
  ruleset : string;
      (** [check] and [put] only: ["standard"] or ["denney-pai"]; any
          other name is answered ["svc/bad-request"]. *)
  lints : bool;  (** [check] only. *)
  deadline_ms : float option;  (** Client deadline; the server clamps it. *)
  fuel : int option;
  trace : bool;  (** Capture and return this request's span tree. *)
  trace_id : string option;  (** Correlation id; server-minted if absent. *)
  format : string option;  (** [stats] only: ["json"] or ["prometheus"]. *)
  digest : string option;  (** [patch]/[verdict]: the case address. *)
  edits : Argus_store.Store.edit list;  (** [patch] only. *)
}

type response = {
  rid : string;
  outcome : (int * (string * Argus_core.Json.t) list, string * string) result;
      (** [Ok (exit_code, payload)] or [Error (code, message)]. *)
  rtrace_id : string option;
      (** Echo of the request's (possibly server-minted) trace id. *)
}

val ops : op list
(** Every op, in the order [argus call] lists them. *)

val op_to_string : op -> string
val op_of_string : string -> op option

val request : ?id:string -> ?source:string -> ?filename:string ->
  ?goal:string -> ?ruleset:string -> ?lints:bool -> ?deadline_ms:float ->
  ?fuel:int -> ?trace:bool -> ?trace_id:string -> ?format:string ->
  ?digest:string -> ?edits:Argus_store.Store.edit list -> op -> request

val edit_to_json : Argus_store.Store.edit -> Argus_core.Json.t
val edit_of_json : Argus_core.Json.t -> (Argus_store.Store.edit, string) result

val request_to_json : request -> Argus_core.Json.t

val request_of_json : Argus_core.Json.t -> (request, string) result
(** Rejects unknown [op], non-object payloads and ill-typed fields —
    including a [fuel] that is not a non-negative integral number in
    range, or a [deadline_ms] that is negative or not finite.  A
    missing [id] becomes [""] (the server assigns one). *)

val request_of_line : string -> (request, string) result

val ok : ?trace_id:string -> id:string -> exit_code:int ->
  (string * Argus_core.Json.t) list -> response

val error : ?trace_id:string -> id:string -> code:string -> string -> response

val with_trace_id : string option -> response -> response
(** Stamp (or clear) the echoed trace id — the server applies this to
    every response on its way out, wherever it was built. *)

val response_to_json : response -> Argus_core.Json.t
val response_to_line : response -> string
(** Compact JSON plus the trailing newline. *)

val response_of_line : string -> (response, string) result
(** The client-side decoder. *)

val exit_code_of_response : response -> int
(** The CLI taxonomy: an [Ok] response carries its own 0/1; any
    [Error] response is 2. *)
