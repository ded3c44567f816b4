(** The stateless operations ([check], [fallacies], [prove], [probe])
    and the request handlers that serve them.

    Each op is defined once, in two layers: a typed op (source text and
    options in, an {!answer} out) and the JSON encoder the protocol
    uses.  The [argus] subcommands of the same names call the typed ops
    and render the answer as text, so the CLI and the daemon run the
    same engines on every input (test/cli/serve.t pins one report).

    Bad {e input} never raises: it comes back as a {!rejection} with
    exit 1.  A genuine crash (a bug, or an injected fault) escapes to
    the caller — the supervisor owns the daemon's crash protocol, the
    CLI isolates it per file.  The caller mints the budget; the ops
    report its truncation warnings but the exhaustion state stays on
    the caller's value. *)

(** {1 Typed ops} *)

type rejection =
  | Invalid of Argus_core.Diagnostic.t list
      (** Structured input errors: a DSL parse or module-assembly
          failure, a proof step that does not check. *)
  | Unreadable of string
      (** A one-line input error (["program error: ..."], ["goal error:
          ..."], ["proof error: ..."]). *)

type 'a answer = { result : ('a, rejection) result; exit_code : int }
(** [exit_code] follows DESIGN.md §10 for every op: 1 for a
    rejection, an error diagnostic, a goal that is not derivable or a
    budget truncation; 0 otherwise. *)

val check :
  ?pool:Argus_par.Pool.t ->
  ?budget:Argus_rt.Budget.t ->
  ruleset:Argus_gsn.Wellformed.ruleset ->
  lints:bool ->
  filename:string ->
  string ->
  Argus_core.Diagnostic.t list answer
(** Well-formedness (plus the informal lints when [lints]) of a case
    file: one fused pass for a single unnamed case,
    {!Argus_ir.Fused.check_modular} (across [pool]'s domains) for a
    multi-module collection.  The report ends with the budget's
    truncation warnings. *)

val fallacies :
  ?budget:Argus_rt.Budget.t ->
  filename:string ->
  string ->
  Argus_core.Diagnostic.t list answer
(** The informal-fallacy lints over one case. *)

type proof = {
  derivation : Argus_prolog.Derivation.t option;
  warnings : Argus_core.Diagnostic.t list;  (** Budget truncation. *)
}

val prove :
  ?max_depth:int ->
  ?budget:Argus_rt.Budget.t ->
  goal:string ->
  string ->
  proof answer
(** The first derivation of [goal] over a Horn-clause program, by the
    compiled resolution engine ({!Argus_prolog.Exec}). *)

type probe = {
  premise : Argus_logic.Prop.t;
  countermodel : (string * bool) list option;
      (** A model of the other premises refuting the conclusion: the
          premise is load-bearing. *)
}

type probes = {
  theorem : Argus_logic.Prop.t;
  probes : probe list;  (** One per premise, in proof order. *)
  warnings : Argus_core.Diagnostic.t list;  (** Budget truncation. *)
}

val probe : ?budget:Argus_rt.Budget.t -> string -> probes answer
(** Checks a natural-deduction proof, then retracts each premise in
    turn (Rushby-style what-if probing). *)

(** {1 Request handlers} *)

val handle :
  Protocol.request -> budget:Argus_rt.Budget.t option -> Protocol.response
(** Runs the request's op and encodes its answer.  [Health] requests
    are answered by the server before the queue and are a
    [svc/bad-request] error here.  The store ops ([Put], [Patch],
    [Verdict]) are [svc/bad-request] too — this is the stateless
    handler; start the server with a store to serve them. *)

val with_store :
  Argus_store.Durable.t ->
  Protocol.request ->
  budget:Argus_rt.Budget.t option ->
  Protocol.response
(** The stateful handler: [Put] parses the source (one unnamed case)
    and interns it, answering its digest; [Patch] applies the edit
    batch to the addressed case, answering the new digest; [Verdict]
    answers the stored case's report (byte-identical to a [check] of
    the same source), its root confidence, and whether it came
    entirely from cache.  Unknown digests are [svc/unknown-digest],
    bad edit batches are [svc/bad-request], and a store tripped into
    read-only by a disk failure answers [svc/store-read-only] with
    the cause.  Everything else delegates to {!handle}.  The store
    serialises internally, so one store may back all workers. *)
