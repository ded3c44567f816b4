(** Incremental assurance-case store.

    Content-addressed, in-memory, domain-safe.  A case is [put] once
    and addressed by its digest; every [patch] applies an edit batch
    and returns the new digest; [verdict] reassembles the cached
    per-node findings into a result byte-identical to a full
    {!Argus_ir.Fused.check} of the same structure.

    An edit of one node in a 100k-node case re-checks only its
    findings cone — the nodes whose findings read what the edit
    changed, as {!Argus_ir.Fused.node_findings} documents their inputs
    ([store.dirty_cone] counts the nodes whose findings were computed)
    — instead of the whole case.  Two layers of reuse keep the rest of
    the work near-constant:

    - the process-wide derivation memo of {!Argus_ir.Caseir.intern},
      so a [put] skips the text analysis of every payload seen before,
      by a [check] of the same case too ([store.node_hits]);
    - {e per-node digest terms} — each node's term covers its payload
      and the ids of its SupportedBy and InContextOf targets, folded
      into an order-independent 128-bit sum, so an edit recomputes
      only the terms of the nodes whose payload or out-links it
      changed, on any graph, cyclic or not.

    The assembled verdict is cached until the next patch
    ([store.reused_verdicts] counts the verdicts answered from it).

    All operations are serialised by an internal mutex; the store may
    be shared freely across domains.  The gauge [store.nodes] tracks
    live nodes across cases. *)

type t
(** A store: cases keyed by digest. *)

type edit = Argus_ir.Caseir.edit =
  | Set_text of Argus_core.Id.t * string
      (** Replace a node's text, keeping type, status, annotations,
          formal rendering and evidence citation.  The incremental
          fast path: an all-[Set_text] batch re-checks only the dirty
          cone. *)
  | Add_node of Argus_gsn.Node.t
  | Remove_node of Argus_core.Id.t
  | Link of Argus_gsn.Structure.link * Argus_core.Id.t * Argus_core.Id.t
      (** [Link (kind, src, dst)]. *)
  | Unlink of Argus_gsn.Structure.link * Argus_core.Id.t * Argus_core.Id.t
(** The one edit type, {!Argus_ir.Caseir.edit} re-exported: the wire
    protocol decodes into it and WAL [Patch] records log it. *)
type error =
  | Unknown_digest of string  (** No case under that digest. *)
  | Bad_edit of string  (** The batch references a node that is not there. *)

val error_message : error -> string

type verdict = {
  vdigest : string;  (** The digest the verdict is for. *)
  result : Argus_ir.Fused.result;
      (** Byte-identical to [Fused.check] of the same structure. *)
  confidence : float;
      (** Root confidence under {!default_trust}, bit-identical to
          {!Argus_confidence.Confidence.root_confidence}; memoized
          across text edits (confidence never reads node text). *)
  from_memo : bool;
      (** The fully-assembled verdict was already cached — no
          assembly ran at all. *)
}

val default_trust : Argus_core.Evidence.t -> float
(** Uniform 0.9, the experiments' baseline trust. *)

val create : unit -> t
(** An empty store. *)

val put :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  t ->
  Argus_gsn.Structure.t ->
  string
(** Intern a case and return its digest.  Structurally equal cases
    digest equal regardless of insertion order; re-putting an existing
    digest replaces its state (the last [?ruleset] wins). *)

val put_with_undo :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  t ->
  Argus_gsn.Structure.t ->
  string * (unit -> unit)
(** {!put}, plus an undo that restores the binding the put replaced:
    the previous state of an equal case, ruleset included, or no
    binding at all.  Valid until the next operation on
    that digest; {!Durable} uses it to roll back a put whose WAL
    append failed. *)

val patch : t -> digest:string -> edit list -> (string, error) result
(** Apply an edit batch to the case at [digest]; the case is re-bound
    under the returned new digest (the old digest is released).  A
    failed batch leaves the store untouched.  Every batch takes one
    path: {!Argus_ir.Caseir.apply} validates it and applies it to the
    interned case in one pass — links to ids no node has and re-sent
    nodes included — and the store re-checks only its cone, with no
    re-intern: an all-[Set_text] batch is written in place and keeps
    the root confidence.  A batch that makes the case gain or lose its
    last root re-checks every node's findings, since each reads that
    bit.  The digest and verdict are those a fresh {!put} of the
    edited structure gives. *)

val patch_with_undo :
  t -> digest:string -> edit list -> (string * (unit -> unit), error) result
(** {!patch}, plus an undo that re-binds the case under [digest] as it
    was, and restores any case the new digest displaced.  Valid until
    the next operation on either digest; {!Durable} uses it to roll
    back a patch whose WAL append failed.  An all-[Set_text] batch is
    undone by the inverse text batch (each node it names set back to
    its old text), in O(batch).  Any other batch copies the case's
    node, id and link arrays before it runs, and the undo re-puts the
    structure built from them. *)

val verdict : t -> digest:string -> (verdict, error) result
(** The full diagnostic report and root confidence of the case at
    [digest], assembled from cached per-node findings. *)

val digest_of : Argus_gsn.Structure.t -> string
(** The digest [put] would assign, without storing anything. *)

val mem : t -> string -> bool

val case : t -> string -> Argus_gsn.Structure.t option
(** The case at a digest, built by {!Argus_ir.Caseir.to_structure}. *)

val size : t -> int

val remove : t -> string -> unit
(** Drop the case bound at a digest (a no-op when absent).  Arena
    entries it contributed stay cached until evicted — eviction never
    changes results.  {!Durable} uses this to roll back an
    operation whose WAL append failed. *)

val digests : t -> string list
(** Every live digest, sorted. *)

val cases :
  t -> (string * Argus_gsn.Wellformed.ruleset * Argus_gsn.Structure.t) list
(** Every live case as [(digest, ruleset, structure)], sorted by
    digest — the deterministic enumeration snapshots serialise.  Each
    structure is built by {!Argus_ir.Caseir.to_structure}. *)
