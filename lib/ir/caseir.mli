(** Array-backed interning of a GSN structure.

    {!Argus_gsn.Structure.t} is a persistent, edit-friendly
    representation; every traversal query scans its link list.  The
    fused checker ({!Fused}) instead runs over this flat form: an
    entity table mapping every id the structure mentions — nodes first,
    in insertion order, then dangling link endpoints in link-scan order
    — to a dense integer index, CSR-style adjacency arrays over those
    indices, and per-node caches of the text derivations the checkers
    recompute on every legacy run — all from one
    {!Argus_core.Textutil.scan} per payload.

    Dangling endpoints are first-class entities because the legacy
    traversals propagate through them: a missing node's own outgoing
    links still feed reachability and the cycle search.  An entity
    index [i] names a real node iff [i < n_nodes].

    Intern once, check many times: the structure and its texts are
    immutable, so everything here — roots, reachability, content words
    — is computed a single time and amortised over every subsequent
    {!Fused.check}.  [ir.interned] counts interning passes.

    For the incremental store (lib/store) the IR is the one live copy
    of a stored case: it carries the case's evidence table, {!apply}
    validates and applies every edit batch to it without re-interning
    ([ir.interned] does not move) — in place for a text-only batch,
    over the integer arrays for any other — and {!to_structure} builds
    the {!Argus_gsn.Structure.t} back on demand. *)

type derived = {
  d_goal_like : bool;  (** {!Argus_gsn.Node.is_goal_like}. *)
  d_norm : string;  (** Normalised content-word text. *)
  d_claim : int;
      (** The claim key: [0] unless goal-like with a non-empty
          [d_norm], else a non-zero hash of [d_norm]. *)
  d_content : string array;
      (** {!Argus_core.Textutil.content_words}, duplicates kept, sorted
          by [Hashtbl.hash] and equal hashes by [String.compare]. *)
  d_content_hash : int array;
      (** [Hashtbl.hash] of each word of [d_content], ascending. *)
  d_ignorance : bool;
      (** The [ignorance] flag of {!Argus_core.Textutil.scan}. *)
  d_universal : bool;
      (** The [universal] flag of {!Argus_core.Textutil.scan}; [false]
          unless goal-like. *)
  d_propositional : bool;
      (** {!Argus_core.Textutil.contains_symbolic_notation} or the
          [verb] flag of {!Argus_core.Textutil.scan}; [true] unless a
          [Goal]. *)
}
(** Everything the checkers derive from one node payload, independent
    of the surrounding graph — the unit of {!intern}'s derivation
    memo.  All of it comes from one
    {!Argus_core.Textutil.scan} of the text (a [Goal] with no verb
    marker is also checked for symbolic notation). *)

type t = {
  n_nodes : int;  (** Entities [0 .. n_nodes-1] are real nodes. *)
  n_entities : int;  (** Nodes plus dangling link endpoints. *)
  index : (string, int) Hashtbl.t;  (** Id string to entity index. *)
  ids : Argus_core.Id.t array;  (** Entity index to id. *)
  nodes : Argus_gsn.Node.t array;  (** Length [n_nodes], insertion order. *)
  link_kind : Argus_gsn.Structure.link array;  (** Insertion order. *)
  link_src : int array;
  link_dst : int array;
  sup_out_off : int array;  (** CSR offsets, length [n_entities + 1]. *)
  sup_out : int array;  (** SupportedBy targets, link order per entity. *)
  sup_in_off : int array;
  sup_in : int array;  (** SupportedBy sources, link order per entity. *)
  ctx_out_off : int array;
  ctx_out : int array;  (** InContextOf targets, link order per entity. *)
  roots : int list;  (** As {!Argus_gsn.Structure.roots}, node order. *)
  reachable : bool array;
      (** The well-formedness reachability: the SupportedBy closure of
          the roots plus one InContextOf hop from it. *)
  goal_like : bool array;  (** Per node: {!Argus_gsn.Node.is_goal_like}. *)
  norm : string array;  (** Per node: normalised content-word text. *)
  claim : int array;
      (** Per node: the claim key, [0] for a node that is not goal-like
          or whose [norm] is empty, else a non-zero 30-bit hash of
          [norm].  Equal norms give equal keys; distinct norms may
          collide.  It is only a prefilter for the circular-support
          walk ({!Fused}), which confirms a key match with
          [String.equal] on [norm]: no digest, memo key, log record or
          diagnostic ever contains it, so replacing the hash changes no
          output. *)
  content : string array array;
      (** Per node: its content words, duplicates kept, sorted by
          [content_hash] and equal hashes by [String.compare], so equal
          words are adjacent. *)
  content_hash : int array array;
      (** Per node: [Hashtbl.hash] of each word of [content], in the
          same (ascending) order.  Like [claim], only a prefilter: the
          equivocation scan ({!Fused}) uses the hashes to find sibling
          pairs that may share a word and to merge two rows comparing
          integers, and [String.equal] on the words decides every
          match.  No digest, memo key, log record or diagnostic ever
          contains a hash, so replacing it changes no output. *)
  ignorance : bool array;
      (** Per node: the [ignorance] flag of {!Argus_core.Textutil.scan},
          behind ["informal/argument-from-ignorance"]. *)
  universal : bool array;
      (** Per goal-like node: the [universal] flag of
          {!Argus_core.Textutil.scan} — the paper's wcet example hinges
          on a universal marker. *)
  propositional : bool array;
      (** Per [Goal] node: whether its text reads as a proposition —
          {!Argus_core.Textutil.contains_symbolic_notation} or the
          [verb] flag of {!Argus_core.Textutil.scan}; [true] for every
          other type.  GSN requires goal text to be a proposition, and
          the paper criticises generated goals like "Formal proof that
          Quat4::quat(NED, Body) holds for Fc.cpp" for not being one. *)
  evidence : Argus_core.Evidence.t array;
      (** The evidence table, as {!Argus_gsn.Structure.evidence} orders
          it.  No edit changes it. *)
  evidence_index : (string, int) Hashtbl.t;
      (** Evidence id string to its position in [evidence]. *)
}
(** Treat all fields as read-only; the checkers index them freely. *)

val derive : Argus_gsn.Node.t -> derived
(** The per-payload derivation, computed afresh. *)

val memo_capacity : int
(** How many payload derivations the derivation memo holds: [2^16]. *)

val intern : Argus_gsn.Structure.t -> t
(** Every node's text columns come from one process-wide, bounded,
    domain-safe memo of {!derive}, keyed by what {!derive} reads: the
    text, and whether the type is a [Goal] or goal-like.  Re-interning
    a payload seen before — by any caller in the process: a check, a
    store put or recovery, the modular checker — skips its text scan
    and shares the value filed earlier.  FIFO eviction at
    {!memo_capacity} entries; a miss just re-derives.  [ir.derive_hits]
    counts hits. *)

val intern_counted : Argus_gsn.Structure.t -> t * int
(** {!intern}, and how many of its nodes the memo already held. *)

val entity_index : t -> Argus_core.Id.t -> int option
(** The entity index of an id the structure mentions, if any. *)

val find_evidence : t -> Argus_core.Id.t -> Argus_core.Evidence.t option
(** As {!Argus_gsn.Structure.find_evidence} on the source. *)

val to_structure : t -> Argus_gsn.Structure.t
(** The structure the IR stands for: its {!Argus_gsn.Structure.nodes},
    [links] and [evidence] are those of the structure [intern] read, in
    order (after an {!apply}, those of the edited structure).  It reads
    only [nodes], [ids], the link arrays and [evidence], and costs a
    whole {!Argus_gsn.Structure.build}: for exports, never per edit. *)

(** {2 Graph deltas} *)

type edit =
  | Set_text of Argus_core.Id.t * string
      (** Replace a node's text, keeping its type, status, annotations,
          formal rendering and evidence citation. *)
  | Add_node of Argus_gsn.Node.t
      (** Append a node; on a node already present, replace its payload
          in place.  A dangling endpoint it names becomes a node, and
          the links to and from it stay. *)
  | Remove_node of Argus_core.Id.t
      (** Drop a node and every link touching it. *)
  | Link of Argus_gsn.Structure.link * Argus_core.Id.t * Argus_core.Id.t
      (** [Link (kind, src, dst)]: append the link unless present;
          endpoints need not exist. *)
  | Unlink of Argus_gsn.Structure.link * Argus_core.Id.t * Argus_core.Id.t
      (** Drop the link if present. *)
(** One step of an edit batch, with {!Argus_gsn.Structure}'s semantics
    for the same operation (the reference replay on the structure is
    kept with the tests, in test/oracle).  The store's wire and WAL
    edit type: its constructors, their order and their argument types
    are the Marshal layout of logged patches, so they must not
    change. *)

val apply : t -> edit list -> (t * int array option, string) result
(** [apply ir edits] validates [edits] and applies them in order to
    [ir], without a re-intern: [Ok (ir', map)] is equal field by field
    to [intern] of the edited structure ([index] by bindings), for
    every batch, dangling endpoints, cycles and re-added ids included.
    [ir.interned] does not move, and {!derive} runs only on the
    payloads the batch sets or adds — directly, not through the memo:
    an edited text is almost always new, so filing it would only grow
    the table with entries that are never hit.

    [Error msg], with [ir] untouched, when a [Set_text] or
    [Remove_node] names no node of the case as it stands at that point
    of the batch: ["set-text: no node ID"] or ["remove-node: no node
    ID"].

    A batch of [Set_text]s only (the empty batch included) is written
    in place: the nodes and text columns change, no index moves and the
    graph half (CSRs, [roots], [reachable]) is unchanged, and [map] is
    [None].  Any other batch rebuilds the link arrays, the CSRs,
    [roots] and [reachable] over the integers and carries every other
    node's text columns over; [map] maps each old entity index
    [i < ir.n_entities] to its new one, [-1] for a removed node or a
    dangling endpoint no link names any more.  A surviving node only
    moves down ([map.(i) <= i] for [i < ir.n_nodes]), and a node the
    batch removes and adds back counts as removed.

    On [Ok _], [ir]'s arrays and entity table have been reused and
    [ir] must not be used afterwards — except its [roots] and
    [reachable], which the result never overwrites. *)

val has_cycle : t -> Argus_core.Id.t list option
(** A SupportedBy cycle as a witness id list, if any: DFS from each
    node in insertion order, children in link order, so the witness is
    the one the tree-walking oracle in test/oracle finds — in time
    linear in the entities and SupportedBy links. *)
