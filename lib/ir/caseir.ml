(* Array-backed interning of a GSN structure.

   [Structure.t] is built for functional editing: nodes in an [Id.Map],
   links and orderings as lists, every child/parent query a full scan of
   the link list.  The checkers do thousands of such queries per case,
   so checking a case repeatedly (a service, the bench loops, the
   experiment sweeps) pays the scan cost every time.  Interning flattens
   the structure once into integer-indexed arrays — an entity table and
   CSR-style adjacency — after which every traversal the checkers need
   is an index walk.

   The entity table is the subtle part.  Link endpoints need not name
   existing nodes (the structure is deliberately permissive; the checker
   reports dangling endpoints), and the legacy traversals propagate
   {e through} missing ids: [Structure.supported_subtree] and the oracle's
   cycle search ([Legacy_wellformed.has_cycle]) recurse into a dangling
   endpoint's own outgoing links.  So the table interns every id the
   structure mentions — the nodes first, in insertion order, then the
   dangling link endpoints in link-scan order — and the adjacency covers
   all of them.  An entity index [i] names a real node iff [i < n_nodes].

   Interning also caches the per-node text derivations the checkers
   recompute on every run, all from one [Textutil.scan] of the text:
   the content words (as a row sorted by word hash, with the hashes in
   a parallel column, for the equivocation scan), the normalised claim
   text and its integer claim key, the ignorance/universal/propositional
   predicates; the graph shape and the texts are immutable once
   interned, so these are plain arrays.  [ir.interned] counts interning passes.

   Every [intern] derives through one process-wide memo, so interning
   a payload seen before skips the text scan.

   The incremental store (lib/store) keeps a case as its IR alone, so
   the IR also carries the evidence table and [to_structure] builds
   the structure back on demand.  And [apply] validates and applies any edit
   batch (set-text, add, remove, link, unlink) to an existing IR.
   A batch that only sets texts writes the node and text arrays in
   place and leaves the graph half alone, so a one-node text edit
   costs one derivation.  Any other batch rebuilds the link arrays,
   the CSRs, roots and reachability over the integers, numbers the
   dangling endpoints in one scan of the new links, compacts the
   per-node arrays through an old-to-new index map, and derives text
   only for the payloads the batch sets or adds — the same IR a fresh
   [intern] would build, without one.  The reference semantics it
   follows is a replay of the batch on the structure, kept with the
   tests (test/oracle). *)

module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Textutil = Argus_core.Textutil
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure

type derived = {
  d_goal_like : bool;
  d_norm : string;
  d_claim : int;
  d_content : string array;
  d_content_hash : int array;
  d_ignorance : bool;
  d_universal : bool;
  d_propositional : bool;
}

type t = {
  n_nodes : int;  (** Entities [0 .. n_nodes-1] are real nodes. *)
  n_entities : int;  (** Nodes plus dangling link endpoints. *)
  index : (string, int) Hashtbl.t;  (** Id string to entity index. *)
  ids : Id.t array;  (** Entity index to id; length [n_entities]. *)
  nodes : Node.t array;  (** Length [n_nodes], insertion order. *)
  link_kind : Structure.link array;  (** Links in insertion order. *)
  link_src : int array;
  link_dst : int array;
  sup_out_off : int array;  (** CSR offsets, length [n_entities + 1]. *)
  sup_out : int array;  (** SupportedBy targets, link order per entity. *)
  sup_in_off : int array;
  sup_in : int array;  (** SupportedBy sources, link order per entity. *)
  ctx_out_off : int array;
  ctx_out : int array;  (** InContextOf targets, link order per entity. *)
  roots : int list;  (** Unsupported non-contextual nodes, node order. *)
  reachable : bool array;
      (** Entity reachable from some root over SupportedBy, or in the
          context of such an entity — the well-formedness reachability. *)
  goal_like : bool array;  (** Per node: {!Node.is_goal_like}. *)
  norm : string array;  (** Per node: normalised content-word text. *)
  claim : int array;  (** Per node: the claim key of its norm. *)
  content : string array array;
      (** Per node: its content words, sorted by [content_hash]. *)
  content_hash : int array array;
      (** Per node: [Hashtbl.hash] of each word of [content], ascending. *)
  ignorance : bool array;
      (** Per node: the [ignorance] flag of {!Textutil.scan}. *)
  universal : bool array;
      (** Per goal-like node: the [universal] flag of {!Textutil.scan}. *)
  propositional : bool array;
      (** Per [Goal] node: symbolic notation or the [verb] flag of
          {!Textutil.scan}. *)
  evidence : Evidence.t array;  (** The evidence table, in table order. *)
  evidence_index : (string, int) Hashtbl.t;  (** Evidence id to position. *)
}

let c_interned = Argus_obs.Counter.make "ir.interned"

(* The content words as the equivocation scan reads them: sorted by
   [Hashtbl.hash], equal hashes by [String.compare], so equal words sit
   side by side, with the hashes in a parallel array.  The scan merges
   two such rows comparing integers and reads a string only on a hash
   tie.  [Hashtbl.hash] reads every byte of a string and is the same
   in every process.  [Array.stable_sort]: on a row of a handful of
   words its merge sort is an insertion sort, ~1.6x faster than the
   heap sort of [Array.sort]. *)
let content_row words =
  let pairs = Array.of_list (List.map (fun w -> (Hashtbl.hash w, w)) words) in
  Array.stable_sort
    (fun (h, w) (h', w') ->
      if h <> h' then Int.compare h h' else String.compare w w')
    pairs;
  (Array.map snd pairs, Array.map fst pairs)

(* Everything the checkers derive from one node payload, independent of
   the surrounding graph — the unit of the derivation memo below, whose
   key must grow with anything more of the payload this comes to read.
   One {!Textutil.scan} of the text feeds every column: the
   content words (and from them the norm, the claim key and the hashed
   row), the universal and verb-marker flags, and the ignorance flag;
   only a goal with no verb marker is scanned again, for symbolic
   notation. *)
let derive (n : Node.t) =
  let text = n.Node.text in
  let sc = Textutil.scan text in
  let gl = Node.is_goal_like n.Node.node_type in
  let norm = String.concat " " sc.Textutil.content in
  let content, content_hash = content_row sc.Textutil.content in
  {
    d_goal_like = gl;
    d_norm = norm;
    (* The claim key, the circular-support walk's prefilter: it
       compares these ints and reads the norm strings only when two
       match.  [1 +] keeps [0] for "no claim". *)
    d_claim = (if gl && norm <> "" then 1 + Hashtbl.hash norm else 0);
    d_content = content;
    d_content_hash = content_hash;
    d_ignorance = sc.Textutil.ignorance;
    d_universal = gl && sc.Textutil.universal;
    d_propositional =
      n.Node.node_type <> Node.Goal
      || sc.Textutil.verb
      || Textutil.contains_symbolic_notation text;
  }

(* [reuse old len x]: the array [old] itself when it already has length
   [len] — an array of an IR that [apply] is consuming, overwritten in
   place — else a fresh one filled with [x].  A reused array keeps its
   old contents, so every caller overwrites every cell.  On a large
   live heap the major GC is paced by the words allocated, so a
   case-sized array costs far more to allocate than to fill: an edit
   that keeps the node and link counts allocates next to nothing. *)
let reuse old len x =
  match old with
  | Some a when Array.length a = len -> a
  | _ -> Array.make len x

(* The integer half of an IR: the three CSRs, roots and reachability,
   all functions of the link arrays and of which nodes are contextual.
   [intern] and [apply] both build it here, so a delta IR and a fresh
   intern cannot disagree on it.  [?into] lends the arrays of a
   consumed IR, all but [reachable]: that one is always fresh, so a
   caller of [apply] can still compare the old reachability bits with
   the new. *)
type graph = {
  g_sup_out_off : int array;
  g_sup_out : int array;
  g_sup_in_off : int array;
  g_sup_in : int array;
  g_ctx_out_off : int array;
  g_ctx_out : int array;
  g_roots : int list;
  g_reachable : bool array;
}

let graph ?into ~n_nodes ~n_entities ~contextual link_kind link_src link_dst =
  let n_links = Array.length link_kind in
  let old field = Option.map field into in
  let offsets field =
    let off = reuse (old field) (n_entities + 1) 0 in
    Array.fill off 0 (n_entities + 1) 0;
    off
  in
  let so = offsets (fun ir -> ir.sup_out_off) in
  let si = offsets (fun ir -> ir.sup_in_off) in
  let co = offsets (fun ir -> ir.ctx_out_off) in
  (* CSR adjacency, all three at once: count each entity's links into
     its successor's offset, prefix-sum, fill in link order advancing
     each entity's offset — which leaves it at its successor's start —
     then shift the offsets back by one entity. *)
  for k = 0 to n_links - 1 do
    let s = link_src.(k) + 1 and d = link_dst.(k) + 1 in
    match link_kind.(k) with
    | Structure.Supported_by ->
        so.(s) <- so.(s) + 1;
        si.(d) <- si.(d) + 1
    | Structure.In_context_of -> co.(s) <- co.(s) + 1
  done;
  for i = 0 to n_entities - 1 do
    so.(i + 1) <- so.(i + 1) + so.(i);
    si.(i + 1) <- si.(i + 1) + si.(i);
    co.(i + 1) <- co.(i + 1) + co.(i)
  done;
  let sup_out = reuse (old (fun ir -> ir.sup_out)) so.(n_entities) 0 in
  let sup_in = reuse (old (fun ir -> ir.sup_in)) si.(n_entities) 0 in
  let ctx_out = reuse (old (fun ir -> ir.ctx_out)) co.(n_entities) 0 in
  for k = 0 to n_links - 1 do
    let s = link_src.(k) and d = link_dst.(k) in
    match link_kind.(k) with
    | Structure.Supported_by ->
        sup_out.(so.(s)) <- d;
        so.(s) <- so.(s) + 1;
        sup_in.(si.(d)) <- s;
        si.(d) <- si.(d) + 1
    | Structure.In_context_of ->
        ctx_out.(co.(s)) <- d;
        co.(s) <- co.(s) + 1
  done;
  for i = n_entities downto 1 do
    so.(i) <- so.(i - 1);
    si.(i) <- si.(i - 1);
    co.(i) <- co.(i - 1)
  done;
  so.(0) <- 0;
  si.(0) <- 0;
  co.(0) <- 0;
  (* Roots: no incoming SupportedBy, non-contextual type — node order. *)
  let roots = ref [] in
  for i = n_nodes - 1 downto 0 do
    if si.(i + 1) = si.(i) && not (contextual i) then roots := i :: !roots
  done;
  let roots = !roots in
  (* Reachability: SupportedBy closure of the roots, plus the contexts
     of every entity in it (one hop, as the legacy checker unions
     [context_of] over subtree members). *)
  let supported = Bytes.make (max 1 n_entities) '\000' in
  let rec mark i =
    if Bytes.get supported i = '\000' then begin
      Bytes.set supported i '\001';
      for k = so.(i) to so.(i + 1) - 1 do
        mark sup_out.(k)
      done
    end
  in
  List.iter mark roots;
  let reachable =
    Array.init (max 1 n_entities) (fun i -> Bytes.get supported i = '\001')
  in
  for i = 0 to n_entities - 1 do
    if Bytes.get supported i = '\001' then
      for k = co.(i) to co.(i + 1) - 1 do
        reachable.(ctx_out.(k)) <- true
      done
  done;
  {
    g_sup_out_off = so;
    g_sup_out = sup_out;
    g_sup_in_off = si;
    g_sup_in = sup_in;
    g_ctx_out_off = co;
    g_ctx_out = ctx_out;
    g_roots = roots;
    g_reachable = reachable;
  }

(* The per-node text columns, one [derived] per node. *)
type columns = {
  c_goal_like : bool array;
  c_norm : string array;
  c_claim : int array;
  c_content : string array array;
  c_content_hash : int array array;
  c_ignorance : bool array;
  c_universal : bool array;
  c_propositional : bool array;
}

let set_columns c i d =
  c.c_goal_like.(i) <- d.d_goal_like;
  c.c_norm.(i) <- d.d_norm;
  c.c_claim.(i) <- d.d_claim;
  c.c_content.(i) <- d.d_content;
  c.c_content_hash.(i) <- d.d_content_hash;
  c.c_ignorance.(i) <- d.d_ignorance;
  c.c_universal.(i) <- d.d_universal;
  c.c_propositional.(i) <- d.d_propositional

(* What an empty case holds in its one column cell. *)
let blank =
  {
    d_goal_like = false;
    d_norm = "";
    d_claim = 0;
    d_content = [||];
    d_content_hash = [||];
    d_ignorance = false;
    d_universal = false;
    d_propositional = true;
  }

(* Columns for [n] nodes, one [derived i] per node. *)
let columns n derived =
  let c =
    {
      c_goal_like = Array.make (max 1 n) blank.d_goal_like;
      c_norm = Array.make (max 1 n) blank.d_norm;
      c_claim = Array.make (max 1 n) blank.d_claim;
      c_content = Array.make (max 1 n) blank.d_content;
      c_content_hash = Array.make (max 1 n) blank.d_content_hash;
      c_ignorance = Array.make (max 1 n) blank.d_ignorance;
      c_universal = Array.make (max 1 n) blank.d_universal;
      c_propositional = Array.make (max 1 n) blank.d_propositional;
    }
  in
  for i = 0 to n - 1 do
    set_columns c i (derived i)
  done;
  c

(* An IR from its entity table, nodes, link arrays and text columns;
   the graph half is built from the links. *)
let make ?into ~evidence ~evidence_index ~index ~ids ~nodes ~n_entities
    ~columns:c link_kind link_src link_dst =
  let n_nodes = Array.length nodes in
  let g =
    graph ?into ~n_nodes ~n_entities
      ~contextual:(fun i -> Node.is_contextual nodes.(i).Node.node_type)
      link_kind link_src link_dst
  in
  {
    n_nodes;
    n_entities;
    index;
    ids;
    nodes;
    link_kind;
    link_src;
    link_dst;
    sup_out_off = g.g_sup_out_off;
    sup_out = g.g_sup_out;
    sup_in_off = g.g_sup_in_off;
    sup_in = g.g_sup_in;
    ctx_out_off = g.g_ctx_out_off;
    ctx_out = g.g_ctx_out;
    roots = g.g_roots;
    reachable = g.g_reachable;
    goal_like = c.c_goal_like;
    norm = c.c_norm;
    claim = c.c_claim;
    content = c.c_content;
    content_hash = c.c_content_hash;
    ignorance = c.c_ignorance;
    universal = c.c_universal;
    propositional = c.c_propositional;
    evidence;
    evidence_index;
  }

(* --- the derivation memo --- *)

(* The one process-wide, bounded, domain-safe memo of [derive], through
   which every [intern] derives: a payload interned before — by a
   check, a store put or recovery, a modular check's per-module pass —
   skips the text scan.  The key is what [derive] reads: the text and
   the type's class (a [Goal], another goal-like type, any other),
   hashed and compared where it lies — ~70-100 ns a locked lookup,
   against ~300 ns for an MD5 of the same fields and ~1.4-2.5 us for
   the derive a hit saves (1000-node generated case).  FIFO eviction,
   and evicting never changes a result: a miss just re-derives,
   outside the lock. *)
let memo_capacity = 1 lsl 16

module Memo = Hashtbl.Make (struct
  type t = int * string

  let equal ((k : int), s) (k', s') = k = k' && String.equal s s'
  let hash ((k : int), s) = Hashtbl.hash s + k
end)

let memo : derived Memo.t = Memo.create 4096
let memo_fifo = Queue.create ()
let memo_mu = Mutex.create ()
let c_derive_hits = Argus_obs.Counter.make "ir.derive_hits"

let memo_derive hits (n : Node.t) =
  let key =
    ( (match n.Node.node_type with
      | Node.Goal -> 0
      | t -> if Node.is_goal_like t then 1 else 2),
      n.Node.text )
  in
  match Mutex.protect memo_mu (fun () -> Memo.find_opt memo key) with
  | Some d ->
      incr hits;
      d
  | None ->
      let d = derive n in
      Mutex.protect memo_mu (fun () ->
          if not (Memo.mem memo key) then begin
            Memo.add memo key d;
            Queue.add key memo_fifo;
            if Queue.length memo_fifo > memo_capacity then
              Memo.remove memo (Queue.pop memo_fifo)
          end);
      d

let intern_counted structure =
  Argus_obs.Counter.incr c_interned;
  let hits = ref 0 in
  let nodes = Array.of_list (Structure.nodes structure) in
  let n_nodes = Array.length nodes in
  let links = Array.of_list (Structure.links structure) in
  let n_links = Array.length links in
  (* Entity table: nodes first, then dangling endpoints as met. *)
  let index = Hashtbl.create (2 * (n_nodes + 1)) in
  Array.iteri
    (fun i n -> Hashtbl.replace index (Id.to_string n.Node.id) i)
    nodes;
  let extra = ref [] in
  let next = ref n_nodes in
  let entity id =
    let key = Id.to_string id in
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add index key i;
        extra := id :: !extra;
        i
  in
  let link_kind = Array.make n_links Structure.Supported_by in
  let link_src = Array.make n_links 0 in
  let link_dst = Array.make n_links 0 in
  Array.iteri
    (fun k (kind, src, dst) ->
      link_kind.(k) <- kind;
      link_src.(k) <- entity src;
      link_dst.(k) <- entity dst)
    links;
  let n_entities = !next in
  let ids = Array.make (max 1 n_entities) (Id.of_string "x") in
  Array.iteri (fun i n -> ids.(i) <- n.Node.id) nodes;
  List.iteri (fun j id -> ids.(n_entities - 1 - j) <- id) !extra;
  let evidence = Array.of_list (Structure.evidence structure) in
  let evidence_index = Hashtbl.create (Array.length evidence) in
  Array.iteri
    (fun k ev -> Hashtbl.replace evidence_index (Id.to_string ev.Evidence.id) k)
    evidence;
  let columns = columns n_nodes (fun i -> memo_derive hits nodes.(i)) in
  Argus_obs.Counter.add c_derive_hits !hits;
  ( make ~evidence ~evidence_index ~index ~ids ~nodes ~n_entities ~columns
      link_kind link_src link_dst,
    !hits )

let intern structure = fst (intern_counted structure)

let entity_index ir id = Hashtbl.find_opt ir.index (Id.to_string id)

let find_evidence ir id =
  Option.map
    (fun k -> ir.evidence.(k))
    (Hashtbl.find_opt ir.evidence_index (Id.to_string id))

let to_structure ir =
  Structure.build
    ~links:
      (List.init (Array.length ir.link_kind) (fun k ->
           (ir.link_kind.(k), ir.ids.(ir.link_src.(k)), ir.ids.(ir.link_dst.(k)))))
    ~evidence:(Array.to_list ir.evidence) (Array.to_list ir.nodes)

(* --- graph deltas --- *)

type edit =
  | Set_text of Id.t * string
  | Add_node of Node.t
  | Remove_node of Id.t
  | Link of Structure.link * Id.t * Id.t
  | Unlink of Structure.link * Id.t * Id.t

exception Bad of string

type extra_link = {
  kind : Structure.link;
  src : int;
  dst : int;
  mutable live : bool;
}

(* A [Set_text] or [Remove_node] names a node of the case, as it stands
   at that point of the batch, or the whole batch is refused. *)
let bad what id =
  raise_notrace (Bad (Printf.sprintf "%s: no node %s" what (Id.to_string id)))

(* Replay a shape batch on the integer arrays.  The working entities
   are the old entity indices, then from [e0] on one per id the case
   does not name (or names as a node the batch removed): an added node
   or a new link endpoint.  An [Add_node] on a node replaces its
   payload in place; on any other id it appends a node, and a dangling
   endpoint it promotes keeps its links.  Links are an old-link
   liveness mask plus the appended links, which is exactly
   [Structure.connect]'s append and [disconnect]'s filter.

   At the end the entities are numbered the way [intern] numbers them:
   surviving old nodes in order, then the appended nodes in the order
   of their last append, then the dangling endpoints as one scan of the
   final link arrays first meets them, source before target.  The
   node-indexed arrays are compacted (in place when the node count is
   unchanged, untouched when no node came or went) and the graph half
   is rebuilt from the new link arrays.  A [Bad] edit raises before
   anything is written. *)
let reshape ir edits =
  let n0 = ir.n_nodes and e0 = ir.n_entities in
  let m0 = Array.length ir.link_kind in
  let dead = Bytes.make (max 1 n0) '\000' in
  let old_live = Bytes.make (max 1 m0) '\001' in
  (* Working entity to its new payload: set nodes and appended ones. *)
  let payload = Hashtbl.create 8 in
  (* Appended node to the step of its last append. *)
  let appended = Hashtbl.create 8 in
  (* The ids of the working entities from [e0] on, both ways. *)
  let fresh = Hashtbl.create 8 in
  let fresh_ids = Hashtbl.create 8 in
  let next = ref e0 in
  let extra = ref [] in
  let is_node w =
    (w < n0 && Bytes.get dead w = '\000') || Hashtbl.mem appended w
  in
  let find id =
    let key = Id.to_string id in
    match Hashtbl.find_opt fresh key with
    | Some _ as w -> w
    | None -> (
        match Hashtbl.find_opt ir.index key with
        | Some i when i >= n0 || Bytes.get dead i = '\000' -> Some i
        | _ -> None)
  in
  let entity id =
    match find id with
    | Some w -> w
    | None ->
        let w = !next in
        incr next;
        Hashtbl.replace fresh (Id.to_string id) w;
        Hashtbl.replace fresh_ids w id;
        w
  in
  let node what id =
    match find id with Some w when is_node w -> w | _ -> bad what id
  in
  (* The incident old links of each old entity the batch names in a
     link, unlink or removal, as link positions: built by one O(m)
     scan on the first such edit, so each of them reads only its
     endpoints' rows. *)
  let incident =
    lazy
      (let named = Bytes.make (max 1 e0) '\000' in
       let mark id =
         Option.iter
           (fun i -> Bytes.set named i '\001')
           (Hashtbl.find_opt ir.index (Id.to_string id))
       in
       List.iter
         (function
           | Link (_, s, d) | Unlink (_, s, d) ->
               mark s;
               mark d
           | Remove_node id -> mark id
           | Set_text _ | Add_node _ -> ())
         edits;
       let rows = Hashtbl.create 16 in
       let add w k =
         if Bytes.get named w = '\001' then
           Hashtbl.replace rows w
             (k :: Option.value ~default:[] (Hashtbl.find_opt rows w))
       in
       for k = m0 - 1 downto 0 do
         let s = ir.link_src.(k) and d = ir.link_dst.(k) in
         add s k;
         if d <> s then add d k
       done;
       rows)
  in
  let incident_links w =
    Option.value ~default:[] (Hashtbl.find_opt (Lazy.force incident) w)
  in
  (* The live old link [kind s -> d], or [-1]; then the appended one. *)
  let old_link kind s d =
    if s >= e0 || d >= e0 then -1
    else
      match
        List.find_opt
          (fun k ->
            Bytes.get old_live k = '\001'
            && ir.link_src.(k) = s
            && ir.link_dst.(k) = d
            && ir.link_kind.(k) = kind)
          (incident_links s)
      with
      | Some k -> k
      | None -> -1
  in
  let extra_link kind s d =
    List.find_opt
      (fun l -> l.live && l.kind = kind && l.src = s && l.dst = d)
      !extra
  in
  let step at = function
    | Set_text (id, text) ->
        let w = node "set-text" id in
        let n =
          match Hashtbl.find_opt payload w with
          | Some n -> n
          | None -> ir.nodes.(w)
        in
        Hashtbl.replace payload w { n with Node.text }
    | Add_node n ->
        let w = entity n.Node.id in
        if not (is_node w) then Hashtbl.replace appended w at;
        Hashtbl.replace payload w n
    | Remove_node id ->
        let w = node "remove-node" id in
        if w < n0 then Bytes.set dead w '\001' else Hashtbl.remove appended w;
        Hashtbl.remove payload w;
        if w < e0 then
          List.iter (fun k -> Bytes.set old_live k '\000') (incident_links w);
        List.iter
          (fun l -> if l.src = w || l.dst = w then l.live <- false)
          !extra
    | Link (kind, src, dst) ->
        let s = entity src and d = entity dst in
        if old_link kind s d < 0 && extra_link kind s d = None then
          extra := { kind; src = s; dst = d; live = true } :: !extra
    | Unlink (kind, src, dst) -> (
        match (find src, find dst) with
        | Some s, Some d ->
            let k = old_link kind s d in
            if k >= 0 then Bytes.set old_live k '\000'
            else Option.iter (fun l -> l.live <- false) (extra_link kind s d)
        | _ -> ())
  in
  List.iteri step edits;
  (* Number the nodes: surviving old ones, then the appended ones. *)
  let num = Array.make (max 1 !next) (-1) in
  let kept = ref 0 in
  for i = 0 to n0 - 1 do
    if Bytes.get dead i = '\000' then begin
      num.(i) <- !kept;
      incr kept
    end
  done;
  let kept = !kept in
  let fresh_nodes =
    Hashtbl.fold (fun w k acc -> (k, w) :: acc) appended []
    |> List.sort compare |> List.map snd
  in
  List.iteri (fun k w -> num.(w) <- kept + k) fresh_nodes;
  let n = kept + List.length fresh_nodes in
  (* Node-indexed arrays compact downwards (new index <= old): in
     place when the length holds, ascending, so every cell is read
     before it is overwritten; untouched when no node came or went.
     The cells of appended nodes and of set payloads are then written
     from the payloads. *)
  let identity = kept = n0 && fresh_nodes = [] in
  let compact old x =
    if identity then old
    else begin
      let a = reuse (Some old) (max 1 n) x in
      for i = 0 to n0 - 1 do
        if num.(i) >= 0 then a.(num.(i)) <- old.(i)
      done;
      a
    end
  in
  let nodes =
    if identity then ir.nodes
    else if n = 0 then [||]
    else begin
      let a =
        if n = n0 then ir.nodes
        else
          Array.make n
            (if n0 > 0 then ir.nodes.(0)
             else Hashtbl.find payload (List.hd fresh_nodes))
      in
      for i = 0 to n0 - 1 do
        if num.(i) >= 0 then a.(num.(i)) <- ir.nodes.(i)
      done;
      a
    end
  in
  let c =
    {
      c_goal_like = compact ir.goal_like false;
      c_norm = compact ir.norm "";
      c_claim = compact ir.claim 0;
      c_content = compact ir.content [||];
      c_content_hash = compact ir.content_hash [||];
      c_ignorance = compact ir.ignorance false;
      c_universal = compact ir.universal false;
      c_propositional = compact ir.propositional true;
    }
  in
  if n = 0 then set_columns c 0 blank;
  Hashtbl.iter
    (fun w nd ->
      nodes.(num.(w)) <- nd;
      set_columns c num.(w) (derive nd))
    payload;
  (* Links: live old links in order, then live appended ones.  Writing
     them is the one scan that numbers the dangling endpoints as first
     met, source before target; their ids are collected before [ids],
     which may reuse [ir.ids], is rewritten. *)
  let appended_links = List.rev (List.filter (fun l -> l.live) !extra) in
  let m = ref (List.length appended_links) in
  for k = 0 to m0 - 1 do
    if Bytes.get old_live k = '\001' then incr m
  done;
  let m = !m in
  let link_kind = reuse (Some ir.link_kind) m Structure.Supported_by in
  let link_src = reuse (Some ir.link_src) m 0 in
  let link_dst = reuse (Some ir.link_dst) m 0 in
  let n_entities = ref n and dangling = ref [] in
  let number w =
    let j = num.(w) in
    if j >= 0 then j
    else begin
      let j = !n_entities in
      num.(w) <- j;
      n_entities := j + 1;
      dangling :=
        (if w < e0 then ir.ids.(w) else Hashtbl.find fresh_ids w) :: !dangling;
      j
    end
  in
  let k' = ref 0 in
  let push kind s d =
    link_kind.(!k') <- kind;
    link_src.(!k') <- number s;
    link_dst.(!k') <- number d;
    incr k'
  in
  for k = 0 to m0 - 1 do
    if Bytes.get old_live k = '\001' then
      push ir.link_kind.(k) ir.link_src.(k) ir.link_dst.(k)
  done;
  List.iter (fun l -> push l.kind l.src l.dst) appended_links;
  let n_entities = !n_entities in
  (* The entity table is updated in place, only where an index moved
     or an id came or went. *)
  let index = ir.index in
  for i = 0 to e0 - 1 do
    let j = num.(i) in
    if j <> i then
      let key = Id.to_string ir.ids.(i) in
      if j < 0 then Hashtbl.remove index key else Hashtbl.replace index key j
  done;
  Hashtbl.iter
    (fun w id ->
      if num.(w) >= 0 then Hashtbl.replace index (Id.to_string id) num.(w))
    fresh_ids;
  let ids = reuse (Some ir.ids) (max 1 n_entities) (Id.of_string "x") in
  if (not identity) || ids != ir.ids then
    for j = 0 to n - 1 do
      ids.(j) <- nodes.(j).Node.id
    done;
  List.iteri (fun k id -> ids.(n_entities - 1 - k) <- id) !dangling;
  if n_entities = 0 then ids.(0) <- Id.of_string "x";
  ( make ~into:ir ~evidence:ir.evidence ~evidence_index:ir.evidence_index
      ~index ~ids ~nodes ~n_entities ~columns:c link_kind link_src link_dst,
    Some num )

(* A batch of [Set_text]s keeps every node's type, so it moves no
   index and leaves the graph as it is: once every id is found to name
   a node, the nodes and text columns are written in place.  Every
   other batch is [reshape]d. *)
let apply ir edits =
  let rec texts acc = function
    | [] -> Some (List.rev acc)
    | Set_text (id, text) :: rest -> texts ((id, text) :: acc) rest
    | _ -> None
  in
  match
    match texts [] edits with
    | None -> reshape ir edits
    | Some sets ->
        let sets =
          List.map
            (fun (id, text) ->
              match entity_index ir id with
              | Some i when i < ir.n_nodes -> (i, text)
              | _ -> bad "set-text" id)
            sets
        in
        let c =
          {
            c_goal_like = ir.goal_like;
            c_norm = ir.norm;
            c_claim = ir.claim;
            c_content = ir.content;
            c_content_hash = ir.content_hash;
            c_ignorance = ir.ignorance;
            c_universal = ir.universal;
            c_propositional = ir.propositional;
          }
        in
        List.iter
          (fun (i, text) ->
            let n = { (ir.nodes.(i)) with Node.text } in
            ir.nodes.(i) <- n;
            set_columns c i (derive n))
          sets;
        (ir, None)
  with
  | delta -> Ok delta
  | exception Bad msg -> Error msg

(* The cycle search over entity indices: DFS from each node entity in
   insertion order, children in link order, the recursion stack as the
   path.  The witness (first back edge in this exact order) must match the
   tree-walking oracle's ([Legacy_wellformed.has_cycle]), because it lands
   in a diagnostic's subject list.  An entity whose DFS returned [None]
   has no cycle reachable from it, so a later visit could only return
   [None] again: it is cleared at once, not only when it was an entry
   point, and the search stays linear.  A bitmap answers "on the path". *)
let has_cycle ir =
  let cleared = Bytes.make (max 1 ir.n_entities) '\000' in
  let on_path = Bytes.make (max 1 ir.n_entities) '\000' in
  let rec visit path i =
    if Bytes.get on_path i = '\001' then Some (List.rev (i :: path))
    else if Bytes.get cleared i = '\001' then None
    else begin
      Bytes.set on_path i '\001';
      let path = i :: path in
      let rec go k =
        if k >= ir.sup_out_off.(i + 1) then None
        else
          match visit path ir.sup_out.(k) with
          | Some _ as w -> w
          | None -> go (k + 1)
      in
      let r = go ir.sup_out_off.(i) in
      Bytes.set on_path i '\000';
      if r = None then Bytes.set cleared i '\001';
      r
    end
  in
  let rec entries i =
    if i >= ir.n_nodes then None
    else
      match visit [] i with
      | Some w -> Some (List.map (fun e -> ir.ids.(e)) w)
      | None -> entries (i + 1)
  in
  entries 0
