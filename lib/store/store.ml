(* The incremental assurance-case store: content-addressed cases,
   hash-consed node derivations, per-node digest terms and per-node
   verdicts re-checked over the dirty cone of each edit.

   The heavy-traffic workload is many clients mutating large living
   cases, each edit needing a fast re-verdict — not one-shot batch
   checks.  A full re-check of a 100k-node case pays a full intern
   plus a full fused pass per edit; here an edit re-checks only its
   dirty cone.

   A stored case is its interned IR and nothing else: the IR carries
   the evidence table, and a [Structure.t] is built from it only on
   demand ({!Caseir.to_structure}: [case], [cases], a shape patch's
   undo).  There is one edit type, {!Caseir.edit}, and one patch path:
   {!Caseir.apply} validates every batch and applies it to the IR in
   one pass.  A text batch writes the IR's node and text arrays in
   place and leaves the graph alone, a shape batch (add, remove, link,
   unlink; dangling endpoints and re-sent nodes included) rebuilds only
   the integer adjacency arrays, so an edit costs at most linear
   integer work plus its cone, never a re-intern or a re-digest of the
   whole case.  A full build runs only for a [put] (and a shape
   patch's undo).  Two layers of reuse sit under it:

   - {e Derivation memo.}  Per-payload text derivations (content
     words, the claim key, the universal/propositional/ignorance
     predicates) come from the one process-wide memo every
     {!Caseir.intern} goes through, so a [rebuild] (a [put], recovery,
     or a shape patch's undo) skips the text analysis for every
     payload seen before — by a [check] of the same case too
     ([store.node_hits] counts the payloads a [rebuild] found derived).
     A patch derives the payloads it sets or adds directly, without
     the memo: an edited text is almost always new, so filing it would
     only grow the table with entries that are never hit.

   - {e Per-node digest terms.}  Each node's term covers its payload
     and the ids of its SupportedBy and InContextOf targets; the case
     digest folds the node terms, the out-links of dangling sources
     and the evidence table into an order-independent 128-bit sum, so
     two structurally equal cases get one digest no matter the
     insertion order.  The scheme is defined on every graph, cyclic or
     not, and an edit recomputes only the terms of the nodes whose
     payload or out-links it changed, plus, on a shape edit of a case
     with dangling endpoints, the link terms of the dangling sources.

   Each case keeps its per-node well-formedness findings and per-node
   lints.  A [rebuild] computes them for every node; a patch recomputes
   them only over the findings cone of its edits (every node when it
   makes the case gain or lose its last root) — the nodes whose
   findings read what the batch changed, as
   {!Argus_ir.Fused.node_findings} and
   {!Argus_ir.Fused.node_lint_findings} document their inputs.
   [store.dirty_cone] counts the nodes whose findings were computed.

   A verdict reassembles the cached per-link, shape and per-node
   findings in {!Argus_ir.Fused.check}'s emission order, re-runs the
   (fuel-capped) circular-support walk, and applies the same stable
   sort — byte-identical to a full [Fused.check] of the same
   structure, which test/store holds it to after every random edit.
   The assembled verdict is cached until the next patch
   ([store.reused_verdicts] counts the verdicts answered from it).
   Root confidence is the {!Confidence.scores} kernel over the IR's
   node array and SupportedBy CSR, run at the first verdict after a
   shape edit; text edits keep it.

   A durable patch that the log refuses is rolled back through
   [patch_with_undo], in one of two ways: a text batch by its inverse
   text batch through the same in-place path, any other batch by
   re-putting a structure built from copies of the old IR's node, id
   and link arrays, taken before the batch consumed them.

   Every operation runs under one mutex: correctness first, and the
   per-op work after the first put is tiny.  The gauge [store.nodes]
   tracks live nodes across cases. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Confidence = Argus_confidence.Confidence
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Counter = Argus_obs.Counter
module Gauge = Argus_obs.Metrics.Gauge
module ISet = Set.Make (Int)

type edit = Caseir.edit =
  | Set_text of Id.t * string
  | Add_node of Node.t
  | Remove_node of Id.t
  | Link of Structure.link * Id.t * Id.t
  | Unlink of Structure.link * Id.t * Id.t

type error = Unknown_digest of string | Bad_edit of string

let error_message = function
  | Unknown_digest d -> Printf.sprintf "no case with digest %s" d
  | Bad_edit msg -> msg

type verdict = {
  vdigest : string;
  result : Fused.result;
  confidence : float;
  from_memo : bool;
}

let c_node_hits = Counter.make "store.node_hits"
let c_reused = Counter.make "store.reused_verdicts"
let c_dirty = Counter.make "store.dirty_cone"
let g_nodes = Gauge.make "store.nodes"

let default_trust (_ : Evidence.t) = 0.9

type case_state = {
  ruleset : Wellformed.ruleset;
  mutable ir : Caseir.t;  (** The case itself: its one live copy. *)
  mutable ctx_in : int list array;
      (** Per entity: InContextOf sources — the reverse edges a
          removed node's seeds need and the IR's CSR does not keep. *)
  (* The per-node arrays [elem], [wf_node] and [inf_node] may
     run past the node count: a shape edit compacts them in place and
     grows them with slack, so only the first [ir.n_nodes] cells mean
     anything. *)
  mutable elem : string array;
      (** Per node: its term in the case-digest sum. *)
  mutable dangling : string;
      (** The sum of the link terms of dangling sources. *)
  mutable sum : Bytes.t;  (** Rolling 128-bit sum of all terms. *)
  mutable digest : string;
  mutable wf_node : Diagnostic.t list array;
  mutable inf_node : Diagnostic.t list array;
  mutable link_wf : Diagnostic.t list;  (** All per-link findings. *)
  mutable shape_wf : Diagnostic.t list;  (** Cycle + roots findings. *)
  mutable cached : (Fused.result * float) option;
      (** The assembled verdict, valid until the next patch. *)
  mutable conf : float option;
      (** Root confidence; survives text edits (confidence never
          reads node text), dies with any other edit. *)
}

type t = { mu : Mutex.t; cases : (string, case_state) Hashtbl.t }

let create () = { mu = Mutex.create (); cases = Hashtbl.create 16 }

(* --- digests --- *)

(* 128-bit byte-wise sum with carry: associative, commutative and
   invertible, so terms can be added and removed incrementally and the
   result never depends on insertion order. *)
let sum_zero () = Bytes.make 16 '\000'

let sum_add acc (d : string) =
  let carry = ref 0 in
  for b = 0 to 15 do
    let v = Char.code (Bytes.get acc b) + Char.code d.[b] + !carry in
    Bytes.set acc b (Char.chr (v land 0xff));
    carry := v lsr 8
  done

let sum_sub acc (d : string) =
  let borrow = ref 0 in
  for b = 0 to 15 do
    let v = Char.code (Bytes.get acc b) - Char.code d.[b] - !borrow in
    Bytes.set acc b (Char.chr (v land 0xff));
    borrow := if v < 0 then 1 else 0
  done

(* The local digest covers the full payload — id, type, status, text,
   formal rendering, annotations, evidence citation.  Marshal is
   deterministic on this pure data and spares a hand-rolled codec;
   [No_sharing] makes it read the value alone, so a payload whose
   strings are shared digests like one whose strings are copies. *)
let local_digest (n : Node.t) =
  Digest.string ("n\x00" ^ Marshal.to_string n [ Marshal.No_sharing ])

let evidence_digest ev =
  Digest.string ("e\x00" ^ Marshal.to_string ev [ Marshal.No_sharing ])

let link_digest kind src dst =
  Digest.string
    (Printf.sprintf "l\x00%s\x00%s\x00%s"
       (match kind with
       | Structure.Supported_by -> "s"
       | Structure.In_context_of -> "c")
       (Id.to_string src) (Id.to_string dst))

(* A node's term in the case-digest sum: its local payload digest (16
   bytes), then the sorted ids of its SupportedBy targets, then those
   of its InContextOf targets, each after a NUL and a kind letter.  Ids
   never contain a NUL, so the rendering is unambiguous.  Targets are
   named by id, not by digest, so a term is defined on any graph,
   cyclic or not, and changes only with the node's own payload and
   out-links. *)
let node_term (ir : Caseir.t) i =
  let b = Buffer.create 64 in
  Buffer.add_char b 't';
  Buffer.add_string b (local_digest ir.Caseir.nodes.(i));
  let targets tag off dat =
    let acc = ref [] in
    for k = off.(i) to off.(i + 1) - 1 do
      acc := Id.to_string ir.Caseir.ids.(dat.(k)) :: !acc
    done;
    List.iter
      (fun id ->
        Buffer.add_char b '\x00';
        Buffer.add_char b tag;
        Buffer.add_string b id)
      (List.sort String.compare !acc)
  in
  targets 's' ir.Caseir.sup_out_off ir.Caseir.sup_out;
  targets 'c' ir.Caseir.ctx_out_off ir.Caseir.ctx_out;
  Digest.string (Buffer.contents b)

let zero_term = String.make 16 '\000'
let render_digest sum =
  Digest.to_hex (Digest.string ("T" ^ Bytes.to_string sum))

(* The sum of the link terms of dangling sources, which have no node
   term to carry their out-links. *)
let dangling_terms (ir : Caseir.t) =
  let sum = sum_zero () in
  for k = 0 to Array.length ir.Caseir.link_kind - 1 do
    let si = ir.Caseir.link_src.(k) in
    if si >= ir.Caseir.n_nodes then
      sum_add sum
        (link_digest ir.Caseir.link_kind.(k) ir.Caseir.ids.(si)
           ir.Caseir.ids.(ir.Caseir.link_dst.(k)))
  done;
  Bytes.to_string sum

(* Full digest state of an IR: the per-node terms, the dangling link
   terms, their sum with the evidence terms, and the case digest. *)
let digest_state (ir : Caseir.t) =
  let n = ir.Caseir.n_nodes in
  let elem = Array.make (max 1 n) zero_term in
  let sum = sum_zero () in
  for i = 0 to n - 1 do
    elem.(i) <- node_term ir i;
    sum_add sum elem.(i)
  done;
  let dangling = dangling_terms ir in
  sum_add sum dangling;
  Array.iter (fun ev -> sum_add sum (evidence_digest ev)) ir.Caseir.evidence;
  (elem, dangling, sum, render_digest sum)

let digest_of structure =
  let _, _, _, digest = digest_state (Caseir.intern structure) in
  digest

(* --- per-node verdicts --- *)

let recheck st i =
  Counter.incr c_dirty;
  st.wf_node.(i) <- Fused.node_findings st.ir i;
  st.inf_node.(i) <- Fused.node_lint_findings st.ir i

(* --- building and rebuilding case state --- *)

let build_ctx_in (ir : Caseir.t) =
  let ctx_in = Array.make (max 1 ir.Caseir.n_entities) [] in
  Array.iteri
    (fun k kind ->
      if kind = Structure.In_context_of then
        let d = ir.Caseir.link_dst.(k) in
        ctx_in.(d) <- ir.Caseir.link_src.(k) :: ctx_in.(d))
    ir.Caseir.link_kind;
  ctx_in

(* Full build of the case state: an intern, digests, per-node verdicts
   and the link/shape findings, every node checked.  Only a [put] (and
   a shape patch's undo, a re-put) runs it; every patch takes [delta].
   [store.node_hits] counts the payloads the intern found derived. *)
let rebuild st structure =
  let ir, hits = Caseir.intern_counted structure in
  Counter.add c_node_hits hits;
  let n = ir.Caseir.n_nodes in
  st.ir <- ir;
  st.ctx_in <- build_ctx_in ir;
  let elem, dangling, sum, digest = digest_state ir in
  st.elem <- elem;
  st.dangling <- dangling;
  st.sum <- sum;
  st.digest <- digest;
  st.wf_node <- Array.make (max 1 n) [];
  st.inf_node <- Array.make (max 1 n) [];
  for i = 0 to n - 1 do
    recheck st i
  done;
  st.link_wf <- Fused.link_findings ~ruleset:st.ruleset ir;
  st.shape_wf <- Fused.shape_findings ir;
  st.cached <- None;
  st.conf <- None

let fresh_state ruleset =
  {
    ruleset;
    ir = Caseir.intern Structure.empty;
    ctx_in = [||];
    elem = [||];
    dangling = zero_term;
    sum = sum_zero ();
    digest = "";
    wf_node = [||];
    inf_node = [||];
    link_wf = [];
    shape_wf = [];
    cached = None;
    conf = None;
  }

let update_gauge store =
  Gauge.set g_nodes
    (Hashtbl.fold (fun _ st acc -> acc + st.ir.Caseir.n_nodes) store.cases 0)

let locked store f =
  Mutex.lock store.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock store.mu) f

(* --- operations --- *)

let put_with_undo ?(ruleset = Wellformed.Standard) store structure =
  locked store (fun () ->
      let st = fresh_state ruleset in
      rebuild st structure;
      let digest = st.digest in
      let prior = Hashtbl.find_opt store.cases digest in
      Hashtbl.replace store.cases digest st;
      update_gauge store;
      let undo () =
        locked store (fun () ->
            (match prior with
            | Some old -> Hashtbl.replace store.cases digest old
            | None -> Hashtbl.remove store.cases digest);
            update_gauge store)
      in
      (digest, undo))

let put ?ruleset store structure = fst (put_with_undo ?ruleset store structure)

let mem store digest =
  locked store (fun () -> Hashtbl.mem store.cases digest)

let case store digest =
  locked store (fun () ->
      Option.map
        (fun st -> Caseir.to_structure st.ir)
        (Hashtbl.find_opt store.cases digest))

let size store = locked store (fun () -> Hashtbl.length store.cases)

let remove store digest =
  locked store (fun () ->
      Hashtbl.remove store.cases digest;
      update_gauge store)

let digests store =
  locked store (fun () ->
      Hashtbl.fold (fun digest _ acc -> digest :: acc) store.cases []
      |> List.sort String.compare)

let cases store =
  locked store (fun () ->
      Hashtbl.fold
        (fun digest st acc ->
          (digest, st.ruleset, Caseir.to_structure st.ir) :: acc)
        store.cases []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b))

(* Recompute the terms of the given nodes, swapping each old term out
   of the sum and the new one in. *)
let redigest st nodes =
  ISet.iter
    (fun i ->
      let d = node_term st.ir i in
      sum_sub st.sum st.elem.(i);
      sum_add st.sum d;
      st.elem.(i) <- d)
    nodes;
  st.digest <- render_digest st.sum

(* The nodes whose findings a payload edit of [i] can change.  A node's
   findings read its own payload, support degree, reachability bit and
   the case's roots bit, the universal flags of its SupportedBy parents
   and the content words of its goal-like SupportedBy children
   ({!Fused.node_findings}, {!Fused.node_lint_findings}).  So the cone
   is [i] itself, its SupportedBy parents (their equivocation lints
   read [i]'s content words) and its SupportedBy children (a solution
   child's weak-evidence rule reads [i]'s universal flag). *)
let findings_cone st i =
  let ir = st.ir in
  let n = ir.Caseir.n_nodes in
  let acc = ref (ISet.singleton i) in
  for k = ir.Caseir.sup_in_off.(i) to ir.Caseir.sup_in_off.(i + 1) - 1 do
    let pi = ir.Caseir.sup_in.(k) in
    if pi < n then acc := ISet.add pi !acc
  done;
  for k = ir.Caseir.sup_out_off.(i) to ir.Caseir.sup_out_off.(i + 1) - 1 do
    let j = ir.Caseir.sup_out.(k) in
    if j < n then acc := ISet.add j !acc
  done;
  !acc

(* Apply an edit batch to the case.  [Caseir.apply] validates it and
   applies it to the IR, deriving the set or added payloads without the
   arena.  The batch's seeds are every node it set, added or linked to
   or from, and the old neighbours of every entity it removed (a
   dangling endpoint the batch promoted and then removed included).
   Per-node verdicts are recomputed over the findings cone of the
   seeds, and node terms over the seeds themselves: a term reads only
   its node's payload and out-links, and every node whose payload or
   out-links the batch changed is a seed (a removed node's SupportedBy
   and InContextOf sources lose an out-link naming it, which is why
   [ctx_in] is kept).

   When the graph is unchanged (a text batch: [apply] moved no index)
   that is all.  Otherwise the per-node state here is first remapped
   through [apply]'s index map, the removed nodes' terms leave the sum,
   the link terms of dangling sources are summed again when the case
   had or has dangling endpoints, every node whose reachability bit
   flipped joins the findings cone, and the per-link and shape findings
   are recomputed in full.  A batch that makes the case gain or lose
   its last root re-checks every node's findings, which read that bit;
   digest terms do not read roots, so they still follow the seeds.

   [Error] when [Caseir.apply] refuses the batch, with the case
   untouched.  [Caseir.apply] consumes the old IR — it overwrites
   arrays in place — so the removed entities' neighbours are read
   before it runs.  It never overwrites the old [roots] and
   [reachable], which are read after. *)
let delta store st edits =
  let old = st.ir in
  let n0 = old.Caseir.n_nodes and e0 = old.Caseir.n_entities in
  (* Old neighbours of the removed entities, as old entity indices. *)
  let orphans =
    List.concat_map
      (function
        | Remove_node id -> (
            match Caseir.entity_index old id with
            | Some i ->
                let acc = ref st.ctx_in.(i) in
                let each off dat =
                  for k = off.(i) to off.(i + 1) - 1 do
                    acc := dat.(k) :: !acc
                  done
                in
                each old.Caseir.sup_in_off old.Caseir.sup_in;
                each old.Caseir.sup_out_off old.Caseir.sup_out;
                each old.Caseir.ctx_out_off old.Caseir.ctx_out;
                !acc
            | None -> [])
        | _ -> [])
      edits
  in
  match Caseir.apply old edits with
  | Error msg -> Error (Bad_edit msg)
  | Ok (ir, map) ->
      let n = ir.Caseir.n_nodes in
      let node id =
        match Caseir.entity_index ir id with
        | Some i when i < n -> [ i ]
        | _ -> []
      in
      let seeds =
        List.concat_map
          (function
            | Set_text (id, _) -> node id
            | Add_node nd -> node nd.Node.id
            | Link (_, a, b) | Unlink (_, a, b) -> node a @ node b
            | Remove_node _ -> [])
          edits
      in
      let seeds, flipped =
        match map with
        | None -> (seeds, ISet.empty)
        | Some map ->
            (* Removed nodes leave the sum; the rest of the per-node
               state compacts downwards through the map — in place
               unless the array is too short, ascending, so every cell
               is read before it is overwritten. *)
            let kept = ref 0 in
            for i = 0 to n0 - 1 do
              if map.(i) < 0 then sum_sub st.sum st.elem.(i) else incr kept
            done;
            let kept = !kept in
            let identity = kept = n0 && n = n0 in
            let remap fresh arr =
              let arr' =
                if Array.length arr >= max 1 n then arr
                else Array.make (max 1 n + (n / 8)) fresh
              in
              for i = 0 to n0 - 1 do
                if map.(i) >= 0 then arr'.(map.(i)) <- arr.(i)
              done;
              (* The added nodes' cells. *)
              for j = kept to n - 1 do
                arr'.(j) <- fresh
              done;
              arr'
            in
            if not identity then begin
              st.elem <- remap zero_term st.elem;
              st.wf_node <- remap [] st.wf_node;
              st.inf_node <- remap [] st.inf_node
            end;
            (* Without a dangling endpoint before or after, the
               entities are the nodes: [ctx_in]'s indices hold unless a
               node came or went. *)
            let dangling = e0 > n0 || ir.Caseir.n_entities > n in
            if dangling then begin
              sum_sub st.sum st.dangling;
              st.dangling <- dangling_terms ir;
              sum_add st.sum st.dangling
            end;
            if
              (not identity) || dangling
              || List.exists
                   (function
                     | Link (Structure.In_context_of, _, _)
                     | Unlink (Structure.In_context_of, _, _) ->
                         true
                     | _ -> false)
                   edits
            then st.ctx_in <- build_ctx_in ir;
            let flipped = ref ISet.empty in
            for i = 0 to n0 - 1 do
              let j = map.(i) in
              if j >= 0 && old.Caseir.reachable.(i) <> ir.Caseir.reachable.(j)
              then flipped := ISet.add j !flipped
            done;
            st.link_wf <- Fused.link_findings ~ruleset:st.ruleset ir;
            st.shape_wf <- Fused.shape_findings ir;
            (* Confidence reads the shape: recomputed at the next
               verdict. *)
            st.conf <- None;
            ( seeds
              @ List.filter_map
                  (fun i ->
                    let j = map.(i) in
                    if j >= 0 && j < n then Some j else None)
                  orphans,
              !flipped )
      in
      st.ir <- ir;
      if (ir.Caseir.roots = []) <> (old.Caseir.roots = []) then
        for i = 0 to n - 1 do
          recheck st i
        done
      else
        ISet.iter (recheck st)
          (List.fold_left
             (fun acc i -> ISet.union acc (findings_cone st i))
             flipped seeds);
      redigest st (ISet.of_list seeds);
      if map <> None then update_gauge store;
      Ok ()

(* Patch the case at [digest] and re-bind it under its new digest,
   answering the state and the case the new digest displaced, if any.
   A refused batch leaves the store untouched.  Called with the mutex
   held. *)
let patch_locked store ~digest edits =
  match Hashtbl.find_opt store.cases digest with
  | None -> Error (Unknown_digest digest)
  | Some st -> (
      match delta store st edits with
      | Error _ as e -> e
      | Ok () ->
          st.cached <- None;
          Hashtbl.remove store.cases digest;
          let displaced = Hashtbl.find_opt store.cases st.digest in
          Hashtbl.replace store.cases st.digest st;
          Ok (st, displaced))

let patch store ~digest edits =
  locked store (fun () ->
      Result.map (fun (st, _) -> st.digest) (patch_locked store ~digest edits))

(* Two undo kinds.  A text batch is undone by the inverse text batch —
   each node it names set back to its old text — through the same
   in-place path: O(batch).  Any other batch consumes the IR, so the
   arrays [Caseir.to_structure] reads are copied first, and the undo
   re-puts the structure built from the copies, only if it runs. *)
let patch_with_undo store ~digest edits =
  locked store (fun () ->
      match Hashtbl.find_opt store.cases digest with
      | None -> Error (Unknown_digest digest)
      | Some st -> (
          let ir = st.ir in
          let restore =
            if List.for_all (function Set_text _ -> true | _ -> false) edits
            then
              let inverse =
                List.filter_map
                  (function
                    | Set_text (id, _) -> (
                        match Caseir.entity_index ir id with
                        | Some i when i < ir.Caseir.n_nodes ->
                            Some (Set_text (id, ir.Caseir.nodes.(i).Node.text))
                        | _ -> None)
                    | _ -> None)
                  edits
              in
              fun digest' -> ignore (patch_locked store ~digest:digest' inverse)
            else
              let ruleset = st.ruleset in
              let frozen =
                {
                  ir with
                  Caseir.nodes = Array.copy ir.Caseir.nodes;
                  ids = Array.copy ir.Caseir.ids;
                  link_kind = Array.copy ir.Caseir.link_kind;
                  link_src = Array.copy ir.Caseir.link_src;
                  link_dst = Array.copy ir.Caseir.link_dst;
                }
              in
              fun digest' ->
                Hashtbl.remove store.cases digest';
                let st = fresh_state ruleset in
                rebuild st (Caseir.to_structure frozen);
                Hashtbl.replace store.cases st.digest st
          in
          match patch_locked store ~digest edits with
          | Error _ as e -> e
          | Ok (st, displaced) ->
              let digest' = st.digest in
              let undo () =
                locked store (fun () ->
                    restore digest';
                    Option.iter (Hashtbl.replace store.cases digest') displaced;
                    update_gauge store)
              in
              Ok (digest', undo)))

let verdict store ~digest =
  locked store (fun () ->
      match Hashtbl.find_opt store.cases digest with
      | None -> Error (Unknown_digest digest)
      | Some st -> (
          match st.cached with
          | Some (result, confidence) ->
              Counter.incr c_reused;
              Ok { vdigest = digest; result; confidence; from_memo = true }
          | None ->
              (* Per-node findings in node order. *)
              let in_order per_node =
                let acc = ref [] in
                for i = st.ir.Caseir.n_nodes - 1 downto 0 do
                  match per_node.(i) with
                  | [] -> ()
                  | ds -> acc := ds @ !acc
                done;
                !acc
              in
              let node_wf = in_order st.wf_node in
              let node_inf = in_order st.inf_node in
              let wf = st.link_wf @ st.shape_wf @ node_wf in
              let informal = node_inf @ Fused.walk_findings st.ir in
              let result = Fused.assemble ~wf ~informal in
              let confidence =
                match st.conf with
                | Some c -> c
                | None ->
                    let ir = st.ir in
                    let c =
                      match ir.Caseir.roots with
                      | [] -> 0.0
                      | root :: _ ->
                          (Confidence.scores ~trust:default_trust
                             ~find_evidence:(Caseir.find_evidence ir)
                             ir.Caseir.nodes ~sup_off:ir.Caseir.sup_out_off
                             ~sup:ir.Caseir.sup_out).(root)
                    in
                    st.conf <- Some c;
                    c
              in
              st.cached <- Some (result, confidence);
              Ok { vdigest = digest; result; confidence; from_memo = false }))
