(* The fused checker: GSN well-formedness, the informal-fallacy lints
   and the CAE rules, each run as index walks over an interned case
   instead of three independent tree traversals over [Structure.t].

   This is a reimplementation, not a refactor: the list-walking checkers
   it replaced live on in test/oracle ([Legacy_wellformed],
   [Legacy_informal], [Legacy_cae]) as the differential oracle (test/ir
   holds the two to byte-identical diagnostic lists, the same pattern the
   compiled Prolog engine uses against the interpreter).  Everything
   observable is preserved: diagnostics and their order after
   {!Diagnostic.sort} (the per-code emission orders below match the legacy
   per-code orders, and the sort is stable), the [gsn.wf.*] counters, the
   [gsn.wellformed*] spans, and the budget ticks — the circular-support
   walk's one per visit, skipped for on-path ids, charged even for
   dangling endpoints, exactly as the legacy walk's short-circuit
   evaluates; then the equivocation scan's one per candidate pair.
   [ir.fused_passes] counts passes.

   The lints read the text columns [Caseir.derive] computed once per
   payload.  The equivocation scan reads a per-node row of content
   words sorted by [Hashtbl.hash] with the hashes beside it
   ([Caseir.content], [content_hash]); like the circular walk's claim
   key, a hash only preselects — a string comparison confirms every
   match, and no hash reaches a digest, a memo key, a log or a
   diagnostic. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Informal = Argus_fallacy.Informal
module Cae = Argus_cae.Cae
module Budget = Argus_rt.Budget
module Span = Argus_obs.Span
module Counter = Argus_obs.Counter

type result = { wf : Diagnostic.t list; informal : Diagnostic.t list }

let c_fused = Counter.make "ir.fused_passes"

(* The same counters the tree-walking oracle registers — [Counter.make]
   interns by name, so both checkers feed one catalogue entry. *)
let c_nodes_visited = Counter.make "gsn.wf.nodes_visited"
let c_links_checked = Counter.make "gsn.wf.links_checked"
let c_findings = Counter.make "gsn.wf.findings"

(* Argument from ignorance at node [i]: a flag [Caseir.derive] already
   computed. *)
let ignorance_lint (ir : Caseir.t) i inf_add =
  if ir.Caseir.ignorance.(i) then
    inf_add
      (Diagnostic.warningf ~code:"informal/argument-from-ignorance"
         ~subjects:[ ir.Caseir.ids.(i) ]
         "claim argued from absence of evidence; confirm the search \
          procedure was adequate")

(* Equivocation among node [i]'s goal-like SupportedBy children: a
   pair of siblings fires when exactly one word of the first (counted
   with its duplicates) is a word of the second, and each has at least
   3 words (again with duplicates) that the other lacks.  So both
   sides need 4 words or more, and a pair that shares no word never
   fires.

   Each sibling's row ([Caseir.content], [content_hash]) is sorted by
   hash, then by string, so one merge of two rows counts the shared
   words: it compares integers and reads strings only on a hash tie,
   where [String.equal] decides (and, for two distinct words that
   collide, [String.compare] says which row advances).  It takes a run
   of equal words from each side at once and stops at the second
   shared word.

   Below [index_min] siblings every eligible pair is merged.  From there
   on candidates come from an inverted index: each eligible sibling's
   distinct hashes, packed with its position as
   [hash lsl 32 lor position] and sorted, so a hash's group lists its
   siblings in order and a sibling's candidates are the later members
   of its groups, marked and then read off in position order.  A pair
   sharing no hash is never merged: on 1000 siblings that share few
   words the index merges ~3.5k pairs instead of ~500k and the check
   runs ~10x faster, while an index for every small parent made a full
   check of the ~5k-node bench tree ~2x slower.

   Budget: one tick per candidate pair — both sides eligible and at
   least one shared word — in pair order, before its finding; an
   exhausted budget ends the scan, here and at every later node.
   Findings come in the legacy pair order (first sibling, then second,
   in link order). *)
let index_min = 8

let equivocation_lint ?(budget = Budget.unlimited) (ir : Caseir.t) i inf_add =
  let n_nodes = ir.Caseir.n_nodes in
  let sup_out_off = ir.Caseir.sup_out_off and sup_out = ir.Caseir.sup_out in
  let goal_like = ir.Caseir.goal_like in
  let k = ref 0 in
  for e = sup_out_off.(i) to sup_out_off.(i + 1) - 1 do
    let j = sup_out.(e) in
    if j < n_nodes && goal_like.(j) then incr k
  done;
  let k = !k in
  if k >= 2 then begin
    let sib = Array.make k 0 in
    let next = ref 0 in
    for e = sup_out_off.(i) to sup_out_off.(i + 1) - 1 do
      let j = sup_out.(e) in
      if j < n_nodes && goal_like.(j) then begin
        sib.(!next) <- j;
        incr next
      end
    done;
    let words = ir.Caseir.content and hashes = ir.Caseir.content_hash in
    let eligible p = Array.length hashes.(sib.(p)) >= 4 in
    let live = ref true in
    (* Merge the rows of positions [p] and [q]; [false] once the budget
       is spent. *)
    let pair p q =
      let a = sib.(p) and b = sib.(q) in
      let ha = hashes.(a) and wa = words.(a) in
      let hb = hashes.(b) and wb = words.(b) in
      let la = Array.length ha and lb = Array.length hb in
      let x = ref 0 and y = ref 0 in
      let shared = ref 0 and covered = ref 0 and word = ref 0 in
      while !x < la && !y < lb && !shared < 2 do
        let h = ha.(!x) and h' = hb.(!y) in
        if h < h' then incr x
        else if h > h' then incr y
        else if String.equal wa.(!x) wb.(!y) then begin
          let w = wa.(!x) in
          word := !x;
          while !x < la && ha.(!x) = h && String.equal wa.(!x) w do
            incr x;
            incr shared
          done;
          while !y < lb && hb.(!y) = h && String.equal wb.(!y) w do
            incr y;
            incr covered
          done
        end
        else if String.compare wa.(!x) wb.(!y) < 0 then incr x
        else incr y
      done;
      !shared = 0
      || Budget.tick budget ~engine:"informal"
         && begin
              if !shared = 1 && la - 1 >= 3 && lb - !covered >= 3 then
                inf_add
                  (Diagnostic.warningf
                     ~code:"informal/equivocation-candidate"
                     ~subjects:[ ir.Caseir.ids.(a); ir.Caseir.ids.(b) ]
                     "the word %S links otherwise-unrelated sibling goals; \
                      check it means the same thing in both"
                     wa.(!word));
              true
            end
    in
    if k < index_min then begin
      let p = ref 0 in
      while !live && !p < k - 1 do
        if eligible !p then begin
          let q = ref (!p + 1) in
          while !live && !q < k do
            if eligible !q then live := pair !p !q;
            incr q
          done
        end;
        incr p
      done
    end
    else begin
      (* Per eligible position, its distinct hashes (adjacent in the
         sorted row), as packed entries. *)
      let n_entries = ref 0 in
      let count = Array.make k 0 in
      for p = 0 to k - 1 do
        if eligible p then begin
          let h = hashes.(sib.(p)) in
          for x = 0 to Array.length h - 1 do
            if x = 0 || h.(x) <> h.(x - 1) then
              count.(p) <- count.(p) + 1
          done;
          n_entries := !n_entries + count.(p)
        end
      done;
      let entries = Array.make !n_entries 0 in
      let m = ref 0 in
      for p = 0 to k - 1 do
        if count.(p) > 0 then begin
          let h = hashes.(sib.(p)) in
          for x = 0 to Array.length h - 1 do
            if x = 0 || h.(x) <> h.(x - 1) then begin
              entries.(!m) <- (h.(x) lsl 32) lor p;
              incr m
            end
          done
        end
      done;
      Array.sort Int.compare entries;
      let n_entries = !n_entries in
      (* [group_end.(e)]: one past the last entry with [e]'s hash. *)
      let group_end = Array.make n_entries n_entries in
      for e = n_entries - 2 downto 0 do
        group_end.(e) <-
          (if entries.(e) lsr 32 = entries.(e + 1) lsr 32 then
             group_end.(e + 1)
           else e + 1)
      done;
      (* Each position's entries, CSR-style. *)
      let off = Array.make (k + 1) 0 in
      for p = 0 to k - 1 do
        off.(p + 1) <- off.(p) + count.(p)
      done;
      let at = Array.sub off 0 k in
      let of_pos = Array.make n_entries 0 in
      for e = 0 to n_entries - 1 do
        let p = entries.(e) land 0xFFFF_FFFF in
        of_pos.(at.(p)) <- e;
        at.(p) <- at.(p) + 1
      done;
      (* Mark the later members of [p]'s groups, then merge the marked
         positions in order. *)
      let mark = Array.make k (-1) in
      let p = ref 0 in
      while !live && !p < k - 1 do
        for r = off.(!p) to off.(!p + 1) - 1 do
          let e = of_pos.(r) in
          for e' = e + 1 to group_end.(e) - 1 do
            mark.(entries.(e') land 0xFFFF_FFFF) <- !p
          done
        done;
        let q = ref (!p + 1) in
        while !live && !q < k do
          if mark.(!q) = !p then live := pair !p !q;
          incr q
        done;
        incr p
      done
    end
  end

(* Node [i]'s per-node lints, unbudgeted: the store's memoised unit. *)
let node_lints ir i inf_add =
  ignorance_lint ir i inf_add;
  equivocation_lint ir i inf_add

(* The circular-support walk — the one lint that is a path traversal
   rather than a node scan, so it keeps its own (budgeted) walk.  Tick
   accounting matches the legacy walk exactly: one tick per visit,
   skipped for on-path ids (the [||] short-circuit), charged even for
   dangling endpoints.

   What it reads per visit: the on-path byte, the node's claim key
   ([ir.claim]) and its CSR row.  The on-path ancestors that can be
   restated — goal-like, non-empty norm, i.e. a non-zero key — sit on
   an explicit stack of node indices, and [seen] counts them by the low
   bits of their keys: a visit whose slot is empty has no ancestor with
   its key and skips the stack.  Otherwise it compares integer keys
   down the stack and reads the two norm strings only when the keys
   match, with [String.equal] deciding.  On a large live heap the norm
   strings are scattered, so reading one per ancestor per visit cost
   several times the rest of the walk.  Nothing is allocated per
   visit: the stack doubles when full. *)
let filter_mask = 255

let circular_walk ?budget (ir : Caseir.t) inf_add =
  let walk_budget, internal =
    match budget with
    | Some b -> (b, false)
    | None -> (Budget.make ~fuel:Informal.default_walk_fuel (), true)
  in
  let n_nodes = ir.Caseir.n_nodes in
  let sup_out_off = ir.Caseir.sup_out_off and sup_out = ir.Caseir.sup_out in
  let claim = ir.Caseir.claim and norm = ir.Caseir.norm in
  let on_path = Bytes.make (max 1 ir.Caseir.n_entities) '\000' in
  let stack = ref (Array.make 64 0) and depth = ref 0 in
  let seen = Array.make (filter_mask + 1) 0 in
  let rec walk i =
    if
      Bytes.get on_path i = '\001'
      || not (Budget.tick walk_budget ~engine:"informal")
    then ()
    else if i >= n_nodes then ()
    else begin
      let key = claim.(i) in
      let slot = key land filter_mask in
      if key <> 0 then begin
        let st = !stack in
        if seen.(slot) > 0 then begin
          let d = ref (!depth - 1) in
          while
            !d >= 0
            && not
                 (claim.(st.(!d)) = key
                 && String.equal norm.(st.(!d)) norm.(i))
          do
            decr d
          done;
          if !d >= 0 then
            inf_add
              (Diagnostic.warningf ~code:"informal/circular-support"
                 ~subjects:[ ir.Caseir.ids.(i) ]
                 "goal restates an ancestor goal's claim")
        end;
        if !depth = Array.length st then begin
          let grown = Array.make (2 * !depth) 0 in
          Array.blit st 0 grown 0 !depth;
          stack := grown
        end;
        !stack.(!depth) <- i;
        incr depth;
        seen.(slot) <- seen.(slot) + 1
      end;
      Bytes.set on_path i '\001';
      for k = sup_out_off.(i) to sup_out_off.(i + 1) - 1 do
        walk sup_out.(k)
      done;
      Bytes.set on_path i '\000';
      if key <> 0 then begin
        decr depth;
        seen.(slot) <- seen.(slot) - 1
      end
    end
  in
  List.iter walk ir.Caseir.roots;
  if internal then List.iter inf_add (Budget.diagnostics walk_budget)

(* The lints that tick a budget, in the legacy oracle's order: the
   circular-support walk, then the equivocation scan node by node.
   The scan ticks only the caller's budget; without one it runs
   unbudgeted, as the store's per-node path does. *)
let budgeted_lints ?budget ir inf_add =
  circular_walk ?budget ir inf_add;
  for i = 0 to ir.Caseir.n_nodes - 1 do
    equivocation_lint ?budget ir i inf_add
  done

(* One link's well-formedness findings, in [check]'s emission order.
   Counter accounting stays with the caller. *)
let link_findings_at ~ruleset (ir : Caseir.t) k wf_add =
  let n_nodes = ir.Caseir.n_nodes in
  let ids = ir.Caseir.ids in
  let nodes = ir.Caseir.nodes in
  let si = ir.Caseir.link_src.(k) and di = ir.Caseir.link_dst.(k) in
  let src = ids.(si) and dst = ids.(di) in
  if si >= n_nodes || di >= n_nodes then
    wf_add
      (Diagnostic.errorf ~code:"gsn/dangling-link" ~subjects:[ src; dst ]
         "link references a missing node")
  else
    let s = nodes.(si) and d = nodes.(di) in
    match ir.Caseir.link_kind.(k) with
    | Structure.Supported_by ->
        if
          not (Wellformed.support_target_ok s.Node.node_type d.Node.node_type)
        then
          wf_add
            (Diagnostic.errorf ~code:"gsn/bad-support-link"
               ~subjects:[ src; dst ] "a %s cannot be supported by a %s"
               (Node.type_to_string s.Node.node_type)
               (Node.type_to_string d.Node.node_type))
        else if
          ruleset = Wellformed.Denney_pai_2013
          && s.Node.node_type = Node.Goal
          && d.Node.node_type = Node.Goal
        then
          wf_add
            (Diagnostic.errorf ~code:"gsn/dp-goal-under-goal"
               ~subjects:[ src; dst ]
               "goal directly supports a goal (forbidden by the Denney-Pai \
                2013 formalisation, though the GSN standard allows it)")
    | Structure.In_context_of ->
        let bad_src = not (Wellformed.context_source_ok s.Node.node_type) in
        let bad_dst = not (Wellformed.context_target_ok d.Node.node_type) in
        if bad_src || bad_dst then
          if
            (match s.Node.node_type with
            | Node.Away_goal _ -> true
            | _ -> false)
            && d.Node.node_type = Node.Solution
          then
            wf_add
              (Diagnostic.errorf ~code:"gsn/solution-in-context-of-away-goal"
                 ~subjects:[ src; dst ]
                 "a solution cannot be in the context of an away goal")
          else
            wf_add
              (Diagnostic.errorf ~code:"gsn/bad-context-link"
                 ~subjects:[ src; dst ] "%s cannot be in the context of %s"
                 (Node.type_to_string d.Node.node_type)
                 (Node.type_to_string s.Node.node_type))

let cycle_into (ir : Caseir.t) wf_add =
  match Caseir.has_cycle ir with
  | None -> ()
  | Some witness ->
      wf_add
        (Diagnostic.errorf ~code:"gsn/cycle" ~subjects:witness
           "the SupportedBy relation is cyclic")

let roots_into (ir : Caseir.t) wf_add =
  let ids = ir.Caseir.ids and nodes = ir.Caseir.nodes in
  if ir.Caseir.n_nodes > 0 then
    match ir.Caseir.roots with
    | [] ->
        wf_add
          (Diagnostic.error ~code:"gsn/no-root"
             "no root element (every non-contextual node is supported)")
    | [ root ] ->
        let n = nodes.(root) in
        if n.Node.node_type <> Node.Goal then
          wf_add
            (Diagnostic.warningf ~code:"gsn/root-not-goal"
               ~subjects:[ ids.(root) ] "the root element is a %s, not a goal"
               (Node.type_to_string n.Node.node_type))
    | _ :: _ :: _ as roots ->
        wf_add
          (Diagnostic.warningf ~code:"gsn/multiple-roots"
             ~subjects:(List.map (fun i -> ids.(i)) roots)
             "%d root elements (a connected argument has one)"
             (List.length roots))

(* Node [i]'s well-formedness findings, in [check]'s emission order.
   These depend only on the node's payload, its support degree, its
   SupportedBy parents' (goal-like, universal) flags, the evidence
   table's answer for its citation, its reachability bit and whether
   the case has roots — the inputs the store's verdict memo keys
   over. *)
let node_findings_into (ir : Caseir.t) i wf_add =
  let n_nodes = ir.Caseir.n_nodes in
  let ids = ir.Caseir.ids in
  let nodes = ir.Caseir.nodes in
  let sup_out_off = ir.Caseir.sup_out_off in
  let n = nodes.(i) in
  let id = ids.(i) in
  let unsupported = sup_out_off.(i + 1) = sup_out_off.(i) in
  if String.trim n.Node.text = "" then
    wf_add
      (Diagnostic.errorf ~code:"gsn/empty-text" ~subjects:[ id ]
         "node has no text");
  (match n.Node.status with
  | Node.Developed ->
      if Wellformed.has_placeholder n.Node.text then
        wf_add
          (Diagnostic.errorf ~code:"gsn/placeholder-text" ~subjects:[ id ]
             "developed node still contains a {placeholder}")
  | Node.Uninstantiated | Node.Undeveloped_uninstantiated ->
      wf_add
        (Diagnostic.warningf ~code:"gsn/uninstantiated" ~subjects:[ id ]
           "node awaits instantiation")
  | Node.Undeveloped ->
      if not unsupported then
        wf_add
          (Diagnostic.warningf ~code:"gsn/undeveloped-with-support"
             ~subjects:[ id ]
             "node is marked undeveloped yet has supporting elements"));
  (match n.Node.node_type with
  | Node.Goal ->
      if
        unsupported
        && (n.Node.status = Node.Developed
           || n.Node.status = Node.Uninstantiated)
      then
        wf_add
          (Diagnostic.errorf ~code:"gsn/unsupported-goal" ~subjects:[ id ]
             "goal is neither supported nor marked undeveloped");
      if not ir.Caseir.propositional.(i) then
        wf_add
          (Diagnostic.warningf ~code:"gsn/non-propositional-goal"
             ~subjects:[ id ] "goal text does not read as a proposition")
  | Node.Strategy ->
      if
        unsupported
        && (n.Node.status = Node.Developed
           || n.Node.status = Node.Uninstantiated)
      then
        wf_add
          (Diagnostic.errorf ~code:"gsn/undeveloped-strategy" ~subjects:[ id ]
             "strategy has no supporting goals and is not marked undeveloped")
  | Node.Solution -> (
      match n.Node.evidence with
      | None ->
          wf_add
            (Diagnostic.warningf ~code:"gsn/solution-without-evidence"
               ~subjects:[ id ] "solution cites no evidence item")
      | Some ev_id -> (
          match Caseir.find_evidence ir ev_id with
          | None ->
              wf_add
                (Diagnostic.errorf ~code:"gsn/unknown-evidence"
                   ~subjects:[ id; ev_id ]
                   "solution cites an unregistered evidence item")
          | Some ev ->
              for k = ir.Caseir.sup_in_off.(i)
                  to ir.Caseir.sup_in_off.(i + 1) - 1 do
                let pi = ir.Caseir.sup_in.(k) in
                if
                  pi < n_nodes
                  && ir.Caseir.goal_like.(pi)
                  && ir.Caseir.universal.(pi)
                  && not
                       (Evidence.supports_kind ev.Evidence.kind
                          Evidence.Universal)
                then
                  wf_add
                    (Diagnostic.warningf ~code:"gsn/weak-evidence"
                       ~subjects:[ ids.(pi); id ]
                       "universal claim rests on %s evidence"
                       (Evidence.kind_to_string ev.Evidence.kind))
              done))
  | Node.Context | Node.Assumption | Node.Justification | Node.Away_goal _
  | Node.Module_ref _ | Node.Contract _ ->
      ());
  if (not ir.Caseir.reachable.(i)) && ir.Caseir.roots <> [] then
    wf_add
      (Diagnostic.warningf ~code:"gsn/unreachable" ~subjects:[ id ]
         "node is not reachable from any root")

let check ?(ruleset = Wellformed.Standard) ?budget ?(lints = true)
    (ir : Caseir.t) =
  Counter.incr c_fused;
  let wf_out = ref [] in
  let wf_add d =
    Counter.incr c_findings;
    wf_out := d :: !wf_out
  in
  let inf_out = ref [] in
  let inf_add d = inf_out := d :: !inf_out in
  let n_nodes = ir.Caseir.n_nodes in
  Span.with_ ~name:"gsn.wellformed" (fun () ->
      (* Link rules. *)
      Span.with_ ~name:"gsn.wellformed.links" (fun () ->
          for k = 0 to Array.length ir.Caseir.link_kind - 1 do
            Counter.incr c_links_checked;
            link_findings_at ~ruleset ir k wf_add
          done);
      (* Cycles. *)
      Span.with_ ~name:"gsn.wellformed.cycles" (fun () ->
          cycle_into ir wf_add);
      (* Roots. *)
      roots_into ir wf_add;
      (* Per-node rules, with the ignorance lint fused in. *)
      Span.with_ ~name:"gsn.wellformed.nodes" (fun () ->
          for i = 0 to n_nodes - 1 do
            Counter.incr c_nodes_visited;
            node_findings_into ir i wf_add;
            if lints then ignorance_lint ir i inf_add
          done));
  if lints then budgeted_lints ?budget ir inf_add;
  {
    wf = Diagnostic.sort (List.rev !wf_out);
    informal = Diagnostic.sort (List.rev !inf_out);
  }

(* --- Per-unit entry points for the incremental store --- *)

(* Each returns its findings in [check]'s emission order, without
   firing the [gsn.wf.*] counters or [gsn.wellformed*] spans (those
   describe full passes; the store counts its own cache traffic).  A
   full verdict reassembled from these pieces — links, then cycle,
   then roots, then per-node findings in node order for [wf]; node
   lints in node order, then the walk, for [informal] — is
   byte-identical to {!check} once {!assemble} applies the same stable
   sort, because the sort only reorders across what the emission
   order already interleaves deterministically. *)

let collect f =
  let out = ref [] in
  f (fun d -> out := d :: !out);
  List.rev !out

let link_findings ?(ruleset = Wellformed.Standard) (ir : Caseir.t) =
  collect (fun add ->
      for k = 0 to Array.length ir.Caseir.link_kind - 1 do
        link_findings_at ~ruleset ir k add
      done)

let shape_findings (ir : Caseir.t) =
  collect (fun add ->
      cycle_into ir add;
      roots_into ir add)

let node_findings (ir : Caseir.t) i =
  collect (fun add -> node_findings_into ir i add)

let node_lint_findings (ir : Caseir.t) i =
  collect (fun add -> node_lints ir i add)

let walk_findings ?budget (ir : Caseir.t) =
  collect (fun add -> circular_walk ?budget ir add)

let assemble ~wf ~informal =
  { wf = Diagnostic.sort wf; informal = Diagnostic.sort informal }

(* --- Modular --- *)

(* The modular checker compiled onto the IR: each module's
   well-formedness runs as a fused pass over its interned form instead
   of the legacy tree walk, while the cross-module rules (away goals,
   module references, dependency cycles) stay in
   {!Argus_gsn.Modular}.  Byte-identical to the legacy runner
   (test/oracle: [Legacy_modular], which passes the tree-walking
   [Legacy_wellformed.check] as [wf]) because the per-module fused pass
   is byte-identical to that oracle (test/ir holds both equalities). *)
let check_modular ?pool m =
  Argus_gsn.Modular.check_with ?pool
    ~wf:(fun s ->
      (check ~lints:false (Caseir.intern s)).wf)
    m

(* Lints alone, for callers that only lint — no [gsn.wf.*] counters,
   no [gsn.wellformed*] spans, just the informal findings. *)
let lint ?budget (ir : Caseir.t) =
  Counter.incr c_fused;
  let inf_out = ref [] in
  let inf_add d = inf_out := d :: !inf_out in
  for i = 0 to ir.Caseir.n_nodes - 1 do
    ignorance_lint ir i inf_add
  done;
  budgeted_lints ?budget ir inf_add;
  Diagnostic.sort (List.rev !inf_out)

(* --- CAE --- *)

type cae_ir = {
  n_cae_nodes : int;
  n_cae_entities : int;
  cae_ids : Id.t array;
  cae_nodes : Cae.node array;
  cae_src : int array;  (** Per link: the supported entity. *)
  cae_dst : int array;  (** Per link: the supporting entity. *)
  supp_off : int array;  (** CSR: supporters per entity, link order. *)
  supp : int array;
  is_supporter : bool array;  (** Entity appears as some link's dst. *)
}

let intern_cae cae =
  let nodes = Array.of_list (Cae.nodes cae) in
  let n_nodes = Array.length nodes in
  let links = Array.of_list (Cae.links cae) in
  let n_links = Array.length links in
  let index = Hashtbl.create (2 * (n_nodes + 1)) in
  Array.iteri
    (fun i n -> Hashtbl.replace index (Id.to_string n.Cae.id) i)
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
  let cae_src = Array.make n_links 0 in
  let cae_dst = Array.make n_links 0 in
  Array.iteri
    (fun k (src, dst) ->
      cae_src.(k) <- entity src;
      cae_dst.(k) <- entity dst)
    links;
  let n_entities = !next in
  let cae_ids = Array.make (max 1 n_entities) (Id.of_string "x") in
  Array.iteri (fun i n -> cae_ids.(i) <- n.Cae.id) nodes;
  List.iteri (fun j id -> cae_ids.(n_entities - 1 - j) <- id) !extra;
  let count = Array.make n_entities 0 in
  Array.iter (fun s -> count.(s) <- count.(s) + 1) cae_src;
  let supp_off = Array.make (n_entities + 1) 0 in
  for i = 0 to n_entities - 1 do
    supp_off.(i + 1) <- supp_off.(i) + count.(i)
  done;
  let supp = Array.make supp_off.(n_entities) 0 in
  let cursor = Array.copy supp_off in
  for k = 0 to n_links - 1 do
    let s = cae_src.(k) in
    supp.(cursor.(s)) <- cae_dst.(k);
    cursor.(s) <- cursor.(s) + 1
  done;
  let is_supporter = Array.make (max 1 n_entities) false in
  Array.iter (fun d -> is_supporter.(d) <- true) cae_dst;
  {
    n_cae_nodes = n_nodes;
    n_cae_entities = n_entities;
    cae_ids;
    cae_nodes = nodes;
    cae_src;
    cae_dst;
    supp_off;
    supp;
    is_supporter;
  }

let cae_type_string = function
  | Cae.Claim -> "claim"
  | Cae.Argument -> "argument"
  | Cae.Evidence_ref -> "evidence"

let check_cae ir =
  Counter.incr c_fused;
  let out = ref [] in
  let add d = out := d :: !out in
  let n_nodes = ir.n_cae_nodes in
  let ids = ir.cae_ids in
  for k = 0 to Array.length ir.cae_src - 1 do
    let si = ir.cae_src.(k) and di = ir.cae_dst.(k) in
    let src = ids.(si) and dst = ids.(di) in
    if si >= n_nodes || di >= n_nodes then
      add
        (Diagnostic.errorf ~code:"cae/dangling-link" ~subjects:[ src; dst ]
           "support link references a missing node")
    else
      let s = ir.cae_nodes.(si) and d = ir.cae_nodes.(di) in
      match (s.Cae.node_type, d.Cae.node_type) with
      | Cae.Claim, Cae.Argument
      | Cae.Argument, (Cae.Claim | Cae.Evidence_ref) ->
          ()
      | Cae.Claim, Cae.Evidence_ref ->
          add
            (Diagnostic.errorf ~code:"cae/bad-support" ~subjects:[ src; dst ]
               "evidence must support a claim via an argument node")
      | _ ->
          add
            (Diagnostic.errorf ~code:"cae/bad-support" ~subjects:[ src; dst ]
               "a %s cannot be supported by a %s"
               (cae_type_string s.Cae.node_type)
               (cae_type_string d.Cae.node_type))
  done;
  (* DFS from every node entity over the support relation.  An entity
     whose DFS found no cycle has none reachable from it, so it is
     cleared and never searched again, and a bitmap answers "on the
     path": linear, as [Caseir.has_cycle]. *)
  let has_cycle =
    let cleared = Bytes.make (max 1 ir.n_cae_entities) '\000' in
    let on_path = Bytes.make (max 1 ir.n_cae_entities) '\000' in
    let rec visit i =
      Bytes.get on_path i = '\001'
      || Bytes.get cleared i = '\000'
         && begin
              Bytes.set on_path i '\001';
              let rec go k =
                k < ir.supp_off.(i + 1) && (visit ir.supp.(k) || go (k + 1))
              in
              let found = go ir.supp_off.(i) in
              Bytes.set on_path i '\000';
              if not found then Bytes.set cleared i '\001';
              found
            end
    in
    let rec entries i = i < n_nodes && (visit i || entries (i + 1)) in
    entries 0
  in
  if has_cycle then
    add (Diagnostic.error ~code:"cae/cycle" "the support relation is cyclic");
  let root_claims = ref false in
  for i = 0 to n_nodes - 1 do
    if ir.cae_nodes.(i).Cae.node_type = Cae.Claim && not ir.is_supporter.(i)
    then root_claims := true
  done;
  if n_nodes > 0 && not !root_claims then
    add (Diagnostic.error ~code:"cae/no-root" "no top-level claim");
  for i = 0 to n_nodes - 1 do
    let n = ir.cae_nodes.(i) in
    if String.trim n.Cae.text = "" then
      add
        (Diagnostic.errorf ~code:"cae/empty-text" ~subjects:[ ids.(i) ]
           "node has no text");
    let n_sup = ir.supp_off.(i + 1) - ir.supp_off.(i) in
    match n.Cae.node_type with
    | Cae.Claim ->
        let args = ref 0 in
        for k = ir.supp_off.(i) to ir.supp_off.(i + 1) - 1 do
          let j = ir.supp.(k) in
          if j < n_nodes && ir.cae_nodes.(j).Cae.node_type = Cae.Argument
          then incr args
        done;
        if (not n.Cae.premise) && !args = 0 then
          add
            (Diagnostic.errorf ~code:"cae/claim-without-argument"
               ~subjects:[ ids.(i) ]
               "claim is not a premise and has no supporting argument");
        if !args > 1 then
          add
            (Diagnostic.warningf ~code:"cae/multiple-arguments"
               ~subjects:[ ids.(i) ]
               "claim has %d argument nodes (the methodology expects one)"
               !args)
    | Cae.Argument ->
        if n_sup = 0 then
          add
            (Diagnostic.errorf ~code:"cae/empty-argument"
               ~subjects:[ ids.(i) ]
               "argument node cites no evidence or subclaims")
    | Cae.Evidence_ref ->
        if n_sup > 0 then
          add
            (Diagnostic.errorf ~code:"cae/evidence-not-leaf"
               ~subjects:[ ids.(i) ] "evidence must be a leaf")
  done;
  Diagnostic.sort (List.rev !out)
