module Term = Argus_logic.Term
module Symbol = Argus_core.Symbol
module Budget = Argus_rt.Budget
module Fault = Argus_rt.Fault

(* Bytecode executor for {!Compile}d programs.

   Runtime terms use destructive binding: a variable is a mutable cell,
   bound once and undone on backtracking via the trail, so resolving a
   goal never rebuilds substitution lists the way the interpreted
   engine does.  Backtracking is an explicit choice-point stack (one
   record per goal with untried candidates) instead of the
   interpreter's Seq-of-closures.

   The machine is counter- and budget-exact with the interpreted
   [Engine.solve] kept in test/oracle: both
   admit identical candidate lists (hits/misses), tick the budget once
   per candidate tried, count one unification per candidate and one
   backtrack per failed head match, give body goals [depth - 1] and
   sibling goals the same depth, and emit solutions in identical order
   — the differential tests in test/prolog assert all of this. *)

let c_clause_tries = Argus_obs.Counter.make "prolog.clause_tries"
let c_unifications = Argus_obs.Counter.make "prolog.unifications"
let c_backtracks = Argus_obs.Counter.make "prolog.backtracks"
let c_depth_abandoned = Argus_obs.Counter.make "prolog.depth_abandonments"
let c_solutions = Argus_obs.Counter.make "prolog.solutions"
let c_index_hits = Argus_obs.Counter.make "prolog.index_hits"
let c_index_misses = Argus_obs.Counter.make "prolog.index_misses"
let c_compiled_calls = Argus_obs.Counter.make "prolog.compiled_calls"
let c_table_hits = Argus_obs.Counter.make "prolog.table_hits"

type rt = Struct of Symbol.t * rt array | Ref of cell
and cell = { mutable v : rt option; vid : int }

let rec deref t =
  match t with Ref { v = Some u; _ } -> deref u | _ -> t

(* Derivation skeleton filled in during the search: a node per resolved
   goal, children slots filled as the body goals are resolved in turn.
   Re-matching a goal after backtracking overwrites its slot with a
   node holding fresh child slots, so stale fills are unreachable and
   the slots read at solution time always describe the committed
   proof. *)
type node = { d_rt : rt; d_idx : int; d_children : node option ref array }
type gentry = { g_rt : rt; g_depth : int; g_slot : node option ref }

type kpt = {
  k_goals : gentry list;  (** Goal list whose head this point resolves. *)
  k_goal : rt;  (** The dereferenced selected goal. *)
  k_cands : Compile.cclause array;
  mutable k_next : int;
  k_trail : int;
}

type state = {
  mutable s_trail : cell array;
  mutable s_trail_top : int;
  mutable s_fresh : int;
  s_skel : bool;
      (** Whether to record the derivation skeleton.  Only [prove]
          reads it, so the decision entry points skip the per-resolution
          node and slot allocations entirely. *)
  (* Counter traffic batched into locals, flushed once per call — same
     reasoning as the interpreter's [provable]: a sharded increment costs ~10x a
     plain one. *)
  mutable s_tries : int;
  mutable s_unifs : int;
  mutable s_backs : int;
  mutable s_abandoned : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_sols : int;
}

let dummy_cell = { v = None; vid = -1 }

let new_state ~skel () =
  {
    s_trail = Array.make 64 dummy_cell;
    s_trail_top = 0;
    s_fresh = 0;
    s_skel = skel;
    s_tries = 0;
    s_unifs = 0;
    s_backs = 0;
    s_abandoned = 0;
    s_hits = 0;
    s_misses = 0;
    s_sols = 0;
  }

let flush st =
  let s = Argus_obs.Counter.current_shard () in
  Argus_obs.Counter.shard_add s c_clause_tries st.s_tries;
  Argus_obs.Counter.shard_add s c_unifications st.s_unifs;
  Argus_obs.Counter.shard_add s c_backtracks st.s_backs;
  Argus_obs.Counter.shard_add s c_depth_abandoned st.s_abandoned;
  Argus_obs.Counter.shard_add s c_index_hits st.s_hits;
  Argus_obs.Counter.shard_add s c_index_misses st.s_misses;
  Argus_obs.Counter.shard_add s c_solutions st.s_sols

let fresh_rt st =
  let c = { v = None; vid = st.s_fresh } in
  st.s_fresh <- st.s_fresh + 1;
  Ref c

let bind st c t =
  c.v <- Some t;
  let n = Array.length st.s_trail in
  if st.s_trail_top >= n then begin
    let bigger = Array.make (2 * n) dummy_cell in
    Array.blit st.s_trail 0 bigger 0 n;
    st.s_trail <- bigger
  end;
  st.s_trail.(st.s_trail_top) <- c;
  st.s_trail_top <- st.s_trail_top + 1

let undo st mark =
  while st.s_trail_top > mark do
    st.s_trail_top <- st.s_trail_top - 1;
    st.s_trail.(st.s_trail_top).v <- None
  done

let rec occurs c t =
  match deref t with
  | Ref c' -> c' == c
  | Struct (_, args) ->
      let n = Array.length args in
      let rec go i = i < n && (occurs c args.(i) || go (i + 1)) in
      go 0

(* General unification (register/subject collisions from non-linear
   heads, i.e. [H_val]).  Occurs check kept for parity with
   [Term.unify_under]. *)
let rec unify st a b =
  let a = deref a and b = deref b in
  match (a, b) with
  | Ref ca, Ref cb ->
      if ca == cb then true
      else begin
        bind st ca b;
        true
      end
  | Ref c, t | t, Ref c ->
      if occurs c t then false
      else begin
        bind st c t;
        true
      end
  | Struct (f, xs), Struct (g, ys) ->
      Symbol.equal f g
      && Array.length xs = Array.length ys
      && begin
           let n = Array.length xs in
           let rec go i = i >= n || (unify st xs.(i) ys.(i) && go (i + 1)) in
           go 0
         end

let push_args args rest =
  let acc = ref rest in
  for j = Array.length args - 1 downto 0 do
    acc := args.(j) :: !acc
  done;
  !acc

(* Run a clause's head code against the goal.  Subjects are consumed
   one per instruction; [H_struct] against an unbound subject switches
   that subtree into write mode by binding an open structure whose
   fresh cells become the next subjects. *)
let run_head st code goal regs =
  let n = Array.length code in
  let rec step i subjects =
    i >= n
    ||
    match subjects with
    | [] -> assert false
    | subj :: rest -> (
        match code.(i) with
        | Compile.H_var r ->
            regs.(r) <- Some (deref subj);
            step (i + 1) rest
        | Compile.H_val r -> (
            match regs.(r) with
            | Some t -> unify st t subj && step (i + 1) rest
            | None -> assert false)
        | Compile.H_const f -> (
            match deref subj with
            | Struct (g, args) ->
                Symbol.equal f g && Array.length args = 0 && step (i + 1) rest
            | Ref c ->
                bind st c (Struct (f, [||]));
                step (i + 1) rest)
        | Compile.H_struct (f, k) -> (
            match deref subj with
            | Struct (g, args) ->
                Symbol.equal f g
                && Array.length args = k
                && step (i + 1) (push_args args rest)
            | Ref c ->
                let args = Array.make k (Struct (f, [||])) in
                for j = 0 to k - 1 do
                  args.(j) <- fresh_rt st
                done;
                bind st c (Struct (f, args));
                step (i + 1) (push_args args rest)))
  in
  step 0 [ goal ]

let dummy_rt = Struct (Symbol.intern "", [||])

(* Build a body goal (postfix code) over the clause's registers.
   Registers the head never touched belong to body-only variables and
   materialise as fresh cells on first use. *)
let build st code (regs : rt option array) =
  let stack = ref [] in
  let n = Array.length code in
  for i = 0 to n - 1 do
    match code.(i) with
    | Compile.P_var r ->
        let t =
          match regs.(r) with
          | Some t -> t
          | None ->
              let t = fresh_rt st in
              regs.(r) <- Some t;
              t
        in
        stack := t :: !stack
    | Compile.P_const f -> stack := Struct (f, [||]) :: !stack
    | Compile.P_struct (f, k) ->
        let args = Array.make k dummy_rt in
        let s = ref !stack in
        for j = k - 1 downto 0 do
          match !s with
          | t :: tl ->
              args.(j) <- t;
              s := tl
          | [] -> assert false
        done;
        stack := Struct (f, args) :: !s
  done;
  match !stack with [ t ] -> t | _ -> assert false

(* Candidate dispatch — the compiled mirror of the interpreter's
   [admitted_candidates], admitting the same clauses in the same order
   for every goal (the arrays were precomputed per first-argument
   functor at compile time, so the per-goal work is two table hits). *)
let admitted (cp : Compile.t) g =
  match g with
  | Ref _ -> cp.Compile.cp_all
  | Struct (f, args) -> (
      let n = Array.length args in
      match Compile.Key_tbl.find_opt cp.Compile.cp_preds ((f :> int), n) with
      | None -> cp.Compile.cp_var_heads
      | Some pr ->
          if n = 0 then pr.Compile.pr_bucket
          else (
            match deref args.(0) with
            | Ref _ -> pr.Compile.pr_bucket
            | Struct (g0, gargs) -> (
                match
                  Compile.Key_tbl.find_opt pr.Compile.pr_switch
                    ((g0 :> int), Array.length gargs)
                with
                | Some arr -> arr
                | None -> pr.Compile.pr_anyfirst)))

type solution_action = Continue | Stop

(* The resolution loop.  [skip_level] selects the interpreter flavour
   being mirrored on budget exhaustion: [Engine.solve]'s lazy Seq still
   offers every remaining candidate one (failing) tick as it unwinds,
   while [Engine.provable] abandons a whole candidate list at the first
   failing tick — step counts must match whichever oracle the caller
   diffs against.  All calls are tail calls: deep searches cost heap
   (the choice-point list), not stack. *)
let search st (cp : Compile.t) goals0 ~skip_level ~budget ~on_solution =
  let cps = ref [] in
  let rec solve goals =
    match goals with
    | [] -> ( match on_solution () with Continue -> backtrack () | Stop -> ())
    | e :: _ ->
        if e.g_depth <= 0 then begin
          st.s_abandoned <- st.s_abandoned + 1;
          backtrack ()
        end
        else begin
          let g = deref e.g_rt in
          let cands = admitted cp g in
          let n = Array.length cands in
          st.s_hits <- st.s_hits + n;
          st.s_misses <- st.s_misses + (cp.Compile.cp_total - n);
          let k =
            {
              k_goals = goals;
              k_goal = g;
              k_cands = cands;
              k_next = 0;
              k_trail = st.s_trail_top;
            }
          in
          cps := k :: !cps;
          advance k
        end
  and advance k =
    if k.k_next >= Array.length k.k_cands then begin
      cps := List.tl !cps;
      backtrack ()
    end
    else begin
      let c = k.k_cands.(k.k_next) in
      k.k_next <- k.k_next + 1;
      if not (Budget.tick budget ~engine:"prolog") then
        if skip_level then begin
          cps := List.tl !cps;
          backtrack ()
        end
        else advance k
      else begin
        st.s_tries <- st.s_tries + 1;
        st.s_unifs <- st.s_unifs + 1;
        let regs = Array.make c.Compile.c_nregs None in
        if run_head st c.Compile.c_head k.k_goal regs then begin
          match k.k_goals with
          | [] -> assert false
          | e :: rest ->
              let nbody = Array.length c.Compile.c_body in
              let slots =
                if st.s_skel then begin
                  let slots = Array.init nbody (fun _ -> ref None) in
                  e.g_slot :=
                    Some
                      {
                        d_rt = e.g_rt;
                        d_idx = c.Compile.c_idx;
                        d_children = slots;
                      };
                  slots
                end
                else [||]
              in
              let depth' = e.g_depth - 1 in
              let entries = Array.make nbody e in
              for i = 0 to nbody - 1 do
                entries.(i) <-
                  {
                    g_rt = build st c.Compile.c_body.(i) regs;
                    g_depth = depth';
                    g_slot = (if st.s_skel then slots.(i) else e.g_slot);
                  }
              done;
              let rec cons i acc =
                if i < 0 then acc else cons (i - 1) (entries.(i) :: acc)
              in
              solve (cons (nbody - 1) rest)
        end
        else begin
          st.s_backs <- st.s_backs + 1;
          undo st k.k_trail;
          advance k
        end
      end
    end
  and backtrack () =
    match !cps with
    | [] -> ()
    | k :: _ ->
        undo st k.k_trail;
        advance k
  in
  solve goals0

let rec readback t =
  match deref t with
  | Struct (f, args) -> Term.App (f, List.map readback (Array.to_list args))
  | Ref c -> Term.Var ("_G" ^ string_of_int c.vid)

let rec extract (n : node) : Derivation.t =
  {
    Derivation.goal = readback n.d_rt;
    clause_index = n.d_idx;
    children =
      List.map
        (fun slot ->
          match !slot with Some m -> extract m | None -> assert false)
        (Array.to_list n.d_children);
  }

(* Instantiate a compiled query: one register file per run, goal terms
   built fresh so successive runs never see each other's bindings.
   Goals build front to back so fresh cells number in reading order. *)
let prepare st (q : Compile.query) depth =
  let qregs = Array.make q.Compile.q_nregs None in
  let ngoals = Array.length q.Compile.q_goals in
  let slots =
    if st.s_skel then Array.init ngoals (fun _ -> ref None)
    else Array.make ngoals (ref None)
  in
  let built = Array.make ngoals dummy_rt in
  for i = 0 to ngoals - 1 do
    built.(i) <- build st q.Compile.q_goals.(i) qregs
  done;
  let entries = ref [] in
  for i = ngoals - 1 downto 0 do
    entries :=
      { g_rt = built.(i); g_depth = depth; g_slot = slots.(i) } :: !entries
  done;
  (qregs, slots, !entries)

(* Decision tabling, WAM-lite edition of SLG tabling's answer tables:
   a [provable] verdict depends only on the compiled program, the
   compiled query and the depth cap — no binding escapes — so repeat
   decision queries (the corpus sweeps, the service's hot checks)
   answer from a small per-domain table keyed on physical identity.
   Only the boolean entry point tables (derivations and solution lists
   stay live), and only under an unlimited budget: a limited budget's
   ticks are observable and must be consumed by a real search.  Counted
   by [prolog.table_hits]; the span, fault probe and
   [prolog.compiled_calls] still fire on a hit, so tracing and fault
   injection see tabled calls too. *)
let table_capacity = 32

let table_key : (Compile.t * Compile.query * int * bool) list ref Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> ref [])

let run_provable ~max_depth ~budget cprog q =
  let st = new_state ~skel:false () in
  let _qregs, _slots, goals = prepare st q max_depth in
  let found = ref false in
  let on_solution () =
    st.s_sols <- st.s_sols + 1;
    found := true;
    Stop
  in
  Fun.protect
    ~finally:(fun () -> flush st)
    (fun () ->
      search st cprog goals ~skip_level:true ~budget ~on_solution);
  !found

let provable ?(max_depth = 64) ?(budget = Budget.unlimited) cprog q =
  Argus_obs.Span.with_ ~name:"prolog.provable" @@ fun () ->
  Fault.point "prolog.provable";
  Argus_obs.Counter.incr c_compiled_calls;
  if Budget.is_limited budget then run_provable ~max_depth ~budget cprog q
  else begin
    let table = Domain.DLS.get table_key in
    let rec find = function
      | [] -> None
      | (p, q', d, r) :: _ when p == cprog && q' == q && d = max_depth ->
          Some r
      | _ :: rest -> find rest
    in
    match find !table with
    | Some r ->
        Argus_obs.Counter.incr c_table_hits;
        r
    | None ->
        let r = run_provable ~max_depth ~budget cprog q in
        let entries = (cprog, q, max_depth, r) :: !table in
        table :=
          (if List.length entries > table_capacity then
             List.filteri (fun i _ -> i < table_capacity) entries
           else entries);
        r
  end

let solutions ?(max_depth = 64) ?(budget = Budget.unlimited) ?(limit = 10)
    cprog q =
  Argus_obs.Span.with_ ~name:"prolog.solutions" @@ fun () ->
  Fault.point "prolog.solve";
  Argus_obs.Counter.incr c_compiled_calls;
  if limit <= 0 then []
  else begin
    let st = new_state ~skel:false () in
    let qregs, _slots, goals = prepare st q max_depth in
    let out = ref [] in
    let count = ref 0 in
    let on_solution () =
      st.s_sols <- st.s_sols + 1;
      let bs =
        List.map
          (fun (v, r) ->
            ( v,
              match qregs.(r) with
              | Some t -> readback t
              | None -> Term.Var v ))
          (Array.to_list q.Compile.q_vars)
      in
      out := bs :: !out;
      incr count;
      if Budget.exhausted budget = None && !count < limit then Continue
      else Stop
    in
    Fun.protect
      ~finally:(fun () -> flush st)
      (fun () ->
        search st cprog goals ~skip_level:false ~budget ~on_solution);
    List.rev !out
  end

let prove ?(max_depth = 64) ?(budget = Budget.unlimited) cprog q =
  Argus_obs.Span.with_ ~name:"prolog.prove" @@ fun () ->
  Fault.point "prolog.solve";
  Argus_obs.Counter.incr c_compiled_calls;
  let st = new_state ~skel:true () in
  let _qregs, slots, goals = prepare st q max_depth in
  let result = ref None in
  let on_solution () =
    st.s_sols <- st.s_sols + 1;
    (* Single-goal queries only, like the interpreter's [[ deriv ]]
       pattern: a conjunction has no single root derivation. *)
    if Array.length slots = 1 then begin
      match !(slots.(0)) with
      | Some n -> result := Some (extract n)
      | None -> ()
    end;
    Stop
  in
  Fun.protect
    ~finally:(fun () -> flush st)
    (fun () ->
      search st cprog goals ~skip_level:false ~budget ~on_solution);
  !result

(* Convenience entry points mirroring the interpreter's signatures: compile
   (through the caches) and run.  The query compiles per call — cheap
   next to the search, and the CLI paths that use these run one query
   per process anyway; hot callers should pre-compile with
   [Compile.query] and call the versions above. *)

let provable_term ?max_depth ?budget program goal =
  provable ?max_depth ?budget (Compile.program program)
    (Compile.query [ goal ])

let solutions_term ?max_depth ?budget ?limit program goal =
  solutions ?max_depth ?budget ?limit (Compile.program program)
    (Compile.query [ goal ])

let prove_term ?max_depth ?budget program goal =
  prove ?max_depth ?budget (Compile.program program) (Compile.query [ goal ])
