(* The interpreted SLD engine: the reference the compiled executor in
   lib/prolog (Compile + Exec) is held to by the differential suites.
   Nothing shipped calls it. *)

module Term = Argus_logic.Term
module Symbol = Argus_core.Symbol
module Budget = Argus_rt.Budget
module Fault = Argus_rt.Fault
module Program = Argus_prolog.Program

type derivation = Argus_prolog.Derivation.t = {
  goal : Term.t;
  clause_index : int;
  children : derivation list;
}

(* Engine counters (see the catalogue in DESIGN.md).  A failed
   unification is what sends SLD resolution to the next alternative, so
   it doubles as the backtrack count.  [index_hits] counts clauses the
   dispatch index admitted for a goal, [index_misses] clauses it ruled
   out without freshening or unifying.  Invariants: hits + misses equal
   index lookups times program size, and clause_tries <= hits (answer
   Seqs are lazy, so an admitted clause the caller never forces is a
   hit but not a try). *)
let c_clause_tries = Argus_obs.Counter.make "prolog.clause_tries"
let c_unifications = Argus_obs.Counter.make "prolog.unifications"
let c_backtracks = Argus_obs.Counter.make "prolog.backtracks"
let c_depth_abandoned = Argus_obs.Counter.make "prolog.depth_abandonments"
let c_solutions = Argus_obs.Counter.make "prolog.solutions"
let c_index_hits = Argus_obs.Counter.make "prolog.index_hits"
let c_index_misses = Argus_obs.Counter.make "prolog.index_misses"

(* Freshen a clause's variables with a globally-unique suffix so that
   resolution never confuses clause variables across uses. *)
let freshen counter (c : Program.clause) =
  incr counter;
  let suffix = string_of_int !counter in
  {
    Program.head = Term.rename ~suffix c.Program.head;
    body = List.map (Term.rename ~suffix) c.Program.body;
  }

(* --- Clause indexing --- *)

(* What a clause head's first argument can match: [FAny] (a variable, or
   the head has no arguments or is itself a variable) matches every
   goal; [FSym (f, n)] only matches goals whose first argument is a
   variable or has principal functor [f/n]. *)
type farg = FAny | FSym of Symbol.t * int

type entry = {
  idx : int;  (** Position in the source program (derivations cite it). *)
  clause : Program.clause;
  first_arg : farg;
  ground : bool;  (** Ground clauses skip freshening entirely. *)
}

(* Dispatch keys are (symbol id, arity) pairs; a hand-rolled hash keeps
   the hot bucket lookup free of the polymorphic-hash C call. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a1, b1) : t) (a2, b2) = a1 = a2 && b1 = b2
  let hash ((a, b) : t) = (a * 65599) + b
end)

type compiled = {
  total : int;  (** Number of clauses in the source program. *)
  buckets : entry list Key_tbl.t;
      (** Per predicate/arity, candidates in program order.  Clauses
          whose head is a bare variable are merged into every bucket
          (and kept in [var_heads] for goals that match no bucket). *)
  var_heads : entry list;
  all : entry list;  (** Every clause, program order (variable goals). *)
}

let clause_is_ground (c : Program.clause) =
  Term.is_ground c.Program.head && List.for_all Term.is_ground c.Program.body

let compile_uncached (program : Program.t) =
  let entries =
    List.mapi
      (fun idx clause ->
        let first_arg =
          match clause.Program.head with
          | Term.Var _ | Term.App (_, []) -> FAny
          | Term.App (_, first :: _) -> (
              match first with
              | Term.Var _ -> FAny
              | Term.App (f, args) -> FSym (f, List.length args))
        in
        { idx; clause; first_arg; ground = clause_is_ground clause })
      program
  in
  let var_heads =
    List.filter
      (fun e ->
        match e.clause.Program.head with Term.Var _ -> true | _ -> false)
      entries
  in
  let buckets = Key_tbl.create 16 in
  List.iter
    (fun e ->
      match e.clause.Program.head with
      | Term.Var _ -> ()
      | Term.App (f, args) ->
          let key = ((f :> int), List.length args) in
          if not (Key_tbl.mem buckets key) then
            (* Clauses with variable heads can resolve any goal, so they
               belong to every bucket, interleaved in program order. *)
            Key_tbl.add buckets key
              (List.filter
                 (fun e' ->
                   match e'.clause.Program.head with
                   | Term.Var _ -> true
                   | Term.App (g, args') ->
                       Symbol.equal f g && List.length args' = List.length args)
                 entries))
    entries;
  { total = List.length entries; buckets; var_heads; all = entries }

(* Programs are immutable lists, so the dispatch table for a given list
   value never changes: a physical-identity cache makes repeated
   [solve]/[provable] calls on the same program (the common pattern in
   the CLI and benchmarks) reuse the compiled index instead of
   rebuilding it per query.  The cache holds several programs per
   domain (the original one-entry slot thrashed as soon as two programs
   alternated, e.g. a corpus scan interleaving cases) and lives in
   [Domain.DLS] so pool workers never contend.  [prolog.compilations]
   counts actual builds — the regression test for the thrash asserts it
   stays flat under alternation. *)
let c_compilations = Argus_obs.Counter.make "prolog.compilations"
let cache_capacity = 8

let compile_cache : (Program.t * compiled) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compile (program : Program.t) =
  let cache = Domain.DLS.get compile_cache in
  let rec find = function
    | [] -> None
    | (p, c) :: _ when p == program -> Some c
    | _ :: rest -> find rest
  in
  match find !cache with
  | Some c -> c
  | None ->
      Argus_obs.Counter.incr c_compilations;
      let c = compile_uncached program in
      let entries = (program, c) :: !cache in
      cache :=
        (if List.length entries > cache_capacity then
           List.filteri (fun i _ -> i < cache_capacity) entries
         else entries);
      c

(* Candidates for a goal, cheapest filter first: predicate/arity
   dispatch, then first-argument discrimination.  Returns candidates in
   program order; counts hits and misses against the full program so
   the index's selectivity is visible in traces. *)
let admitted_candidates compiled goal =
  match goal with
  | Term.Var _ -> compiled.all
  | Term.App (f, args) -> (
      let bucket =
        match
          Key_tbl.find_opt compiled.buckets ((f :> int), List.length args)
        with
        | Some es -> es
        | None -> compiled.var_heads
      in
      match args with
      | [] -> bucket
      | first :: _ -> (
          match first with
          | Term.Var _ -> bucket
          | Term.App (g, gargs) ->
              let k = List.length gargs in
              List.filter
                (fun e ->
                  match e.first_arg with
                  | FAny -> true
                  | FSym (h, n) -> Symbol.equal g h && n = k)
                bucket))

let candidates compiled goal =
  let admitted = admitted_candidates compiled goal in
  let n = List.length admitted in
  Argus_obs.Counter.add c_index_hits n;
  Argus_obs.Counter.add c_index_misses (compiled.total - n);
  admitted

let solve_compiled ?(max_depth = 64) ?(budget = Budget.unlimited) compiled
    goals =
  Fault.point "prolog.solve";
  let counter = ref 0 in
  (* Resolve [goals] left to right under [subst]; yields the extended
     substitution and one derivation per goal. *)
  let rec solve_goals subst goals depth :
      (Term.Subst.t * derivation list) Seq.t =
    match goals with
    | [] -> Seq.return (subst, [])
    | goal :: rest ->
        if depth <= 0 then begin
          Argus_obs.Counter.incr c_depth_abandoned;
          Seq.empty
        end
        else
          let goal_now = Term.Subst.apply subst goal in
          candidates compiled goal_now
          |> List.to_seq
          |> Seq.concat_map (fun entry ->
                 if not (Budget.tick budget ~engine:"prolog") then Seq.empty
                 else begin
                 Argus_obs.Counter.incr c_clause_tries;
                 (* Freshening is lazy: only clauses the index admitted
                    pay for it, and ground clauses never do. *)
                 let c =
                   if entry.ground then entry.clause
                   else freshen counter entry.clause
                 in
                 Argus_obs.Counter.incr c_unifications;
                 match Term.unify_under subst goal_now c.Program.head with
                 | None ->
                     Argus_obs.Counter.incr c_backtracks;
                     Seq.empty
                 | Some subst ->
                     solve_goals subst c.Program.body (depth - 1)
                     |> Seq.concat_map (fun (subst, body_derivs) ->
                            solve_goals subst rest depth
                            |> Seq.map (fun (subst, rest_derivs) ->
                                   let deriv =
                                     {
                                       goal = Term.Subst.apply subst goal;
                                       clause_index = entry.idx;
                                       children = body_derivs;
                                     }
                                   in
                                   (subst, deriv :: rest_derivs)))
                 end)
  in
  solve_goals Term.Subst.empty goals max_depth
  |> Seq.map (fun solution ->
         Argus_obs.Counter.incr c_solutions;
         solution)

let solve ?max_depth ?budget program goals =
  solve_compiled ?max_depth ?budget (compile program) goals

(* The textbook engine the index replaced: linear scan over all clauses,
   each freshened eagerly before unification can fail.  Retained as the
   differential-testing oracle for the indexed engine. *)
let solve_naive ?(max_depth = 64) program goals =
  let counter = ref 0 in
  let indexed = List.mapi (fun i c -> (i, c)) program in
  let rec solve_goals subst goals depth :
      (Term.Subst.t * derivation list) Seq.t =
    match goals with
    | [] -> Seq.return (subst, [])
    | goal :: rest ->
        if depth <= 0 then Seq.empty
        else
          let goal_now = Term.Subst.apply subst goal in
          indexed |> List.to_seq
          |> Seq.concat_map (fun (index, clause) ->
                 let c = freshen counter clause in
                 match Term.unify_under subst goal_now c.Program.head with
                 | None -> Seq.empty
                 | Some subst ->
                     solve_goals subst c.Program.body (depth - 1)
                     |> Seq.concat_map (fun (subst, body_derivs) ->
                            solve_goals subst rest depth
                            |> Seq.map (fun (subst, rest_derivs) ->
                                   let deriv =
                                     {
                                       goal = Term.Subst.apply subst goal;
                                       clause_index = index;
                                       children = body_derivs;
                                     }
                                   in
                                   (subst, deriv :: rest_derivs))))
  in
  solve_goals Term.Subst.empty goals max_depth

let bindings_for goals subst =
  let seen = Hashtbl.create 16 in
  List.concat_map Term.vars goals
  |> List.filter_map (fun v ->
         if Hashtbl.mem seen v then None
         else begin
           Hashtbl.add seen v ();
           Some (v, Term.Subst.apply subst (Term.Var v))
         end)

let solutions ?max_depth ?budget ?(limit = 10) program goal =
  Argus_obs.Span.with_ ~name:"prolog.solutions" @@ fun () ->
  let rec take n seq =
    if n <= 0 then []
    else
      match Seq.uncons seq with
      | None -> []
      | Some ((subst, _), rest) ->
          bindings_for [ goal ] subst :: take (n - 1) rest
  in
  take limit (solve ?max_depth ?budget program [ goal ])

(* Provability needs no bindings and no derivations, so it skips the
   [Seq] machinery of [solve_compiled] for a direct backtracking
   search.  Structure, candidate order, depth accounting and counters
   mirror [solve_goals] exactly — only the success representation
   differs — so [provable] agrees with [solve] on every program. *)
let provable ?(max_depth = 64) ?(budget = Budget.unlimited) program goal =
  Argus_obs.Span.with_ ~name:"prolog.provable" @@ fun () ->
  Fault.point "prolog.provable";
  let compiled = compile program in
  let counter = ref 0 in
  (* Counter traffic is batched into locals and flushed once per call:
     a sharded increment costs ~10x a plain one, and the search loop
     below performs tens of them per query. *)
  let tries = ref 0
  and unifs = ref 0
  and backs = ref 0
  and abandoned = ref 0
  and hits = ref 0
  and misses = ref 0 in
  let rec sat subst goals depth k =
    match goals with
    | [] -> k subst
    | goal :: rest ->
        if depth <= 0 then begin
          incr abandoned;
          false
        end
        else
          let goal_now = Term.Subst.apply subst goal in
          let rec try_candidates = function
            | [] -> false
            | entry :: more ->
                if not (Budget.tick budget ~engine:"prolog") then false
                else begin
                incr tries;
                let c =
                  if entry.ground then entry.clause
                  else freshen counter entry.clause
                in
                incr unifs;
                (match Term.unify_under subst goal_now c.Program.head with
                | None ->
                    incr backs;
                    try_candidates more
                | Some subst ->
                    sat subst c.Program.body (depth - 1) (fun subst ->
                        sat subst rest depth k)
                    || try_candidates more)
                end
          in
          let admitted = admitted_candidates compiled goal_now in
          let n = List.length admitted in
          hits := !hits + n;
          misses := !misses + (compiled.total - n);
          try_candidates admitted
  in
  Fun.protect
    ~finally:(fun () ->
      let s = Argus_obs.Counter.current_shard () in
      Argus_obs.Counter.shard_add s c_clause_tries !tries;
      Argus_obs.Counter.shard_add s c_unifications !unifs;
      Argus_obs.Counter.shard_add s c_backtracks !backs;
      Argus_obs.Counter.shard_add s c_depth_abandoned !abandoned;
      Argus_obs.Counter.shard_add s c_index_hits !hits;
      Argus_obs.Counter.shard_add s c_index_misses !misses)
    (fun () ->
      if sat Term.Subst.empty [ goal ] max_depth (fun _ -> true) then begin
        Argus_obs.Counter.incr c_solutions;
        true
      end
      else false)

let prove ?max_depth ?budget program goal =
  Argus_obs.Span.with_ ~name:"prolog.prove" @@ fun () ->
  match Seq.uncons (solve ?max_depth ?budget program [ goal ]) with
  | Some ((subst, [ deriv ]), _) ->
      (* Resolve remaining variables in the recorded goals. *)
      let rec finalise d =
        {
          d with
          goal = Term.Subst.apply subst d.goal;
          children = List.map finalise d.children;
        }
      in
      Some (finalise deriv)
  | Some ((_, _), _) | None -> None

