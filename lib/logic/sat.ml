module Budget = Argus_rt.Budget
module Fault = Argus_rt.Fault

type literal = { var : string; sign : bool }
type clause = literal list
type cnf = clause list

let lit var sign = { var; sign }
let neg_lit l = { l with sign = not l.sign }

(* --- Tseitin transformation --- *)

let tseitin f =
  let counter = ref 0 in
  let clauses = ref [] in
  let emit c = clauses := c :: !clauses in
  let fresh () =
    incr counter;
    Printf.sprintf "_ts%d" !counter
  in
  (* Returns a literal equivalent to the subformula. *)
  let rec go f =
    match f with
    | Prop.Var v -> lit v true
    | Prop.Top ->
        let x = fresh () in
        emit [ lit x true ];
        lit x true
    | Prop.Bot ->
        let x = fresh () in
        emit [ lit x false ];
        lit x true
    | Prop.Not a -> neg_lit (go a)
    | Prop.And (a, b) ->
        let la = go a and lb = go b in
        let x = lit (fresh ()) true in
        (* x <-> la & lb *)
        emit [ neg_lit x; la ];
        emit [ neg_lit x; lb ];
        emit [ x; neg_lit la; neg_lit lb ];
        x
    | Prop.Or (a, b) ->
        let la = go a and lb = go b in
        let x = lit (fresh ()) true in
        emit [ neg_lit x; la; lb ];
        emit [ x; neg_lit la ];
        emit [ x; neg_lit lb ];
        x
    | Prop.Implies (a, b) -> go (Prop.Or (Prop.Not a, b))
    | Prop.Iff (a, b) ->
        let la = go a and lb = go b in
        let x = lit (fresh ()) true in
        emit [ neg_lit x; neg_lit la; lb ];
        emit [ neg_lit x; la; neg_lit lb ];
        emit [ x; la; lb ];
        emit [ x; neg_lit la; neg_lit lb ];
        x
  in
  let root = go f in
  emit [ root ];
  List.rev !clauses

(* --- DPLL --- *)

(* Solver counters (catalogue in DESIGN.md). *)
let c_clauses = Argus_obs.Counter.make "sat.clauses"
let c_vars = Argus_obs.Counter.make "sat.vars"
let c_decisions = Argus_obs.Counter.make "sat.decisions"
let c_unit_props = Argus_obs.Counter.make "sat.unit_propagations"
let c_pure = Argus_obs.Counter.make "sat.pure_eliminations"
let c_conflicts = Argus_obs.Counter.make "sat.conflicts"

(* The solver works on interned variables and int-encoded literals:
   variable [v] (0-based) is literal [2v] positive and [2v+1] negative,
   so negation is [lxor 1] and the variable is [lsr 1].  The assignment
   is one int array plus an undo trail; clause state never needs undo
   because the two watched literals of each clause (kept in positions 0
   and 1, MiniSat-style) satisfy the invariant "watched literals are
   not false, or the clause is satisfied" at every decision level. *)

exception Unsat

(* Raised (and caught inside [solve]) when the budget runs out
   mid-search: the search stops where it stands and [solve] answers
   [None] with the budget marked exhausted — callers that passed a
   budget must treat the answer as unknown once
   [Budget.exhausted] is set. *)
exception Stopped

type solver = {
  nvars : int;
  names : string array;
  value : int array;  (** per variable: 0 unknown, 1 true, -1 false *)
  trail : int array;  (** literal codes, in assignment order *)
  mutable trail_n : int;
  mutable qhead : int;  (** propagation frontier into [trail] *)
  clauses : int array array;  (** clauses with >= 2 literals *)
  watches : int list array;  (** literal code -> watching clause indices *)
}

let lit_value s l =
  let v = s.value.(l lsr 1) in
  if v = 0 then 0 else if l land 1 = 0 then v else -v

(* Record [l] as true.  Raises [Unsat] on contradiction with the
   current assignment (only possible for top-level enqueues; during
   search the callers check first). *)
let assign s l =
  match lit_value s l with
  | 1 -> ()
  | -1 -> raise Unsat
  | _ ->
      s.value.(l lsr 1) <- (if l land 1 = 0 then 1 else -1);
      s.trail.(s.trail_n) <- l;
      s.trail_n <- s.trail_n + 1

let undo_to s mark =
  for i = mark to s.trail_n - 1 do
    s.value.(s.trail.(i) lsr 1) <- 0
  done;
  s.trail_n <- mark;
  s.qhead <- mark

(* Propagate everything queued on the trail; false on conflict. *)
let propagate budget s =
  let ok = ref true in
  while !ok && s.qhead < s.trail_n do
    if not (Budget.tick budget ~engine:"sat") then raise Stopped;
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let fl = l lxor 1 in
    let ws = s.watches.(fl) in
    s.watches.(fl) <- [];
    let rec process = function
      | [] -> ()
      | ci :: rest -> (
          let c = s.clauses.(ci) in
          (* Normalise so the falsified watch sits in position 1. *)
          if c.(0) = fl then begin
            c.(0) <- c.(1);
            c.(1) <- fl
          end;
          if lit_value s c.(0) = 1 then begin
            (* Clause already satisfied by the other watch. *)
            s.watches.(fl) <- ci :: s.watches.(fl);
            process rest
          end
          else
            let len = Array.length c in
            let k = ref 2 in
            while !k < len && lit_value s c.(!k) = -1 do
              incr k
            done;
            if !k < len then begin
              (* Found a non-false literal: move the watch there. *)
              c.(1) <- c.(!k);
              c.(!k) <- fl;
              s.watches.(c.(1)) <- ci :: s.watches.(c.(1));
              process rest
            end
            else begin
              s.watches.(fl) <- ci :: s.watches.(fl);
              match lit_value s c.(0) with
              | -1 ->
                  (* All literals false: conflict.  Put the unvisited
                     watchers back before bailing out. *)
                  List.iter
                    (fun cj -> s.watches.(fl) <- cj :: s.watches.(fl))
                    rest;
                  Argus_obs.Counter.incr c_conflicts;
                  ok := false
              | _ ->
                  Argus_obs.Counter.incr c_unit_props;
                  assign s c.(0);
                  process rest
            end)
    in
    process ws
  done;
  !ok

let next_unassigned s =
  let rec go v = if v >= s.nvars then None else if s.value.(v) = 0 then Some v else go (v + 1) in
  go 0

let rec search budget s =
  if not (propagate budget s) then false
  else
    match next_unassigned s with
    | None -> true
    | Some v ->
        Fault.point "sat.decide";
        if not (Budget.tick budget ~engine:"sat") then raise Stopped;
        Argus_obs.Counter.incr c_decisions;
        let mark = s.trail_n in
        assign s (2 * v);
        if search budget s then true
        else begin
          undo_to s mark;
          assign s ((2 * v) + 1);
          if search budget s then true
          else begin
            undo_to s mark;
            false
          end
        end

let solve ?(budget = Budget.unlimited) input_clauses =
  Argus_obs.Span.with_ ~name:"sat.solve" @@ fun () ->
  Argus_obs.Counter.add c_clauses (List.length input_clauses);
  (* Intern the variables of this CNF into 0..nvars-1, assigning ids as
     literals are first encountered (one pass — hashing the variable
     strings is the bulk of preprocessing, so each occurrence is hashed
     exactly once).  Encode: sort + dedupe each clause, drop
     tautologies, split off units.  An empty clause is immediately
     unsatisfiable. *)
  let ids = Hashtbl.create 64 in
  let rev_names = ref [] in
  let nvars = ref 0 in
  let code l =
    let v =
      match Hashtbl.find_opt ids l.var with
      | Some v -> v
      | None ->
          let v = !nvars in
          Hashtbl.add ids l.var v;
          rev_names := l.var :: !rev_names;
          incr nvars;
          v
    in
    (2 * v) + if l.sign then 0 else 1
  in
  (* Dedup and tautology detection without sorting (the watch scheme
     does not care about literal order): stamp each literal code with
     the clause number as the clause is scanned — a repeated stamp is a
     duplicate, a stamp on the negation makes the clause tautological.
     A tautological clause is dropped but its remaining variables are
     still interned, so the model covers every variable of the input. *)
  let stamps = ref (Array.make 64 (-1)) in
  let ensure l =
    if l >= Array.length !stamps then begin
      let bigger = Array.make (2 * (l + 1)) (-1) in
      Array.blit !stamps 0 bigger 0 (Array.length !stamps);
      stamps := bigger
    end
  in
  let clause_no = ref 0 in
  let encoded =
    List.filter_map
      (fun c ->
        let ci = !clause_no in
        incr clause_no;
        let rec scan lits kept n taut =
          match lits with
          | [] -> if taut then None else Some (kept, n)
          | l0 :: rest ->
              let l = code l0 in
              if taut then scan rest kept n true
              else begin
                ensure (l lor 1);
                let st = !stamps in
                if st.(l lxor 1) = ci then scan rest kept n true
                else if st.(l) = ci then scan rest kept n false
                else begin
                  st.(l) <- ci;
                  scan rest (l :: kept) (n + 1) false
                end
              end
        in
        match scan c [] 0 false with
        | None -> None
        | Some (kept, n) ->
            let arr = Array.make n 0 in
            List.iteri (fun i l -> arr.(i) <- l) kept;
            Some arr)
      input_clauses
  in
  let nvars = !nvars in
  Argus_obs.Counter.add c_vars nvars;
  let names = Array.make nvars "" in
  List.iteri (fun i v -> names.(nvars - 1 - i) <- v) !rev_names;
  let s =
    {
      nvars;
      names;
      value = Array.make nvars 0;
      trail = Array.make (max nvars 1) 0;
      trail_n = 0;
      qhead = 0;
      clauses =
        Array.of_list (List.filter (fun c -> Array.length c >= 2) encoded);
      watches = Array.make (2 * max nvars 1) [];
    }
  in
  match
    if List.exists (fun c -> Array.length c = 0) encoded then begin
      Argus_obs.Counter.incr c_conflicts;
      raise Unsat
    end;
    (* Top-level unit clauses are facts. *)
    List.iter
      (fun c ->
        if Array.length c = 1 then begin
          Argus_obs.Counter.incr c_unit_props;
          assign s c.(0)
        end)
      encoded;
    Array.iteri
      (fun ci c ->
        s.watches.(c.(0)) <- ci :: s.watches.(c.(0));
        s.watches.(c.(1)) <- ci :: s.watches.(c.(1)))
      s.clauses;
    (* Pure-literal preprocessing: a variable with a single polarity
       across the CNF can be assigned that polarity up front. *)
    let occurs_pos = Array.make (max nvars 1) false in
    let occurs_neg = Array.make (max nvars 1) false in
    Array.iter
      (Array.iter (fun l ->
           if l land 1 = 0 then occurs_pos.(l lsr 1) <- true
           else occurs_neg.(l lsr 1) <- true))
      s.clauses;
    for v = 0 to nvars - 1 do
      if s.value.(v) = 0 && occurs_pos.(v) <> occurs_neg.(v) then begin
        Argus_obs.Counter.incr c_pure;
        assign s (if occurs_pos.(v) then 2 * v else (2 * v) + 1)
      end
    done;
    search budget s
  with
  | true ->
      let model = ref [] in
      for v = nvars - 1 downto 0 do
        model := (s.names.(v), s.value.(v) = 1) :: !model
      done;
      Some (List.sort (fun (a, _) (b, _) -> String.compare a b) !model)
  | false -> None
  | exception Unsat -> None
  | exception Stopped -> None

(* Four cheap deterministic valuations tried before building the
   Tseitin CNF.  Most queries on the fallacy-scan paths are satisfiable
   (consistent premise sets, non-equivalent formula pairs), and a
   single [Prop.eval] witness settles those without allocating clauses
   or running DPLL; unsatisfiable queries pay four linear evals and
   fall through.  The answer is unchanged: a witness valuation is a
   model. *)
let c_quick = Argus_obs.Counter.make "sat.quick_wins"
let hash_parity v = Hashtbl.hash (v : string) land 1 = 1

let quick_witness f =
  Prop.eval (fun _ -> true) f
  || Prop.eval (fun _ -> false) f
  || Prop.eval hash_parity f
  || Prop.eval (fun v -> not (hash_parity v)) f

(* Corpus scans and the fallacy checker ask [satisfiable] about the
   same formulas over and over (every pass over the 45 Greenwell
   instances re-poses structurally identical queries), so the answer is
   memoized.  The table is domain-local — each domain of a parallel
   scan keeps its own, so no locking and, the function being pure,
   identical results on any domain — and is reset once it reaches
   [memo_limit] entries to bound memory. *)
let c_memo = Argus_obs.Counter.make "sat.memo_hits"
let memo_limit = 4096

let memo_key : (Prop.t, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let satisfiable_uncached ?budget f =
  if quick_witness f then begin
    Argus_obs.Counter.incr c_quick;
    true
  end
  else solve ?budget (tseitin f) <> None

let satisfiable ?(budget = Budget.unlimited) f =
  if Budget.is_limited budget then
    (* A budgeted answer may be a truncation artefact; keep it out of
       the memo so unbudgeted callers never inherit it. *)
    satisfiable_uncached ~budget f
  else
    let memo = Domain.DLS.get memo_key in
    match Hashtbl.find_opt memo f with
    | Some r ->
        Argus_obs.Counter.incr c_memo;
        r
    | None ->
        let r = satisfiable_uncached f in
        if Hashtbl.length memo >= memo_limit then Hashtbl.reset memo;
        Hashtbl.add memo f r;
        r

let valid ?budget f = not (satisfiable ?budget (Prop.Not f))

let entails ?budget premises conclusion =
  not (satisfiable ?budget (Prop.And (Prop.conj premises, Prop.Not conclusion)))

let equivalent ?budget a b = valid ?budget (Prop.Iff (a, b))

let models ?budget f =
  match solve ?budget (tseitin f) with
  | None -> None
  | Some asg ->
      let fvars = Prop.vars f in
      Some
        (List.map
           (fun v ->
             match List.assoc_opt v asg with
             | Some b -> (v, b)
             | None -> (v, true))
           fvars)

type count = Exact of int | At_least of int

let count_models ?(budget = Budget.unlimited) f =
  let fvars = Prop.vars f in
  let n = List.length fvars in
  if n > 24 then invalid_arg "count_models: too many variables";
  (* var -> bit index, precomputed instead of an O(n) scan per variable
     per valuation. *)
  let bit = Hashtbl.create (2 * n) in
  List.iteri (fun i v -> Hashtbl.replace bit v i) fvars;
  let count = ref 0 in
  (* A budget cut mid-enumeration means the remaining valuations were
     never evaluated, so the tally is a lower bound — reported as such
     rather than passed off as the exact count. *)
  let truncated = ref false in
  let mask = ref 0 in
  let last = (1 lsl n) - 1 in
  while (not !truncated) && !mask <= last do
    if not (Budget.tick budget ~engine:"sat") then truncated := true
    else begin
      let m = !mask in
      let valuation v = m land (1 lsl Hashtbl.find bit v) <> 0 in
      if Prop.eval valuation f then incr count;
      incr mask
    end
  done;
  if !truncated then At_least !count else Exact !count
