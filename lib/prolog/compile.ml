module Term = Argus_logic.Term
module Symbol = Argus_core.Symbol

(* WAM-lite clause compilation.  Each clause becomes a flat instruction
   array: the head is pre-flattened into get/unify instructions executed
   against a stack of subject subterms seeded with the goal (so the same
   code handles read mode — matching existing structure — and write mode
   — building structure into an unbound goal argument), and each body
   goal becomes a postfix build program over the clause's register file.
   Variables are register indices; the functor table below adds
   switch-on-symbol first-argument dispatch per predicate.  [Exec] runs
   the result; the interpreted engine in test/oracle is its oracle. *)

(* Head instructions, executed left to right, one subject consumed per
   instruction.  A subject is the (dereferenced) runtime subterm the
   instruction must match; [H_struct] pushes its argument subterms so
   the following instructions match the subtree in preorder. *)
type instr =
  | H_const of Symbol.t  (** Subject must be the atom, or bind it. *)
  | H_struct of Symbol.t * int
      (** Subject must have this functor/arity (push its arguments), or
          be unbound (bind a fresh open structure and push its cells). *)
  | H_var of int  (** First occurrence: store the subject in a register. *)
  | H_val of int  (** Later occurrence: full unify against the register. *)

(* Body-goal instructions: postfix builders producing the goal term. *)
type ginstr =
  | P_var of int  (** Push the register (allocating it if still unset). *)
  | P_const of Symbol.t
  | P_struct of Symbol.t * int  (** Pop [n] arguments, push the structure. *)

(* What a clause head's first argument can match — same discrimination
   as the interpreted engine's index, so both admit identical candidate
   lists (and count identical index hits/misses). *)
type farg = FAny | FSym of Symbol.t * int

type cclause = {
  c_idx : int;  (** Position in the source program (derivations cite it). *)
  c_head : instr array;  (** Pre-flattened head, preorder. *)
  c_body : ginstr array array;  (** One postfix program per body goal. *)
  c_nregs : int;
  c_first : farg;
}

module Key_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a1, b1) : t) (a2, b2) = a1 = a2 && b1 = b2
  let hash ((a, b) : t) = (a * 65599) + b
end)

type pred = {
  pr_bucket : cclause array;
      (** This predicate/arity's candidates in program order,
          variable-head clauses merged in. *)
  pr_switch : cclause array Key_tbl.t;
      (** First-argument functor/arity -> admitted candidates. *)
  pr_anyfirst : cclause array;
      (** Candidates admitting any first argument — the switch result
          for functors no clause head mentions. *)
}

type t = {
  cp_total : int;  (** Clauses in the source program (miss accounting). *)
  cp_preds : pred Key_tbl.t;
  cp_var_heads : cclause array;  (** For goals matching no predicate. *)
  cp_all : cclause array;  (** Every clause, program order (variable goals). *)
}

let clause_count cp = cp.cp_total

let compile_clause idx (c : Program.clause) =
  let regs = Hashtbl.create 8 in
  let nregs = ref 0 in
  let reg v =
    match Hashtbl.find_opt regs v with
    | Some i -> (i, false)
    | None ->
        let i = !nregs in
        incr nregs;
        Hashtbl.add regs v i;
        (i, true)
  in
  let head_code = ref [] in
  let rec flat_head t =
    match t with
    | Term.Var v ->
        let i, first = reg v in
        head_code := (if first then H_var i else H_val i) :: !head_code
    | Term.App (f, []) -> head_code := H_const f :: !head_code
    | Term.App (f, args) ->
        head_code := H_struct (f, List.length args) :: !head_code;
        List.iter flat_head args
  in
  flat_head c.Program.head;
  let body_goal g =
    let code = ref [] in
    let rec go = function
      | Term.Var v ->
          let i, _ = reg v in
          code := P_var i :: !code
      | Term.App (f, []) -> code := P_const f :: !code
      | Term.App (f, args) ->
          List.iter go args;
          code := P_struct (f, List.length args) :: !code
    in
    go g;
    Array.of_list (List.rev !code)
  in
  let body = List.map body_goal c.Program.body in
  let first =
    match c.Program.head with
    | Term.Var _ | Term.App (_, []) -> FAny
    | Term.App (_, first :: _) -> (
        match first with
        | Term.Var _ -> FAny
        | Term.App (f, args) -> FSym (f, List.length args))
  in
  {
    c_idx = idx;
    c_head = Array.of_list (List.rev !head_code);
    c_body = Array.of_list body;
    c_nregs = !nregs;
    c_first = first;
  }

(* The head's principal functor, [None] for a bare-variable head. *)
let head_key c =
  match c.c_head.(0) with
  | H_const f -> Some ((f :> int), 0)
  | H_struct (f, n) -> Some ((f :> int), n)
  | H_var _ | H_val _ -> None

let admits_first g k c =
  match c.c_first with
  | FAny -> true
  | FSym (h, m) -> Symbol.equal g h && m = k

let program_uncached (p : Program.t) =
  let all = Array.of_list (List.mapi compile_clause p) in
  let alist = Array.to_list all in
  let var_heads =
    Array.of_list (List.filter (fun c -> head_key c = None) alist)
  in
  let preds = Key_tbl.create 16 in
  Array.iter
    (fun c ->
      match head_key c with
      | None -> ()
      | Some key ->
          if not (Key_tbl.mem preds key) then begin
            let bucket =
              Array.of_list
                (List.filter
                   (fun c' ->
                     match head_key c' with
                     | None -> true (* variable heads resolve any goal *)
                     | Some key' -> key' = key)
                   alist)
            in
            let blist = Array.to_list bucket in
            let anyfirst =
              Array.of_list
                (List.filter (fun c' -> c'.c_first = FAny) blist)
            in
            let switch = Key_tbl.create 8 in
            Array.iter
              (fun c' ->
                match c'.c_first with
                | FAny -> ()
                | FSym (g, k) ->
                    let skey = ((g :> int), k) in
                    if not (Key_tbl.mem switch skey) then
                      Key_tbl.add switch skey
                        (Array.of_list
                           (List.filter (admits_first g k) blist)))
              bucket;
            Key_tbl.add preds key
              { pr_bucket = bucket; pr_switch = switch; pr_anyfirst = anyfirst }
          end)
    all;
  {
    cp_total = Array.length all;
    cp_preds = preds;
    cp_var_heads = var_heads;
    cp_all = all;
  }

(* Compiled-program cache.  Programs are immutable lists, so the
   compiled form of a given list value never goes stale; the cache is
   keyed on physical identity.  Unlike the one-entry cache PR 2 gave the
   interpreted engine, this one holds several programs per domain
   (Domain.DLS keeps it lock-free), so alternating queries over two
   programs — the corpus scans, the differential tests — no longer
   recompile on every call.  [prolog.compilations] counts actual
   builds; a steady value under a query workload means the cache is
   doing its job. *)
let c_compilations = Argus_obs.Counter.make "prolog.compilations"
let cache_capacity = 8

let cache_key : (Program.t * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let program (p : Program.t) =
  let cache = Domain.DLS.get cache_key in
  let rec find = function
    | [] -> None
    | (q, cp) :: _ when q == p -> Some cp
    | _ :: rest -> find rest
  in
  match find !cache with
  | Some cp -> cp
  | None ->
      Argus_obs.Counter.incr c_compilations;
      let cp = program_uncached p in
      let entries = (p, cp) :: !cache in
      cache :=
        (if List.length entries > cache_capacity then
           List.filteri (fun i _ -> i < cache_capacity) entries
         else entries);
      cp

(* --- Query compilation --- *)

type query = {
  q_goals : ginstr array array;  (** One postfix program per goal. *)
  q_nregs : int;
  q_vars : (string * int) array;
      (** Query variable name -> register, first-occurrence order —
          what [Exec.solutions] reads bindings back through. *)
}

let query goals =
  let regs = Hashtbl.create 8 in
  let order = ref [] in
  let nregs = ref 0 in
  let reg v =
    match Hashtbl.find_opt regs v with
    | Some i -> i
    | None ->
        let i = !nregs in
        incr nregs;
        Hashtbl.add regs v i;
        order := (v, i) :: !order;
        i
  in
  let goal g =
    let code = ref [] in
    let rec go = function
      | Term.Var v -> code := P_var (reg v) :: !code
      | Term.App (f, []) -> code := P_const f :: !code
      | Term.App (f, args) ->
          List.iter go args;
          code := P_struct (f, List.length args) :: !code
    in
    go g;
    Array.of_list (List.rev !code)
  in
  let gs = List.map goal goals in
  {
    q_goals = Array.of_list gs;
    q_nregs = !nregs;
    q_vars = Array.of_list (List.rev !order);
  }
