module Term = Argus_logic.Term
module Program = Argus_prolog.Program

let desert_bank_program =
  {|% Figure 1: a flawed argument that passes formal validation.
is_a(desert_bank, bank).
adjacent(bank, river).
adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y).
|}

let desert_bank = Program.of_string_exn desert_bank_program

(* Roles of constants: every (predicate, argument index) position a
   constant occupies, across clause heads and bodies. *)
let constant_roles program =
  let roles = Hashtbl.create 32 in
  let note name role =
    let existing = Option.value ~default:[] (Hashtbl.find_opt roles name) in
    if not (List.mem role existing) then
      Hashtbl.replace roles name (role :: existing)
  in
  let scan_atom t =
    match t with
    | Term.App (pred, args) ->
        let pred = Argus_core.Symbol.name pred in
        List.iteri
          (fun i arg ->
            match arg with
            | Term.App (c, []) -> note (Argus_core.Symbol.name c) (pred, i)
            | Term.App _ | Term.Var _ -> ())
          args
    | Term.Var _ -> ()
  in
  List.iter
    (fun c ->
      scan_atom c.Program.head;
      List.iter scan_atom c.Program.body)
    program;
  roles

let equivocation_candidates program =
  let roles = constant_roles program in
  Hashtbl.fold
    (fun name rs acc -> if List.length rs >= 2 then name :: acc else acc)
    roles []
  |> List.sort String.compare

(* Path enumeration on a dense DAG is exponential and a lint need not
   be exhaustive, so the circular-support walk always runs under a
   budget: the caller's if one was passed, otherwise an internal
   10k-step one whose truncation the checker reports itself (the
   caller cannot see a budget it never created). *)
let default_walk_fuel = 10_000
