(* The first DPLL solver, persistent-map assignments and clause-list
   rebuilding at every decision: simple, obviously correct, and what
   the array solver in lib/logic/sat.ml is property-tested against
   (test/logic).  It does not touch the engine counters. *)

open Argus_logic.Sat

let lit var sign = { var; sign }
let neg_lit l = { l with sign = not l.sign }

module Smap = Map.Make (String)

type assignment = bool Smap.t

let lit_value (asg : assignment) l =
  match Smap.find_opt l.var asg with
  | None -> None
  | Some b -> Some (Bool.equal b l.sign)

(* Simplify a clause under the assignment: [None] when satisfied,
   [Some remaining] otherwise. *)
let simplify_clause asg clause =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | l :: rest -> (
        match lit_value asg l with
        | Some true -> None
        | Some false -> go acc rest
        | None -> go (l :: acc) rest)
  in
  go [] clause

exception Conflict

let simplify asg clauses =
  List.filter_map
    (fun c ->
      match simplify_clause asg c with
      | None -> None
      | Some [] -> raise Conflict
      | Some c -> Some c)
    clauses

let find_unit clauses =
  List.find_map (function [ l ] -> Some l | _ -> None) clauses

let find_pure clauses =
  let polarity = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt polarity l.var with
          | None -> Hashtbl.add polarity l.var (Some l.sign)
          | Some (Some s) when Bool.equal s l.sign -> ()
          | Some (Some _) -> Hashtbl.replace polarity l.var None
          | Some None -> ())
        c)
    clauses;
  Hashtbl.fold
    (fun var pol acc ->
      match (acc, pol) with
      | Some _, _ -> acc
      | None, Some sign -> Some (lit var sign)
      | None, None -> acc)
    polarity None

let rec dpll asg clauses =
  match clauses with
  | [] -> Some asg
  | _ when List.exists (fun c -> c = []) clauses -> None
  | _ -> (
      match find_unit clauses with
      | Some l -> assign asg clauses l
      | None -> (
          match find_pure clauses with
          | Some l -> assign asg clauses l
          | None -> (
              match clauses with
              | (l :: _) :: _ -> (
                  match assign asg clauses l with
                  | Some _ as r -> r
                  | None -> assign asg clauses (neg_lit l))
              | _ -> assert false)))

and assign asg clauses l =
  let asg = Smap.add l.var l.sign asg in
  match simplify asg clauses with
  | clauses -> dpll asg clauses
  | exception Conflict -> None

let cnf_vars clauses =
  List.fold_left
    (fun acc c -> List.fold_left (fun acc l -> Smap.add l.var true acc) acc c)
    Smap.empty clauses

let solve clauses =
  (* One variable scan serves both the completion step and (in the
     instrumented solver) the counter. *)
  let all = cnf_vars clauses in
  match dpll Smap.empty clauses with
  | None -> None
  | Some asg ->
      (* Complete the assignment over all variables that occur. *)
      let completed =
        Smap.mapi
          (fun v _ ->
            match Smap.find_opt v asg with Some b -> b | None -> true)
          all
      in
      Some (Smap.bindings completed)
