type t =
  | Top
  | Bot
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t

let var v = Var v
let neg a = Not a

let conj = function
  | [] -> Top
  | f :: fs -> List.fold_left (fun acc g -> And (acc, g)) f fs

let disj = function
  | [] -> Bot
  | f :: fs -> List.fold_left (fun acc g -> Or (acc, g)) f fs

let equal = Stdlib.( = )
let compare = Stdlib.compare

let vars f =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec go = function
    | Top | Bot -> ()
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          out := v :: !out
        end
    | Not a -> go a
    | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
        go a;
        go b
  in
  go f;
  List.rev !out

let rec size = function
  | Top | Bot | Var _ -> 1
  | Not a -> 1 + size a
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) -> 1 + size a + size b

let rec subst lookup = function
  | (Top | Bot) as f -> f
  | Var v as f -> ( match lookup v with Some g -> g | None -> f)
  | Not a -> Not (subst lookup a)
  | And (a, b) -> And (subst lookup a, subst lookup b)
  | Or (a, b) -> Or (subst lookup a, subst lookup b)
  | Implies (a, b) -> Implies (subst lookup a, subst lookup b)
  | Iff (a, b) -> Iff (subst lookup a, subst lookup b)

let rec eval v = function
  | Top -> true
  | Bot -> false
  | Var x -> v x
  | Not a -> not (eval v a)
  | And (a, b) -> eval v a && eval v b
  | Or (a, b) -> eval v a || eval v b
  | Implies (a, b) -> (not (eval v a)) || eval v b
  | Iff (a, b) -> Bool.equal (eval v a) (eval v b)

let rec nnf = function
  | (Top | Bot | Var _) as f -> f
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Implies (a, b) -> Or (nnf (Not a), nnf b)
  | Iff (a, b) -> And (Or (nnf (Not a), nnf b), Or (nnf (Not b), nnf a))
  | Not f -> (
      match f with
      | Top -> Bot
      | Bot -> Top
      | Var _ -> Not f
      | Not a -> nnf a
      | And (a, b) -> Or (nnf (Not a), nnf (Not b))
      | Or (a, b) -> And (nnf (Not a), nnf (Not b))
      | Implies (a, b) -> And (nnf a, nnf (Not b))
      | Iff (a, b) -> Or (And (nnf a, nnf (Not b)), And (nnf (Not a), nnf b)))

(* Precedence: Iff 1, Implies 2, Or 3, And 4, Not 5, atoms 6.  A
   subformula is parenthesised when its precedence is below the context's
   requirement. *)
let rec pp_prec prec ppf f =
  let paren p body =
    if p < prec then Format.fprintf ppf "(%t)" body else body ppf
  in
  match f with
  | Top -> Format.pp_print_string ppf "true"
  | Bot -> Format.pp_print_string ppf "false"
  | Var v -> Format.pp_print_string ppf v
  | Not a -> paren 5 (fun ppf -> Format.fprintf ppf "~%a" (pp_prec 5) a)
  | And (a, b) ->
      paren 4 (fun ppf ->
          Format.fprintf ppf "%a & %a" (pp_prec 4) a (pp_prec 5) b)
  | Or (a, b) ->
      paren 3 (fun ppf ->
          Format.fprintf ppf "%a | %a" (pp_prec 3) a (pp_prec 4) b)
  | Implies (a, b) ->
      paren 2 (fun ppf ->
          Format.fprintf ppf "%a -> %a" (pp_prec 3) a (pp_prec 2) b)
  | Iff (a, b) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a <-> %a" (pp_prec 1) a (pp_prec 2) b)

let pp ppf f = pp_prec 0 ppf f
let to_string f = Format.asprintf "%a" pp f

(* --- Parser (recursive descent over a token list) --- *)

type token =
  | TVar of string
  | TTrue
  | TFalse
  | TNot
  | TAnd
  | TOr
  | TImplies
  | TIff
  | TLparen
  | TRparen

let token_to_string = function
  | TVar v -> v
  | TTrue -> "true"
  | TFalse -> "false"
  | TNot -> "~"
  | TAnd -> "&"
  | TOr -> "|"
  | TImplies -> "->"
  | TIff -> "<->"
  | TLparen -> "("
  | TRparen -> ")"

exception Parse_error of string

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let tokenise s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '(' -> go (i + 1) (TLparen :: acc)
      | ')' -> go (i + 1) (TRparen :: acc)
      | '~' | '!' -> go (i + 1) (TNot :: acc)
      | '&' -> go (i + 1) (TAnd :: acc)
      | '|' -> go (i + 1) (TOr :: acc)
      | '/' when i + 1 < n && s.[i + 1] = '\\' -> go (i + 2) (TAnd :: acc)
      | '\\' when i + 1 < n && s.[i + 1] = '/' -> go (i + 2) (TOr :: acc)
      | '-' when i + 1 < n && s.[i + 1] = '>' -> go (i + 2) (TImplies :: acc)
      | '=' when i + 1 < n && s.[i + 1] = '>' -> go (i + 2) (TImplies :: acc)
      | '<' when i + 2 < n && s.[i + 1] = '-' && s.[i + 2] = '>' ->
          go (i + 3) (TIff :: acc)
      | '<' when i + 2 < n && s.[i + 1] = '=' && s.[i + 2] = '>' ->
          go (i + 3) (TIff :: acc)
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          let word = String.sub s i (!j - i) in
          let tok =
            match String.lowercase_ascii word with
            | "true" -> TTrue
            | "false" -> TFalse
            | "not" -> TNot
            | "and" -> TAnd
            | "or" -> TOr
            | _ -> TVar word
          in
          go !j (tok :: acc)
      | c -> raise (Parse_error (Printf.sprintf "unexpected character %C" c))
  in
  go 0 []

(* Grammar (lowest to highest precedence):
     iff  ::= imp  ('<->' imp)*         left-assoc
     imp  ::= or   ('->'  imp)?         right-assoc
     or   ::= and  ('|'   and)*
     and  ::= not  ('&'   not)*
     not  ::= '~' not | atom
     atom ::= var | 'true' | 'false' | '(' iff ')'. *)
let parse tokens =
  let toks = ref tokens in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () =
    match !toks with
    | [] -> raise (Parse_error "unexpected end of input")
    | t :: rest ->
        toks := rest;
        t
  in
  let expect t =
    let got = advance () in
    if got <> t then
      raise
        (Parse_error
           (Printf.sprintf "expected %s but found %s" (token_to_string t)
              (token_to_string got)))
  in
  let rec p_iff () =
    let lhs = p_imp () in
    let rec loop acc =
      match peek () with
      | Some TIff ->
          ignore (advance ());
          loop (Iff (acc, p_imp ()))
      | _ -> acc
    in
    loop lhs
  and p_imp () =
    let lhs = p_or () in
    match peek () with
    | Some TImplies ->
        ignore (advance ());
        Implies (lhs, p_imp ())
    | _ -> lhs
  and p_or () =
    let lhs = p_and () in
    let rec loop acc =
      match peek () with
      | Some TOr ->
          ignore (advance ());
          loop (Or (acc, p_and ()))
      | _ -> acc
    in
    loop lhs
  and p_and () =
    let lhs = p_not () in
    let rec loop acc =
      match peek () with
      | Some TAnd ->
          ignore (advance ());
          loop (And (acc, p_not ()))
      | _ -> acc
    in
    loop lhs
  and p_not () =
    match peek () with
    | Some TNot ->
        ignore (advance ());
        Not (p_not ())
    | _ -> p_atom ()
  and p_atom () =
    match advance () with
    | TVar v -> Var v
    | TTrue -> Top
    | TFalse -> Bot
    | TLparen ->
        let f = p_iff () in
        expect TRparen;
        f
    | t ->
        raise
          (Parse_error
             (Printf.sprintf "unexpected token %s" (token_to_string t)))
  in
  let f = p_iff () in
  (match !toks with
  | [] -> ()
  | t :: _ ->
      raise
        (Parse_error
           (Printf.sprintf "trailing input starting at %s" (token_to_string t))));
  f

type error = Too_deep | Syntax of string

(* The parser is recursive-descent, so the paren depth is bounded
   before it runs: a hostile formula gets [Too_deep], not a stack
   overflow.  The bound is far above any formula a person writes. *)
let max_nesting = 512

let paren_depth s =
  let d = ref 0 and m = ref 0 in
  String.iter
    (fun c ->
      if c = '(' then begin
        incr d;
        if !d > !m then m := !d
      end
      else if c = ')' then decr d)
    s;
  !m

let of_string s =
  if paren_depth s > max_nesting then Error Too_deep
  else
    match parse (tokenise s) with
    | f -> Ok f
    | exception Parse_error msg -> Error (Syntax msg)

let error_message text = function
  | Too_deep -> Printf.sprintf "formula nesting exceeds %d levels" max_nesting
  | Syntax msg -> Printf.sprintf "cannot parse formula %S: %s" text msg

let of_string_exn s =
  match of_string s with
  | Ok f -> f
  | Error e -> failwith (error_message s e)

(* Exported constructors-as-operators; defined last so the rest of the
   module keeps the Stdlib boolean operators. *)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let ( ==> ) a b = Implies (a, b)
let ( <=> ) a b = Iff (a, b)
