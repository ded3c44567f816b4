module Id = Argus_core.Id

type t =
  | Any
  | Type_is of Node.node_type
  | Text_contains of string
  | Has_attr of string
  | Attr_is of string * Metadata.value
  | Attr_ge of string * int
  | Attr_le of string * int
  | Not of t
  | And of t * t
  | Or of t * t

let lowercase = String.lowercase_ascii

let contains_ci hay needle =
  needle = ""
  || Argus_core.Textutil.contains_substring (lowercase hay) (lowercase needle)

let first_arg name node =
  List.find_map
    (fun a ->
      if a.Metadata.attr = name then
        match a.Metadata.args with [] -> None | v :: _ -> Some v
      else None)
    node.Node.annotations

let numeric = function
  | Metadata.Int i | Metadata.Nat i -> Some i
  | Metadata.Str _ | Metadata.Enum _ -> None

let rec matches q node =
  match q with
  | Any -> true
  | Type_is ty -> node.Node.node_type = ty
  | Text_contains s -> contains_ci node.Node.text s
  | Has_attr name ->
      List.exists (fun a -> a.Metadata.attr = name) node.Node.annotations
  | Attr_is (name, v) -> first_arg name node = Some v
  | Attr_ge (name, bound) -> (
      match Option.bind (first_arg name node) numeric with
      | Some i -> i >= bound
      | None -> false)
  | Attr_le (name, bound) -> (
      match Option.bind (first_arg name node) numeric with
      | Some i -> i <= bound
      | None -> false)
  | Not q -> not (matches q node)
  | And (a, b) -> matches a node && matches b node
  | Or (a, b) -> matches a node || matches b node

let select q structure =
  List.filter (matches q) (Structure.nodes structure)

let trace_view q structure =
  let matched =
    select q structure |> List.map (fun n -> n.Node.id) |> Id.Set.of_list
  in
  (* Ancestors over Supported_by, walking parent links upward. *)
  let rec ancestors acc id =
    List.fold_left
      (fun acc parent ->
        if Id.Set.mem parent acc then acc
        else ancestors (Id.Set.add parent acc) parent)
      acc
      (Structure.parents Structure.Supported_by id structure)
  in
  let keep = Id.Set.fold (fun id acc -> ancestors acc id) matched matched in
  let keep =
    Id.Set.fold
      (fun id acc ->
        List.fold_left
          (fun acc ctx -> Id.Set.add ctx acc)
          acc
          (Structure.context_of id structure))
      keep keep
  in
  let view = Structure.restrict keep structure in
  (* Nodes whose support was truncated by the view are re-marked
     undeveloped, so the view remains a well-formed fragment (the same
     convention as hicase folding). *)
  Structure.map_nodes
    (fun n ->
      if
        Structure.children Structure.Supported_by n.Node.id view = []
        && Structure.children Structure.Supported_by n.Node.id structure <> []
        && n.Node.status = Node.Developed
      then { n with Node.status = Node.Undeveloped }
      else n)
    view

(* --- Parser --- *)

exception Parse_error of string

type token =
  | Word of string
  | Str of string
  | Int_tok of int
  | TEq
  | TGe
  | TLe
  | TTilde
  | TNot
  | TAnd
  | TOr
  | TLparen
  | TRparen

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':'

let tokenise s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '(' -> go (i + 1) (TLparen :: acc)
      | ')' -> go (i + 1) (TRparen :: acc)
      | '=' -> go (i + 1) (TEq :: acc)
      | '~' -> go (i + 1) (TTilde :: acc)
      | '!' -> go (i + 1) (TNot :: acc)
      | '&' -> go (i + 1) (TAnd :: acc)
      | '|' -> go (i + 1) (TOr :: acc)
      | '>' when i + 1 < n && s.[i + 1] = '=' -> go (i + 2) (TGe :: acc)
      | '<' when i + 1 < n && s.[i + 1] = '=' -> go (i + 2) (TLe :: acc)
      | '"' ->
          let buf = Buffer.create 16 in
          let rec scan j =
            if j >= n then raise (Parse_error "unterminated string")
            else if s.[j] = '"' then j + 1
            else begin
              Buffer.add_char buf s.[j];
              scan (j + 1)
            end
          in
          let next = scan (i + 1) in
          go next (Str (Buffer.contents buf) :: acc)
      | c when is_word_char c ->
          let j = ref i in
          while !j < n && is_word_char s.[!j] do
            incr j
          done;
          let w = String.sub s i (!j - i) in
          let tok =
            match int_of_string_opt w with
            | Some k -> Int_tok k
            | None -> Word w
          in
          go !j (tok :: acc)
      | c -> raise (Parse_error (Printf.sprintf "unexpected character %C" c))
  in
  go 0 []

let parse tokens =
  let toks = ref tokens in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () =
    match !toks with
    | [] -> raise (Parse_error "unexpected end of query")
    | t :: rest ->
        toks := rest;
        t
  in
  let rec p_or () =
    let lhs = p_and () in
    match peek () with
    | Some TOr ->
        ignore (advance ());
        Or (lhs, p_or ())
    | _ -> lhs
  and p_and () =
    let lhs = p_unary () in
    match peek () with
    | Some TAnd ->
        ignore (advance ());
        And (lhs, p_and ())
    | _ -> lhs
  and p_unary () =
    match peek () with
    | Some TNot ->
        ignore (advance ());
        Not (p_unary ())
    | Some TLparen ->
        ignore (advance ());
        let q = p_or () in
        (match advance () with
        | TRparen -> q
        | _ -> raise (Parse_error "expected ')'"))
    | _ -> p_atom ()
  and p_atom () =
    match advance () with
    | Word "any" -> Any
    | Word "has" -> (
        match advance () with
        | Word name -> Has_attr name
        | _ -> raise (Parse_error "expected an attribute name after 'has'"))
    | Word "type" -> (
        match advance () with
        | TEq -> (
            match advance () with
            | Word ty -> (
                match Node.type_of_string ty with
                | Some ty -> Type_is ty
                | None ->
                    raise (Parse_error (Printf.sprintf "unknown node type %S" ty)))
            | _ -> raise (Parse_error "expected a node type"))
        | _ -> raise (Parse_error "expected '=' after 'type'"))
    | Word "text" -> (
        match advance () with
        | TTilde -> (
            match advance () with
            | Str s | Word s -> Text_contains s
            | _ -> raise (Parse_error "expected text after '~'"))
        | _ -> raise (Parse_error "expected '~' after 'text'"))
    | Word name -> (
        match advance () with
        | TEq -> (
            match advance () with
            | Int_tok i ->
                Attr_is (name, if i >= 0 then Metadata.Nat i else Metadata.Int i)
            | Word w -> Attr_is (name, Metadata.Enum w)
            | Str s -> Attr_is (name, Metadata.Str s)
            | _ -> raise (Parse_error "expected a value after '='"))
        | TGe -> (
            match advance () with
            | Int_tok i -> Attr_ge (name, i)
            | _ -> raise (Parse_error "expected an integer after '>='"))
        | TLe -> (
            match advance () with
            | Int_tok i -> Attr_le (name, i)
            | _ -> raise (Parse_error "expected an integer after '<='"))
        | _ ->
            raise
              (Parse_error
                 (Printf.sprintf "expected '=', '>=' or '<=' after %S" name)))
    | _ -> raise (Parse_error "expected a query atom")
  in
  let q = p_or () in
  (match !toks with
  | [] -> ()
  | _ -> raise (Parse_error "trailing input after query"));
  q

let of_string s =
  match parse (tokenise s) with
  | q -> Ok q
  | exception Parse_error msg -> Error msg

let rec pp ppf = function
  | Any -> Format.pp_print_string ppf "any"
  | Type_is ty -> Format.fprintf ppf "type = %s" (Node.type_to_string ty)
  | Text_contains s -> Format.fprintf ppf "text ~ %S" s
  | Has_attr a -> Format.fprintf ppf "has %s" a
  | Attr_is (a, v) -> Format.fprintf ppf "%s = %s" a (Metadata.value_to_string v)
  | Attr_ge (a, i) -> Format.fprintf ppf "%s >= %d" a i
  | Attr_le (a, i) -> Format.fprintf ppf "%s <= %d" a i
  | Not q -> Format.fprintf ppf "!(%a)" pp q
  | And (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
