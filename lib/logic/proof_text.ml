let rule_keywords =
  [
    "premise"; "assumption"; "join"; "split-left"; "split-right";
    "widen-left"; "widen-right"; "cases"; "detach"; "conclusion";
    "iff-intro"; "iff-elim-left"; "iff-elim-right"; "contradiction";
    "reductio"; "exfalso"; "reiterate"; "excluded-middle";
  ]

exception Line_error of string

let rule_of ~keyword ~args =
  let arity n k =
    if List.length args <> n then
      raise
        (Line_error
           (Printf.sprintf "%s takes %d citation(s), got %d" keyword n
              (List.length args)))
    else k ()
  in
  let one k = arity 1 (fun () -> k (List.nth args 0)) in
  let two k = arity 2 (fun () -> k (List.nth args 0) (List.nth args 1)) in
  match keyword with
  | "premise" -> arity 0 (fun () -> Natded.Premise)
  | "assumption" -> arity 0 (fun () -> Natded.Assumption)
  | "join" -> two (fun i j -> Natded.And_intro (i, j))
  | "split-left" -> one (fun i -> Natded.And_elim_left i)
  | "split-right" -> one (fun i -> Natded.And_elim_right i)
  | "widen-left" -> one (fun i -> Natded.Or_intro_left i)
  | "widen-right" -> one (fun i -> Natded.Or_intro_right i)
  | "cases" ->
      arity 3 (fun () ->
          Natded.Or_elim
            (List.nth args 0, List.nth args 1, List.nth args 2))
  | "detach" -> two (fun i j -> Natded.Imp_elim (i, j))
  | "conclusion" -> two (fun i j -> Natded.Imp_intro (i, j))
  | "iff-intro" -> two (fun i j -> Natded.Iff_intro (i, j))
  | "iff-elim-left" -> one (fun i -> Natded.Iff_elim_left i)
  | "iff-elim-right" -> one (fun i -> Natded.Iff_elim_right i)
  | "contradiction" -> two (fun i j -> Natded.Not_elim (i, j))
  | "reductio" -> two (fun i j -> Natded.Not_intro (i, j))
  | "exfalso" -> one (fun i -> Natded.Bot_elim i)
  | "reiterate" -> one (fun i -> Natded.Reiterate i)
  | "excluded-middle" -> arity 0 (fun () -> Natded.Excluded_middle)
  | other -> raise (Line_error (Printf.sprintf "unknown rule %S" other))

let keyword_of_rule = function
  | Natded.Premise -> "premise"
  | Natded.Assumption -> "assumption"
  | Natded.And_intro _ -> "join"
  | Natded.And_elim_left _ -> "split-left"
  | Natded.And_elim_right _ -> "split-right"
  | Natded.Or_intro_left _ -> "widen-left"
  | Natded.Or_intro_right _ -> "widen-right"
  | Natded.Or_elim _ -> "cases"
  | Natded.Imp_elim _ -> "detach"
  | Natded.Imp_intro _ -> "conclusion"
  | Natded.Iff_intro _ -> "iff-intro"
  | Natded.Iff_elim_left _ -> "iff-elim-left"
  | Natded.Iff_elim_right _ -> "iff-elim-right"
  | Natded.Not_elim _ -> "contradiction"
  | Natded.Not_intro _ -> "reductio"
  | Natded.Bot_elim _ -> "exfalso"
  | Natded.Reiterate _ -> "reiterate"
  | Natded.Excluded_middle -> "excluded-middle"

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Strip an optional "<n>." or "<n>:" prefix; return (number, rest). *)
let strip_number line =
  let n = String.length line in
  let rec digits i = if i < n && line.[i] >= '0' && line.[i] <= '9' then digits (i + 1) else i in
  let d = digits 0 in
  if d > 0 && d < n && (line.[d] = '.' || line.[d] = ':') then
    ( Some (int_of_string (String.sub line 0 d)),
      String.sub line (d + 1) (n - d - 1) )
  else (None, line)

let parse_step line =
  let words =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  (* Trailing integers are citations; the word before them is the rule
     keyword; the rest is the formula. *)
  let rev = List.rev words in
  let rec take_ints acc = function
    | w :: rest when int_of_string_opt w <> None ->
        take_ints (int_of_string w :: acc) rest
    | rest -> (acc, rest)
  in
  let args, rest = take_ints [] rev in
  match rest with
  | [] -> raise (Line_error "missing rule name")
  | keyword :: formula_rev ->
      let keyword = String.lowercase_ascii keyword in
      if not (List.mem keyword rule_keywords) then
        raise (Line_error (Printf.sprintf "unknown rule %S" keyword));
      let formula_text = String.concat " " (List.rev formula_rev) in
      let formula =
        match Prop.of_string formula_text with
        | Ok f -> f
        | Error e -> raise (Line_error (Prop.error_message formula_text e))
      in
      { Natded.formula; rule = rule_of ~keyword ~args }

let parse text =
  let lines = String.split_on_char '\n' text in
  let steps = ref [] in
  let count = ref 0 in
  let error = ref None in
  List.iteri
    (fun lineno raw ->
      if !error = None then
        let line = String.trim (strip_comment raw) in
        if line <> "" then
          try
            let number, rest = strip_number line in
            incr count;
            (match number with
            | Some n when n <> !count ->
                raise
                  (Line_error
                     (Printf.sprintf "step numbered %d but is step %d" n !count))
            | _ -> ());
            steps := parse_step (String.trim rest) :: !steps
          with Line_error msg ->
            error := Some (Printf.sprintf "line %d: %s" (lineno + 1) msg))
    lines;
  match !error with
  | Some e -> Error e
  | None ->
      if !steps = [] then Error "empty proof"
      else Ok (List.rev !steps)

let parse_exn text =
  match parse text with Ok p -> p | Error e -> failwith e

let print proof =
  let buf = Buffer.create 256 in
  List.iteri
    (fun k { Natded.formula; rule } ->
      let cites = Natded.citations rule in
      Buffer.add_string buf
        (Printf.sprintf "%d. %s %s%s\n" (k + 1) (Prop.to_string formula)
           (keyword_of_rule rule)
           (String.concat ""
              (List.map (fun i -> " " ^ string_of_int i) cites))))
    proof;
  Buffer.contents buf
