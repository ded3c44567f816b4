(* The per-node text derivations as they were first written — list
   membership under polymorphic equality and a substring scan that
   copies a [String.sub] at every offset — kept as the differential
   oracle for the one scan ([Textutil.scan]) and the columns
   [Caseir.derive] computes from it.  The tree-walking checkers in this
   library read their text predicates from here. *)

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let words s =
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c -> if is_alnum c then Buffer.add_char buf c else flush ())
    s;
  flush ();
  List.rev !out

let normalise_word w =
  let w = String.lowercase_ascii w in
  let n = String.length w in
  if n > 3 && w.[n - 1] = 's' && w.[n - 2] <> 's' then String.sub w 0 (n - 1)
  else w

let stop_words =
  [
    "a"; "an"; "the"; "is"; "are"; "was"; "were"; "be"; "been"; "being";
    "and"; "or"; "not"; "no"; "of"; "to"; "in"; "on"; "at"; "by"; "for";
    "with"; "from"; "that"; "this"; "these"; "those"; "it"; "its"; "as";
    "all"; "any"; "each"; "when"; "if"; "then"; "than"; "so"; "such";
    "will"; "shall"; "can"; "cannot"; "must"; "may"; "might"; "do"; "doe";
    "ha"; "has"; "have"; "had"; "which"; "who"; "whom"; "what"; "where";
  ]

let content_words s =
  words s
  |> List.map normalise_word
  |> List.filter (fun w -> not (List.mem w stop_words))

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 || nn > nh then false
  else
    let rec go i =
      if i + nn > nh then false
      else if String.sub hay i nn = needle then true
      else go (i + 1)
    in
    go 0

let symbolic_digraphs = [ "=>"; "->"; "|-"; "<->"; ":-"; "/\\"; "\\/" ]

let symbolic_utf8 =
  [ "\xc2\xac" (* ¬ *); "\xe2\x88\xa7" (* ∧ *); "\xe2\x88\xa8" (* ∨ *);
    "\xe2\x86\x92" (* → *); "\xe2\x87\x92" (* ⇒ *); "\xe2\x88\x80" (* ∀ *);
    "\xe2\x88\x83" (* ∃ *) ]

let has_applied_term s =
  let n = String.length s in
  let rec go i =
    if i >= n then false
    else if s.[i] = '(' && i > 0 && (is_alnum s.[i - 1] || s.[i - 1] = '_')
    then true
    else go (i + 1)
  in
  go 0

let contains_symbolic_notation s =
  List.exists (contains_substring s) symbolic_digraphs
  || List.exists (contains_substring s) symbolic_utf8
  || contains_substring s "&"
  || has_applied_term s

let verb_markers =
  [
    "is"; "are"; "was"; "were"; "be"; "been"; "holds"; "hold"; "has"; "have";
    "meets"; "meet"; "satisfies"; "satisfy"; "complies"; "comply"; "shall";
    "will"; "must"; "can"; "cannot"; "does"; "do"; "operates"; "operate";
    "remains"; "remain"; "occurs"; "occur"; "exists"; "exist"; "prevents";
    "prevent"; "ensures"; "ensure"; "implies"; "imply"; "managed"; "mitigated";
    "acceptable"; "tolerable"; "identified"; "addressed"; "inhibited";
    "correct"; "safe"; "secure"; "sufficient"; "valid"; "complete";
  ]

let looks_propositional text =
  if contains_symbolic_notation text then true
  else
    let words = List.map String.lowercase_ascii (words text) in
    List.exists (fun w -> List.mem w verb_markers) words

let universal_markers = [ "all"; "always"; "never"; "every"; "any" ]

let claims_universally text =
  let words = List.map String.lowercase_ascii (words text) in
  List.exists (fun w -> List.mem w universal_markers) words

let ignorance_phrases =
  [
    "no evidence that";
    "no evidence of";
    "has never been observed";
    "have never been observed";
    "not been shown";
    "never been demonstrated";
    "absence of any report";
    "no counterexample";
  ]

let contains_ci hay needle =
  let hay = String.lowercase_ascii hay
  and needle = String.lowercase_ascii needle in
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 || nn > nh then false
  else
    let rec go i =
      if i + nn > nh then false else String.sub hay i nn = needle || go (i + 1)
    in
    go 0

let argues_from_ignorance text =
  List.exists (contains_ci text) ignorance_phrases
