let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let words s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if not (is_alnum s.[i]) then go (i + 1) acc
    else
      let j = ref (i + 1) in
      while !j < n && is_alnum s.[!j] do
        incr j
      done;
      go !j (String.sub s i (!j - i) :: acc)
  in
  go 0 []

let normalise_word w =
  let lower i = Char.lowercase_ascii w.[i] in
  let n = String.length w in
  let n =
    if n > 3 && lower (n - 1) = 's' && lower (n - 2) <> 's' then n - 1 else n
  in
  String.init n lower

let is_stop_word = function
  | "a" | "an" | "the" | "is" | "are" | "was" | "were" | "be" | "been"
  | "being" | "and" | "or" | "not" | "no" | "of" | "to" | "in" | "on" | "at"
  | "by" | "for" | "with" | "from" | "that" | "this" | "these" | "those" | "it"
  | "its" | "as" | "all" | "any" | "each" | "when" | "if" | "then" | "than"
  | "so" | "such" | "will" | "shall" | "can" | "cannot" | "must" | "may"
  | "might" | "do" | "doe" | "ha" | "has" | "have" | "had" | "which" | "who"
  | "whom" | "what" | "where" ->
      true
  | _ -> false

let content_words s =
  List.filter_map
    (fun w ->
      let w = normalise_word w in
      if is_stop_word w then None else Some w)
    (words s)

let sentences s =
  let out = ref [] in
  let buf = Buffer.create 64 in
  let flush () =
    let t = String.trim (Buffer.contents buf) in
    if t <> "" then out := t :: !out;
    Buffer.clear buf
  in
  String.iter
    (fun c ->
      match c with '.' | '!' | '?' -> flush () | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !out

let is_vowel c =
  match Char.lowercase_ascii c with
  | 'a' | 'e' | 'i' | 'o' | 'u' | 'y' -> true
  | _ -> false

let syllables w =
  let n = String.length w in
  if n = 0 then 0
  else begin
    let count = ref 0 in
    let prev_vowel = ref false in
    String.iter
      (fun c ->
        let v = is_vowel c in
        if v && not !prev_vowel then incr count;
        prev_vowel := v)
      w;
    (* A final silent 'e' usually does not add a syllable. *)
    if n > 2 && Char.lowercase_ascii w.[n - 1] = 'e' && not (is_vowel w.[n - 2])
    then decr count;
    max 1 !count
  end

let flesch_reading_ease text =
  let ws = words text in
  let ss = sentences text in
  match (ws, ss) with
  | [], _ | _, [] -> 100.0
  | _ ->
      let nw = float_of_int (List.length ws) in
      let ns = float_of_int (List.length ss) in
      let syl =
        float_of_int (List.fold_left (fun acc w -> acc + syllables w) 0 ws)
      in
      206.835 -. (1.015 *. (nw /. ns)) -. (84.6 *. (syl /. nw))

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <-
          min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(* Scans in place: no substring is copied at any offset. *)
let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec matches_at i j =
    j = nn || (hay.[i + j] = needle.[j] && matches_at i (j + 1))
  in
  let rec go i = i + nn <= nh && (matches_at i 0 || go (i + 1)) in
  nn > 0 && go 0

(* One pass over the bytes for the digraphs ([<->] contains [->]), the
   UTF-8 logic symbols, [&], and an applied-term shape like
   [wcet(task_1, 250)] — an identifier directly followed by an opening
   parenthesis.  [at] reads past the end as NUL, which no arm matches. *)
let contains_symbolic_notation s =
  let n = String.length s in
  let at i = if i < n then s.[i] else '\000' in
  let rec go i =
    i < n
    && ((match s.[i] with
        | '&' -> true
        | '=' | '-' -> at (i + 1) = '>'
        | '|' | ':' -> at (i + 1) = '-'
        | '/' -> at (i + 1) = '\\'
        | '\\' -> at (i + 1) = '/'
        | '\xc2' -> at (i + 1) = '\xac' (* ¬ *)
        | '\xe2' -> (
            match (at (i + 1), at (i + 2)) with
            | '\x88', ('\xa7' | '\xa8' | '\x80' | '\x83') (* ∧ ∨ ∀ ∃ *)
            | ('\x86' | '\x87'), '\x92' (* → ⇒ *) ->
                true
            | _ -> false)
        | '(' -> i > 0 && (is_alnum s.[i - 1] || s.[i - 1] = '_')
        | _ -> false)
       || go (i + 1))
  in
  go 0
