let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* The one tokenizer: [f i j] for each maximal alphanumeric run
   [s.[i..j-1]], left to right. *)
let iter_tokens s f =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_alnum (String.unsafe_get s !i) then begin
      let j = ref (!i + 1) in
      while !j < n && is_alnum (String.unsafe_get s !j) do
        incr j
      done;
      f !i !j;
      i := !j
    end
    else incr i
  done

let words s =
  let acc = ref [] in
  iter_tokens s (fun i j -> acc := String.sub s i (j - i) :: !acc);
  List.rev !acc

(* [w] already lowercased. *)
let strip_plural w =
  let n = String.length w in
  if n > 3 && w.[n - 1] = 's' && w.[n - 2] <> 's' then String.sub w 0 (n - 1)
  else w

let normalise_word w = strip_plural (String.lowercase_ascii w)

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

(* Finite-verb (or copula) markers that make a sentence read as a
   proposition rather than a noun phrase.  Deliberately coarse. *)
let is_verb_marker = function
  | "is" | "are" | "was" | "were" | "be" | "been" | "holds" | "hold" | "has"
  | "have" | "meets" | "meet" | "satisfies" | "satisfy" | "complies"
  | "comply" | "shall" | "will" | "must" | "can" | "cannot" | "does" | "do"
  | "operates" | "operate" | "remains" | "remain" | "occurs" | "occur"
  | "exists" | "exist" | "prevents" | "prevent" | "ensures" | "ensure"
  | "implies" | "imply" | "managed" | "mitigated" | "acceptable" | "tolerable"
  | "identified" | "addressed" | "inhibited" | "correct" | "safe" | "secure"
  | "sufficient" | "valid" | "complete" ->
      true
  | _ -> false

let is_universal_marker = function
  | "all" | "always" | "never" | "every" | "any" -> true
  | _ -> false

(* The argument-from-ignorance phrases, lowercase, by first letter. *)
let ignorance_phrases_a = [ "absence of any report" ]
let ignorance_phrases_h =
  [ "has never been observed"; "have never been observed" ]

let ignorance_phrases_n =
  [
    "no evidence that";
    "no evidence of";
    "not been shown";
    "never been demonstrated";
    "no counterexample";
  ]

(* Whether the lowercase [p] occurs in [s] at [k], ignoring the case of
   [s] — compared in place, without a closure. *)
let rec matches_ci s k p m =
  m = String.length p
  || Char.lowercase_ascii (String.unsafe_get s (k + m)) = String.unsafe_get p m
     && matches_ci s k p (m + 1)

let rec phrase_at s k = function
  | [] -> false
  | p :: ps ->
      (k + String.length p <= String.length s && matches_ci s k p 0)
      || phrase_at s k ps

type scan = {
  content : string list;
  universal : bool;
  verb : bool;
  ignorance : bool;
}

(* One pass: each token is lowercased once, into the one string that
   the marker tables, the plural stripper and the stop list all read.
   Every ignorance phrase starts with a letter, so a match starts inside
   a token: the lowercasing loop dispatches on each lowered letter and
   tries only the phrases that begin with it, reading [s] in place. *)
let scan s =
  let content = ref [] in
  let universal = ref false and verb = ref false and ignorance = ref false in
  iter_tokens s (fun i j ->
      let lw = Bytes.create (j - i) in
      for k = i to j - 1 do
        let c = Char.lowercase_ascii (String.unsafe_get s k) in
        Bytes.unsafe_set lw (k - i) c;
        if not !ignorance then
          let phrases =
            match c with
            | 'a' -> ignorance_phrases_a
            | 'h' -> ignorance_phrases_h
            | 'n' -> ignorance_phrases_n
            | _ -> []
          in
          if phrase_at s k phrases then ignorance := true
      done;
      let lw = Bytes.unsafe_to_string lw in
      if (not !universal) && is_universal_marker lw then universal := true;
      if (not !verb) && is_verb_marker lw then verb := true;
      let w = strip_plural lw in
      if not (is_stop_word w) then content := w :: !content);
  {
    content = List.rev !content;
    universal = !universal;
    verb = !verb;
    ignorance = !ignorance;
  }

let content_words s = (scan s).content

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
