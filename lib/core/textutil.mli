(** Plain-text utilities shared by the lints and the reading-audience
    experiment: tokenisation, normalisation, the one per-text scan the
    checkers derive their text predicates from, and a readability
    score.

    The equivocation lint needs word-level comparison of node texts; the
    Section VI.C simulation needs a per-argument reading-difficulty
    measure, for which we use the Flesch reading-ease formula with a
    heuristic syllable counter (exact syllabification is unnecessary —
    only the relative ordering of argument variants matters). *)

val words : string -> string list
(** Splits on non-alphanumeric characters; drops empty tokens.
    ["The thrust-reversers are inhibited"] gives
    [["The"; "thrust"; "reversers"; "are"; "inhibited"]]. *)

val normalise_word : string -> string
(** Lowercases and strips a trailing ['s] or [s] plural suffix of words
    longer than three characters — a deliberately light stemmer, enough
    to make ["Banks"] and ["bank"] compare equal in the lint. *)

type scan = {
  content : string list;
      (** The content words, in text order: each word lowercased, a
          plural ['s] stripped as {!normalise_word} does, stop words
          dropped. *)
  universal : bool;
      (** Some word, lowercased, is a universal marker ("all",
          "always", "never", "every", "any") — the paper's wcet
          example hinges on one. *)
  verb : bool;
      (** Some word, lowercased, is a finite-verb or copula marker
          ("is", "holds", "shall", "meets", "mitigated", ...) — what
          makes a goal read as a proposition rather than a noun
          phrase. *)
  ignorance : bool;
      (** The text contains, case-insensitively, a phrase that argues
          from absence of evidence ("no evidence that", "has never been
          observed", "not been shown", ...). *)
}
(** Everything the checkers read off a node's words. *)

val scan : string -> scan
(** One pass over the text: the same tokens as {!words}, each
    lowercased once, and the ignorance phrases matched in place by
    their first letter, without a lowered copy of the text. *)

val content_words : string -> string list
(** [(scan s).content]: {!words}, normalised, with English stop words
    removed. *)

val sentences : string -> string list
(** Splits on [.!?] boundaries; drops empty sentences. *)

val syllables : string -> int
(** Heuristic syllable count of one word (vowel-group counting with a
    silent-e adjustment); at least 1 for a non-empty word. *)

val flesch_reading_ease : string -> float
(** 206.835 - 1.015 (words/sentences) - 84.6 (syllables/words).
    Higher is easier.  Returns 100.0 for empty text. *)

val levenshtein : string -> string -> int
(** Edit distance, used by the pattern-instantiation defect classifier. *)

val contains_substring : string -> string -> bool
(** [contains_substring hay needle]: whether [needle] occurs in [hay],
    byte for byte.  Compares in place without copying; [false] for an
    empty [needle]. *)

val contains_symbolic_notation : string -> bool
(** Whether the text contains characters or digraphs characteristic of
    symbolic logic: [=>], [->], [&], [|-], [¬], [∧], [∨], [→], [⇒],
    [∀], [∃], [(x)] variable-ish parenthesised terms such as
    [wcet(task_1, 250)].  Used to classify node text as formal or
    natural-language (survey research question 2). *)
