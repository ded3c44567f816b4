(** Plain-text utilities shared by the lints and the reading-audience
    experiment: tokenisation, normalisation, and a readability score.

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

val content_words : string -> string list
(** {!words}, normalised, with English stop words removed. *)

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
