(** WAM-lite compilation of Horn-clause programs.

    Translates each clause into flat instruction arrays — pre-flattened
    get/unify instructions for the head, postfix put instructions for
    body goals, variables as register indices — and the program into a
    predicate table with switch-on-symbol first-argument dispatch.
    {!Exec} runs the result with a trail and an explicit choice-point
    stack; the interpreted engine in test/oracle is the differential
    oracle,
    and the candidate lists both engines admit for any goal are
    identical (so index counters agree too).

    The representation is exposed: [Exec] and the benchmarks pattern
    match on it, and the instruction listing in DESIGN.md §13 documents
    it.  Treat it as internal elsewhere.

    Compiled programs are cached per domain on physical program
    identity (several entries, unlike the interpreter's original
    one-entry cache), counted by [prolog.compilations]. *)

(** Head instructions, one subject subterm consumed each. *)
type instr =
  | H_const of Argus_core.Symbol.t
  | H_struct of Argus_core.Symbol.t * int
  | H_var of int
  | H_val of int

(** Body-goal build instructions, postfix. *)
type ginstr =
  | P_var of int
  | P_const of Argus_core.Symbol.t
  | P_struct of Argus_core.Symbol.t * int

type farg = FAny | FSym of Argus_core.Symbol.t * int

type cclause = {
  c_idx : int;
  c_head : instr array;
  c_body : ginstr array array;
  c_nregs : int;
  c_first : farg;
}

module Key_tbl : Hashtbl.S with type key = int * int

type pred = {
  pr_bucket : cclause array;
  pr_switch : cclause array Key_tbl.t;
  pr_anyfirst : cclause array;
}

type t = {
  cp_total : int;
  cp_preds : pred Key_tbl.t;
  cp_var_heads : cclause array;
  cp_all : cclause array;
}

val clause_count : t -> int

val program : Program.t -> t
(** Compile a program, through the per-domain cache. *)

val program_uncached : Program.t -> t
(** Compile without touching the cache (for benchmarks that measure
    compilation itself). *)

type query = {
  q_goals : ginstr array array;
  q_nregs : int;
  q_vars : (string * int) array;
}

val query : Argus_logic.Term.t list -> query
(** Compile a conjunction of goals once, to run many times. *)
