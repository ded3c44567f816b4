(** A minimal JSON tree, printer and parser.

    The toolkit exchanges argument structures with other tools (the
    D-Case/SACM ecosystem the surveyed papers inhabit) through a JSON
    encoding; the sealed build has no JSON dependency, so this is a
    small self-contained implementation: UTF-8 strings are passed
    through uninterpreted, numbers are OCaml floats (integers print
    without a decimal point when exact), and the parser accepts exactly
    the JSON grammar with no extensions. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
val member : string -> t -> t option
(** Object member lookup; [None] on non-objects too. *)

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with two spaces. *)

val to_line : t -> string
(** Compact, with a trailing ['\n']: one line of a line-delimited
    stream, built in one buffer. *)

val of_string : string -> (t, string) result
(** The error names the offset of the first problem. *)

val equal : t -> t -> bool
