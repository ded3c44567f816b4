(** Line framing for both ends of the wire: the server's acceptor and
    the client read their ['\n']-terminated JSON lines through it.

    A framer owns one [Bytes] buffer with a fill length.  {!read} reads
    from a descriptor straight into the buffer's free space, so a read
    allocates nothing; {!next_line} searches for ['\n'] only in the
    bytes that arrived since its last search and copies each line out
    once.  The unfinished tail moves to the front of the buffer only
    after a line was taken.

    The buffer starts at {!initial_bytes} and doubles only while a
    single unfinished line fills it, never past [max_line_bytes + 1]
    (the longest accepted line plus its newline).  Once a line is taken
    and what is left fits in {!initial_bytes}, a grown buffer is
    replaced by a fresh one of that size, so a connection that went
    quiet after a large frame holds no more than that. *)

type t

type frame =
  | Line of string  (** A complete line, its ['\n'] removed. *)
  | Partial
      (** No complete line is buffered; {!pending} bytes of the next
          one are. *)
  | Overlong
      (** The next line, complete or not, is longer than
          [max_line_bytes].  The framer stays in this state. *)

val initial_bytes : int
(** The initial size: 4 KiB, above any small-mix request. *)

val create : ?max_line_bytes:int -> unit -> t
(** [max_line_bytes] defaults to the longest string OCaml can hold. *)

val read : t -> Unix.file_descr -> int
(** One [Unix.read] into the free space, growing the buffer first if an
    unfinished line fills it.  Returns the byte count, [0] at end of
    input; [Unix.Unix_error] passes through.  Call it only after
    {!next_line} answered [Partial]: it raises [Invalid_argument] on a
    full buffer that may not grow. *)

val next_line : t -> frame

val pending : t -> int
(** Bytes buffered after the last line taken. *)

val capacity : t -> int
(** The buffer's current size in bytes. *)
