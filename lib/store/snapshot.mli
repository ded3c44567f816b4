(** Compacting snapshots of the live case set.

    A snapshot file (magic ["ARGUSSNAP2\n"]) is the WAL's
    magic-and-checksum framing around one [Marshal]-encoded {!image};
    it is written atomically
    (tmp + fsync + rename + directory fsync) and supersedes all older
    generations plus every WAL record with [seq <= image.seq].

    The newest snapshot must parse: the WAL was reset when it was
    written, so falling back to an older generation would silently
    drop the operations between the two — {!read} refuses damaged
    files with a diagnostic instead, and refuses a file in an earlier
    format (["ARGUSSNAP1\n"]) with {!Wal.earlier_format}'s.

    Fault probes: [store.snapshot.write] (keyed by seq) on {!write},
    [store.recover.read] (key ["snapshot"]) on {!read}. *)

type image = {
  seq : int;  (** Last WAL sequence number the snapshot covers. *)
  cases :
    (string * Argus_gsn.Wellformed.ruleset * Argus_gsn.Structure.t) list;
      (** [(digest, ruleset, structure)], sorted by digest. *)
}

val filename : seq:int -> string
(** [snapshot-%012d.snap]. *)

val latest : string -> (int * string) option
(** The newest snapshot in a directory as [(seq, path)]. *)

val sweep_tmp : string -> unit
(** Delete stale [*.tmp] files left by a crash mid-write. *)

val write : dir:string -> image -> string
(** Write a snapshot atomically; deletes older generations; returns
    the final path.  Raises [Fault.Injected] or [Unix.Unix_error] on
    failure (the tmp file, if any, is swept on next startup). *)

val read : string -> (image, string) result
