(** Append-only write-ahead log of store operations.

    File layout: a magic line ["ARGUSWAL2\n"] followed by records of
    the form [len:u32le ^ crc32:u32le ^ payload], where the payload is
    the [Marshal] encoding of {!record}.  {!parse} classifies damage:
    an interrupted append (incomplete record, or a bad checksum in the
    {e final} record) is a torn tail and reports how many bytes to
    truncate; a bad checksum with data after it is mid-stream
    corruption and is refused with a diagnostic naming the offset.
    A log in an earlier format (["ARGUSWAL1\n"]: digests of an older
    scheme) is refused with a diagnostic naming its format.

    Fault probes: [store.wal.append] and [store.wal.fsync], keyed by
    the record's sequence number; [store.recover.read] on
    {!read_file}, keyed ["wal"] or ["snapshot"]. *)

type sync =
  | Always  (** fsync after every append: an ack means durable. *)
  | Never  (** leave persistence timing to the kernel. *)

type op =
  | Put of Argus_gsn.Wellformed.ruleset * Argus_gsn.Structure.t
  | Patch of string * Store.edit list
      (** [Patch (base_digest, edits)]. *)

type record = {
  seq : int;  (** Monotone per-log sequence number, starting at 1. *)
  op : op;
  digest : string;
      (** The case digest the store answered when the operation
          committed; recovery recomputes and verifies it. *)
}

val format : int
(** The on-disk format, the digit in the WAL and snapshot magics:
    [2], the per-node term digests of {!Store}. *)

val magic : string

val earlier_format : stem:string -> what:string -> string -> string option
(** [earlier_format ~stem ~what data] is the refusal diagnostic when
    [data] opens with the magic [stem ^ v ^ "\n"] of a format
    [v < format]: it names [what] and [v] and tells the operator to
    start from an empty data dir and re-put the cases.  [None]
    otherwise. *)

val crc32 : string -> int -> int -> int
(** [crc32 s off len]: CRC-32 (IEEE) of [len] bytes of [s] from [off],
    in [0, 0xFFFFFFFF].  Raises [Invalid_argument] unless the range
    lies within [s]. *)

val header : string -> string
(** The 8-byte frame header of a payload: [len:u32le ^ crc32:u32le]. *)

(** One frame [len:u32le ^ crc32:u32le ^ payload], read in place. *)
type 'a frame =
  | Incomplete of int option
      (** It runs past the end of the data: [None] when its 8-byte
          header does, [Some len] when its [len]-byte payload does. *)
  | Bad_checksum of int  (** The [len]-byte payload fails its CRC. *)
  | Undecodable of int
      (** The [len]-byte payload passes its CRC but does not
          unmarshal. *)
  | Decoded of 'a * int  (** The unmarshalled payload and [len]. *)

val frame_at : string -> int -> 'a frame
(** [frame_at data off]: the frame at [off], its checksum checked and
    its payload unmarshalled without a copy.  The one frame decoder of
    the WAL ({!parse}) and of {!Snapshot.read}.  As with [Marshal], the
    caller states the payload type and nothing checks it. *)

val write_fully : Unix.file_descr -> string -> unit
(** Write every byte or raise; retries [EINTR], maps a zero-progress
    write to [ENOSPC].  Shared with {!Snapshot}. *)

val encode : record -> string
(** The framed on-disk bytes of one record. *)

type tail =
  | Clean
  | Torn of { offset : int; dropped : int }
      (** Valid up to [offset]; [dropped] trailing bytes are a torn
          final record to truncate away. *)

val parse : string -> (record list * tail, string) result
(** Decode a whole log image: the checksum-valid record prefix plus
    the tail state, or [Error diagnostic] for an earlier format or
    mid-stream corruption (bad magic, checksum failure before the end,
    undecodable payload). *)

(** {1 Appending} *)

type t

val openw : ?sync:sync -> string -> t
(** Open (creating if absent) a log for appending; writes the magic
    header into an empty file.  Raises [Unix.Unix_error] on I/O
    failure. *)

val append : t -> record -> unit
(** Append one record and apply the sync policy.  Raises
    [Fault.Injected] or [Unix.Unix_error] on failure — the caller is
    expected to degrade to read-only. *)

val flush : t -> unit
(** fsync regardless of policy (graceful drain). *)

val reset : t -> unit
(** Truncate to an empty log (magic only) after a snapshot has
    captured everything; fsyncs. *)

val close : t -> unit

val read_file : key:string -> string -> (string, string) result
(** The raw log or snapshot image for recovery, through the
    [store.recover.read] probe keyed [key] (["wal"] or ["snapshot"]). *)
