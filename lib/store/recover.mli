(** Crash recovery: rebuild a {!Store.t} from snapshot + WAL tail.

    {!load} creates the data dir if absent, sweeps stale snapshot
    tmp files, loads the newest snapshot (refusing a damaged one —
    see {!Snapshot}), then replays WAL records with
    [seq > snapshot seq] in order.  A torn WAL tail is truncated on
    disk; mid-stream corruption, sequence gaps, or any recovered
    case whose recomputed digest differs from the digest the log
    recorded are refused with a precise diagnostic.  A snapshot or
    WAL in an earlier format ({!Wal.format}) is refused before any of
    its digests is verified, with a diagnostic that names the format
    and asks for an empty data dir.  Digest equality after replay is
    what carries the store's invariant across a crash: verdicts on
    recovered cases stay byte-identical to [Fused.check].

    Fault probe: [store.recover.read], keyed ["wal"]/["snapshot"] for
    file reads and by seq for each replayed record. *)

type outcome = {
  store : Store.t;
  next_seq : int;  (** First unused sequence number. *)
  snapshot_seq : int;  (** 0 when no snapshot was loaded. *)
  replayed : int;  (** WAL records applied on top of the snapshot. *)
  truncated : int;  (** Torn-tail bytes dropped from the WAL. *)
}

val wal_path : string -> string
(** [dir/wal.log]. *)

val summary : outcome -> string
(** One human line for serve's startup log. *)

val load : dir:string -> unit -> (outcome, string) result
