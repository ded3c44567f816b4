(** The durable store: {!Store.t} + WAL + snapshots + degraded mode.

    The layer the service talks to.  With a data dir, every committed
    [put]/[patch] is appended to the WAL (commit order = log order,
    enforced by one mutex) under the configured {!Wal.sync} policy,
    and every [snapshot_every] operations the live case set is
    compacted into a snapshot and the WAL reset.  Without a data dir
    it is a transparent in-memory passthrough.

    Any I/O failure on the write path — real, or injected through the
    [store.wal.append] / [store.wal.fsync] / [store.snapshot.write]
    probes — trips the handle into a {e sticky} read-only mode: reads
    keep answering from the consistent in-memory state, writes answer
    [Error (Read_only cause)], and {!stats_json} exposes the mode and
    cause.  The failed operation itself is never acked, so the client
    retries against a recovered server and durability is not
    over-promised. *)

type t

type mode = Active | Read_only of string

type error =
  | Store_error of Store.error
  | Read_only of string  (** The degraded-mode refusal, with cause. *)

val error_message : error -> string

val create :
  ?dir:string ->
  ?sync:Wal.sync ->
  ?snapshot_every:int ->
  unit ->
  (t * string, string) result
(** Open (recovering if [dir] holds prior state) or create a store.
    [snapshot_every] (default 1024; 0 = never) counts logged
    operations between compactions.  [Ok (t, summary)] carries a
    one-line recovery summary for the startup log; [Error diagnostic]
    is a refusal — corrupt snapshot, mid-stream WAL corruption, or a
    digest mismatch (see {!Recover}). *)

val store : t -> Store.t
(** The underlying in-memory store (for read paths and tests). *)

val mode : t -> mode
val durable : t -> bool

val seq : t -> int
(** The sequence cursor: advances by one on every acked mutation
    ({!put}, {!patch}) whether or not a WAL is attached — on durable
    stores it is the last WAL sequence number appended. *)

val put :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  t ->
  Argus_gsn.Structure.t ->
  (string * int, error) result
(** [Ok (digest, seq)]: the case's digest and the sequence number its
    commit took, read under the commit mutex (on durable stores, the
    seq of the WAL record that holds the digest).  Echoed in the
    server's put/patch acks so a client that retried a write can audit
    whether it committed once or twice (the digest alone cannot tell:
    the store is content-addressed, so a replay converges to the same
    digest). *)

val patch :
  t -> digest:string -> Store.edit list -> (string * int, error) result
(** Like {!put}: the new digest and the seq of the commit. *)

val verdict : t -> digest:string -> (Store.verdict, error) result

val flush : t -> unit
(** fsync the WAL regardless of sync policy (graceful drain); never
    raises — a failing flush degrades to read-only instead. *)

val close : t -> unit
(** Flush and close the WAL handle. *)

val stats_json : t -> Argus_core.Json.t
(** Mode, cause (when read-only), durability config, sequence
    cursors, case count and digest list — merged into the server's
    [health]/[stats] payloads. *)
