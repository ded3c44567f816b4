(* The durable store: Store.t + WAL + snapshots + degraded mode.

   This is the layer the service talks to.  Reads pass straight
   through.  Writes go through one mutex that serialises the store
   mutation with its WAL append, so log order always equals commit
   order — without it two domains could commit A then B but log B
   then A, and recovery would replay a history that never happened.

   Failure semantics: any I/O failure on the write path (real, or a
   Fault.Injected from the store.wal.* / store.snapshot.write probes)
   trips the handle into read-only mode.  The store stays consistent
   — the in-memory mutation may have committed, but nothing promised
   durability for it — reads keep answering, writes answer
   [Read_only cause], and health/stats expose the mode and the cause.
   Degradation is sticky: a disk that failed once is not a disk to
   trust again without an operator restart.

   Snapshots: every [snapshot_every] logged operations (0 = never)
   the live case set is written to a snapshot and the WAL reset.
   A snapshot failure degrades like any other write failure; the WAL
   still holds every record, so nothing is lost.

   [flush] (graceful drain) fsyncs the WAL regardless of sync policy
   and never raises — a failing flush degrades, and the daemon goes
   on to exit anyway. *)

module Fault = Argus_rt.Fault
module Json = Argus_core.Json

type mode = Active | Read_only of string

type t = {
  store : Store.t;
  dir : string option;
  mutable wal : Wal.t option;
  sync : Wal.sync;
  snapshot_every : int;
  mu : Mutex.t;
  mutable seq : int;  (** Last sequence number appended. *)
  mutable snap_seq : int;  (** Seq covered by the newest snapshot. *)
  mutable since_snapshot : int;
  mutable mode : mode;
}

type error = Store_error of Store.error | Read_only of string

let error_message = function
  | Store_error e -> Store.error_message e
  | Read_only cause -> Printf.sprintf "store is read-only: %s" cause

let store t = t.store
let mode t = t.mode
let durable t = t.dir <> None
let seq t = t.seq

let create ?dir ?(sync = Wal.Always) ?(snapshot_every = 1024) () :
    (t * string, string) result =
  match dir with
  | None ->
      Ok
        ( {
            store = Store.create ();
            dir = None;
            wal = None;
            sync;
            snapshot_every;
            mu = Mutex.create ();
            seq = 0;
            snap_seq = 0;
            since_snapshot = 0;
            mode = Active;
          },
          "in-memory store (no data dir)" )
  | Some dir -> (
      match Recover.load ~dir () with
      | Error _ as e -> e
      | Ok outcome -> (
          match Wal.openw ~sync (Recover.wal_path dir) with
          | exception e ->
              Error
                (Printf.sprintf "cannot open WAL in %s: %s" dir
                   (Printexc.to_string e))
          | wal ->
              Ok
                ( {
                    store = outcome.Recover.store;
                    dir = Some dir;
                    wal = Some wal;
                    sync;
                    snapshot_every;
                    mu = Mutex.create ();
                    seq = outcome.Recover.next_seq - 1;
                    snap_seq = outcome.Recover.snapshot_seq;
                    since_snapshot =
                      outcome.Recover.next_seq - 1
                      - outcome.Recover.snapshot_seq;
                    mode = Active;
                  },
                  Recover.summary outcome ) ))

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Trip into read-only.  Called with the mutex held. *)
let degrade t cause =
  (match t.mode with Active -> t.mode <- Read_only cause | Read_only _ -> ());
  match t.wal with
  | Some w ->
      Wal.close w;
      t.wal <- None
  | None -> ()

let cause_of_exn = function
  | Fault.Injected probe -> Printf.sprintf "injected fault at probe %s" probe
  | Unix.Unix_error (e, fn, _) ->
      Printf.sprintf "%s: %s" fn (Unix.error_message e)
  | e -> Printexc.to_string e

(* Snapshot the live case set and reset the WAL.  Failures degrade
   but do not undo the already-logged operation. *)
let maybe_snapshot t =
  if t.snapshot_every > 0 && t.since_snapshot >= t.snapshot_every then
    match (t.dir, t.wal) with
    | Some dir, Some wal -> (
        match
          ignore
            (Snapshot.write ~dir
               { Snapshot.seq = t.seq; cases = Store.cases t.store });
          Wal.reset wal
        with
        | () ->
            t.snap_seq <- t.seq;
            t.since_snapshot <- 0
        | exception e -> degrade t (cause_of_exn e))
    | _ -> ()

(* Run one mutating store operation and make it durable, answering
   its digest and the seq it took — read here, under the mutex, since
   by the time the caller could read [t.seq] another domain may have
   advanced it.  [op] must not raise for reasons the WAL should not
   see; its [Error] case is a clean store-level refusal that logs
   nothing.  [rollback] undoes the in-memory effect when the WAL
   append fails: the refused operation leaves no trace, so the digests
   clients hold stay exactly the acked (and durable) ones. *)
let logged t
    (op : unit -> (string * Wal.op * (unit -> unit), Store.error) result) :
    (string * int, error) result =
  locked t (fun () ->
      match t.mode with
      | Read_only cause -> Error (Read_only cause)
      | Active -> (
          match op () with
          | Error e -> Error (Store_error e)
          | Ok (digest, wop, rollback) -> (
              let seq = t.seq + 1 in
              match t.wal with
              | None ->
                  (* No WAL, but the sequence cursor still advances:
                     every acked mutation gets a fresh seq, so clients
                     can audit retried patches (a duplicate commit
                     shows as two acks with distinct seqs and the same
                     digest) in memory-only servers too. *)
                  t.seq <- seq;
                  Ok (digest, seq)
              | Some wal -> (
                  match Wal.append wal { Wal.seq; op = wop; digest } with
                  | () ->
                      t.seq <- seq;
                      t.since_snapshot <- t.since_snapshot + 1;
                      maybe_snapshot t;
                      Ok (digest, seq)
                  | exception e ->
                      let cause = cause_of_exn e in
                      rollback ();
                      degrade t cause;
                      Error (Read_only cause)))))

let put ?(ruleset = Argus_gsn.Wellformed.Standard) t structure =
  logged t (fun () ->
      let digest, undo = Store.put_with_undo ~ruleset t.store structure in
      Ok (digest, Wal.Put (ruleset, structure), undo))

let patch t ~digest edits =
  logged t (fun () ->
      match Store.patch_with_undo t.store ~digest edits with
      | Error _ as e -> e
      | Ok (digest', undo) -> Ok (digest', Wal.Patch (digest, edits), undo))

let verdict t ~digest =
  match Store.verdict t.store ~digest with
  | Ok v -> Ok v
  | Error e -> Error (Store_error e)

let flush t =
  locked t (fun () ->
      match t.wal with
      | None -> ()
      | Some wal -> (
          match Wal.flush wal with
          | () -> ()
          | exception e -> degrade t (cause_of_exn e)))

let close t =
  locked t (fun () ->
      match t.wal with
      | Some wal ->
          (try Wal.flush wal with _ -> ());
          Wal.close wal;
          t.wal <- None
      | None -> ())

(* The stats/health surface: mode, cause, and the durable cursor. *)
let stats_json t =
  locked t (fun () ->
      let mode_fields =
        match t.mode with
        | Active -> [ ("mode", Json.Str "active") ]
        | Read_only cause ->
            [ ("mode", Json.Str "read-only"); ("cause", Json.Str cause) ]
      in
      Json.Obj
        (mode_fields
        @ [
            ("durable", Json.Bool (t.dir <> None));
            ( "data_dir",
              match t.dir with Some d -> Json.Str d | None -> Json.Null );
            ("seq", Json.int t.seq);
            ("snapshot_seq", Json.int t.snap_seq);
            ("cases", Json.int (Store.size t.store));
            ( "digests",
              Json.List
                (List.map (fun d -> Json.Str d) (Store.digests t.store)) );
          ]))
