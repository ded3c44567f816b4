(* Crash recovery: rebuild a store from snapshot + WAL tail.

   The state machine, in order:

     1. no data dir            -> create it, fresh empty store
     2. newest snapshot, if any -> load, [Store.put] every case,
                                   verify each recomputed digest
                                   against the recorded one
     3. WAL, if any            -> parse; truncate a torn tail on
                                   disk; replay every record with
                                   seq > snapshot seq, verifying the
                                   resulting digest after each op
     4. anything inconsistent  -> Error with a diagnostic precise
                                   enough to name the file, the seq
                                   and the digests involved

   Digest verification is the load-bearing step: the digest in each
   record is what the store answered when the operation originally
   committed, so equality after replay proves the recovered case is
   byte-identical (the digest is a sum of per-node terms over
   payloads and out-links) and therefore that verdicts stay
   byte-identical to [Fused.check], carried across the crash.  A
   snapshot or log in an earlier format holds digests of another
   scheme: {!Snapshot.read} and {!Wal.parse} refuse it, naming the
   format, before any digest is verified.

   Records with seq <= snapshot seq can legitimately appear (a crash
   between snapshot rename and WAL reset); they are skipped.  A seq
   that jumps or repeats past that point means the log was tampered
   with mid-stream and is refused. *)

module Fault = Argus_rt.Fault

type outcome = {
  store : Store.t;
  next_seq : int;  (** First unused sequence number. *)
  snapshot_seq : int;  (** 0 when no snapshot was loaded. *)
  replayed : int;  (** WAL records applied on top of the snapshot. *)
  truncated : int;  (** Torn-tail bytes dropped from the WAL. *)
}

let wal_path dir = Filename.concat dir "wal.log"

let summary o =
  Printf.sprintf
    "recovered %d case%s (snapshot seq %d, %d WAL record%s replayed%s)"
    (Store.size o.store)
    (if Store.size o.store = 1 then "" else "s")
    o.snapshot_seq o.replayed
    (if o.replayed = 1 then "" else "s")
    (if o.truncated > 0 then
       Printf.sprintf ", %d torn byte%s truncated" o.truncated
         (if o.truncated = 1 then "" else "s")
     else "")

(* Truncate the WAL file on disk at [keep] bytes, so the torn tail
   cannot confuse a later recovery that starts from the same file. *)
let truncate_file path keep =
  match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.ftruncate fd keep)
  | exception Unix.Unix_error _ -> ()

let apply_record store (r : Wal.record) : (unit, string) result =
  match r.op with
  | Wal.Put (ruleset, structure) ->
      let digest = Store.put ~ruleset store structure in
      if String.equal digest r.digest then Ok ()
      else
        Error
          (Printf.sprintf
             "WAL record seq %d: recovered put digests to %s but the log \
              recorded %s — the log does not describe this store"
             r.seq digest r.digest)
  | Wal.Patch (base, edits) -> (
      match Store.patch store ~digest:base edits with
      | Ok digest when String.equal digest r.digest -> Ok ()
      | Ok digest ->
          Error
            (Printf.sprintf
               "WAL record seq %d: recovered patch digests to %s but the log \
                recorded %s — the log does not describe this store"
               r.seq digest r.digest)
      | Error e ->
          Error
            (Printf.sprintf "WAL record seq %d: replay failed: %s" r.seq
               (Store.error_message e)))

let load ~dir () : (outcome, string) result =
  match
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
    else if not (Sys.is_directory dir) then
      invalid_arg (Printf.sprintf "%s exists and is not a directory" dir)
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot create data dir %s: %s" dir
           (Unix.error_message e))
  | exception Invalid_argument msg -> Error msg
  | () -> (
      Snapshot.sweep_tmp dir;
      let store = Store.create () in
      let snapshot_result =
        match Snapshot.latest dir with
        | None -> Ok 0
        | Some (_, path) -> (
            match Snapshot.read path with
            | Error msg -> Error msg
            | Ok image -> (
                let rec load_cases = function
                  | [] -> Ok image.Snapshot.seq
                  | (digest, ruleset, structure) :: rest ->
                      let got = Store.put ~ruleset store structure in
                      if String.equal got digest then load_cases rest
                      else
                        Error
                          (Printf.sprintf
                             "%s: case recorded under digest %s recomputes \
                              to %s — snapshot does not describe its own \
                              contents"
                             path digest got)
                in
                match load_cases image.Snapshot.cases with
                | Error _ as e -> e
                | Ok seq -> Ok seq))
      in
      match snapshot_result with
      | Error msg -> Error msg
      | Ok snapshot_seq -> (
          let path = wal_path dir in
          if not (Sys.file_exists path) then
            Ok
              {
                store;
                next_seq = snapshot_seq + 1;
                snapshot_seq;
                replayed = 0;
                truncated = 0;
              }
          else
            match Wal.read_file ~key:"wal" path with
            | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
            | Ok data -> (
                match Wal.parse data with
                | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
                | Ok (records, tail) -> (
                    let truncated =
                      match tail with
                      | Wal.Clean -> 0
                      | Wal.Torn { offset; dropped } ->
                          truncate_file path offset;
                          dropped
                    in
                    let rec replay last_seq replayed = function
                      | [] -> Ok (last_seq, replayed)
                      | (r : Wal.record) :: rest -> (
                          match
                            Fault.point ~key:(string_of_int r.seq)
                              "store.recover.read"
                          with
                          | exception Fault.Injected probe ->
                              Error
                                (Printf.sprintf
                                   "injected fault at probe %s replaying \
                                    seq %d"
                                   probe r.seq)
                          | () ->
                              if r.seq <= snapshot_seq then
                                (* Logged before the snapshot that
                                   already contains its effect. *)
                                replay last_seq replayed rest
                              else if r.seq <> last_seq + 1 then
                                Error
                                  (Printf.sprintf
                                     "%s: sequence jumps from %d to %d — \
                                      records are missing mid-stream; \
                                      refusing to replay"
                                     path last_seq r.seq)
                              else
                                match apply_record store r with
                                | Error _ as e -> e
                                | Ok () -> replay r.seq (replayed + 1) rest)
                    in
                    match replay snapshot_seq 0 records with
                    | Error msg -> Error msg
                    | Ok (last_seq, replayed) ->
                        Ok
                          {
                            store;
                            next_seq = last_seq + 1;
                            snapshot_seq;
                            replayed;
                            truncated;
                          }))))
