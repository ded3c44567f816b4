(* Compacting snapshots of the live case set.

   A snapshot is the WAL's rendezvous point: once `snapshot-<seq>.snap`
   holds every case as of sequence number <seq>, the log can be reset
   and recovery starts from the snapshot instead of replaying history.
   The file reuses the WAL's framing — magic ("ARGUSSNAP2\n", the
   digit being the WAL's format), then ONE crc-framed record whose
   payload is Marshal of {seq; cases} — so the same checksum
   discipline, and the same refusal of an earlier format's file,
   cover both files.

   Atomicity: write to `<name>.tmp`, fsync the file, rename over the
   final name, fsync the directory.  A crash at any point leaves
   either the old state (tmp never renamed; stale tmps are swept by
   [sweep_tmp] at startup) or the new one — never a half-visible
   snapshot.  Older `snapshot-*.snap` files are deleted only after
   the rename lands.

   Corruption policy: the NEWEST snapshot must parse, because the WAL
   was reset when it was written — an older snapshot plus the current
   WAL segment would silently lose every operation between the two,
   so a damaged newest snapshot is refused, not worked around.

   Fault probe: [store.snapshot.write] (keyed by seq) before any
   bytes are written.  Counter: [store.snapshots]. *)

module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Fault = Argus_rt.Fault
module Counter = Argus_obs.Counter

let c_snapshots = Counter.make "store.snapshots"

let magic = Printf.sprintf "ARGUSSNAP%d\n" Wal.format

type image = {
  seq : int;  (** Last WAL sequence number the snapshot covers. *)
  cases : (string * Wellformed.ruleset * Structure.t) list;
      (** [(digest, ruleset, structure)], sorted by digest. *)
}

let filename ~seq = Printf.sprintf "snapshot-%012d.snap" seq

let is_snapshot name =
  String.starts_with ~prefix:"snapshot-" name
  && Filename.check_suffix name ".snap"
  && String.length name > String.length "snapshot-" + String.length ".snap"

(* The seq encoded in a snapshot filename, or None for strangers. *)
let seq_of_filename name =
  if not (is_snapshot name) then None
  else
    int_of_string_opt
      (String.sub name 9 (String.length name - 9 - String.length ".snap"))

let latest dir =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun best name ->
          match seq_of_filename name with
          | None -> best
          | Some seq -> (
              match best with
              | Some (bseq, _) when bseq >= seq -> best
              | _ -> Some (seq, Filename.concat dir name)))
        None entries
  | exception Sys_error _ -> None

let sweep_tmp dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".tmp" then
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        entries
  | exception Sys_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write ~dir (image : image) =
  Fault.point ~key:(string_of_int image.seq) "store.snapshot.write";
  let payload = Marshal.to_string image [] in
  (* Header and payload go out as two writes of the same bytes: the
     payload is case-sized, so concatenating it would copy it. *)
  let header = magic ^ Wal.header payload in
  let final = Filename.concat dir (filename ~seq:image.seq) in
  let tmp = final ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Wal.write_fully fd header;
      Wal.write_fully fd payload;
      Unix.fsync fd);
  Unix.rename tmp final;
  fsync_dir dir;
  Counter.incr c_snapshots;
  (* Old generations are garbage once the new one is visible. *)
  (match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun name ->
          match seq_of_filename name with
          | Some seq when seq < image.seq -> (
              try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          | _ -> ())
        entries
  | exception Sys_error _ -> ());
  final

let read path : (image, string) result =
  match Wal.read_file ~key:"snapshot" path with
  | Error _ as e -> e
  | Ok data -> (
      let fail fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
      let n = String.length data in
      let mlen = String.length magic in
      let present = n - mlen - 8 in
      let truncated len =
        fail "snapshot truncated (record claims %d bytes, %d present)" len
          present
      in
      if n < mlen || String.sub data 0 mlen <> magic then
        fail "%s"
          (Option.value ~default:"not an argus snapshot (bad magic)"
             (Wal.earlier_format ~stem:"ARGUSSNAP" ~what:"the snapshot" data))
      else
        match (Wal.frame_at data mlen : image Wal.frame) with
        | Incomplete None -> fail "snapshot truncated (no record header)"
        | Incomplete (Some len) -> truncated len
        | (Bad_checksum len | Undecodable len | Decoded (_, len))
          when len <> present ->
            truncated len
        | Bad_checksum _ -> fail "snapshot checksum mismatch"
        | Undecodable _ -> fail "snapshot undecodable (checksum valid)"
        | Decoded (image, _) -> Ok image)
