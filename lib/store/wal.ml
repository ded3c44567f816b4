(* The write-ahead log: an append-only file of length-prefixed,
   CRC-checksummed operation records.

   Every committed [put] and [patch] appends one record; recovery
   replays them in order.  The framing is deliberately dumb — no
   page alignment, no record batching — because the store's mutation
   rate is human-scale (editors saving cases), not a transaction
   engine's, and dumb framing keeps the torn-write analysis exact:

     file   := magic record*
     magic  := "ARGUSWAL2\n"
     record := len:u32le crc:u32le payload[len]

   The digit in the magic is the format.  Format 2 carries the digests
   of the per-node term scheme ({!Store}); format 1 files were written
   under the Merkle scheme before it, and their digests cannot be
   recomputed, so {!parse} and {!Snapshot.read} refuse them with a
   diagnostic that names the format ({!earlier_format}) before
   replaying or verifying anything.

   [crc] is CRC-32 (IEEE) of the payload bytes, computed by a
   slicing-by-8 C stub over a byte range, so [parse] checks and decodes
   each record in place, without a copy; the payload is the
   [Marshal] encoding of {!record} — pure data (the structure, the
   edits, the result digest), no closures, so the encoding is
   deterministic for a given compiler.  The digest recorded with each
   operation is the case digest the store answered when the operation
   committed; recovery recomputes it and refuses a log whose replay
   disagrees.

   Torn-write discipline (the contract {!parse} implements, which the
   fuzz suite in test/store holds it to):

   - a record that does not fit in the remaining bytes (a crash mid-
     append, ENOSPC mid-write) is a {e torn tail}: everything from its
     offset on is garbage-in-good-faith and gets truncated;
   - a complete final record whose CRC fails is also treated as a torn
     tail — an interrupted append can leave a full-length record of
     partly stale bytes;
   - a CRC failure (or an impossible length) with {e more data after
     it} is mid-stream corruption: something other than a crash-while-
     appending wrote here, replaying past it could resurrect arbitrary
     state, so recovery refuses with the offset in the diagnostic.

   Sync policy: [Always] fsyncs after every append (an acknowledged
   operation is durable), [Never] leaves it to the kernel until
   {!flush} (drain).

   Fault probes: [store.wal.append] (keyed by record seq) fires before
   the write, [store.wal.fsync] (keyed likewise) before the fsync —
   so ENOSPC/EIO at either edge is a deterministic test scenario.
   Counters: [store.wal_appends], [store.wal_fsyncs]. *)

module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Fault = Argus_rt.Fault
module Counter = Argus_obs.Counter

let c_appends = Counter.make "store.wal_appends"
let c_fsyncs = Counter.make "store.wal_fsyncs"

let format = 2
let magic = Printf.sprintf "ARGUSWAL%d\n" format

(* The refusal of a file that opens with the magic [stem ^ v ^ "\n"]
   of an earlier format [v]: its digests belong to a scheme this build
   does not compute, so there is nothing to verify it against. *)
let earlier_format ~stem ~what data =
  let rec go v =
    if v >= format then None
    else if String.starts_with ~prefix:(Printf.sprintf "%s%d\n" stem v) data
    then
      Some
        (Printf.sprintf
           "%s is format %d, written by an earlier argus build; this build \
            reads format %d only and cannot verify its digests. Start from \
            an empty data dir and re-put the cases."
           what v format)
    else go (v + 1)
  in
  go 1

type sync = Always | Never

type op =
  | Put of Wellformed.ruleset * Structure.t
  | Patch of string * Store.edit list

type record = { seq : int; op : op; digest : string }

(* --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) --- *)

external crc32_init : unit -> unit = "argus_crc32_init" [@@noalloc]

external crc32_unsafe : string -> int -> int -> int = "argus_crc32"
[@@noalloc]

let () = crc32_init ()

let crc32 s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wal.crc32";
  crc32_unsafe s off len

(* --- framing --- *)

let u32le v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let read_u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let header payload =
  let len = String.length payload in
  u32le len ^ u32le (crc32 payload 0 len)

let encode (r : record) =
  let payload = Marshal.to_string r [] in
  header payload ^ payload

(* [Marshal.from_string] of the [len] bytes at [off] of [data], read in
   place: it refuses an encoding that runs past those bytes, as it
   would on a copy of just them. *)
let unmarshal_at data off len =
  if
    len < Marshal.header_size
    || Marshal.total_size (Bytes.unsafe_of_string data) off > len
  then failwith "Wal.unmarshal_at: the value overruns its record"
  else Marshal.from_string data off

type 'a frame =
  | Incomplete of int option
  | Bad_checksum of int
  | Undecodable of int
  | Decoded of 'a * int

let frame_at data o =
  let n = String.length data in
  if n - o < 8 then Incomplete None
  else
    let len = read_u32le data o in
    if len > n - o - 8 then Incomplete (Some len)
    else if crc32 data (o + 8) len <> read_u32le data (o + 4) then
      Bad_checksum len
    else
      match unmarshal_at data (o + 8) len with
      | v -> Decoded (v, len)
      | exception _ -> Undecodable len

type tail =
  | Clean
  | Torn of { offset : int; dropped : int }
      (** The file is valid up to [offset]; [dropped] trailing bytes
          are a torn final record and should be truncated away. *)

(* Decode a whole log image.  Returns the valid prefix of records plus
   the tail state, or [Error] with a precise diagnostic for anything
   that is not explainable as an interrupted append. *)
let parse (data : string) : (record list * tail, string) result =
  let n = String.length data in
  let mlen = String.length magic in
  if n < mlen then
    if String.equal data (String.sub magic 0 n) then
      (* A crash while writing the very first header: an empty log. *)
      Ok ([], if n = 0 then Clean else Torn { offset = 0; dropped = n })
    else Error "not an argus WAL (bad magic)"
  else if not (String.equal (String.sub data 0 mlen) magic) then
    Error
      (Option.value ~default:"not an argus WAL (bad magic)"
         (earlier_format ~stem:"ARGUSWAL" ~what:"the WAL" data))
  else
    let rec go records o =
      let torn () =
        Ok (List.rev records, Torn { offset = o; dropped = n - o })
      in
      if o = n then Ok (List.rev records, Clean)
      else
        match (frame_at data o : record frame) with
        | Incomplete _ ->
            (* A header or payload that runs past the end: a torn append,
               or a corrupted length field — either leaves nothing
               parseable after this offset, so truncation is the only
               sound reading. *)
            torn ()
        | Bad_checksum len ->
            if o + 8 + len = n then
              (* Complete final record, bad bytes: torn append. *)
              torn ()
            else
              Error
                (Printf.sprintf
                   "WAL corrupted mid-stream: checksum mismatch in the \
                    record at byte %d (%d of %d bytes remain after it); \
                    refusing to replay past it"
                   o
                   (n - (o + 8 + len))
                   n)
        | Undecodable _ ->
            Error
              (Printf.sprintf
                 "WAL corrupted mid-stream: undecodable record at byte %d \
                  (checksum valid); refusing to replay"
                 o)
        | Decoded (r, len) -> go (r :: records) (o + 8 + len)
    in
    go [] mlen

(* --- the append handle --- *)

type t = {
  path : string;
  fd : Unix.file_descr;
  sync : sync;
  mutable closed : bool;
}

(* A partial [write] (ENOSPC, or a signal) retried here would leave the
   already-written fragment as a permanent mid-record gap, so any short
   write raises and the caller degrades; a crash mid-write instead
   leaves a torn tail, which recovery truncates. *)
let write_fully fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | 0 -> raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let openw ?(sync = Always) path =
  let fresh = not (Sys.file_exists path) in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let size = (Unix.fstat fd).Unix.st_size in
  if fresh || size = 0 then write_fully fd magic;
  { path; fd; sync; closed = false }

let do_fsync t ~key =
  Fault.point ~key "store.wal.fsync";
  Unix.fsync t.fd;
  Counter.incr c_fsyncs

let append t (r : record) =
  Fault.point ~key:(string_of_int r.seq) "store.wal.append";
  (* Header and payload go out as two writes, as in [Snapshot.write]:
     the payload is case-sized, so concatenating it would copy it.  A
     crash between them leaves a torn tail. *)
  let payload = Marshal.to_string r [] in
  write_fully t.fd (header payload);
  write_fully t.fd payload;
  Counter.incr c_appends;
  match t.sync with
  | Always -> do_fsync t ~key:(string_of_int r.seq)
  | Never -> ()

let flush t = if not t.closed then do_fsync t ~key:"flush"

(* Empty the log after a snapshot has captured everything it held.
   O_APPEND writes always land at the (new) end, so truncate-then-
   rewrite-magic is safe; a crash between the two leaves a zero-length
   file, which [parse] reads as an empty log. *)
let reset t =
  Unix.ftruncate t.fd 0;
  write_fully t.fd magic;
  do_fsync t ~key:"reset"

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Read a log or snapshot image for recovery.  The probe
   [store.recover.read] (keyed by [key]) guards the read so EIO while
   recovering is a deterministic scenario. *)
let read_file ~key path : (string, string) result =
  match
    Fault.point ~key "store.recover.read";
    In_channel.with_open_bin path In_channel.input_all
  with
  | data -> Ok data
  | exception Fault.Injected probe ->
      Error (Printf.sprintf "injected fault at probe %s reading %s" probe path)
  | exception Sys_error msg -> Error msg
