type t = {
  mutable buf : Bytes.t;
  mutable start : int;  (** First byte of the next line. *)
  mutable scanned : int;  (** [start .. scanned - 1] holds no ['\n']. *)
  mutable len : int;  (** Bytes filled. *)
  max_line : int;
}

type frame = Line of string | Partial | Overlong

let initial_bytes = 4096

let create ?(max_line_bytes = Sys.max_string_length - 1) () =
  {
    buf = Bytes.create initial_bytes;
    start = 0;
    scanned = 0;
    len = 0;
    max_line = max_line_bytes;
  }

let pending t = t.len - t.start
let capacity t = Bytes.length t.buf

(* Move the unfinished tail to the front — into a fresh initial-sized
   buffer when the buffer had grown and the tail fits there. *)
let compact t =
  let n = t.len - t.start in
  if Bytes.length t.buf > initial_bytes && n <= initial_bytes then begin
    let b = Bytes.create initial_bytes in
    Bytes.blit t.buf t.start b 0 n;
    t.buf <- b
  end
  else Bytes.blit t.buf t.start t.buf 0 n;
  t.scanned <- t.scanned - t.start;
  t.start <- 0;
  t.len <- n

external newline : Bytes.t -> int -> int -> int = "argus_framer_newline"
  [@@noalloc]

let next_line t =
  let nl = newline t.buf t.scanned t.len in
  if nl < 0 then begin
    t.scanned <- t.len;
    if t.len - t.start > t.max_line then Overlong
    else begin
      if t.start > 0 then compact t;
      Partial
    end
  end
  else if nl - t.start > t.max_line then Overlong
  else begin
    let line = Bytes.sub_string t.buf t.start (nl - t.start) in
    t.start <- nl + 1;
    t.scanned <- t.start;
    if Bytes.length t.buf > initial_bytes
       && t.len - t.start <= initial_bytes
    then compact t;
    Line line
  end

let read t fd =
  if t.start > 0 then compact t;
  let cap = Bytes.length t.buf in
  if t.len = cap then begin
    let limit = max initial_bytes (t.max_line + 1) in
    if cap >= limit then invalid_arg "Framer.read: the line fills the limit";
    let b = Bytes.create (if cap > limit / 2 then limit else 2 * cap) in
    Bytes.blit t.buf 0 b 0 t.len;
    t.buf <- b
  end;
  let n = Unix.read fd t.buf t.len (Bytes.length t.buf - t.len) in
  t.len <- t.len + n;
  n
