(* Load drivers: one open loop (due-time clocked, pipelined over at
   most two connections, one thread) and one closed loop (a fixed
   number of clients, each its own domain, one request in flight).
   Both record every request for the oracle, which runs afterwards. *)

open Util

type rq = {
  id : string;
  op : string;
  line : string;  (** The request line as sent, without its newline. *)
  nodes : int;  (** GSN nodes in the request's source (0 when none). *)
  key : int;  (** Index of the generated input it carries, or -1. *)
  mutable due : float;
  mutable sent : float;
  mutable recv : float;  (** [nan] until answered. *)
  mutable resp : string;
}

let make_rq ?(nodes = 0) ?(key = -1) ~id ~op line =
  { id; op; line; nodes; key; due = nan; sent = nan; recv = nan; resp = "" }

let answered r = not (Float.is_nan r.recv)
let succeeded r = answered r && is_ok r.resp

(* A request's latency in ms: from its due time when it has one (open
   loop), else from when it was sent.  A failed or unanswered request
   counts as infinitely late, so it misses any limit. *)
let latency_ms r =
  if not (succeeded r) then infinity
  else (r.recv -. if Float.is_nan r.due then r.sent else r.due) *. 1000.

(* --- open loop ------------------------------------------------------ *)

type out = { fd : Unix.file_descr; pending : Buffer.t; inbuf : Buffer.t }

let flush o =
  let s = Buffer.contents o.pending in
  let n = String.length s in
  let k =
    try Unix.write_substring o.fd s 0 n
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  in
  Buffer.clear o.pending;
  if k < n then Buffer.add_substring o.pending s k (n - k)

(* Send [reqs] (sorted by [due], absolute monotonic seconds) over
   [ports] connections, each at its due time, and collect responses
   until every request is answered or [grace] seconds after the last
   due time.  Request [i] goes out on connection [i mod conns]. *)
let open_loop ~port ~conns ~grace (reqs : rq array) =
  let outs =
    Array.init conns (fun _ ->
        let c = Conn.connect port in
        Unix.set_nonblock c.Conn.fd;
        { fd = c.Conn.fd; pending = Buffer.create 65536; inbuf = Buffer.create 65536 })
  in
  let by_id = Hashtbl.create (Array.length reqs) in
  Array.iter (fun r -> Hashtbl.replace by_id r.id r) reqs;
  let n = Array.length reqs in
  let next = ref 0 and outstanding = ref 0 in
  let last_due = if n = 0 then now () else reqs.(n - 1).due in
  let chunk = Bytes.create 65536 in
  let absorb o =
    match Unix.read o.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "server closed a load connection"
    | k ->
        let t = now () in
        Buffer.add_subbytes o.inbuf chunk 0 k;
        let s = Buffer.contents o.inbuf in
        let start = ref 0 in
        (try
           while true do
             let j = String.index_from s !start '\n' in
             let line = String.sub s !start (j - !start) in
             start := j + 1;
             match string_field line "id" with
             | Some id -> (
                 match Hashtbl.find_opt by_id id with
                 | Some r when not (answered r) ->
                     r.recv <- t;
                     r.resp <- line;
                     decr outstanding
                 | _ -> ())
             | None -> ()
           done
         with Not_found -> ());
        Buffer.clear o.inbuf;
        Buffer.add_substring o.inbuf s !start (String.length s - !start)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let fds = Array.to_list (Array.map (fun o -> o.fd) outs) in
  let o_of fd = List.find (fun o -> o.fd = fd) (Array.to_list outs) in
  let stop = last_due +. grace in
  while (!next < n || !outstanding > 0) && now () < stop do
    let t = now () in
    while !next < n && reqs.(!next).due <= t do
      let r = reqs.(!next) in
      let o = outs.(!next mod conns) in
      Buffer.add_string o.pending r.line;
      Buffer.add_char o.pending '\n';
      r.sent <- now ();
      flush o;
      incr next;
      incr outstanding
    done;
    let wait =
      if !next < n then Float.max 0. (reqs.(!next).due -. now ()) else Float.min 0.05 (stop -. now ())
    in
    let writers = List.filter (fun fd -> Buffer.length (o_of fd).pending > 0) fds in
    match Unix.select fds writers [] (Float.max 0. wait) with
    | readable, writable, _ ->
        List.iter (fun fd -> flush (o_of fd)) writable;
        List.iter (fun fd -> absorb (o_of fd)) readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter (fun o -> Unix.close o.fd) outs

(* Poisson arrivals at [rate] per second over [seconds], starting at
   [t0]: the due times. *)
let poisson st ~rate ~t0 ~seconds =
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float st 1.) /. rate) in
    if t >= t0 +. seconds then List.rev acc else go t (t :: acc)
  in
  go t0 []

(* --- closed loop ---------------------------------------------------- *)

(* One blocking request on [c], timed from send to answer. *)
let call c r =
  r.sent <- now ();
  (match Conn.call c r.line with
  | line ->
      r.recv <- now ();
      r.resp <- line
  | exception (Unix.Unix_error _ | Failure _) -> ());
  r

(* Run [clients] closed-loop clients until [deadline]: client [k] calls
   [step k conn] repeatedly; [step] returns [false] when it has no more
   work.  Client 0 runs on the calling domain, the others on their
   own. *)
let closed_loop ~port ~clients ~deadline step =
  let client k () =
    let c = Conn.connect port in
    let rec go () = if now () < deadline && step k c then go () in
    go ();
    Conn.close c
  in
  let others = List.init (clients - 1) (fun k -> Domain.spawn (client (k + 1))) in
  client 0 ();
  List.iter Domain.join others
