module Retry = Argus_rt.Retry
module Clock = Argus_core.Clock
module Counter = Argus_obs.Metrics.Counter
module Gauge = Argus_obs.Metrics.Gauge

type error =
  | Connect_failed of string
  | Timeout of string
  | Closed of string
  | Bad_response of string

let error_message = function
  | Connect_failed m -> Printf.sprintf "cannot connect: %s" m
  | Timeout m -> Printf.sprintf "deadline expired: %s" m
  | Closed m -> Printf.sprintf "connection lost: %s" m
  | Bad_response m -> Printf.sprintf "bad response: %s" m

let error_code = function
  | Connect_failed _ -> "connect"
  | Timeout _ -> "timeout"
  | Closed _ -> "closed"
  | Bad_response _ -> "bad-response"

let c_retries = Counter.make "svc.client.retries"
let c_failover = Counter.make "svc.client.failover"
let c_stale = Counter.make "svc.client.stale_pooled"
let g_pool_idle = Gauge.make "svc.client.pool_idle"

(* A pooled connection keeps its read buffer: a response can arrive in
   pieces across reads, and any residue after the response line means
   the server desynced — such a connection is never pooled again. *)
type pconn = { pfd : Unix.file_descr; pbuf : Framer.t }

type t = {
  eps : Endpoint.t array;
  policy : Retry.policy;
  overall_ms : float;
  pool_size : int;
  mu : Mutex.t;
  pool : (int, pconn list) Hashtbl.t;
  mutable preferred : int;
      (** Endpoint index to try first — advanced past an endpoint that
          failed mid-exchange, so the next attempt (and the next call)
          starts at the survivor: failover memory. *)
}

let default_policy =
  {
    Retry.default_policy with
    Retry.max_attempts = 12;
    base_delay_ms = 25.;
    max_delay_ms = 400.;
  }

let create ?(policy = default_policy) ?(overall_deadline_ms = 30_000.)
    ?(pool_size = 2) eps =
  if eps = [] then invalid_arg "Client.create: empty endpoint list";
  {
    eps = Array.of_list eps;
    policy;
    overall_ms = overall_deadline_ms;
    pool_size;
    mu = Mutex.create ();
    pool = Hashtbl.create 4;
    preferred = 0;
  }

let endpoints t = Array.to_list t.eps

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let take_pooled t idx =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.pool idx with
      | Some (pc :: rest) ->
          Hashtbl.replace t.pool idx rest;
          Gauge.add g_pool_idle (-1);
          Some pc
      | _ -> None)

let return_pooled t idx pc =
  let pooled =
    Framer.pending pc.pbuf = 0
    && Mutex.protect t.mu (fun () ->
           let cur =
             Option.value ~default:[] (Hashtbl.find_opt t.pool idx)
           in
           if List.length cur < t.pool_size then begin
             Hashtbl.replace t.pool idx (pc :: cur);
             Gauge.add g_pool_idle 1;
             true
           end
           else false)
  in
  if not pooled then close_fd pc.pfd

let close t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.iter
        (fun _ pcs ->
          List.iter
            (fun pc ->
              Gauge.add g_pool_idle (-1);
              close_fd pc.pfd)
            pcs)
        t.pool;
      Hashtbl.reset t.pool)

(* --- one request/response exchange on an open connection --- *)

type exchange_failure =
  | Stale of string
      (** Died before yielding a single response byte — on a pooled
          connection this means "the pool entry was dead", a free
          retry. *)
  | Fail of string  (** Died mid-exchange or timed out. *)

let set_timeouts fd ms =
  let s = Float.max 0.05 (ms /. 1000.) in
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
   with Unix.Unix_error _ -> ());
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
  with Unix.Unix_error _ -> ()

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
          Error (off > 0, Unix.error_message e)
  in
  go 0

(* Read one '\n'-terminated line through [pc.pbuf].  [deadline_at]
   caps the whole wait: SO_RCVTIMEO bounds each read, and the loop
   re-checks the clock so dribbled bytes cannot extend the wait
   forever. *)
let recv_line pc ~deadline_at =
  let rec go got_any =
    match Framer.next_line pc.pbuf with
    | Framer.Line line -> Ok line
    | Framer.Overlong -> Error (got_any, "response line too long")
    | Framer.Partial -> (
        if Clock.now_ms () >= deadline_at then
          Error (got_any, "response timed out")
        else
          match Framer.read pc.pbuf pc.pfd with
          | 0 -> Error (got_any, "server closed the connection")
          | _ -> go true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got_any
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Error (got_any, "response timed out")
          | exception Unix.Unix_error (e, _, _) ->
              Error (got_any, Unix.error_message e))
  in
  go (Framer.pending pc.pbuf > 0)

let exchange pc line ~attempt_ms ~deadline_at =
  set_timeouts pc.pfd attempt_ms;
  match send_all pc.pfd (line ^ "\n") with
  | Error (false, e) -> Error (Stale (Printf.sprintf "write: %s" e))
  | Error (true, e) -> Error (Fail (Printf.sprintf "write: %s" e))
  | Ok () -> (
      match recv_line pc ~deadline_at:(Float.min deadline_at (Clock.now_ms () +. attempt_ms)) with
      | Error (false, e) -> Error (Stale e)
      | Error (true, e) -> Error (Fail e)
      | Ok resp_line -> Ok resp_line)

(* --- the retry/failover driver --- *)

let seq_echoed (resp : Protocol.response) =
  match resp.Protocol.outcome with
  | Error _ -> true (* typed refusals are authoritative, nothing committed *)
  | Ok (_, payload) -> List.mem_assoc "seq" payload

let call ?op t line =
  let is_patch = op = Some Protocol.Patch in
  let deadline_at = Clock.now_ms () +. t.overall_ms in
  let n = Array.length t.eps in
  let key = Endpoint.to_string t.eps.(0) in
  let last_err = ref (Connect_failed "no attempt made") in
  let resent = ref false in
  (* Patch audit rule: an ack that may be the answer to a *resent*
     frame must carry the seq echo (see .mli). *)
  let admit resp =
    if is_patch && !resent && not (seq_echoed resp) then
      Error
        (Bad_response
           "retried patch ack carries no seq echo; cannot audit for a \
            duplicate commit")
    else Ok resp
  in
  let rec attempt_loop attempt =
    if attempt > t.policy.Retry.max_attempts then Error !last_err
    else
      let remaining = deadline_at -. Clock.now_ms () in
      if remaining <= 0. then
        Error (Timeout (error_message !last_err))
      else begin
        (* Carve this attempt's slice out of what is left, so early
           attempts cannot starve later ones of their chance. *)
        let attempts_left = t.policy.Retry.max_attempts - attempt + 1 in
        let attempt_ms =
          Float.min remaining
            (Float.max 50. (remaining /. float_of_int attempts_left))
        in
        let backoff_and_next err =
          last_err := err;
          Counter.incr c_retries;
          let d = Retry.delay_ms t.policy ~key ~attempt in
          let d = Float.min d (Float.max 0. (deadline_at -. Clock.now_ms ())) in
          Clock.sleep_ms d;
          attempt_loop (attempt + 1)
        in
        (* Stale pooled connections are consumed (and discarded) here
           without burning an attempt; at most [pool_size] of them can
           exist per endpoint, so this terminates. *)
        let rec via_pool () =
          match take_pooled t t.preferred with
          | None -> None
          | Some pc -> (
              match exchange pc line ~attempt_ms ~deadline_at with
              | Ok resp_line -> Some (`Line (t.preferred, pc, resp_line))
              | Error (Stale _) ->
                  Counter.incr c_stale;
                  close_fd pc.pfd;
                  resent := true;
                  via_pool ()
              | Error (Fail e) ->
                  close_fd pc.pfd;
                  resent := true;
                  Some (`Fail e))
        in
        let fresh () =
          (* Walk the endpoint list from the preferred one: connect
             failover.  The first endpoint that completes a connect
             gets the exchange. *)
          let rec walk k =
            if k >= n then `NoConnect
            else
              let idx = (t.preferred + k) mod n in
              match
                Endpoint.connect ~timeout_ms:attempt_ms t.eps.(idx)
              with
              | Error e ->
                  last_err := Connect_failed e;
                  walk (k + 1)
              | Ok fd ->
                  if idx <> t.preferred then begin
                    Counter.incr c_failover;
                    t.preferred <- idx
                  end;
                  let pc = { pfd = fd; pbuf = Framer.create () } in
                  (match exchange pc line ~attempt_ms ~deadline_at with
                  | Ok resp_line -> `Line (idx, pc, resp_line)
                  | Error (Stale e) | Error (Fail e) ->
                      close_fd pc.pfd;
                      resent := true;
                      `Fail e)
          in
          walk 0
        in
        let outcome =
          match via_pool () with
          | Some (`Line _ as l) -> l
          | Some (`Fail e) -> `Fail e
          | None -> fresh ()
        in
        match outcome with
        | `Line (idx, pc, resp_line) -> (
            match Protocol.response_of_line resp_line with
            | Ok resp -> (
                return_pooled t idx pc;
                match admit resp with
                | Ok resp -> Ok resp
                | Error e -> Error e)
            | Error e ->
                (* Desynced stream: never reuse, retry on a fresh
                   connection. *)
                close_fd pc.pfd;
                resent := true;
                backoff_and_next (Bad_response e))
        | `Fail e ->
            (* The endpoint we were exchanging with died mid-call:
               start the next attempt at its neighbour. *)
            t.preferred <- (t.preferred + 1) mod n;
            backoff_and_next (Closed e)
        | `NoConnect -> backoff_and_next !last_err
      end
  in
  attempt_loop 1

let call_request t req =
  let line = Argus_core.Json.to_string (Protocol.request_to_json req) in
  call ~op:req.Protocol.op t line
