module Retry = Argus_rt.Retry
module Clock = Argus_core.Clock
module Counter = Argus_obs.Metrics.Counter

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

type t = {
  eps : Endpoint.t array;
  policy : Retry.policy;
  overall_ms : float;
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

let create ?(policy = default_policy) ?(overall_deadline_ms = 30_000.) eps =
  if eps = [] then invalid_arg "Client.create: empty endpoint list";
  {
    eps = Array.of_list eps;
    policy;
    overall_ms = overall_deadline_ms;
    preferred = 0;
  }

let endpoints t = Array.to_list t.eps

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- one request/response exchange on an open connection --- *)

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
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

(* Read one '\n'-terminated line through [buf].  [deadline_at] caps the
   whole wait: SO_RCVTIMEO bounds each read, and the loop re-checks the
   clock so dribbled bytes cannot extend the wait forever. *)
let recv_line fd buf ~deadline_at =
  let rec go () =
    match Framer.next_line buf with
    | Framer.Line line -> Ok line
    | Framer.Overlong -> Error "response line too long"
    | Framer.Partial -> (
        if Clock.now_ms () >= deadline_at then Error "response timed out"
        else
          match Framer.read buf fd with
          | 0 -> Error "server closed the connection"
          | _ -> go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Error "response timed out"
          | exception Unix.Unix_error (e, _, _) ->
              Error (Unix.error_message e))
  in
  go ()

(* One request, one response line, on a connection opened for this
   attempt alone. *)
let exchange fd line ~attempt_ms ~deadline_at =
  set_timeouts fd attempt_ms;
  match send_all fd (line ^ "\n") with
  | Error e -> Error (Printf.sprintf "write: %s" e)
  | Ok () ->
      recv_line fd (Framer.create ())
        ~deadline_at:(Float.min deadline_at (Clock.now_ms () +. attempt_ms))

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
        (* Walk the endpoint list from the preferred one: connect
           failover.  The first endpoint that completes a connect gets
           the exchange. *)
        let rec walk k =
          if k >= n then backoff_and_next !last_err
          else
            let idx = (t.preferred + k) mod n in
            match Endpoint.connect ~timeout_ms:attempt_ms t.eps.(idx) with
            | Error e ->
                last_err := Connect_failed e;
                walk (k + 1)
            | Ok fd -> (
                if idx <> t.preferred then begin
                  Counter.incr c_failover;
                  t.preferred <- idx
                end;
                let result = exchange fd line ~attempt_ms ~deadline_at in
                close_fd fd;
                match result with
                | Ok resp_line -> (
                    match Protocol.response_of_line resp_line with
                    | Ok resp -> admit resp
                    | Error e ->
                        resent := true;
                        backoff_and_next (Bad_response e))
                | Error e ->
                    (* The endpoint we were exchanging with died
                       mid-call: start the next attempt at its
                       neighbour. *)
                    resent := true;
                    t.preferred <- (t.preferred + 1) mod n;
                    backoff_and_next (Closed e))
        in
        walk 0
      end
  in
  attempt_loop 1

let call_request t req =
  let line = Argus_core.Json.to_string (Protocol.request_to_json req) in
  call ~op:req.Protocol.op t line
