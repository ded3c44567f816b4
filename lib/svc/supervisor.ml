module Json = Argus_core.Json
module Clock = Argus_core.Clock
module Budget = Argus_rt.Budget
module Breaker = Argus_rt.Breaker
module Retry = Argus_rt.Retry
module Fault = Argus_rt.Fault
module Counter = Argus_obs.Counter
module Gauge = Argus_obs.Metrics.Gauge
module Histogram = Argus_obs.Metrics.Histogram
module Ring = Argus_obs.Ring
module Span = Argus_obs.Span
module Trace = Argus_obs.Trace

let c_accepted = Counter.make "svc.accepted"
let c_shed = Counter.make "svc.shed"
let c_breaker_open = Counter.make "svc.breaker_open"
let c_restarts = Counter.make "svc.restarts"

let g_depth = Gauge.make "svc.queue_depth"
let h_latency = Histogram.make "svc.request_latency_ms"

(* Per-kind latency: one histogram per op, so [stats] can answer
   "p99 of prove" separately from the probe traffic diluting it.
   [Histogram.make] is idempotent and the op set is closed, so looking
   up by name at completion time is safe from any worker domain. *)
let h_latency_op op = Histogram.make ("svc.request_latency_ms." ^ op)

(* The flight recorder: every control-plane decision the service makes
   lands here, so the moments before an incident can be dumped after
   the fact (SIGUSR1, drain, worker crash) with no tracing armed in
   advance. *)
let flight = Ring.make ~name:"svc.flight" ~capacity:512

let record_transition op (before, after) =
  if before <> after then
    Ring.record flight ~kind:"breaker"
      [
        ("op", Json.Str op);
        ("from", Json.Str (Breaker.state_to_string before));
        ("to", Json.Str (Breaker.state_to_string after));
      ]

(* Book a request's outcome ([Breaker.success] or [Breaker.failure]) on
   its breaker; the caller holds [t.mu].  Returns the state edge, which
   the caller records with [record_transition] once the lock is
   released.  [Breaker.admit] and [Breaker.cancel] need no booking: once
   [Breaker.state] has refreshed the cooldown, neither moves the state. *)
let book breaker outcome =
  let before = Breaker.state breaker in
  outcome breaker;
  (before, Breaker.state breaker)

type worker_state = Idle | Busy | Restarting

let worker_state_to_string = function
  | Idle -> "idle"
  | Busy -> "busy"
  | Restarting -> "restarting"

type budget_policy = {
  default_deadline_ms : float option;
  max_deadline_ms : float option;
  max_fuel : int option;
}

type config = {
  jobs : int;
  queue_capacity : int;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  budget : budget_policy;
  slow_ms : float option;
  on_crash : unit -> unit;
}

let default_config =
  {
    jobs = 1;
    queue_capacity = 64;
    breaker_failures = 5;
    breaker_cooldown_ms = 1000.;
    budget =
      { default_deadline_ms = None; max_deadline_ms = None; max_fuel = None };
    slow_ms = None;
    on_crash = ignore;
  }

type job = {
  req : Protocol.request;
  budget : Budget.t option;
  reply : Protocol.response -> unit;
  admitted_ms : float;
  breaker : Breaker.t;  (** Its kind's breaker; guarded by [mu]. *)
}

type slot = {
  mutable state : worker_state;
  mutable consecutive : int;
  mutable exited : bool;
}

type t = {
  cfg : config;
  handler :
    Protocol.request -> budget:Budget.t option -> Protocol.response;
  mu : Mutex.t;
      (** The one lock: guards [q], [slots], [inflight], [is_accepting],
          [total_restarts] and [breakers], each breaker in it included. *)
  work : Condition.t;
      (** Signalled on a push, broadcast when {!drain} closes the queue. *)
  idle : Condition.t;  (** Signalled when [inflight] drops or a worker exits. *)
  q : job Queue.t;
  slots : slot array;
  mutable domains : unit Domain.t array;
  mutable inflight : int;  (** Admitted jobs not yet replied to. *)
  mutable is_accepting : bool;  (** Cleared once, by {!drain}. *)
  mutable total_restarts : int;
  breakers : (string, Breaker.t) Hashtbl.t;
}

(* Caller holds [t.mu]. *)
let breaker_of t op =
  match Hashtbl.find_opt t.breakers op with
  | Some b -> b
  | None ->
      let b =
        Breaker.make ~failures:t.cfg.breaker_failures
          ~cooldown_ms:t.cfg.breaker_cooldown_ms
      in
      Hashtbl.add t.breakers op b;
      b

(* The request's effective budget: server default deadline, client
   override clamped by the server max, fuel clamped likewise.  Minted
   at admission so queue wait counts against the deadline. *)
let mint_budget policy (req : Protocol.request) =
  let clamp upper v =
    match upper with None -> v | Some u -> Float.min u v
  in
  let deadline_ms =
    match req.Protocol.deadline_ms with
    | Some d when d > 0. -> Some (clamp policy.max_deadline_ms d)
    | Some _ | None -> (
        match policy.default_deadline_ms with
        | Some d -> Some d
        | None ->
            (* Even without a default, an explicit server max caps
               deadline-less requests. *)
            policy.max_deadline_ms)
  in
  let fuel =
    match (req.Protocol.fuel, policy.max_fuel) with
    | Some f, Some m -> Some (min f m)
    | Some f, None -> Some f
    | None, _ -> None
  in
  let spec = { Budget.deadline_ms; fuel } in
  if Budget.spec_is_unlimited spec then None else Some (Budget.of_spec spec)

(* After the handler: write the reply, observe latency, then drop
   [inflight] — only once the reply is out, so [await_idle] returning
   means every reply has been written.  [settle] runs in the same
   critical section (a worker marking itself idle). *)
let finish t (job : job) resp ~settle =
  (* A reply callback that raises (client hung up mid-write) must not
     count as a worker crash — the request itself succeeded. *)
  (try job.reply resp with _ -> ());
  let ms = Clock.now_ms () -. job.admitted_ms in
  let op = Protocol.op_to_string job.req.Protocol.op in
  Histogram.observe h_latency ms;
  Histogram.observe (h_latency_op op) ms;
  (match t.cfg.slow_ms with
  | Some threshold when ms > threshold ->
      Ring.record flight ~kind:"slow"
        [
          ("id", Json.Str job.req.Protocol.id);
          ("op", Json.Str op);
          ("ms", Json.Num ms);
          ("threshold_ms", Json.Num threshold);
        ]
  | _ -> ());
  Mutex.protect t.mu (fun () ->
      settle ();
      t.inflight <- t.inflight - 1;
      Condition.broadcast t.idle)

(* Run the handler; when the request asked for a trace, capture its
   span tree on this worker domain and splice it into a successful
   payload.  An untraced request never touches the capture machinery
   (the span fast path stays two loads). *)
let run_handler t (job : job) op =
  if not job.req.Protocol.trace then t.handler job.req ~budget:job.budget
  else begin
    let resp, tree =
      Span.capture
        ~name:("svc." ^ op)
        (fun () -> t.handler job.req ~budget:job.budget)
    in
    match resp.Protocol.outcome with
    | Ok (code, payload) ->
        {
          resp with
          Protocol.outcome =
            Ok (code, payload @ [ ("trace", Trace.span_to_json tree) ]);
        }
    | Error _ -> resp
  end

let worker t i =
  let slot = t.slots.(i) in
  (* Pop the next job and mark this worker busy, or — once drain has
     closed the queue and it is empty — mark it exited. *)
  let next () =
    Mutex.protect t.mu (fun () ->
        while Queue.is_empty t.q && t.is_accepting do
          Condition.wait t.work t.mu
        done;
        match Queue.take_opt t.q with
        | Some job ->
            Gauge.set g_depth (Queue.length t.q);
            slot.state <- Busy;
            Some job
        | None ->
            slot.exited <- true;
            Condition.broadcast t.idle;
            None)
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some job -> (
        let op = Protocol.op_to_string job.req.Protocol.op in
        match
          Fault.point ~key:job.req.Protocol.id "svc.request";
          run_handler t job op
        with
        | resp ->
            (* Booked before the reply: a client that resends the
               moment a half-open trial answers finds the breaker
               closed. *)
            record_transition op
              (Mutex.protect t.mu (fun () -> book job.breaker Breaker.success));
            finish t job resp ~settle:(fun () ->
                slot.consecutive <- 0;
                slot.state <- Idle);
            loop ()
        | exception e ->
            (* Let it crash: the victim request gets a typed error, the
               breaker hears about it, and this worker restarts after a
               capped deterministic backoff.  Queued jobs are untouched.
               Restart bookkeeping happens before the reply: once the
               victim's answer is out (and [await_idle] can return),
               the restart is already on the books. *)
            let edge, attempt =
              Mutex.protect t.mu (fun () ->
                  let edge = book job.breaker Breaker.failure in
                  slot.consecutive <- slot.consecutive + 1;
                  slot.state <- Restarting;
                  t.total_restarts <- t.total_restarts + 1;
                  (edge, slot.consecutive))
            in
            record_transition op edge;
            Counter.incr c_restarts;
            Ring.record flight ~kind:"restart"
              [
                ("worker", Json.int i);
                ("attempt", Json.int attempt);
                ("id", Json.Str job.req.Protocol.id);
                ("op", Json.Str op);
                ("error", Json.Str (Printexc.to_string e));
              ];
            finish t job
              (Protocol.error ~id:job.req.Protocol.id ~code:"rt/internal-error"
                 (Printexc.to_string e))
              ~settle:ignore;
            (* The crash hook runs after the victim's reply is out, so a
               flight dump already shows the restart it reports. *)
            (try t.cfg.on_crash () with _ -> ());
            Clock.sleep_ms
              (Retry.delay_ms Retry.default_policy
                 ~key:(Printf.sprintf "svc.worker-%d" i)
                 ~attempt);
            Mutex.protect t.mu (fun () -> slot.state <- Idle);
            loop ())
  in
  loop ()

let create ?(config = default_config) ~handler () =
  let jobs = max 1 config.jobs in
  let t =
    {
      cfg = config;
      handler;
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      q = Queue.create ();
      slots =
        Array.init jobs (fun _ ->
            { state = Idle; consecutive = 0; exited = false });
      domains = [||];
      inflight = 0;
      is_accepting = true;
      total_restarts = 0;
      breakers = Hashtbl.create 8;
    }
  in
  t.domains <- Array.init jobs (fun i -> Domain.spawn (fun () -> worker t i));
  t

let submit t req ~reply =
  let id = req.Protocol.id in
  let op = Protocol.op_to_string req.Protocol.op in
  (* Stamp admission before the push: a worker can pop and even finish
     the job before this domain gets to record the event, so the
     default now-clock would misorder admit after slow. *)
  let admit_wall_ms = Clock.wall_ms () in
  let admitted_ms = Clock.now_ms () in
  let budget = mint_budget t.cfg.budget req in
  let admission =
    Mutex.protect t.mu (fun () ->
        if not t.is_accepting then `Draining
        else
          let breaker = breaker_of t op in
          if not (Breaker.admit breaker) then `Breaker_open
          else if Queue.length t.q >= t.cfg.queue_capacity then begin
            (* Give back the half-open trial this job may have taken. *)
            Breaker.cancel breaker;
            `Shed (Queue.length t.q)
          end
          else begin
            Queue.add { req; budget; reply; admitted_ms; breaker } t.q;
            t.inflight <- t.inflight + 1;
            let depth = Queue.length t.q in
            Gauge.set g_depth depth;
            Condition.signal t.work;
            `Accepted depth
          end)
  in
  match admission with
  | `Draining ->
      reply
        (Protocol.error ~id ~code:"svc/draining"
           "server is draining; not accepting new requests")
  | `Breaker_open ->
      Counter.incr c_breaker_open;
      reply
        (Protocol.error ~id ~code:"svc/breaker-open"
           (Printf.sprintf
              "circuit breaker for %S is open (recent %s requests crashed)"
              op op))
  | `Accepted depth ->
      Counter.incr c_accepted;
      Ring.record ~ts_ms:admit_wall_ms flight ~kind:"admit"
        [ ("id", Json.Str id); ("op", Json.Str op); ("depth", Json.int depth) ]
  | `Shed depth ->
      Counter.incr c_shed;
      Ring.record flight ~kind:"shed"
        [ ("id", Json.Str id); ("op", Json.Str op); ("depth", Json.int depth) ];
      reply
        (Protocol.error ~id ~code:"svc/overloaded"
           (Printf.sprintf "queue full (%d waiting); request shed" depth))

let queue_depth t = Mutex.protect t.mu (fun () -> Queue.length t.q)

let worker_states t =
  Mutex.protect t.mu (fun () ->
      Array.map (fun s -> (s.state, s.consecutive)) t.slots)

let restarts t = Mutex.protect t.mu (fun () -> t.total_restarts)

let breaker_states t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun op b acc -> (op, Breaker.state b) :: acc) t.breakers [])
  |> List.sort compare

let accepting t = Mutex.protect t.mu (fun () -> t.is_accepting)

let await_idle t =
  Mutex.protect t.mu (fun () ->
      while t.inflight > 0 do
        Condition.wait t.idle t.mu
      done)

let drain t ~deadline_ms =
  let already, depth =
    Mutex.protect t.mu (fun () ->
        let already = not t.is_accepting in
        t.is_accepting <- false;
        Condition.broadcast t.work;
        (already, Queue.length t.q))
  in
  if already then `Drained
  else begin
    Ring.record flight ~kind:"drain" [ ("queue_depth", Json.int depth) ];
    let deadline = Clock.now_ms () +. deadline_ms in
    let rec wait () =
      let status =
        Mutex.protect t.mu (fun () ->
            if Array.for_all (fun s -> s.exited) t.slots then `Exited
            else if Clock.now_ms () >= deadline then `Expired t.inflight
            else `Waiting)
      in
      match status with
      | `Exited ->
          Array.iter Domain.join t.domains;
          t.domains <- [||];
          `Drained
      | `Expired abandoned ->
          Ring.record flight ~kind:"drain-expired"
            [
              ("deadline_ms", Json.Num deadline_ms);
              ("abandoned", Json.int abandoned);
            ];
          `Expired abandoned
      | `Waiting ->
          Clock.sleep_ms 2.;
          wait ()
    in
    wait ()
  end
