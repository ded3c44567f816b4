module Json = Argus_core.Json
module Clock = Argus_core.Clock
module Budget = Argus_rt.Budget
module Fault = Argus_rt.Fault
module Retry = Argus_rt.Retry
module Breaker = Argus_rt.Breaker
module Protocol = Argus_svc.Protocol
module Supervisor = Argus_svc.Supervisor

(* --- Retry --- *)

let test_retry_delay_deterministic () =
  let p = { Retry.default_policy with seed = 11 } in
  for attempt = 1 to 8 do
    let d1 = Retry.delay_ms p ~key:"k" ~attempt in
    let d2 = Retry.delay_ms p ~key:"k" ~attempt in
    Alcotest.(check (float 0.)) "pure in (policy, key, attempt)" d1 d2;
    Alcotest.(check bool) "within cap" true (d1 <= p.Retry.max_delay_ms);
    Alcotest.(check bool) "positive" true (d1 > 0.)
  done;
  let near = Retry.delay_ms p ~key:"k" ~attempt:1 in
  let far = Retry.delay_ms p ~key:"other" ~attempt:1 in
  (* Different keys draw different jitter (with these constants). *)
  Alcotest.(check bool) "keyed jitter" true (near <> far)

(* --- Breaker --- *)

let test_breaker_transitions () =
  Clock.with_fake @@ fun () ->
  let b = Breaker.make ~failures:2 ~cooldown_ms:100. in
  Alcotest.(check bool) "closed admits" true (Breaker.admit b);
  Breaker.failure b;
  Alcotest.(check bool) "one failure still closed" true
    (Breaker.state b = Breaker.Closed);
  Breaker.failure b;
  Alcotest.(check bool) "threshold opens" true (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open refuses" false (Breaker.admit b);
  Clock.sleep_ms 99.;
  Alcotest.(check bool) "cooldown not elapsed" false (Breaker.admit b);
  Clock.sleep_ms 2.;
  Alcotest.(check bool) "half-open admits one trial" true (Breaker.admit b);
  Alcotest.(check bool) "trial in flight refuses" false (Breaker.admit b);
  Breaker.success b;
  Alcotest.(check bool) "trial success closes" true
    (Breaker.state b = Breaker.Closed);
  (* Success reset the consecutive count: two more failures to re-open. *)
  Breaker.failure b;
  Breaker.failure b;
  Alcotest.(check bool) "re-opens" true (Breaker.state b = Breaker.Open);
  Clock.sleep_ms 149.;
  Alcotest.(check bool) "half-open again" true (Breaker.admit b);
  Breaker.failure b;
  Alcotest.(check bool) "trial failure re-opens" true
    (Breaker.state b = Breaker.Open);
  Clock.sleep_ms 150.;
  Alcotest.(check bool) "trial granted" true (Breaker.admit b);
  Breaker.cancel b;
  Alcotest.(check bool) "cancelled trial grantable again" true
    (Breaker.admit b);
  Breaker.success b;
  Alcotest.(check bool) "closed at the end" true
    (Breaker.state b = Breaker.Closed)

let test_breaker_disabled () =
  let b = Breaker.make ~failures:0 ~cooldown_ms:1000. in
  for _ = 1 to 100 do
    Breaker.failure b
  done;
  Alcotest.(check bool) "never opens" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "always admits" true (Breaker.admit b)

(* --- Protocol --- *)

let test_protocol_roundtrip () =
  let req =
    Protocol.request ~id:"r7" ~source:{|case "t" {}|} ~filename:"t.arg"
      ~goal:"safe" ~ruleset:"denney-pai" ~lints:true ~deadline_ms:250.
      ~fuel:9000 Protocol.Prove
  in
  let line = Json.to_string (Protocol.request_to_json req) in
  (match Protocol.request_of_line line with
  | Ok req' -> Alcotest.(check bool) "request round-trips" true (req = req')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  let minimal = Protocol.request Protocol.Health in
  (match
     Protocol.request_of_line
       (Json.to_string (Protocol.request_to_json minimal))
   with
  | Ok m ->
      Alcotest.(check string) "default filename" "<request>"
        m.Protocol.filename;
      Alcotest.(check string) "default ruleset" "standard" m.Protocol.ruleset
  | Error e -> Alcotest.failf "minimal decode failed: %s" e);
  let ok = Protocol.ok ~id:"r7" ~exit_code:1 [ ("n", Json.int 3) ] in
  (match Protocol.response_of_line (Protocol.response_to_line ok) with
  | Ok r ->
      Alcotest.(check bool) "ok response round-trips" true (r = ok);
      Alcotest.(check int) "exit from payload" 1
        (Protocol.exit_code_of_response r)
  | Error e -> Alcotest.failf "response decode failed: %s" e);
  let err = Protocol.error ~id:"r8" ~code:"svc/overloaded" "queue full" in
  (match Protocol.response_of_line (Protocol.response_to_line err) with
  | Ok r ->
      Alcotest.(check bool) "error response round-trips" true (r = err);
      Alcotest.(check int) "errors exit 2" 2 (Protocol.exit_code_of_response r)
  | Error e -> Alcotest.failf "error decode failed: %s" e)

let test_protocol_rejects () =
  let bad s =
    match Protocol.request_of_line s with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  bad "not json";
  bad {|["op", "check"]|};
  bad {|{"id": "r1"}|};
  bad {|{"op": "frobnicate"}|};
  bad {|{"op": "check", "deadline_ms": "soon"}|};
  bad {|{"op": "check", "deadline_ms": -5}|};
  (* fuel must be a non-negative integral number in range:
     int_of_float on anything else would mint a bogus budget. *)
  bad {|{"op": "check", "fuel": "lots"}|};
  bad {|{"op": "check", "fuel": -3}|};
  bad {|{"op": "check", "fuel": 1.5}|};
  bad {|{"op": "check", "fuel": 1e300}|}

let test_protocol_telemetry_fields () =
  (* trace / trace_id / format survive the wire. *)
  let req =
    Protocol.request ~id:"t1" ~source:"" ~trace:true ~trace_id:"abc"
      ~format:"json" Protocol.Stats
  in
  (match
     Protocol.request_of_line (Json.to_string (Protocol.request_to_json req))
   with
  | Ok r ->
      Alcotest.(check bool) "trace flag" true r.Protocol.trace;
      Alcotest.(check (option string))
        "trace_id" (Some "abc") r.Protocol.trace_id;
      Alcotest.(check (option string)) "format" (Some "json") r.Protocol.format
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* Omitted fields default: no trace, no id, no format — and the
     request line does not mention them at all. *)
  let minimal = Protocol.request ~source:"" Protocol.Check in
  let line = Json.to_string (Protocol.request_to_json minimal) in
  (match Protocol.request_of_line line with
  | Ok r ->
      Alcotest.(check bool) "no trace by default" false r.Protocol.trace;
      Alcotest.(check (option string)) "no trace_id" None r.Protocol.trace_id
  | Error e -> Alcotest.failf "minimal decode failed: %s" e);
  (match Json.of_string line with
  | Ok j ->
      Alcotest.(check bool) "quiet when off" true
        (Json.member "trace" j = None && Json.member "trace_id" j = None)
  | Error e -> Alcotest.failf "unparseable line: %s" e);
  (* Unknown fields are tolerated — an older server must accept
     requests from a newer client. *)
  (match
     Protocol.request_of_line
       {|{"op": "check", "trace_id": "z9", "hologram": true, "shards": [3]}|}
   with
  | Ok r ->
      Alcotest.(check (option string))
        "known fields still parse" (Some "z9") r.Protocol.trace_id
  | Error e -> Alcotest.failf "unknown fields rejected: %s" e);
  (* Responses: the echoed trace id round-trips and stays out of the
     payload proper. *)
  let ok = Protocol.ok ~trace_id:"t7" ~id:"r1" ~exit_code:0 [ ("n", Json.int 1) ] in
  (match Protocol.response_of_line (Protocol.response_to_line ok) with
  | Ok r ->
      Alcotest.(check (option string))
        "ok trace id echoed" (Some "t7") r.Protocol.rtrace_id;
      (match r.Protocol.outcome with
      | Ok (_, payload) ->
          Alcotest.(check bool) "trace_id not in payload" false
            (List.mem_assoc "trace_id" payload);
          Alcotest.(check bool) "payload intact" true
            (List.assoc_opt "n" payload = Some (Json.int 1))
      | Error _ -> Alcotest.fail "expected ok outcome")
  | Error e -> Alcotest.failf "response decode failed: %s" e);
  let err =
    Protocol.with_trace_id (Some "t8")
      (Protocol.error ~id:"r2" ~code:"svc/overloaded" "busy")
  in
  (match Protocol.response_of_line (Protocol.response_to_line err) with
  | Ok r ->
      Alcotest.(check (option string))
        "error trace id stamped" (Some "t8") r.Protocol.rtrace_id
  | Error e -> Alcotest.failf "error decode failed: %s" e)

(* --- Supervisor --- *)

(* Replies arrive on worker domains; collect them under a lock. *)
let make_sink () =
  let mu = Mutex.create () in
  let acc = ref [] in
  let reply r = Mutex.protect mu (fun () -> acc := r :: !acc) in
  let all () = Mutex.protect mu (fun () -> List.rev !acc) in
  (reply, all)

let echo_handler (req : Protocol.request) ~budget:_ =
  Protocol.ok ~id:req.Protocol.id ~exit_code:0 []

let req_check id = Protocol.request ~id ~source:"" Protocol.Check

let is_internal_error (r : Protocol.response) =
  match r.Protocol.outcome with
  | Error ("rt/internal-error", _) -> true
  | _ -> false

let config ~jobs ?(queue_capacity = 64) ?(breaker_failures = 5)
    ?(breaker_cooldown_ms = 1000.) ?budget () =
  let budget =
    match budget with
    | Some b -> b
    | None ->
        { Supervisor.default_deadline_ms = None; max_deadline_ms = None;
          max_fuel = None }
  in
  { Supervisor.default_config with
    Supervisor.jobs; queue_capacity; breaker_failures; breaker_cooldown_ms;
    budget }

let test_supervisor_echo () =
  List.iter
    (fun jobs ->
      let sup =
        Supervisor.create ~config:(config ~jobs ()) ~handler:echo_handler ()
      in
      let reply, all = make_sink () in
      for i = 1 to 20 do
        Supervisor.submit sup (req_check (Printf.sprintf "r%d" i)) ~reply
      done;
      Supervisor.await_idle sup;
      let rs = all () in
      Alcotest.(check int)
        (Printf.sprintf "all replied at jobs=%d" jobs)
        20 (List.length rs);
      List.iter
        (fun r ->
          Alcotest.(check int) "ok" 0 (Protocol.exit_code_of_response r))
        rs;
      Alcotest.(check int) "no restarts" 0 (Supervisor.restarts sup);
      Alcotest.(check bool) "clean drain" true
        (Supervisor.drain sup ~deadline_ms:60_000. = `Drained))
    [ 1; 2; 8 ]

(* The acceptance scenario: a fault injected at the [svc.request] probe,
   keyed by request id, kills the worker handling the victim.  The
   victim gets a typed error, every other queued request completes, the
   restart counter records exactly one restart — at any parallelism. *)
let test_supervisor_crash_victim () =
  List.iter
    (fun jobs ->
      Fault.with_spec
        { Fault.probe = "svc.request"; key = Some "boom"; rate = 1.; seed = 42 }
        (fun () ->
          let sup =
            Supervisor.create ~config:(config ~jobs ()) ~handler:echo_handler ()
          in
          let reply, all = make_sink () in
          for i = 1 to 5 do
            Supervisor.submit sup (req_check (Printf.sprintf "r%d" i)) ~reply
          done;
          Supervisor.submit sup (req_check "boom") ~reply;
          for i = 6 to 10 do
            Supervisor.submit sup (req_check (Printf.sprintf "r%d" i)) ~reply
          done;
          Supervisor.await_idle sup;
          let rs = all () in
          Alcotest.(check int)
            (Printf.sprintf "all replied at jobs=%d" jobs)
            11 (List.length rs);
          let victims, survivors =
            List.partition is_internal_error rs
          in
          Alcotest.(check int) "one victim" 1 (List.length victims);
          Alcotest.(check string) "the keyed request" "boom"
            (List.hd victims).Protocol.rid;
          List.iter
            (fun r ->
              Alcotest.(check int) "survivor ok" 0
                (Protocol.exit_code_of_response r))
            survivors;
          Alcotest.(check int) "exactly one restart" 1
            (Supervisor.restarts sup);
          Alcotest.(check bool) "drains after the crash" true
            (Supervisor.drain sup ~deadline_ms:60_000. = `Drained)))
    [ 1; 2; 8 ]

(* Rate-based injection draws purely from (seed, probe, request id): the
   set of victims — and so the restart count — is identical whatever the
   parallelism.  Breakers are disabled so a run of consecutive victims
   cannot turn into refusals. *)
let test_supervisor_fault_schedule_deterministic () =
  let ids = List.init 20 (fun i -> Printf.sprintf "req-%02d" i) in
  let run jobs =
    Fault.with_spec
      { Fault.probe = "svc.request"; key = None; rate = 0.5; seed = 7 }
      (fun () ->
        let sup =
          Supervisor.create
            ~config:(config ~jobs ~breaker_failures:0 ())
            ~handler:echo_handler ()
        in
        let reply, all = make_sink () in
        List.iter (fun id -> Supervisor.submit sup (req_check id) ~reply) ids;
        Supervisor.await_idle sup;
        let victims =
          all () |> List.filter is_internal_error
          |> List.map (fun r -> r.Protocol.rid)
          |> List.sort compare
        in
        let restarts = Supervisor.restarts sup in
        ignore (Supervisor.drain sup ~deadline_ms:60_000.);
        (victims, restarts))
  in
  let victims1, restarts1 = run 1 in
  Alcotest.(check bool) "schedule fires somewhere" true (victims1 <> []);
  Alcotest.(check bool) "and spares somewhere" true
    (List.length victims1 < List.length ids);
  Alcotest.(check int) "restarts = victims" (List.length victims1) restarts1;
  List.iter
    (fun jobs ->
      let victims, restarts = run jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "same victims at jobs=%d" jobs)
        victims1 victims;
      Alcotest.(check int)
        (Printf.sprintf "same restarts at jobs=%d" jobs)
        restarts1 restarts)
    [ 2; 8 ]

let test_supervisor_sheds () =
  let sup =
    Supervisor.create
      ~config:(config ~jobs:2 ~queue_capacity:0 ())
      ~handler:echo_handler ()
  in
  let reply, all = make_sink () in
  for i = 1 to 4 do
    Supervisor.submit sup (req_check (Printf.sprintf "r%d" i)) ~reply
  done;
  (* Shedding replies synchronously: no need to wait. *)
  let rs = all () in
  Alcotest.(check int) "all shed" 4 (List.length rs);
  List.iter
    (fun (r : Protocol.response) ->
      match r.Protocol.outcome with
      | Error ("svc/overloaded", _) -> ()
      | _ -> Alcotest.fail "expected svc/overloaded")
    rs;
  Alcotest.(check bool) "drains" true
    (Supervisor.drain sup ~deadline_ms:60_000. = `Drained)

let test_supervisor_breaker () =
  Fault.with_spec
    { Fault.probe = "svc.request"; key = Some "bad"; rate = 1.; seed = 1 }
    (fun () ->
      let cfg =
        { Supervisor.default_config with
          Supervisor.jobs = 1; queue_capacity = 16; breaker_failures = 2;
          breaker_cooldown_ms = 100. }
      in
      let sup = Supervisor.create ~config:cfg ~handler:echo_handler () in
      let reply, all = make_sink () in
      let submit_and_wait id =
        Supervisor.submit sup (req_check id) ~reply;
        Supervisor.await_idle sup
      in
      (* Under the fake, the workers' restart backoff advances the clock
         too: at most 10 + 20 ms, well inside the 100 ms cooldown. *)
      Clock.with_fake (fun () ->
          submit_and_wait "bad";
          submit_and_wait "bad";
          Alcotest.(check bool) "breaker opened for check" true
            (List.mem_assoc "check" (Supervisor.breaker_states sup)
            && List.assoc "check" (Supervisor.breaker_states sup)
               = Breaker.Open);
          submit_and_wait "fine";
          (match all () with
          | [ _; _; r3 ] -> (
              match r3.Protocol.outcome with
              | Error ("svc/breaker-open", _) -> ()
              | _ -> Alcotest.fail "expected svc/breaker-open while open")
          | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs));
          Clock.sleep_ms 150.;
          submit_and_wait "fine2";
          submit_and_wait "fine3";
          (match List.rev (all ()) with
          | r5 :: r4 :: _ ->
              Alcotest.(check int) "half-open trial succeeded" 0
                (Protocol.exit_code_of_response r4);
              Alcotest.(check int) "breaker closed again" 0
                (Protocol.exit_code_of_response r5)
          | _ -> Alcotest.fail "missing replies");
          Alcotest.(check bool) "closed in health" true
            (List.assoc "check" (Supervisor.breaker_states sup)
            = Breaker.Closed));
      (* Drain polls with sleeps; outside the fake they block. *)
      ignore (Supervisor.drain sup ~deadline_ms:60_000.))

(* Server-side fuel clamp: the handler sees a budget already clamped to
   the policy maximum, however much the client asked for. *)
let test_supervisor_budget_clamp () =
  let ticks_handler (req : Protocol.request) ~budget =
    let n = ref 0 in
    (match budget with
    | None -> n := -1
    | Some b ->
        while Budget.tick b ~engine:"svc-test" && !n < 10_000 do
          incr n
        done);
    Protocol.ok ~id:req.Protocol.id ~exit_code:0 [ ("ticks", Json.int !n) ]
  in
  let budget =
    { Supervisor.default_deadline_ms = None; max_deadline_ms = None;
      max_fuel = Some 100 }
  in
  let sup =
    Supervisor.create ~config:(config ~jobs:1 ~budget ()) ~handler:ticks_handler
      ()
  in
  let reply, all = make_sink () in
  let ticks_of (r : Protocol.response) =
    match r.Protocol.outcome with
    | Ok (_, payload) -> (
        match List.assoc_opt "ticks" payload with
        | Some (Json.Num n) -> int_of_float n
        | _ -> Alcotest.fail "no ticks in payload")
    | Error _ -> Alcotest.fail "unexpected error"
  in
  Supervisor.submit sup
    (Protocol.request ~id:"greedy" ~fuel:1_000_000 Protocol.Check)
    ~reply;
  Supervisor.await_idle sup;
  Supervisor.submit sup
    (Protocol.request ~id:"modest" ~fuel:50 Protocol.Check)
    ~reply;
  Supervisor.await_idle sup;
  Supervisor.submit sup (Protocol.request ~id:"none" Protocol.Check) ~reply;
  Supervisor.await_idle sup;
  (match all () with
  | [ greedy; modest; none ] ->
      Alcotest.(check int) "client fuel clamped by server max" 100
        (ticks_of greedy);
      Alcotest.(check int) "smaller client fuel honoured" 50 (ticks_of modest);
      Alcotest.(check int) "no fuel, no budget" (-1) (ticks_of none)
  | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs));
  ignore (Supervisor.drain sup ~deadline_ms:60_000.)

let test_supervisor_drain () =
  let sup =
    Supervisor.create ~config:(config ~jobs:2 ()) ~handler:echo_handler ()
  in
  let reply, all = make_sink () in
  for i = 1 to 8 do
    Supervisor.submit sup (req_check (Printf.sprintf "r%d" i)) ~reply
  done;
  Alcotest.(check bool) "drain completes" true
    (Supervisor.drain sup ~deadline_ms:60_000. = `Drained);
  Alcotest.(check int) "queued work finished before exit" 8
    (List.length (all ()));
  Alcotest.(check bool) "no longer accepting" false (Supervisor.accepting sup);
  Supervisor.submit sup (req_check "late") ~reply;
  (match List.rev (all ()) with
  | last :: _ -> (
      match last.Protocol.outcome with
      | Error ("svc/draining", _) -> ()
      | _ -> Alcotest.fail "expected svc/draining after drain")
  | [] -> Alcotest.fail "no replies");
  Alcotest.(check bool) "drain idempotent" true
    (Supervisor.drain sup ~deadline_ms:60_000. = `Drained)

let code_of (r : Protocol.response) =
  match r.Protocol.outcome with Ok _ -> "ok" | Error (code, _) -> code

(* One worker pops in submission order, so its replies come back in
   that order too. *)
let test_supervisor_fifo () =
  let sup =
    Supervisor.create ~config:(config ~jobs:1 ()) ~handler:echo_handler ()
  in
  let reply, all = make_sink () in
  let ids = List.init 20 (Printf.sprintf "r%02d") in
  List.iter (fun id -> Supervisor.submit sup (req_check id) ~reply) ids;
  Supervisor.await_idle sup;
  Alcotest.(check (list string)) "replies in submission order" ids
    (List.map (fun r -> r.Protocol.rid) (all ()));
  Alcotest.(check bool) "drains" true
    (Supervisor.drain sup ~deadline_ms:60_000. = `Drained)

(* A handler that holds its worker until [release]: with the one
   worker parked on a request, the queue fills deterministically. *)
let gated_handler () =
  let mu = Mutex.create () and cv = Condition.create () in
  let started = ref 0 and opened = ref false in
  let handler req ~budget =
    Mutex.protect mu (fun () ->
        incr started;
        Condition.broadcast cv;
        while not !opened do
          Condition.wait cv mu
        done);
    echo_handler req ~budget
  in
  let await_started n =
    Mutex.protect mu (fun () ->
        while !started < n do
          Condition.wait cv mu
        done)
  in
  let release () =
    Mutex.protect mu (fun () ->
        opened := true;
        Condition.broadcast cv)
  in
  (handler, await_started, release)

(* Capacity counts waiting requests: with the one worker busy, two
   requests queue at capacity 2 and the third is shed at once.  A
   negative capacity sheds everything, like 0. *)
let test_supervisor_sheds_at_capacity () =
  let handler, await_started, release = gated_handler () in
  let sup =
    Supervisor.create ~config:(config ~jobs:1 ~queue_capacity:2 ()) ~handler ()
  in
  let reply, all = make_sink () in
  Supervisor.submit sup (req_check "running") ~reply;
  await_started 1;
  Supervisor.submit sup (req_check "q1") ~reply;
  Supervisor.submit sup (req_check "q2") ~reply;
  Alcotest.(check int) "two waiting" 2 (Supervisor.queue_depth sup);
  Supervisor.submit sup (req_check "over") ~reply;
  Alcotest.(check (list (pair string string)))
    "shed synchronously, the rest still waiting"
    [ ("over", "svc/overloaded") ]
    (List.map (fun r -> (r.Protocol.rid, code_of r)) (all ()));
  release ();
  Supervisor.await_idle sup;
  Alcotest.(check (list (pair string string)))
    "the queued requests ran in order"
    [
      ("over", "svc/overloaded"); ("running", "ok"); ("q1", "ok"); ("q2", "ok");
    ]
    (List.map (fun r -> (r.Protocol.rid, code_of r)) (all ()));
  Supervisor.submit sup (req_check "again") ~reply;
  Supervisor.await_idle sup;
  Alcotest.(check string) "room again once the queue emptied" "ok"
    (code_of (List.hd (List.rev (all ()))));
  Alcotest.(check bool) "drains" true
    (Supervisor.drain sup ~deadline_ms:60_000. = `Drained);
  let sup =
    Supervisor.create
      ~config:(config ~jobs:1 ~queue_capacity:(-3) ())
      ~handler:echo_handler ()
  in
  let reply, all = make_sink () in
  for i = 1 to 3 do
    Supervisor.submit sup (req_check (Printf.sprintf "n%d" i)) ~reply
  done;
  Alcotest.(check (list string)) "negative capacity sheds everything"
    [ "svc/overloaded"; "svc/overloaded"; "svc/overloaded" ]
    (List.map code_of (all ()));
  Alcotest.(check bool) "drains" true
    (Supervisor.drain sup ~deadline_ms:60_000. = `Drained)

(* Admission under contention: four domains submit at once into a
   two-worker pool whose small queue keeps filling, so pushes, pops and
   sheds interleave.  Every submission is answered exactly once, the
   counters add up, and the queue ends empty. *)
let test_supervisor_concurrent_submitters () =
  let domains = 4 and per_domain = 2_000 in
  let total = domains * per_domain in
  let replies = Array.init total (fun _ -> Atomic.make 0) in
  let answered = Atomic.make 0 and unexpected = Atomic.make 0 in
  let reply (r : Protocol.response) =
    Atomic.incr replies.(int_of_string r.Protocol.rid);
    if code_of r <> "ok" && code_of r <> "svc/overloaded" then
      Atomic.incr unexpected;
    Atomic.incr answered
  in
  let accepted = Argus_obs.Counter.make "svc.accepted" in
  let shed = Argus_obs.Counter.make "svc.shed" in
  let accepted0 = Argus_obs.Counter.value accepted in
  let shed0 = Argus_obs.Counter.value shed in
  let sup =
    Supervisor.create
      ~config:(config ~jobs:2 ~queue_capacity:8 ())
      ~handler:echo_handler ()
  in
  List.init domains (fun d ->
      Domain.spawn (fun () ->
          for k = 0 to per_domain - 1 do
            Supervisor.submit sup
              (req_check (string_of_int ((d * per_domain) + k)))
              ~reply
          done))
  |> List.iter Domain.join;
  (* A lost job would leave [await_idle] blocked forever: wait for the
     replies with a bound first, so that failure reports, not hangs. *)
  let give_up = Unix.gettimeofday () +. 30. in
  while Atomic.get answered < total && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "every submission answered" total
    (Atomic.get answered);
  Array.iteri
    (fun i n ->
      if Atomic.get n <> 1 then
        Alcotest.failf "request %d answered %d times" i (Atomic.get n))
    replies;
  Alcotest.(check int) "answered ok or svc/overloaded" 0
    (Atomic.get unexpected);
  Supervisor.await_idle sup;
  Alcotest.(check int) "svc.accepted + svc.shed = submissions" total
    (Argus_obs.Counter.value accepted - accepted0
    + (Argus_obs.Counter.value shed - shed0));
  Alcotest.(check int) "queue empty" 0 (Supervisor.queue_depth sup);
  Alcotest.(check int) "svc.queue_depth gauge at 0" 0
    (Argus_obs.Metrics.Gauge.value
       (Argus_obs.Metrics.Gauge.make "svc.queue_depth"));
  Alcotest.(check bool) "drains" true
    (Supervisor.drain sup ~deadline_ms:60_000. = `Drained)

(* --- Server --- *)

module Server = Argus_svc.Server

(* Regression for the half-close path: a client that shuts down its
   write side after sending (shutdown(SHUT_WR)) must still receive a
   response for every request it got in.  The server treats EOF as
   no-more-requests — the fd stays open until nothing is in flight on
   that connection, then the acceptor closes it (which is what ends the
   read loop below). *)
let test_server_half_close () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "argus-svc-hc-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      Server.supervisor = Supervisor.default_config;
    }
  in
  let h = Server.spawn ~handler:echo_handler cfg in
  Fun.protect ~finally:(fun () -> ignore (Server.stop h)) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let send r =
    let s = Json.to_string (Protocol.request_to_json r) ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s))
  in
  send (req_check "hc1");
  send (req_check "hc2");
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_all ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "timed out waiting for replies after half-close"
  in
  read_all ();
  let ids =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match Protocol.response_of_line l with
           | Ok r -> r.Protocol.rid
           | Error e -> Alcotest.failf "bad response line %S: %s" l e)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "both replies delivered, then EOF"
    [ "hc1"; "hc2" ] ids

(* A tiny line-oriented client against a spawned server: send request
   values, read one response line per request. *)
let with_server ?(jobs = 1) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "argus-svc-tm-%d-%d.sock" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1000.) mod 100000))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      Server.supervisor = { Supervisor.default_config with jobs };
    }
  in
  let h = Server.spawn ~handler:echo_handler cfg in
  Fun.protect ~finally:(fun () -> ignore (Server.stop h)) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let ic = Unix.in_channel_of_descr fd in
  let roundtrip req =
    let s = Json.to_string (Protocol.request_to_json req) ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s));
    match input_line ic with
    | line -> (
        match Protocol.response_of_line line with
        | Ok r -> r
        | Error e -> Alcotest.failf "bad response line %S: %s" line e)
    | exception End_of_file -> Alcotest.fail "server closed early"
  in
  f roundtrip

let test_server_trace_ids () =
  with_server @@ fun roundtrip ->
  (* Without a client id the server mints a deterministic sequence... *)
  let r1 = roundtrip (req_check "a") in
  let r2 = roundtrip (Protocol.request Protocol.Health) in
  Alcotest.(check (option string)) "minted t1" (Some "t1") r1.Protocol.rtrace_id;
  Alcotest.(check (option string))
    "health gets one too" (Some "t2") r2.Protocol.rtrace_id;
  (* ...and a client-supplied id is echoed untouched. *)
  let r3 =
    roundtrip (Protocol.request ~id:"c" ~source:"" ~trace_id:"corr-42"
                 Protocol.Check)
  in
  Alcotest.(check (option string))
    "client id echoed" (Some "corr-42") r3.Protocol.rtrace_id

let test_server_stats_schema () =
  with_server @@ fun roundtrip ->
  ignore (roundtrip (req_check "warm"));
  let r = roundtrip (Protocol.request Protocol.Stats) in
  (match r.Protocol.outcome with
  | Error (code, msg) -> Alcotest.failf "stats failed: %s %s" code msg
  | Ok (_, payload) ->
      let has k = List.mem_assoc k payload in
      List.iter
        (fun k ->
          Alcotest.(check bool) (Printf.sprintf "payload has %s" k) true
            (has k))
        [ "ready"; "queue_depth"; "queue_capacity"; "jobs"; "restarts";
          "workers"; "breakers"; "counters"; "gauges"; "latency_ms";
          "flight_recorded"; "now_ms" ];
      (match List.assoc "latency_ms" payload with
      | Json.Obj by_op ->
          (* The warm-up check was observed under both the aggregate
             and its per-op key. *)
          List.iter
            (fun key ->
              match List.assoc_opt key by_op with
              | Some (Json.Obj stats) ->
                  List.iter
                    (fun f ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s has %s" key f)
                        true (List.mem_assoc f stats))
                    [ "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
              | _ -> Alcotest.failf "latency_ms missing %s" key)
            [ "all"; "check" ]
      | _ -> Alcotest.fail "latency_ms is not an object");
      (* The whole payload survives a JSON round-trip. *)
      let j = Json.Obj payload in
      (match Json.of_string (Json.to_string j) with
      | Ok j' ->
          Alcotest.(check bool) "stats json round-trips" true (Json.equal j j')
      | Error e -> Alcotest.failf "stats json unparseable: %s" e));
  (* Prometheus format: raw exposition text in the payload body. *)
  let rp = roundtrip (Protocol.request ~format:"prometheus" Protocol.Stats) in
  (match rp.Protocol.outcome with
  | Ok (_, payload) -> (
      match List.assoc_opt "body" payload with
      | Some (Json.Str body) ->
          Alcotest.(check bool) "exposition text" true
            (String.length body > 0 && String.sub body 0 6 = "# TYPE")
      | _ -> Alcotest.fail "prometheus body missing")
  | Error (code, msg) -> Alcotest.failf "prometheus failed: %s %s" code msg);
  (* An unknown format is a typed client error, not a crash. *)
  let rb = roundtrip (Protocol.request ~format:"xml" Protocol.Stats) in
  match rb.Protocol.outcome with
  | Error ("svc/bad-request", _) -> ()
  | _ -> Alcotest.fail "unknown format should be svc/bad-request"

let test_server_traced_request () =
  with_server @@ fun roundtrip ->
  let r = roundtrip (Protocol.request ~id:"tr" ~source:"" ~trace:true
                       Protocol.Check)
  in
  match r.Protocol.outcome with
  | Error (code, msg) -> Alcotest.failf "traced check failed: %s %s" code msg
  | Ok (_, payload) -> (
      match List.assoc_opt "trace" payload with
      | None -> Alcotest.fail "traced request carries no trace"
      | Some tj -> (
          match Argus_obs.Trace.span_of_json tj with
          | None -> Alcotest.fail "trace does not parse as a span tree"
          | Some span ->
              Alcotest.(check string)
                "root span is the op" "svc.check"
                span.Argus_obs.Span.name;
              Alcotest.(check bool)
                "span has a duration" true
                (span.Argus_obs.Span.dur_ns >= 0)))

(* --- store ops: protocol codec, stateless rejection, stateful mode --- *)

module Store = Argus_store.Store
module Durable = Argus_store.Durable
module Handlers = Argus_svc.Handlers
module Id = Argus_core.Id

let string_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_protocol_edits_roundtrip () =
  let edits =
    [
      Store.Set_text (Id.of_string "G1", "new text");
      Store.Add_node
        (Argus_gsn.Node.make ~id:(Id.of_string "Sn1")
           ~node_type:Argus_gsn.Node.Solution
           ~status:Argus_gsn.Node.Undeveloped
           ~evidence:(Id.of_string "E1") "Test report");
      Store.Remove_node (Id.of_string "G2");
      Store.Link
        (Argus_gsn.Structure.Supported_by, Id.of_string "G1",
         Id.of_string "Sn1");
      Store.Unlink
        (Argus_gsn.Structure.In_context_of, Id.of_string "G1",
         Id.of_string "C1");
      Store.Add_node
        (Argus_gsn.Node.make ~id:(Id.of_string "AG1")
           ~node_type:(Argus_gsn.Node.Away_goal (Id.of_string "M2"))
           ~formal:(Argus_logic.Prop.of_string_exn "h1 -> (mitigated & verified)")
           ~annotations:
             (List.map
                (fun a ->
                  Result.get_ok (Argus_gsn.Metadata.annotation_of_string a))
                [ {|hazard "H1" catastrophic remote|}; "sil 4" ])
           "Hazard H1 is mitigated in module M2");
    ]
  in
  let req = Protocol.request ~digest:"abc123" ~edits Protocol.Patch in
  (match
     Protocol.request_of_line (Json.to_string (Protocol.request_to_json req))
   with
  | Ok r ->
      Alcotest.(check (option string))
        "digest survives the wire" (Some "abc123") r.Protocol.digest;
      Alcotest.(check bool) "edits round-trip" true (r.Protocol.edits = edits)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  let bad s =
    match Protocol.request_of_line s with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  bad {|{"op": "patch", "edits": "not a list"}|};
  bad {|{"op": "patch", "edits": [{"op": "explode"}]}|};
  bad {|{"op": "patch", "edits": [{"op": "set-text", "id": "G1"}]}|};
  bad {|{"op": "patch", "edits": [{"op": "add-node", "id": "X", "type": "widget", "text": "t"}]}|};
  bad {|{"op": "patch", "edits": [{"op": "link", "kind": "sideways", "src": "a", "dst": "b"}]}|};
  (* The formula bound of the DSL holds on the wire: 512 nested
     parentheses parse, 513 are refused. *)
  let add_node_with_formal depth =
    Printf.sprintf
      {|{"op": "patch", "edits": [{"op": "add-node", "id": "G9", "type": "goal", "text": "t", "formal": "%sa%s"}]}|}
      (String.make depth '(') (String.make depth ')')
  in
  bad (add_node_with_formal 513);
  match Protocol.request_of_line (add_node_with_formal 512) with
  | Ok { Protocol.edits = [ Store.Add_node n ]; _ } ->
      Alcotest.(check bool)
        "512-deep formal kept" true
        (n.Argus_gsn.Node.formal = Some (Argus_logic.Prop.Var "a"))
  | Ok _ -> Alcotest.fail "512-deep add-node decoded to other edits"
  | Error e -> Alcotest.failf "512-deep formal refused: %s" e

(* A server without a store must reject the stateful ops with a clear
   bad-request, not crash or hang. *)
let test_stateless_rejects_store_ops () =
  List.iter
    (fun op ->
      let req = Protocol.request ~id:"r1" op in
      match (Handlers.handle req ~budget:None).Protocol.outcome with
      | Error (code, msg) ->
          Alcotest.(check string)
            (Protocol.op_to_string op ^ " code")
            "svc/bad-request" code;
          Alcotest.(check bool)
            (Protocol.op_to_string op ^ " says how to enable")
            true
            (string_contains msg "--store")
      | Ok _ ->
          Alcotest.failf "stateless %s must be rejected"
            (Protocol.op_to_string op))
    [ Protocol.Put; Protocol.Patch; Protocol.Verdict ]

let source =
  {|case "t" {
  goal G1 "The system is acceptably safe" { supported-by S1 }
  strategy S1 "Argue over hazards" { supported-by G2 }
  goal G2 "Hazard H1 is mitigated"
}|}

(* DESIGN.md section 10: a budget truncation is a finding, so every op
   answers exit 1 when its budget ran out, and the report says why. *)
let test_truncation_exits_one () =
  let exit_of op ?goal ?fuel source =
    let budget = Option.map (fun fuel -> Budget.make ~fuel ()) fuel in
    let req = Protocol.request ~id:"t" ~source ?goal ~lints:true op in
    match (Handlers.handle req ~budget).Protocol.outcome with
    | Ok (code, _) -> code
    | Error (c, m) ->
        Alcotest.failf "%s failed: %s %s" (Protocol.op_to_string op) c m
  in
  let clean =
    {|case "t" {
  evidence E1 analysis "a"
  goal G1 "t holds" { supported-by Sn1 }
  solution Sn1 "s" { evidence E1 }
}|}
  and loop = "p :- p, p.\np :- p.\n" in
  Alcotest.(check int) "check, unbudgeted" 0 (exit_of Protocol.Check clean);
  Alcotest.(check int) "check, truncated" 1 (exit_of Protocol.Check ~fuel:1 clean);
  Alcotest.(check int) "fallacies, unbudgeted" 0
    (exit_of Protocol.Fallacies clean);
  Alcotest.(check int) "fallacies, truncated" 1
    (exit_of Protocol.Fallacies ~fuel:1 clean);
  Alcotest.(check int) "prove, truncated" 1
    (exit_of Protocol.Prove ~goal:"p" ~fuel:100 loop)

let payload_str payload k =
  match List.assoc_opt k payload with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "payload misses string %S" k

let memory_store () =
  match Durable.create () with
  | Ok (store, _) -> store
  | Error e -> Alcotest.failf "in-memory durable create failed: %s" e

(* An unknown rule-set name is refused as a bad request that names the
   accepted values — never checked (or, for a put, WAL-logged) under
   the standard rules. *)
let test_unknown_ruleset_rejected () =
  let store = memory_store () in
  let handle = Handlers.with_store store in
  List.iter
    (fun op ->
      let name = Protocol.op_to_string op in
      let req = Protocol.request ~id:"r1" ~source ~ruleset:"denney_pai" op in
      (match (handle req ~budget:None).Protocol.outcome with
      | Error (code, msg) ->
          Alcotest.(check string) (name ^ " code") "svc/bad-request" code;
          Alcotest.(check bool)
            (name ^ " names the accepted values")
            true
            (string_contains msg "standard"
            && string_contains msg "denney-pai")
      | Ok _ -> Alcotest.failf "%s accepted an unknown ruleset" name);
      match
        (handle { req with Protocol.ruleset = "denney-pai" } ~budget:None)
          .Protocol.outcome
      with
      | Ok _ -> ()
      | Error (c, m) -> Alcotest.failf "%s denney-pai failed: %s %s" name c m)
    [ Protocol.Check; Protocol.Put ];
  Alcotest.(check int) "only the accepted put was logged" 1 (Durable.seq store)

(* A node added over the wire keeps its formal and annotations: a put
   of the whole case and a put of the case without the node plus a
   patch that adds and links it reach the same digest and verdict. *)
let test_patch_add_node_matches_put () =
  let put_digest handle source =
    match
      (handle (Protocol.request ~id:"p" ~source Protocol.Put) ~budget:None)
        .Protocol.outcome
    with
    | Ok (_, payload) -> payload_str payload "digest"
    | Error (c, m) -> Alcotest.failf "put failed: %s %s" c m
  in
  let verdict handle digest =
    match
      (handle (Protocol.request ~id:"v" ~digest Protocol.Verdict) ~budget:None)
        .Protocol.outcome
    with
    | Ok (code, payload) -> (code, List.assoc_opt "report" payload)
    | Error (c, m) -> Alcotest.failf "verdict failed: %s %s" c m
  in
  let whole = Handlers.with_store (memory_store ()) in
  let d_whole =
    put_digest whole
      {|case "t" {
  goal G1 "The system is acceptably safe" { supported-by G2 }
  goal G2 "Hazard H1 is mitigated" {
    undeveloped
    formal "h1 -> mitigated"
    meta "hazard \"H1\" catastrophic remote"
    meta "sil 4"
  }
}|}
  in
  let patched = Handlers.with_store (memory_store ()) in
  let d_base =
    put_digest patched
      {|case "t" {
  goal G1 "The system is acceptably safe"
}|}
  in
  let line =
    Printf.sprintf
      {|{"id": "e", "op": "patch", "digest": %S, "edits": [{"op": "add-node", "id": "G2", "type": "goal", "text": "Hazard H1 is mitigated", "status": "undeveloped", "formal": "h1 -> mitigated", "annotations": ["hazard \"H1\" catastrophic remote", "sil 4"]}, {"op": "link", "kind": "supported-by", "src": "G1", "dst": "G2"}]}|}
      d_base
  in
  let d_patched =
    match Protocol.request_of_line line with
    | Error e -> Alcotest.failf "patch line refused: %s" e
    | Ok req -> (
        match (patched req ~budget:None).Protocol.outcome with
        | Ok (_, payload) -> payload_str payload "digest"
        | Error (c, m) -> Alcotest.failf "patch failed: %s %s" c m)
  in
  Alcotest.(check string) "same digest" d_whole d_patched;
  Alcotest.(check bool)
    "same verdict" true
    (verdict whole d_whole = verdict patched d_patched)

let test_with_store_lifecycle () =
  let store = memory_store () in
  let handle = Handlers.with_store store in
  let put = Protocol.request ~id:"p1" ~source Protocol.Put in
  let digest =
    match (handle put ~budget:None).Protocol.outcome with
    | Ok (0, payload) -> payload_str payload "digest"
    | Ok (n, _) -> Alcotest.failf "put exited %d" n
    | Error (c, m) -> Alcotest.failf "put failed: %s %s" c m
  in
  (* check still works through the stateful handler (delegation). *)
  (match
     (handle (Protocol.request ~id:"c1" ~source Protocol.Check) ~budget:None)
       .Protocol.outcome
   with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "delegated check failed: %s %s" c m);
  let patch =
    Protocol.request ~id:"p2" ~digest
      ~edits:[ Store.Set_text (Id.of_string "G2", "Hazard H1 is controlled") ]
      Protocol.Patch
  in
  let digest' =
    match (handle patch ~budget:None).Protocol.outcome with
    | Ok (0, payload) -> payload_str payload "digest"
    | Ok (n, _) -> Alcotest.failf "patch exited %d" n
    | Error (c, m) -> Alcotest.failf "patch failed: %s %s" c m
  in
  Alcotest.(check bool) "patch moves the digest" true (digest <> digest');
  (match
     (handle (Protocol.request ~id:"v1" ~digest:digest' Protocol.Verdict)
        ~budget:None)
       .Protocol.outcome
   with
  | Ok (_, payload) ->
      Alcotest.(check bool)
        "verdict has a report" true
        (List.mem_assoc "report" payload);
      Alcotest.(check bool)
        "verdict has a confidence" true
        (List.mem_assoc "confidence" payload)
  | Error (c, m) -> Alcotest.failf "verdict failed: %s %s" c m);
  (* Unknown digests carry their own code; digest-less requests are
     malformed input, a bad request. *)
  (match
     (handle (Protocol.request ~id:"v2" ~digest:"feedface" Protocol.Verdict)
        ~budget:None)
       .Protocol.outcome
   with
  | Error ("svc/unknown-digest", _) -> ()
  | Error (code, _) ->
      Alcotest.failf "unknown digest must be svc/unknown-digest, got %s" code
  | Ok _ -> Alcotest.fail "unknown digest must be an error");
  match
    (handle (Protocol.request ~id:"v3" Protocol.Verdict) ~budget:None)
      .Protocol.outcome
  with
  | Error ("svc/bad-request", _) -> ()
  | _ -> Alcotest.fail "digest-less verdict must be svc/bad-request"

(* A check files every payload's text derivation in the one memo, so
   a put of the same source straight after it derives none: the put
   moves [store.node_hits] by the case's node count.  The texts are
   distinct and named nowhere else, so no hit comes from within the
   case or from an earlier test. *)
let test_put_after_check_derives_nothing () =
  let source =
    {|case "ingest" {
  goal K1 "Pump P7 isolates the feed line during a purge" { supported-by K2 }
  strategy K2 "Argue over each purge valve" { supported-by K3 K4 }
  goal K3 "Purge valve V1 closes within two seconds"
  goal K4 "Purge valve V2 closes within three seconds"
}|}
  in
  let hits () =
    Argus_obs.Counter.value (Argus_obs.Counter.make "store.node_hits")
  in
  (match
     (Handlers.check ~ruleset:Argus_gsn.Wellformed.Standard ~lints:true
        ~filename:"ingest.arg" source)
       .Handlers.result
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "check refused the case");
  let before = hits () in
  (match
     (Handlers.with_store (memory_store ())
        (Protocol.request ~id:"p" ~source Protocol.Put)
        ~budget:None)
       .Protocol.outcome
   with
  | Ok (0, _) -> ()
  | _ -> Alcotest.fail "put failed");
  Alcotest.(check int) "payloads the put found derived" 4 (hits () - before)

(* Each store refusal keeps its own wire code end-to-end: unknown
   digest, malformed batch, and the read-only degraded mode are three
   different client situations (re-put, fix the batch, wait for an
   operator) and must be distinguishable without parsing prose. *)
let test_store_wire_errors () =
  let store = memory_store () in
  let handle = Handlers.with_store store in
  let digest =
    match
      (handle (Protocol.request ~id:"p" ~source Protocol.Put) ~budget:None)
        .Protocol.outcome
    with
    | Ok (0, payload) -> payload_str payload "digest"
    | _ -> Alcotest.fail "put failed"
  in
  (* patch against a digest nobody ever stored *)
  (match
     (handle
        (Protocol.request ~id:"e1" ~digest:"feedface"
           ~edits:[ Store.Set_text (Id.of_string "G1", "x") ]
           Protocol.Patch)
        ~budget:None)
       .Protocol.outcome
   with
  | Error ("svc/unknown-digest", msg) ->
      Alcotest.(check bool) "names the digest" true
        (string_contains msg "feedface")
  | Error (code, _) -> Alcotest.failf "expected svc/unknown-digest, got %s" code
  | Ok _ -> Alcotest.fail "patch of unknown digest must fail");
  (* a batch referencing a node the case does not have *)
  (match
     (handle
        (Protocol.request ~id:"e2" ~digest
           ~edits:[ Store.Set_text (Id.of_string "G999", "x") ]
           Protocol.Patch)
        ~budget:None)
       .Protocol.outcome
   with
  | Error ("svc/bad-request", _) -> ()
  | Error (code, _) -> Alcotest.failf "expected svc/bad-request, got %s" code
  | Ok _ -> Alcotest.fail "bad edit batch must fail");
  Alcotest.(check bool)
    "store refusals leave the store active" true
    (Durable.mode store = Durable.Active)

(* An I/O failure on the durable write path trips read-only: the write
   answers svc/store-read-only with the cause, reads keep working, and
   the mode is sticky. *)
let test_store_read_only_wire_error () =
  let dir =
    Filename.temp_file "argus-svc-ro" "" |> fun f ->
    Sys.remove f;
    f
  in
  let store =
    match Durable.create ~dir ~sync:Argus_store.Wal.Always () with
    | Ok (store, _) -> store
    | Error e -> Alcotest.failf "durable create failed: %s" e
  in
  let handle = Handlers.with_store store in
  let digest =
    match
      (handle (Protocol.request ~id:"p" ~source Protocol.Put) ~budget:None)
        .Protocol.outcome
    with
    | Ok (0, payload) -> payload_str payload "digest"
    | _ -> Alcotest.fail "put failed"
  in
  (* Inject a WAL failure on the next append (seq 2). *)
  let spec =
    match Argus_rt.Fault.parse_spec "store.wal.append@2:1:7" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad fault spec: %s" e
  in
  Argus_rt.Fault.with_spec spec (fun () ->
      match
        (handle
           (Protocol.request ~id:"w" ~digest
              ~edits:[ Store.Set_text (Id.of_string "G2", "x") ]
              Protocol.Patch)
           ~budget:None)
          .Protocol.outcome
      with
      | Error ("svc/store-read-only", msg) ->
          Alcotest.(check bool) "carries the cause" true
            (string_contains msg "store.wal.append")
      | Error (code, m) ->
          Alcotest.failf "expected svc/store-read-only, got %s (%s)" code m
      | Ok _ -> Alcotest.fail "write after disk fault must fail");
  (* Sticky: the fault is gone but the mode stays, and says so. *)
  (match
     (handle
        (Protocol.request ~id:"w2" ~digest
           ~edits:[ Store.Set_text (Id.of_string "G2", "y") ]
           Protocol.Patch)
        ~budget:None)
       .Protocol.outcome
   with
  | Error ("svc/store-read-only", _) -> ()
  | _ -> Alcotest.fail "read-only mode must be sticky");
  (* Reads still answer from the consistent in-memory state. *)
  (match
     (handle (Protocol.request ~id:"v" ~digest Protocol.Verdict) ~budget:None)
       .Protocol.outcome
   with
  | Ok (_, payload) ->
      Alcotest.(check string) "verdict digest" digest
        (payload_str payload "digest")
  | Error (c, m) -> Alcotest.failf "read in read-only mode failed: %s %s" c m);
  (* The stats surface exposes the mode and the cause. *)
  (match Durable.stats_json store with
  | Json.Obj fields ->
      Alcotest.(check bool) "mode is read-only" true
        (List.assoc_opt "mode" fields = Some (Json.Str "read-only"));
      (match List.assoc_opt "cause" fields with
      | Some (Json.Str cause) ->
          Alcotest.(check bool) "cause names the probe" true
            (string_contains cause "store.wal.append")
      | _ -> Alcotest.fail "read-only stats must carry a cause")
  | _ -> Alcotest.fail "stats_json must be an object");
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* --- Framing --- *)

module Framer = Argus_svc.Framer
module Client = Argus_svc.Client
module Endpoint = Argus_svc.Endpoint
module Prng = Argus_core.Prng

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Feed [chunks] through a socket pair into a framer, each chunk read
   in full before the next is written, so the reads split the stream
   exactly where the chunks do.  Returns the frames in order. *)
let frames_of_chunks fr chunks =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) @@ fun () ->
  let out = ref [] in
  let rec drain () =
    match Framer.next_line fr with
    | Framer.Line l ->
        out := `Line l :: !out;
        drain ()
    | Framer.Partial -> ()
    | Framer.Overlong -> out := `Overlong :: !out
  in
  List.iter
    (fun c ->
      write_all w c;
      let left = ref (String.length c) in
      while !left > 0 && not (List.mem `Overlong !out) do
        left := !left - Framer.read fr r;
        drain ()
      done)
    chunks;
  List.rev !out

(* A stream of check requests with their own ids and trace ids — one
   of them larger than a read — and some blank lines.  Sources carry
   the bytes JSON escapes, newlines included. *)
let framing_stream rng =
  let n = 3 + Prng.int rng 4 in
  let big = Prng.int rng n in
  let alphabet = "ab \"\\\n\t{}:,\195\169" in
  let request i =
    let size =
      if i = big then 70_000 + Prng.int rng 30_000 else Prng.int rng 300
    in
    let source =
      String.init size (fun _ ->
          alphabet.[Prng.int rng (String.length alphabet)])
    in
    Json.to_string
      (Protocol.request_to_json
         (Protocol.request ~id:(Printf.sprintf "f%d" i)
            ~trace_id:(Printf.sprintf "ft%d" i) ~source Protocol.Check))
  in
  String.concat ""
    (List.init n (fun i ->
         request i ^ "\n" ^ if Prng.int rng 3 = 0 then "\n" else ""))

(* Cut [stream] into chunks of 1 byte to 70 KB, with cuts just before,
   on and just after newlines. *)
let chunks_of rng stream =
  let n = String.length stream in
  let cuts = Hashtbl.create 16 in
  let cut p = if p > 0 && p < n then Hashtbl.replace cuts p () in
  String.iteri
    (fun i c ->
      if c = '\n' then
        match Prng.int rng 4 with
        | 0 -> cut i
        | 1 -> cut (i + 1)
        | 2 -> cut (i + 2)
        | _ -> ())
    stream;
  let rec random p =
    if p < n then begin
      cut p;
      random
        (p + 1 + if Prng.int rng 2 = 0 then Prng.int rng 16
                 else Prng.int rng 70_000)
    end
  in
  random (1 + Prng.int rng 16);
  let points =
    List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) cuts [])
  in
  let rec pieces from = function
    | [] -> [ String.sub stream from (n - from) ]
    | p :: rest -> String.sub stream from (p - from) :: pieces p rest
  in
  pieces 0 points

let test_framing_chunks_framer () =
  for seed = 1 to 40 do
    let rng = Prng.create seed in
    let stream = framing_stream rng in
    (* The stream ends in a newline, so the last piece is empty. *)
    let pieces = String.split_on_char '\n' stream in
    let want =
      List.filteri (fun i _ -> i < List.length pieces - 1) pieces
      |> List.map (fun l -> `Line l)
    in
    let got = frames_of_chunks (Framer.create ()) (chunks_of rng stream) in
    if got <> want then Alcotest.failf "seed %d: the frames differ" seed
  done

(* Echo what the handler was sent, so a response names its request's
   bytes. *)
let digest_handler (req : Protocol.request) ~budget:_ =
  Protocol.ok ~id:req.Protocol.id ~exit_code:0
    [
      ("len", Json.int (String.length req.Protocol.source));
      ("md5", Json.Str (Digest.to_hex (Digest.string req.Protocol.source)));
    ]

let with_framing_server ?(max_line_bytes = 8 * 1024 * 1024) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "argus-svc-fr-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      Server.supervisor = Supervisor.default_config;
      max_line_bytes;
    }
  in
  let h = Server.spawn ~handler:digest_handler cfg in
  Fun.protect ~finally:(fun () -> ignore (Server.stop h)) @@ fun () ->
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    fd
  in
  f ~path connect

(* The next [k] response lines on [fd], or fewer at end of input. *)
let read_lines fr fd k =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Framer.next_line fr with
      | Framer.Line l -> go (l :: acc) (k - 1)
      | Framer.Overlong -> Alcotest.fail "response line too long"
      | Framer.Partial -> (
          match Framer.read fr fd with
          | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) ->
              List.rev acc
          | _ -> go acc k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Alcotest.fail "timed out waiting for a response")
  in
  go [] k

(* The responses to a stream written in random chunks equal, in order
   and byte for byte, the responses to one write of the same stream. *)
let test_framing_chunks_server () =
  with_framing_server @@ fun ~path:_ connect ->
  for seed = 1 to 6 do
    let rng = Prng.create (100 + seed) in
    let stream = framing_stream rng in
    let requests =
      List.length
        (List.filter (fun l -> l <> "") (String.split_on_char '\n' stream))
    in
    let answers chunks =
      let fd = connect () in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      List.iter (write_all fd) chunks;
      read_lines (Framer.create ()) fd requests
    in
    let whole = answers [ stream ] in
    Alcotest.(check int) "one response per request" requests
      (List.length whole);
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: chunked = one write" seed)
      whole
      (answers (chunks_of rng stream))
  done

(* A check request line of exactly [size] bytes. *)
let line_of_size size =
  let line pad =
    Json.to_string
      (Protocol.request_to_json
         (Protocol.request ~id:"edge" ~trace_id:"edge"
            ~source:(String.make pad 'a') Protocol.Check))
  in
  let l = line (size - String.length (line 1) + 1) in
  Alcotest.(check int) "line size" size (String.length l);
  l

let test_framing_max_line_bytes () =
  let limit = 10_000 in
  with_framing_server ~max_line_bytes:limit @@ fun ~path:_ connect ->
  let exchange chunks =
    let fd = connect () in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    List.iter (write_all fd) chunks;
    let fr = Framer.create () in
    let first = read_lines fr fd 1 in
    (* A refused connection is closed; an accepted one still serves. *)
    let next =
      match first with
      | [ l ] when String.length l > 0 -> (
          match Protocol.response_of_line l with
          | Ok { Protocol.outcome = Ok _; _ } ->
              write_all fd (line_of_size 100 ^ "\n");
              read_lines fr fd 1
          | _ -> read_lines fr fd 1)
      | _ -> []
    in
    (first, next)
  in
  let accepted what (first, next) =
    match first with
    | [ l ] -> (
        match Protocol.response_of_line l with
        | Ok { Protocol.outcome = Ok _; rid = "edge"; _ } ->
            Alcotest.(check int) (what ^ ": still serving") 1
              (List.length next)
        | _ -> Alcotest.failf "%s: not accepted: %s" what l)
    | _ -> Alcotest.failf "%s: no response" what
  in
  let refused what (first, next) =
    match first with
    | [ l ] -> (
        match Protocol.response_of_line l with
        | Ok { Protocol.outcome = Error (code, msg); _ } ->
            Alcotest.(check string) (what ^ ": code") "svc/bad-request" code;
            Alcotest.(check string) (what ^ ": message")
              (Printf.sprintf "request line exceeds %d bytes" limit)
              msg;
            Alcotest.(check (list string)) (what ^ ": then closed") [] next
        | _ -> Alcotest.failf "%s: not refused: %s" what l)
    | _ -> Alcotest.failf "%s: no response" what
  in
  let at = line_of_size limit and over = line_of_size (limit + 1) in
  accepted "exactly the limit" (exchange [ at ^ "\n" ]);
  accepted "the limit, newline apart" (exchange [ at; "\n" ]);
  refused "one byte over" (exchange [ over ^ "\n" ]);
  refused "one byte over, newline apart" (exchange [ over; "\n" ]);
  (* The framer alone: exact, deterministic splits. *)
  let frames chunks =
    frames_of_chunks (Framer.create ~max_line_bytes:10 ()) chunks
  in
  let ten = "0123456789" in
  Alcotest.(check bool) "framer: ten bytes is a line" true
    (frames [ ten ^ "\n" ] = [ `Line ten ]);
  Alcotest.(check bool) "framer: eleven is overlong" true
    (frames [ ten ^ "0\n" ] = [ `Overlong ]);
  Alcotest.(check bool) "framer: eleven unfinished is overlong" true
    (frames [ ten; "0" ] = [ `Overlong ]);
  Alcotest.(check bool) "framer: lines before an overlong one" true
    (frames [ "a\n" ^ ten ^ "0123" ] = [ `Line "a"; `Overlong ])

(* A framer grows for a large frame, never past the line limit plus its
   newline, and drops back to its initial size once the frame is
   taken. *)
let test_framing_shrinks () =
  let fr = Framer.create () in
  let big = String.make 100_000 'x' in
  let got = frames_of_chunks fr [ big ^ "\nta"; "il" ] in
  Alcotest.(check bool) "the large line" true (got = [ `Line big ]);
  Alcotest.(check int) "back to the initial size" Framer.initial_bytes
    (Framer.capacity fr);
  Alcotest.(check int) "the tail stays buffered" 4 (Framer.pending fr);
  Alcotest.(check bool) "and completes later" true
    (frames_of_chunks fr [ "\n" ] = [ `Line "tail" ]);
  let capped = Framer.create ~max_line_bytes:50_000 () in
  let got = frames_of_chunks capped [ String.make 60_000 'y' ] in
  Alcotest.(check bool) "over the limit" true (got = [ `Overlong ]);
  Alcotest.(check bool) "growth capped at the limit plus one" true
    (Framer.capacity capped <= 50_001)

(* Major-heap words allocated by every domain while [f] runs.  A minor
   collection is stop-the-world, so it refreshes every domain's
   counters before each reading. *)
let major_words f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  f ();
  Gc.minor ();
  (Gc.quick_stat ()).Gc.major_words -. before

(* A read allocates nothing: the connection's buffer is reused.  One
   64 KiB buffer per read is 8k words per request here, on the
   acceptor and on the client alike. *)
let test_framing_no_read_allocation () =
  with_framing_server @@ fun ~path connect ->
  let rounds = 200 in
  let line = line_of_size 300 ^ "\n" in
  let fd = connect () in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let fr = Framer.create () in
  let roundtrip () =
    write_all fd line;
    ignore (read_lines fr fd 1)
  in
  let bounded what f =
    f ();
    let per =
      major_words (fun () -> for _ = 1 to rounds do f () done)
      /. float_of_int rounds
    in
    if per > 2048. then
      Alcotest.failf
        "%s: %.0f major words per request (a 64 KiB read buffer is 8193)"
        what per
  in
  bounded "acceptor" roundtrip;
  (* The client's read path: each call opens a fresh connection with
     its own framer, which starts small and does not grow for a
     300-byte response. *)
  let client = Client.create [ Endpoint.Unix_path path ] in
  bounded "client" (fun () ->
      match Client.call client (line_of_size 300) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Client.error_message e))

let () =
  Alcotest.run "argus-svc"
    [
      ( "retry",
        [
          Alcotest.test_case "deterministic delays" `Quick
            test_retry_delay_deterministic;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "transitions" `Quick test_breaker_transitions;
          Alcotest.test_case "disabled" `Quick test_breaker_disabled;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "rejects bad requests" `Quick
            test_protocol_rejects;
          Alcotest.test_case "telemetry fields" `Quick
            test_protocol_telemetry_fields;
          Alcotest.test_case "edit codec round-trips and rejects" `Quick
            test_protocol_edits_roundtrip;
        ] );
      ( "store-ops",
        [
          Alcotest.test_case "stateless server rejects store ops" `Quick
            test_stateless_rejects_store_ops;
          Alcotest.test_case "put/patch/verdict lifecycle" `Quick
            test_with_store_lifecycle;
          Alcotest.test_case "a put after a check derives nothing" `Quick
            test_put_after_check_derives_nothing;
          Alcotest.test_case "typed wire errors" `Quick
            test_store_wire_errors;
          Alcotest.test_case "read-only degraded mode on the wire" `Quick
            test_store_read_only_wire_error;
          Alcotest.test_case "unknown ruleset is a bad request" `Quick
            test_unknown_ruleset_rejected;
          Alcotest.test_case "patch add-node matches a put" `Quick
            test_patch_add_node_matches_put;
        ] );
      ( "ops",
        [
          Alcotest.test_case "truncation exits 1" `Quick
            test_truncation_exits_one;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "echo at jobs 1/2/8" `Quick test_supervisor_echo;
          Alcotest.test_case "crash victim gets typed error" `Quick
            test_supervisor_crash_victim;
          Alcotest.test_case "fault schedule deterministic" `Quick
            test_supervisor_fault_schedule_deterministic;
          Alcotest.test_case "load shedding" `Quick test_supervisor_sheds;
          Alcotest.test_case "breaker open/half-open/close" `Quick
            test_supervisor_breaker;
          Alcotest.test_case "budget clamping" `Quick
            test_supervisor_budget_clamp;
          Alcotest.test_case "graceful drain" `Quick test_supervisor_drain;
          Alcotest.test_case "fifo at jobs 1" `Quick test_supervisor_fifo;
          Alcotest.test_case "sheds at capacity" `Quick
            test_supervisor_sheds_at_capacity;
          Alcotest.test_case "4 domains submit concurrently" `Quick
            test_supervisor_concurrent_submitters;
        ] );
      ( "server",
        [
          Alcotest.test_case "half-close still gets replies" `Quick
            test_server_half_close;
          Alcotest.test_case "trace ids minted and echoed" `Quick
            test_server_trace_ids;
          Alcotest.test_case "stats schema round-trips" `Quick
            test_server_stats_schema;
          Alcotest.test_case "traced request returns span tree" `Quick
            test_server_traced_request;
        ] );
      ( "framing",
        [
          Alcotest.test_case "random chunks split the framer exactly" `Quick
            test_framing_chunks_framer;
          Alcotest.test_case "chunked writes answer like one write" `Quick
            test_framing_chunks_server;
          Alcotest.test_case "max_line_bytes boundary" `Quick
            test_framing_max_line_bytes;
          Alcotest.test_case "buffer shrinks after a large frame" `Quick
            test_framing_shrinks;
          Alcotest.test_case "a read allocates no buffer" `Quick
            test_framing_no_read_allocation;
        ] );
    ]
