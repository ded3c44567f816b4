(* Network-layer tests: endpoint parsing, the readiness engine (both
   backends), line-framing fuzz against a live server, the resilient
   client (retry, server restart, failover, deadlines), the
   chaos probes, connection capacity past the FD_SETSIZE ceiling, and
   the chaos harness (its pipeliner schedule and a smoke run). *)

module Json = Argus_core.Json
module Prng = Argus_core.Prng
module Fault = Argus_rt.Fault
module Retry = Argus_rt.Retry
module Protocol = Argus_svc.Protocol
module Endpoint = Argus_svc.Endpoint
module Readiness = Argus_svc.Readiness
module Server = Argus_svc.Server
module Supervisor = Argus_svc.Supervisor
module Client = Argus_svc.Client
module Harness = Argus_chaos.Harness
module Handlers = Argus_svc.Handlers
module Durable = Argus_store.Durable
module Store = Argus_store.Store
module Id = Argus_core.Id

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* CI's chaos matrix re-runs this binary with ARGUS_FAULT arming a
   network probe at 30% — every test here is written to hold under
   those ambient faults (raw-socket round-trips reconnect and resend
   on a forfeited connection; client-driven ones retry by design). *)
let () = Fault.configure_from_env ()

let tmp_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "argus-net-%s-%d.sock" tag (Unix.getpid ()))

let echo_handler (req : Protocol.request) ~budget:_ =
  Protocol.ok ~id:req.Protocol.id ~exit_code:0 []

let req_health id = Protocol.request ~id Protocol.Health

(* --- Endpoint --- *)

let test_endpoint_parse () =
  let tcp s h p =
    match Endpoint.of_string s with
    | Ok (Endpoint.Tcp (h', p')) ->
        Alcotest.(check string) (s ^ " host") h h';
        Alcotest.(check int) (s ^ " port") p p'
    | Ok (Endpoint.Unix_path u) -> Alcotest.failf "%s parsed as unix %s" s u
    | Error e -> Alcotest.failf "%s refused: %s" s e
  in
  let unix s path =
    match Endpoint.of_string s with
    | Ok (Endpoint.Unix_path u) -> Alcotest.(check string) s path u
    | Ok (Endpoint.Tcp _) -> Alcotest.failf "%s parsed as tcp" s
    | Error e -> Alcotest.failf "%s refused: %s" s e
  in
  let bad s =
    match Endpoint.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  tcp "127.0.0.1:7777" "127.0.0.1" 7777;
  tcp "localhost:0" "localhost" 0;
  unix "/tmp/argus.sock" "/tmp/argus.sock";
  unix "./rel.sock" "./rel.sock";
  (* A name with no slash and no numeric port is a socket path too. *)
  unix "plain.sock" "plain.sock";
  bad "";
  bad ":7777";
  bad "host:99999";
  (* to_string round-trips through of_string. *)
  List.iter
    (fun ep ->
      match Endpoint.of_string (Endpoint.to_string ep) with
      | Ok ep' ->
          Alcotest.(check bool)
            (Endpoint.to_string ep ^ " round-trips")
            true (ep = ep')
      | Error e -> Alcotest.failf "round-trip refused: %s" e)
    [ Endpoint.Tcp ("10.0.0.1", 80); Endpoint.Unix_path "/tmp/x.sock" ]

let test_endpoint_connect_refused () =
  (* Nothing listens here: connect must fail with Error, not hang. *)
  (match Endpoint.connect ~timeout_ms:500. (Endpoint.Unix_path "/nonexistent/no.sock") with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error _ -> ());
  (* Port 0 is listen-only. *)
  match Endpoint.connect (Endpoint.Tcp ("127.0.0.1", 0)) with
  | Ok _ -> Alcotest.fail "connected to port 0"
  | Error _ -> ()

(* --- Readiness --- *)

let backends () =
  if Readiness.poll_available () then [ Readiness.Poll; Readiness.Select ]
  else [ Readiness.Select ]

let test_readiness_basic () =
  List.iter
    (fun backend ->
      let e = Readiness.create ~backend () in
      let r, w = Unix.pipe () in
      let r2, w2 = Unix.pipe () in
      Readiness.add e r;
      Readiness.add e r2;
      Readiness.add e r2;
      (* duplicate add is a no-op *)
      Alcotest.(check int) "two registered" 2 (Readiness.registered e);
      Alcotest.(check bool) "mem" true (Readiness.mem e r);
      (* Nothing readable: timeout comes back empty. *)
      Alcotest.(check int)
        "timeout is empty" 0
        (List.length (Readiness.wait e ~timeout_ms:10.));
      ignore (Unix.write_substring w "x" 0 1);
      let ready = Readiness.wait e ~timeout_ms:1000. in
      Alcotest.(check bool) "r is ready" true (List.mem r ready);
      Alcotest.(check bool) "r2 is not" false (List.mem r2 ready);
      (* EOF counts as readable: the owner must be woken to reap. *)
      ignore (Unix.write_substring w2 "y" 0 1);
      Unix.close w2;
      let b = Bytes.create 8 in
      ignore (Unix.read r2 b 0 8);
      let ready2 = Readiness.wait e ~timeout_ms:1000. in
      Alcotest.(check bool) "hup is readable" true (List.mem r2 ready2);
      Readiness.remove e r;
      Readiness.remove e r;
      Alcotest.(check int) "one left" 1 (Readiness.registered e);
      Alcotest.(check bool) "removed" false (Readiness.mem e r);
      List.iter Unix.close [ r; w; r2 ])
    (backends ())

(* The two backends must agree on which descriptors are ready. *)
let test_readiness_differential () =
  if not (Readiness.poll_available ()) then ()
  else begin
    let rng = Prng.create 7 in
    let n = 16 in
    let pipes = Array.init n (fun _ -> Unix.pipe ()) in
    let poll = Readiness.create ~backend:Readiness.Poll () in
    let sel = Readiness.create ~backend:Readiness.Select () in
    Array.iter
      (fun (r, _) ->
        Readiness.add poll r;
        Readiness.add sel r)
      pipes;
    for _ = 1 to 20 do
      (* Make a random subset readable... *)
      let armed =
        Array.to_list pipes
        |> List.filter (fun (_, w) ->
               if Prng.bernoulli rng 0.4 then begin
                 ignore (Unix.write_substring w "z" 0 1);
                 true
               end
               else false)
        |> List.map fst
      in
      let sort = List.sort compare in
      let from_poll = sort (Readiness.wait poll ~timeout_ms:50.) in
      let from_sel = sort (Readiness.wait sel ~timeout_ms:50.) in
      Alcotest.(check bool) "backends agree" true (from_poll = from_sel);
      Alcotest.(check bool)
        "exactly the armed set" true
        (from_poll = sort armed);
      (* ...then drain it for the next round. *)
      let b = Bytes.create 8 in
      List.iter (fun r -> ignore (Unix.read r b 0 8)) armed
    done;
    Array.iter
      (fun (r, w) ->
        Unix.close r;
        Unix.close w)
      pipes
  end

let test_readiness_nofile_raise () =
  let got = Readiness.nofile_raise 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "soft limit is positive (%d)" got)
    true (got > 0);
  (* Idempotent and monotone: asking again cannot lower it. *)
  let again = Readiness.nofile_raise 4096 in
  Alcotest.(check bool) "stable" true (again >= got)

(* --- framing fuzz against a live server --- *)

let read_all_lines fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> `Closed (Buffer.contents buf)
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Open (Buffer.contents buf)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        `Closed (Buffer.contents buf)
  in
  go ()

let responses_of data =
  String.split_on_char '\n' data
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Protocol.response_of_line l with
         | Ok r -> r
         | Error e -> Alcotest.failf "unparseable response %S: %s" l e)

(* Every hostile input must end in a typed refusal or a clean close —
   never a crash, never a hang.  The server stays serviceable after
   each one (probed with a fresh healthy connection). *)
let test_framing_fuzz () =
  let path = tmp_sock "fuzz" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      Server.supervisor = Supervisor.default_config;
      max_line_bytes = 4096;
      read_deadline_ms = 400.;
      idle_timeout_ms = 2_000.;
    }
  in
  let h = Server.spawn ~handler:echo_handler cfg in
  Fun.protect ~finally:(fun () -> ignore (Server.stop h)) @@ fun () ->
  let rng = Prng.create 1234 in
  let valid = Harness.request_line (req_health "fz") in
  let inputs =
    [
      (* interleaved garbage between valid frames *)
      valid ^ "%%%garbage%%%\n" ^ valid;
      (* not JSON at all *)
      "hello server\n";
      (* JSON but not an object *)
      "[1,2,3]\n";
      (* object but no op *)
      "{\"id\": \"x\"}\n";
      (* unknown op *)
      "{\"op\": \"frobnicate\"}\n";
      (* oversized line: longer than max_line_bytes *)
      "{\"op\": \"health\", \"pad\": \"" ^ String.make 8192 'a' ^ "\"}\n";
      (* NUL bytes and control characters *)
      "\x00\x01\x02\xff\xfe\n";
      (* a truncated frame, then EOF (tested via close below) *)
      String.sub valid 0 (String.length valid / 2);
    ]
    @ (* seeded byte flips of a valid frame *)
    List.init 24 (fun _ ->
        let b = Bytes.of_string valid in
        let pos = Prng.int rng (Bytes.length b - 1) in
        Bytes.set b pos (Char.chr (Prng.int rng 256));
        Bytes.to_string b)
  in
  List.iter
    (fun input ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      (try ignore (Unix.write_substring fd input 0 (String.length input))
       with Unix.Unix_error _ -> ());
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      (match read_all_lines fd with
      | `Open _ ->
          (* Never hang: with the write side shut the server must
             conclude — answer and/or close — within the read grace. *)
          Alcotest.failf "server left the connection dangling on %S"
            (String.sub input 0 (min 40 (String.length input)))
      | `Closed data ->
          (* Whatever came back parses, and error outcomes are typed
             bad-requests — malformed input never crashes a worker. *)
          List.iter
            (fun (r : Protocol.response) ->
              match r.Protocol.outcome with
              | Ok _ -> ()
              | Error (code, _) ->
                  Alcotest.(check string) "typed refusal" "svc/bad-request"
                    code)
            (responses_of data)))
    inputs;
  (* The server survived the whole menu.  (Client-driven so the probe
     holds under CI's ambient fault matrix too.) *)
  let client = Client.create [ Endpoint.Unix_path path ] in
  match Client.call_request client (req_health "after-menu") with
  | Ok resp ->
      Alcotest.(check string) "still serving after the fuzz menu"
        "after-menu" resp.Protocol.rid
  | Error e ->
      Alcotest.failf "server wedged after the fuzz menu: %s"
        (Client.error_message e)

(* The pure decoder never raises, whatever the bytes. *)
let test_decoder_fuzz_never_raises () =
  let rng = Prng.create 99 in
  let valid = Json.to_string (Protocol.request_to_json (req_health "d")) in
  for _ = 1 to 2000 do
    let b = Bytes.of_string valid in
    let flips = 1 + Prng.int rng 4 in
    for _ = 1 to flips do
      Bytes.set b
        (Prng.int rng (Bytes.length b))
        (Char.chr (Prng.int rng 256))
    done;
    match Protocol.request_of_line (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "decoder raised %s on %S" (Printexc.to_string e)
          (Bytes.to_string b)
  done

(* A slow-loris drip never completes a frame: the read deadline fires
   and the connection is closed with a typed refusal, while a parallel
   healthy client stays unaffected. *)
let test_slow_loris_reaped () =
  let path = tmp_sock "loris" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      Server.supervisor = Supervisor.default_config;
      read_deadline_ms = 300.;
    }
  in
  let h = Server.spawn ~handler:echo_handler cfg in
  Fun.protect ~finally:(fun () -> ignore (Server.stop h)) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = Harness.request_line (req_health "drip") in
  let t0 = Unix.gettimeofday () in
  let dripped = ref 0 in
  (* Drip a byte every 60 ms: each byte resets nothing — the deadline
     clocks from the FIRST byte — so the reap must land ~300 ms in. *)
  (try
     for i = 0 to min 40 (String.length line - 1) do
       ignore (Unix.write_substring fd (String.make 1 line.[i]) 0 1);
       incr dripped;
       Unix.sleepf 0.06
     done
   with Unix.Unix_error _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "dripping stopped early (%d bytes, %.2f s)" !dripped
       elapsed)
    true
    (elapsed < 2.0);
  (match read_all_lines fd with
  | `Closed data ->
      List.iter
        (fun (r : Protocol.response) ->
          match r.Protocol.outcome with
          | Error ("svc/bad-request", _) -> ()
          | _ -> Alcotest.fail "expected a bad-request refusal")
        (responses_of data)
  | `Open _ -> Alcotest.fail "slow-loris connection not reaped");
  (* The healthy world kept turning. *)
  let client = Client.create [ Endpoint.Unix_path path ] in
  match Client.call_request client (req_health "after") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server wedged after loris: %s"
                 (Client.error_message e)

(* --- resilient client --- *)

let with_tcp_server ?(handler = echo_handler) ?(jobs = 1) f =
  let cfg =
    {
      (Server.default_config ~socket_path:"") with
      Server.listen = Some "127.0.0.1:0";
      supervisor = { Supervisor.default_config with jobs };
    }
  in
  let h = Server.spawn ~handler cfg in
  let port =
    match Server.tcp_port h with
    | Some p -> p
    | None -> Alcotest.fail "no bound TCP port"
  in
  Fun.protect ~finally:(fun () -> ignore (Server.stop h)) @@ fun () ->
  f h port

let test_client_roundtrip_tcp () =
  with_tcp_server @@ fun _h port ->
  let client = Client.create [ Endpoint.Tcp ("127.0.0.1", port) ] in
  for i = 1 to 10 do
    match Client.call_request client (req_health (Printf.sprintf "h%d" i)) with
    | Ok resp ->
        Alcotest.(check string) "id echoed" (Printf.sprintf "h%d" i)
          resp.Protocol.rid
    | Error e -> Alcotest.failf "call %d failed: %s" i (Client.error_message e)
  done

(* Each call opens its own connection, so a server restarted between
   two calls is simply the server the second call reaches. *)
let test_client_after_restart () =
  let path = tmp_sock "restart" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      Server.supervisor = Supervisor.default_config;
    }
  in
  let h1 = Server.spawn ~handler:echo_handler cfg in
  let client = Client.create [ Endpoint.Unix_path path ] in
  (match Client.call_request client (req_health "one") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first call failed: %s" (Client.error_message e));
  ignore (Server.stop h1);
  let h2 = Server.spawn ~handler:echo_handler cfg in
  Fun.protect ~finally:(fun () -> ignore (Server.stop h2)) @@ fun () ->
  match Client.call_request client (req_health "two") with
  | Ok resp ->
      Alcotest.(check string) "answered by the new server" "two"
        resp.Protocol.rid
  | Error e ->
      Alcotest.failf "call after the restart failed: %s"
        (Client.error_message e)

let test_client_failover () =
  with_tcp_server @@ fun _h1 port1 ->
  with_tcp_server @@ fun h2 port2 ->
  let eps = [ Endpoint.Tcp ("127.0.0.1", port2); Endpoint.Tcp ("127.0.0.1", port1) ] in
  (* Preferred endpoint first: h2 answers. *)
  let client = Client.create eps in
  (match Client.call_request client (req_health "a") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warm call failed: %s" (Client.error_message e));
  (* Kill the preferred endpoint: calls must fail over to port1. *)
  ignore (Server.stop h2);
  match Client.call_request client (req_health "b") with
  | Ok resp ->
      Alcotest.(check string) "failover answered" "b" resp.Protocol.rid
  | Error e -> Alcotest.failf "failover failed: %s" (Client.error_message e)

let test_client_deadline_bounded () =
  (* A listener that accepts and then never answers: the call must
     resolve within (about) the overall deadline, not hang. *)
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 8;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let stop = Atomic.make false in
  let sink =
    Domain.spawn (fun () ->
        let conns = ref [] in
        while not (Atomic.get stop) do
          match Unix.select [ srv ] [] [] 0.1 with
          | [ _ ], _, _ ->
              let fd, _ = Unix.accept srv in
              conns := fd :: !conns
          | _ -> ()
        done;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !conns)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join sink;
      Unix.close srv)
  @@ fun () ->
  let client =
    Client.create
      ~policy:
        {
          Retry.default_policy with
          Retry.max_attempts = 3;
          base_delay_ms = 25.;
          max_delay_ms = 100.;
        }
      ~overall_deadline_ms:1_500.
      [ Endpoint.Tcp ("127.0.0.1", port) ]
  in
  let t0 = Unix.gettimeofday () in
  (match Client.call_request client (req_health "mute") with
  | Ok _ -> Alcotest.fail "a mute server cannot answer"
  | Error e -> (
      match e with
      | Client.Timeout _ | Client.Closed _ | Client.Connect_failed _ -> ()
      | Client.Bad_response m -> Alcotest.failf "unexpected bad-response: %s" m));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded by the budget (%.2f s)" elapsed)
    true (elapsed < 6.)

(* Every acked mutation advances the audit cursor, and the acks echo
   it — the client's duplicate-commit audit for retried patches. *)
let test_seq_echo_in_acks () =
  let store =
    match Durable.create () with
    | Ok (store, _) -> store
    | Error e -> Alcotest.failf "store create failed: %s" e
  in
  let handle = Handlers.with_store store in
  let source =
    {|case "t" {
  goal G1 "The system is acceptably safe" { supported-by S1 }
  strategy S1 "Argue over hazards" { supported-by G2 }
  goal G2 "Hazard H1 is mitigated"
}|}
  in
  let seq_of payload =
    match List.assoc_opt "seq" payload with
    | Some (Json.Num n) -> int_of_float n
    | _ -> Alcotest.fail "ack carries no seq"
  in
  let digest, s1 =
    match
      (handle (Protocol.request ~id:"p" ~source Protocol.Put) ~budget:None)
        .Protocol.outcome
    with
    | Ok (0, payload) ->
        ( (match List.assoc_opt "digest" payload with
          | Some (Json.Str d) -> d
          | _ -> Alcotest.fail "no digest"),
          seq_of payload )
    | _ -> Alcotest.fail "put failed"
  in
  Alcotest.(check int) "put advanced to 1" 1 s1;
  Alcotest.(check int) "Durable.seq agrees" 1 (Durable.seq store);
  let s2 =
    match
      (handle
         (Protocol.request ~id:"q" ~digest
            ~edits:[ Store.Set_text (Id.of_string "G2", "Hazard H1 is controlled") ]
            Protocol.Patch)
         ~budget:None)
        .Protocol.outcome
    with
    | Ok (0, payload) -> seq_of payload
    | _ -> Alcotest.fail "patch failed"
  in
  Alcotest.(check int) "patch advanced to 2" 2 s2;
  Alcotest.(check int) "Durable.seq advanced" 2 (Durable.seq store)

(* --- chaos probes: injected network faults never hang a client --- *)

let test_net_read_fault_resolves () =
  (* svc.net.read at 30%: each bite forfeits one connection before any
     bytes are consumed, so a retrying client always converges. *)
  Fault.with_spec
    { Fault.probe = "svc.net.read"; key = None; rate = 0.3; seed = 11 }
    (fun () ->
      with_tcp_server @@ fun _h port ->
      let client = Client.create [ Endpoint.Tcp ("127.0.0.1", port) ] in
          for i = 1 to 40 do
        match
          Client.call_request client (req_health (Printf.sprintf "c%d" i))
        with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "call %d lost under read faults: %s" i
              (Client.error_message e)
      done)

let test_net_accept_fault_resolves () =
  Fault.with_spec
    { Fault.probe = "svc.net.accept"; key = None; rate = 0.3; seed = 5 }
    (fun () ->
      with_tcp_server @@ fun _h port ->
      let client = Client.create [ Endpoint.Tcp ("127.0.0.1", port) ] in
          for i = 1 to 25 do
        match
          Client.call_request client (req_health (Printf.sprintf "a%d" i))
        with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "call %d lost under accept faults: %s" i
              (Client.error_message e)
      done)

(* --- capacity: past the FD_SETSIZE ceiling --- *)

let connect_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let roundtrip_raw fd id =
  let line = Harness.request_line (req_health id) in
  match Unix.write_substring fd line 0 (String.length line) with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | _ ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let buf = Buffer.create 128 in
      let chunk = Bytes.create 1024 in
      let rec go () =
        if String.contains (Buffer.contents buf) '\n' then
          Protocol.response_of_line
            (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
        else
          match Unix.read fd chunk 0 1024 with
          | 0 -> Error "closed"
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Error "timeout"
          | exception Unix.Unix_error (e, _, _) ->
              Error (Unix.error_message e)
      in
      go ()

(* One serviced round-trip, reconnecting and resending on a forfeited
   connection (CI's ambient faults close conns at random); returns the
   descriptor that finally answered so the caller can keep holding
   it. *)
let rec served_conn ?(attempts = 15) port fd i =
  match roundtrip_raw fd (Printf.sprintf "cap%d-%d" i attempts) with
  | Ok _ -> fd
  | Error e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempts <= 1 then Alcotest.failf "conn %d unserved: %s" i e
      else served_conn ~attempts:(attempts - 1) port (connect_tcp port) i

(* More than 512 simultaneous TCP connections, every one of them
   serviced: the acceptance bar for dropping the FD_SETSIZE ceiling.
   Needs the poll backend and headroom in RLIMIT_NOFILE. *)
let test_over_512_conns () =
  let want = 560 in
  let limit = Readiness.nofile_raise 4096 in
  (* Server and harness share the process: each held connection costs
     two descriptors. *)
  if not (Readiness.poll_available ()) then Alcotest.skip ()
  else if limit < (2 * want) + 128 then Alcotest.skip ()
  else
    with_tcp_server ~jobs:2 @@ fun _h port ->
    let conns = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !conns)
    @@ fun () ->
    for _ = 1 to want do
      conns := connect_tcp port :: !conns
    done;
    Alcotest.(check int) "all connections open" want (List.length !conns);
    (* Every single one must round-trip — the server really is holding
       (and serving) >512 concurrent conns, not quietly shedding. *)
    conns := List.mapi (fun i fd -> served_conn port fd i) !conns;
    Alcotest.(check int) "every connection serviced" want
      (List.length !conns)

(* Accept bookkeeping stays O(1) amortized as the held-connection count
   grows to 1k: opening-and-serving the second 500 must not be
   drastically slower than the first 500 (the old loop paid
   List.length + a full deadline scan per event, which curves this
   up).  The bound is deliberately loose — this is a complexity
   regression guard, not a latency benchmark. *)
let test_accept_o1_amortized_1k () =
  let total = 1000 in
  let limit = Readiness.nofile_raise 4096 in
  if not (Readiness.poll_available ()) then Alcotest.skip ()
  else if limit < (2 * total) + 128 then Alcotest.skip ()
  else
    with_tcp_server ~jobs:2 @@ fun _h port ->
    let conns = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !conns)
    @@ fun () ->
    let batch n0 n1 =
      let t0 = Unix.gettimeofday () in
      for i = n0 to n1 - 1 do
        conns := served_conn port (connect_tcp port) i :: !conns
      done;
      Unix.gettimeofday () -. t0
    in
    let first = batch 0 (total / 2) in
    let second = batch (total / 2) total in
    Alcotest.(check bool)
      (Printf.sprintf
         "second 500 conns not superlinear (first %.3f s, second %.3f s)"
         first second)
      true
      (second < (8. *. Float.max first 0.05))

(* --- the chaos harness --- *)

(* The pipeliner's schedule, without sleeping: a batch is the first
   unissued arrival plus exactly the following arrivals due by [now],
   and a lone future arrival is waited for until its own due time. *)
let test_harness_batch_schedule () =
  let rate = 50. and t_end = 100. in
  for seed = 1 to 20 do
    (* Arrival k is due at 1 plus the first k draws of the stream. *)
    let rng = Prng.create seed in
    let due = Array.make 8 1. in
    for k = 1 to 7 do
      due.(k) <- due.(k - 1) +. Prng.exponential rng ~rate
    done;
    let now = (due.(5) +. due.(6)) /. 2. in
    let b = Harness.next_batch (Prng.create seed) ~rate ~next:1. ~now ~t_end in
    Alcotest.(check int) "batch holds the arrivals due by now" 6 b.Harness.size;
    Alcotest.(check (float 0.)) "first arrival" 1. b.Harness.first_at;
    Alcotest.(check (float 0.)) "next is the first not due" due.(6)
      b.Harness.next;
    let lone =
      Harness.next_batch (Prng.create seed) ~rate ~next:2. ~now:1. ~t_end
    in
    Alcotest.(check int) "a lone future arrival" 1 lone.Harness.size;
    Alcotest.(check (float 0.)) "waits until its own due time" 2.
      lone.Harness.first_at;
    let over =
      Harness.next_batch (Prng.create seed) ~rate ~next:t_end ~now ~t_end
    in
    Alcotest.(check int) "nothing at or after t_end" 0 over.Harness.size
  done

let test_harness_raised_fails () =
  let r =
    { Harness.offered = 3; resolved = 3; ok = 2; chaos_conns = 0;
      taxonomy = [ ("ok", 2); ("raised:Failure(\"x\")", 1) ] }
  in
  Alcotest.(check int) "a raised call fails the gate" 1
    (List.length (Harness.problems r));
  Alcotest.(check int) "unresolved requests fail the gate" 2
    (List.length (Harness.problems { r with offered = 4 }))

let test_harness_smoke () =
  with_tcp_server ~jobs:2 @@ fun _h port ->
  let r =
    Harness.run ~duration_s:1.0 ~rate:80. ~clients:2 ~seed:7
      [ Endpoint.Tcp ("127.0.0.1", port) ]
  in
  Alcotest.(check (list string)) "every request resolved, none raised" []
    (Harness.problems r);
  Alcotest.(check bool) "issued some load" true (r.Harness.offered > 10);
  Alcotest.(check bool) "mostly served" true
    (r.Harness.ok > r.Harness.offered / 2);
  Alcotest.(check bool) "misbehavers connected" true (r.Harness.chaos_conns > 0)

let () =
  Alcotest.run "argus-net"
    [
      ( "endpoint",
        [
          Alcotest.test_case "parse and round-trip" `Quick test_endpoint_parse;
          Alcotest.test_case "connect failures are typed" `Quick
            test_endpoint_connect_refused;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "add/remove/wait on both backends" `Quick
            test_readiness_basic;
          Alcotest.test_case "poll and select agree" `Quick
            test_readiness_differential;
          Alcotest.test_case "nofile raise" `Quick test_readiness_nofile_raise;
        ] );
      ( "framing",
        [
          Alcotest.test_case "hostile frames refused or closed" `Quick
            test_framing_fuzz;
          Alcotest.test_case "decoder never raises" `Quick
            test_decoder_fuzz_never_raises;
          Alcotest.test_case "slow-loris reaped at the read deadline" `Quick
            test_slow_loris_reaped;
        ] );
      ( "client",
        [
          Alcotest.test_case "tcp round-trips" `Quick test_client_roundtrip_tcp;
          Alcotest.test_case "call after a server restart" `Quick
            test_client_after_restart;
          Alcotest.test_case "failover to the second endpoint" `Quick
            test_client_failover;
          Alcotest.test_case "deadline bounds a mute server" `Quick
            test_client_deadline_bounded;
          Alcotest.test_case "mutation acks echo seq" `Quick
            test_seq_echo_in_acks;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "read faults never lose a call" `Quick
            test_net_read_fault_resolves;
          Alcotest.test_case "accept faults never lose a call" `Quick
            test_net_accept_fault_resolves;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "serves >512 concurrent conns" `Quick
            test_over_512_conns;
          Alcotest.test_case "accept O(1) amortized at 1k conns" `Quick
            test_accept_o1_amortized_1k;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "chaos smoke run" `Quick test_harness_smoke;
          Alcotest.test_case "pipeliner batch schedule" `Quick
            test_harness_batch_schedule;
          Alcotest.test_case "raised calls fail the gate" `Quick
            test_harness_raised_fails;
        ] );
    ]
