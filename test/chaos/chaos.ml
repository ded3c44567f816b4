(* The chaos harness end to end: two `argus serve --listen 127.0.0.1:0`
   children (a primary and its failover target) take 10 s of open-loop
   load at 200 req/s plus the misbehaving-client catalog, and the
   primary is SIGKILLed at half time.  Exits non-zero unless every
   issued request resolved, no client call raised, and some client
   demonstrably failed over.

   Usage: chaos.exe ARGUS   (the path of the built argus binary) *)

module Endpoint = Argus_svc.Endpoint
module Harness = Argus_chaos.Harness
module Metrics = Argus_obs.Metrics

let duration_s = 10.

let spawn_server argus =
  let port_file = Filename.temp_file "argus-chaos" ".port" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process argus
      [|
        "argus"; "serve"; "--listen"; "127.0.0.1:0"; "--port-file"; port_file;
        "--read-deadline"; "2000"; "--idle-timeout"; "10000";
      |]
      devnull devnull devnull
  in
  Unix.close devnull;
  (pid, port_file)

(* The server writes the port file once it is bound; the file starts
   out empty. *)
let wait_port port_file =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let port =
      In_channel.with_open_text port_file In_channel.input_all
      |> String.trim |> int_of_string_opt
    in
    match port with
    | Some p -> Some p
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let () =
  let argus =
    match Sys.argv with
    | [| _; argus |] -> argus
    | _ ->
        prerr_endline "usage: chaos ARGUS";
        exit 2
  in
  let servers = [ spawn_server argus; spawn_server argus ] in
  let stop () =
    List.iter
      (fun (pid, port_file) ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        Sys.remove port_file)
      servers
  in
  let eps =
    List.map
      (fun (_, port_file) ->
        match wait_port port_file with
        | Some p -> Endpoint.Tcp ("127.0.0.1", p)
        | None ->
            stop ();
            prerr_endline "chaos: the servers did not come up within 10 s";
            exit 1)
      servers
  in
  let primary = fst (List.hd servers) in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf (duration_s /. 2.);
        try Unix.kill primary Sys.sigkill with Unix.Unix_error _ -> ())
  in
  let r = Harness.run ~duration_s ~rate:200. ~clients:4 ~seed:42 eps in
  Domain.join killer;
  stop ();
  let failover =
    Metrics.Counter.value (Metrics.Counter.make "svc.client.failover")
  in
  Printf.printf
    "offered %d, resolved %d, ok %d, chaos connections %d, failovers %d\n\
     taxonomy: %s\n"
    r.offered r.resolved r.ok r.chaos_conns failover
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.taxonomy));
  let problems =
    Harness.problems r
    @ if failover > 0 then [] else [ "no client failed over" ]
  in
  List.iter (Printf.eprintf "chaos: %s\n") problems;
  exit (if problems = [] then 0 else 1)
