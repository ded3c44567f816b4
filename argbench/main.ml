(* argbench: the Argus serving benchmark.

   Runs one workload against the shipped `argus serve` binary, started
   as a subprocess over TCP on loopback, checks every answer against an
   in-process oracle, and prints each metric by name with its unit.  The
   last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   from a separate traced run.  See argbench/record.json for the
   workloads, their server flags and the small-mix ladder. *)

open Util
module Json = Argus_core.Json

let usage =
  "argbench --argus PATH --workload (small-mix|case-ingest|edit-loop) --seed N \
   --seconds S --trace (0|1)\n       argbench --selftest --seed N"

(* --- run state shared by the workloads ------------------------------ *)

type run = {
  argus : string;
  dir : string;  (** This run's scratch directory. *)
  seed : int;
  seconds : float;
  trace : bool;
  speed : Speed.t option;  (** The host-speed sampler; none in the self-test. *)
  mutable live : Server.t list;  (** Spawned and not yet reaped. *)
  mutable attempted : int;
  mutable failed : int;
  oracle : Oracle.t;
  mutable table : (string * float * string) list;  (** Printed, in order. *)
  mutable e2e : (string * float * string) list;
  mutable layers : (string * float * string) list;
}

let rng r salt = Random.State.make [| r.seed; salt |]

let spawn r data_dir =
  let s = Server.spawn ~argus:r.argus ~data_dir ~log:(Filename.concat r.dir "serve.log") in
  r.live <- s :: r.live;
  s

let kill r s =
  Server.kill s;
  r.live <- List.filter (fun x -> x != s) r.live

let fresh_dir r name =
  let d = Filename.concat r.dir name in
  Unix.mkdir d 0o755;
  d

let show r name value unit = r.table <- r.table @ [ (name, value, unit) ]
let e2e r name value unit = show r name value unit; r.e2e <- r.e2e @ [ (name, value, unit) ]
let layer r name value unit = r.layers <- r.layers @ [ (name, value, unit) ]

(* A gated CPU time [cpu_s] measured over [intervals]: printed as
   measured under [raw], reported at the reference host speed under
   [name] (see Speed). *)
let cpu_metric r name ~raw cpu_s unit intervals =
  show r raw cpu_s unit;
  match r.speed with
  | Some sp -> e2e r name (cpu_s *. Speed.scale sp intervals) unit
  | None -> e2e r name cpu_s unit

(* Count requests and failures; every request the drivers recorded is
   one attempt. *)
let tally r (rqs : Drive.rq list) =
  r.attempted <- r.attempted + List.length rqs;
  r.failed <- r.failed + List.length (List.filter (fun q -> not (Drive.succeeded q)) rqs)

let op_table r (rqs : Drive.rq list) ops ~tail =
  List.iter
    (fun op ->
      let ls = List.map Drive.latency_ms (List.filter (fun q -> q.Drive.op = op) rqs) in
      if ls <> [] then begin
        show r (op ^ "_p50_ms") (quantile 0.5 ls) "ms";
        show r (Printf.sprintf "%s_p%.0f_ms" op (tail *. 100.)) (quantile tail ls) "ms";
        show r (op ^ "_count") (float_of_int (List.length ls)) "count"
      end)
    ops

(* Set up [n] times and keep the last server.  The gated set-up time
   is the CPU the server spends from exec to the end of set-up, which
   waiting for a CPU or for the disk does not inflate, at the reference
   host speed; the wall-clock time over the same interval is printed.
   Both are medians over the set-ups, so one slow spawn does not decide
   them. *)
let repeated_setup r ~n setup =
  let rec go k acc =
    let s = setup (fresh_dir r (Printf.sprintf "setup%d" k)) in
    let sample = (Server.cpu_s s, now () -. s.Server.spawned, (s.Server.spawned, now ())) in
    if k < n then begin kill r s; go (k + 1) (sample :: acc) end else (s, sample :: acc)
  in
  let s, samples = go 1 [] in
  cpu_metric r "setup_s" ~raw:"setup_cpu_raw_s" (median (List.map (fun (c, _, _) -> c) samples)) "s"
    (List.map (fun (_, _, i) -> i) samples);
  show r "setup_wall_s" (median (List.map (fun (_, w, _) -> w) samples)) "s";
  s

(* Kill the server with SIGKILL and restart it on the same data dir,
   [restarts] times.  [probe] runs against each restarted server (the
   first recovered verdict) and is part of the timed recovery; [verify]
   runs once at the end, untimed.  Wall time to recovery is printed;
   the gated number is the CPU the restarted server spends to get
   there, which waiting for a CPU or for the disk does not inflate, at
   the reference host speed; both are medians over the restarts. *)
let crash_and_recover r s ~restarts ~data_dir ~probe ~verify =
  let rec go k s acc =
    kill r s;
    let s = spawn r data_dir in
    ignore (Server.wait_healthy s);
    probe s;
    let sample = (now () -. s.Server.spawned, Server.cpu_s s, (s.Server.spawned, now ())) in
    if k < restarts then go (k + 1) s (sample :: acc) else (s, sample :: acc)
  in
  let s, samples = go 1 s [] in
  show r "recover_s" (median (List.map (fun (w, _, _) -> w) samples)) "s";
  cpu_metric r "recover_cpu_s" ~raw:"recover_cpu_raw_s" (median (List.map (fun (_, c, _) -> c) samples)) "s"
    (List.map (fun (_, _, i) -> i) samples);
  verify s;
  kill r s

let json_str s = Json.to_string (Json.Str s)

let verdict_line id digest =
  Printf.sprintf {|{"id":"%s","trace_id":"%s","op":"verdict","digest":"%s"}|} id id digest

(* Every server starts by storing reference cases, as a live
   case-management tool holds cases while it serves: spawn, health,
   then put each case and ask for its verdict, on one connection.  The
   set-up time is then the program's work, not one process start, and
   every recovery has cases to reload.  Returns the server and the
   requests, in order. *)
let setup_with_cases r dir puts =
  let s = spawn r dir in
  ignore (Server.wait_healthy s);
  let c = Conn.connect s.Server.port in
  let rqs =
    List.concat_map
      (fun (q : Drive.rq) ->
        let q = Drive.call c q in
        match string_field q.Drive.resp "digest" with
        | Some d when Drive.succeeded q ->
            let id = "v" ^ q.Drive.id in
            [ q; Drive.call c (Drive.make_rq ~key:q.Drive.key ~id ~op:"verdict" (verdict_line id d)) ]
        | _ -> die "set-up put %s failed: %s" q.Drive.id (Oracle.clip q.Drive.resp))
      (puts ())
  in
  Conn.close c;
  (s, rqs)

(* Two reference cases of 1000 nodes, for the small-mix and
   case-ingest set-ups. *)
let reference_puts r () =
  List.init 2 (fun i ->
      let c = Gen.gen_case (Random.State.make [| r.seed; 8; i |]) ~title:"Reference case" ~size:1000 ~broken:false () in
      let id = Printf.sprintf "ref%d" i in
      Drive.make_rq ~key:(-2 - i) ~id ~op:"put"
        (Printf.sprintf {|{"id":"%s","trace_id":"%s","op":"put","source":%s}|} id id (json_str (Gen.render c))))

(* The acked digests of [rqs] with the verdict each last answered. *)
let acked_verdicts (rqs : Drive.rq list) =
  List.filter_map
    (fun (q : Drive.rq) ->
      if q.Drive.op = "verdict" && Drive.succeeded q then
        Option.map (fun d -> (d, q.Drive.resp)) (string_field q.Drive.resp "digest")
      else None)
    rqs

(* The server's default --snapshot-every. *)
let snapshot_every = 1024

(* --- the traced run --------------------------------------------------- *)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let p = Filename.concat src f in
      if (Unix.stat p).Unix.st_kind = Unix.S_REG then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            output_string oc (In_channel.with_open_bin p In_channel.input_all)))
    (Sys.readdir src)

(* A durable store like the server's, for the replay: the handler then
   pays the same WAL appends, fsyncs and snapshots. *)
let replay_store_dir r =
  match Argus_store.Durable.create ~dir:(fresh_dir r "replay") ~sync:Argus_store.Wal.Always () with
  | Ok (d, _) -> d
  | Error e -> die "replay store: %s" e

(* Everything the traced run reports beyond the per-op breakdown: the
   store's log and snapshot sizes, a timed [Recover.load] of a copy of
   the server's data dir, and the measured cost of the tracing itself.
   Spans are written out under .argbench/traces. *)
let finish_trace r ~(rqs : Drive.rq list) ~windows ~cpu_s ~elapsed ~lag99 ~child ~data_dir =
  let layer = layer r in
  Layers.report ~layer ~rqs ~windows ~cpu_s ~elapsed ~lag99 ~table:(show r);
  let store_dir = Filename.concat data_dir "store" in
  (match child with
  | Some (c : Layers.child) ->
      layer "wal.bytes_per_op" (float_of_int c.Layers.wal_bytes /. float_of_int (max 1 c.Layers.seq)) "bytes";
      layer "wal.bytes_per_input_byte"
        (if c.Layers.input_bytes > 0 then float_of_int c.Layers.put_bytes /. float_of_int c.Layers.input_bytes else 0.)
        "ratio"
  | None ->
      layer "wal.bytes_per_op" 0. "bytes";
      layer "wal.bytes_per_input_byte" 0. "ratio");
  let snaps =
    Array.to_list (Sys.readdir store_dir) |> List.filter (fun f -> Filename.check_suffix f ".snap") |> List.sort compare
  in
  layer "snapshot.bytes"
    (match List.rev snaps with [] -> 0. | f :: _ -> float_of_int (Unix.stat (Filename.concat store_dir f)).Unix.st_size)
    "bytes";
  let patches = List.filter (fun (q : Drive.rq) -> q.Drive.op = "patch" && Drive.succeeded q) rqs in
  let rtt (q : Drive.rq) = (q.Drive.recv -. q.Drive.sent) *. 1000. in
  let compacting =
    List.filter (fun (q : Drive.rq) -> match Oracle.int_field q.Drive.resp "seq" with Some s -> s mod snapshot_every = 0 | None -> false) patches
  in
  layer "snapshot.stall_ms"
    (match compacting with [] -> 0. | _ -> mean (List.map rtt compacting) -. median (List.map rtt patches))
    "ms";
  let copy = Filename.concat r.dir "recover-copy" in
  copy_dir store_dir copy;
  (match time (fun () -> Argus_store.Recover.load ~dir:copy ()) with
  | Ok o, secs ->
      let nodes =
        List.fold_left (fun acc (_, _, s) -> acc + Argus_gsn.Structure.size s) 0 (Argus_store.Store.cases o.Argus_store.Recover.store)
      in
      layer "recover.load_ms" (secs *. 1000.) "ms";
      layer "recover.records" (float_of_int o.Argus_store.Recover.replayed) "count";
      layer "recover.us_per_node" (if nodes > 0 then secs *. 1e6 /. float_of_int nodes else 0.) "us"
  | Error e, _ -> die "recover copy: %s" e);
  let replays = List.filter (fun s -> String.starts_with ~prefix:"replay." s.Layers.name) !Layers.spans in
  let per_replay = float_of_int (List.length !Layers.spans) /. float_of_int (max 1 (List.length replays)) in
  let replay_us = mean (List.map (fun s -> (s.Layers.t1 -. s.Layers.t0) *. 1e6) replays) in
  layer "obs.trace_overhead_pct" (Layers.span_cost_us () *. per_replay /. replay_us *. 100.) "%";
  (* The timed requests become client spans too, then all are written. *)
  List.iter
    (fun (q : Drive.rq) ->
      if Drive.answered q then begin
        incr Layers.next_sid;
        Layers.spans :=
          { Layers.sid = !Layers.next_sid; name = "client." ^ q.Drive.op; rid = q.Drive.id; parent = -1; t0 = q.Drive.sent; t1 = q.Drive.recv }
          :: !Layers.spans
      end)
    rqs;
  let dir = ".argbench/traces" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Layers.write_spans (Filename.concat dir (Filename.basename r.dir ^ ".jsonl"))

(* Answers the server gave without running a handler. *)
let refused (q : Drive.rq) =
  List.exists (fun c -> contains q.Drive.resp c) [ {|"svc/overloaded"|}; {|"svc/breaker-open"|}; {|"svc/draining"|} ]

(* Replay [ordered] (commit order, see [commit_order]) through the
   handlers the server's workers run, and compare every answer byte for
   byte.  The store ops see a shadow store: in memory, or in the traced
   run a durable one like the server's, with every call recorded as
   spans and decomposed against a child store, which is returned. *)
let replay_store r (ordered : Drive.rq list) =
  let shadow =
    if r.trace then replay_store_dir r
    else match Argus_store.Durable.create () with Ok (d, _) -> d | Error e -> die "shadow store: %s" e
  in
  let child = if r.trace then Some (Layers.child ~dir:r.dir) else None in
  let handler req = Argus_svc.Handlers.with_store shadow req ~budget:None in
  List.iter
    (fun (q : Drive.rq) ->
      if Drive.answered q && q.Drive.op <> "health" && q.Drive.op <> "stats" && not (refused q) then
        Oracle.expect r.oracle q
          (if r.trace then Layers.replay ?child ~handler ~op:q.Drive.op q.Drive.line
           else Oracle.stateful shadow q.Drive.line))
    ordered;
  child

(* --- store replay and recovery --------------------------------------- *)

(* [chains] are each client's requests in the order sent.  Each request
   is keyed by the seq of the newest acked write at or before it on its
   client, so sorting by key puts every write in commit order and every
   read right after the write it followed. *)
let commit_order (chains : Drive.rq list list) =
  let keyed =
    List.concat_map
      (fun chain ->
        let last = ref 0 in
        List.mapi
          (fun i (q : Drive.rq) ->
            (match Oracle.int_field q.Drive.resp "seq" with
            | Some s when q.Drive.op = "put" || q.Drive.op = "patch" -> last := s
            | _ -> ());
            ((!last, i), q))
          chain)
      chains
  in
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed)

(* After a restart, [digest] must still be there with the report and
   confidence it had before the crash. *)
let same_verdict r ~port ~tag (digest, before) =
  let c = Conn.connect port in
  let after = Conn.call c (verdict_line ("recovered-" ^ tag) digest) in
  Conn.close c;
  r.oracle.Oracle.checked <- r.oracle.Oracle.checked + 1;
  let field k line = Option.bind (match Json.of_string line with Ok j -> Some j | Error _ -> None) (Json.member k) in
  if not (is_ok after && field "report" after = field "report" before
          && field "confidence" after = field "confidence" before)
  then Oracle.mismatch r.oracle ("recovered " ^ digest) (Oracle.clip after)

let recover_store r s ~restarts ~data_dir acked =
  let probe (s : Server.t) =
    match acked with [] -> () | first :: _ -> same_verdict r ~port:s.Server.port ~tag:"first" first
  in
  let verify (s : Server.t) = List.iter (same_verdict r ~port:s.Server.port ~tag:"all") acked in
  crash_and_recover r s ~restarts ~data_dir ~probe ~verify

(* A closed-loop client has no due times: its lateness is the gap
   between one answer and its next request, the generator's own time. *)
let think_lag99 chains =
  let gaps =
    List.concat_map
      (fun chain ->
        let rec go acc = function
          | (x : Drive.rq) :: (y :: _ as rest) -> go (((y.Drive.sent -. x.Drive.recv) *. 1000.) :: acc) rest
          | _ -> acc
        in
        go [] (List.filter Drive.answered chain))
      chains
  in
  quantile 0.99 gaps

let closed_metrics r (rqs : Drive.rq list) ~elapsed =
  tally r rqs;
  let rtts = List.map Drive.latency_ms rqs in
  show r "req_p50_ms" (median rtts) "ms";
  show r "req_p90_ms" (quantile 0.9 rtts) "ms";
  show r "req_p99_ms" (quantile 0.99 rtts) "ms";
  show r "capacity_rps"
    (float_of_int (List.length (List.filter Drive.succeeded rqs)) /. elapsed)
    "req/s"

(* --- small-mix -------------------------------------------------------- *)

(* Open loop against the svc layer: tiny stateless requests at Poisson
   arrivals, first at the nominal rate, then up a geometric ladder of
   rates until one misses the latency limit. *)
module Small_mix = struct
  let nominal_rps = 300.
  let limit_ms = 40.

  (* The ladder: rungs of [rung_share] of the run each, at
     [climb_base * ratio^k] req/s for k = 0..max_rungs, climbed until a
     rung's p99 misses the limit. *)
  let climb_base = 1000.
  let ratio = 1.25
  let max_rungs = 10
  let rung_share = 0.05

  (* The nominal rate runs as [windows] windows of [window_share] of the run
     interleaved with the climb; latency is reported as the median over
     windows of each window's quantile, so one stall of the host moves
     one window, not the run. *)
  let windows = 3
  let window_share = 0.2
  let pool_size = 500

  (* Pool entry [i] has a fixed op and case size, so every seed offers
     the same mix: 40% check, 20% fallacies, 17% prove, 17% probe, 4%
     health, 2% stats, cases of 1-8 nodes in equal shares. *)
  let body st i =
    let case () =
      let size = 1 + (i mod 8) in
      Gen.render (Gen.gen_case st ~title:"Component argument" ~size ~broken:(i mod 4 = 0) ())
    in
    let u = float_of_int (i mod 100) /. 100. in
    if u < 0.40 then
      ("check", Printf.sprintf {|"op":"check","source":%s,"lints":%b}|} (json_str (case ())) (i mod 3 = 0))
    else if u < 0.60 then ("fallacies", Printf.sprintf {|"op":"fallacies","source":%s}|} (json_str (case ())))
    else if u < 0.77 then
      let prog, goal = Gen.gen_prolog st in
      ("prove", Printf.sprintf {|"op":"prove","source":%s,"goal":%s}|} (json_str prog) (json_str goal))
    else if u < 0.94 then ("probe", Printf.sprintf {|"op":"probe","source":%s}|} (json_str (Gen.gen_proof st)))
    else if u < 0.98 then ("health", {|"op":"health"}|})
    else ("stats", {|"op":"stats"}|})

  let pool st = Array.init pool_size (body st)

  let requests st pool ~first ~rate ~t0 ~seconds =
    Drive.poisson st ~rate ~t0 ~seconds
    |> List.mapi (fun i due ->
           let key = Random.State.int st (Array.length pool) in
           let op, b = pool.(key) in
           let id = Printf.sprintf "q%d" (first + i) in
           let q = Drive.make_rq ~key ~id ~op (Printf.sprintf {|{"id":"%s","trace_id":"%s",%s|} id id b) in
           q.Drive.due <- due;
           q)
    |> Array.of_list

  type rung = { rate : float; reqs : Drive.rq array; p99 : float; lag99 : float }

  let lateness q = (q.Drive.sent -. q.Drive.due) *. 1000.

  let measure ~port st pool ~first ~rate ~seconds =
    let t0 = now () +. 0.02 in
    let reqs = requests st pool ~first ~rate ~t0 ~seconds in
    Drive.open_loop ~port ~conns:2 ~grace:2. reqs;
    let all = Array.to_list reqs in
    { rate; reqs; p99 = quantile 0.99 (List.map Drive.latency_ms all); lag99 = quantile 0.99 (List.map lateness all) }

  (* Climb the ladder; every rung run is returned, in order.  The
     capacity is the highest rung rate whose p99 met the limit (0 when
     none did). *)
  let climb ~port st pool ~count ~seconds ~between =
    let rec up k capacity runs =
      if k > max_rungs then (capacity, List.rev runs)
      else begin
        let x = measure ~port st pool ~first:!count ~rate:(climb_base *. (ratio ** float_of_int k)) ~seconds in
        count := !count + Array.length x.reqs;
        between ();
        if x.p99 <= limit_ms then up (k + 1) x.rate (x :: runs) else (capacity, List.rev (x :: runs))
      end
    in
    up 0 0. []

  let run r =
    let st = rng r 1 in
    let pool = pool st in
    let data = ref "" and reference = ref [] in
    let s =
      repeated_setup r ~n:9 (fun d ->
          data := d;
          let s, rqs = setup_with_cases r d (reference_puts r) in
          reference := rqs;
          s)
    in
    let port = s.Server.port in
    (* Server CPU and wall time are summed over the nominal windows
       only, so a rung that sheds more or less does not move them. *)
    let count = ref 0 and nominal = ref [] and brackets = ref [] and cpu_s = ref 0. and elapsed = ref 0.
    and spans = ref [] in
    let window () =
      if List.length !nominal < windows then begin
        let a = if r.trace then Some (Layers.stats port) else None in
        let c0 = Server.cpu_s s and t0 = now () in
        let x = measure ~port st pool ~first:!count ~rate:nominal_rps ~seconds:(window_share *. r.seconds) in
        elapsed := !elapsed +. (now () -. t0);
        cpu_s := !cpu_s +. (Server.cpu_s s -. c0);
        spans := (t0, now ()) :: !spans;
        Option.iter (fun a -> brackets := (a, Layers.stats port) :: !brackets) a;
        count := !count + Array.length x.reqs;
        nominal := x :: !nominal
      end
    in
    window ();
    let capacity, ladder = climb ~port st pool ~count ~seconds:(rung_share *. r.seconds) ~between:window in
    for _ = 1 to windows do window () done;
    let rss = Server.rss_hwm_mb s in
    let nominal = List.rev !nominal in
    let reqs = List.concat_map (fun x -> Array.to_list x.reqs) nominal in
    let climbed = List.concat_map (fun x -> Array.to_list x.reqs) ladder in
    (* Refusals above capacity are how the ladder finds it: on the rungs
       they are excused, and any other error or a missing answer counts
       as failed.  In the nominal windows every error counts. *)
    tally r reqs;
    r.attempted <- r.attempted + List.length climbed;
    r.failed <- r.failed + List.length (List.filter (fun q -> not (Drive.succeeded q || refused q)) climbed);
    let per_window q = median (List.map (fun x -> quantile q (Array.to_list (Array.map Drive.latency_ms x.reqs))) nominal) in
    show r "req_p50_ms" (per_window 0.5) "ms";
    show r "req_p90_ms" (per_window 0.9) "ms";
    show r "req_p99_ms" (per_window 0.99) "ms";
    show r "capacity_rps" capacity "req/s";
    e2e r "server_rss_mb" rss "MiB";
    show r "req_p99_pooled_ms" (quantile 0.99 (List.map Drive.latency_ms reqs)) "ms";
    show r "nominal_rps" nominal_rps "req/s";
    show r "nominal_requests" (float_of_int (List.length reqs)) "count";
    show r "latency_limit_ms" limit_ms "ms";
    show r "client.send_lag_p99_ms" (quantile 0.99 (List.map lateness reqs)) "ms";
    List.iteri
      (fun i x ->
        show r (Printf.sprintf "ladder.%02d.rate_rps" i) x.rate "req/s";
        show r (Printf.sprintf "ladder.%02d.p99_ms" i) x.p99 "ms";
        show r (Printf.sprintf "ladder.%02d.send_lag_p99_ms" i) x.lag99 "ms")
      ladder;
    show r "ladder_refused"
      (float_of_int (List.length (List.filter (fun q -> not (Drive.succeeded q)) climbed)))
      "count";
    op_table r reqs [ "check"; "fallacies"; "prove"; "probe" ] ~tail:0.99;
    cpu_metric r "server_cpu_ms_per_req" ~raw:"server_cpu_raw_ms_per_req"
      (!cpu_s *. 1000. /. float_of_int (List.length reqs)) "ms" !spans;
    (* Oracle: one in-process answer per pool entry, restamped per id,
       for every answer but a refusal, errors included. *)
    let cache = Hashtbl.create pool_size in
    List.iter
      (fun (q : Drive.rq) ->
        if not (Drive.answered q) || refused q then ()
        else if q.Drive.op = "health" || q.Drive.op = "stats" then Oracle.monitoring r.oracle q
        else begin
          let req, resp =
            match Hashtbl.find_opt cache q.Drive.key with
            | Some x -> x
            | None ->
                let req = Oracle.decode q.Drive.line in
                let x = (req, Argus_svc.Handlers.handle req ~budget:None) in
                Hashtbl.replace cache q.Drive.key x;
                x
          in
          Oracle.expect r.oracle q (Oracle.restamp req resp q.Drive.id)
        end)
      (if r.trace then climbed else reqs @ climbed);
    (* The reference cases replay through the store; in the traced run
       the nominal requests replay with them, recorded as spans. *)
    let child = replay_store r (!reference @ if r.trace then reqs else []) in
    if r.trace then
      finish_trace r ~rqs:reqs ~windows:!brackets ~cpu_s:!cpu_s ~elapsed:!elapsed
        ~lag99:(quantile 0.99 (List.map lateness reqs)) ~child ~data_dir:!data;
    recover_store r s ~restarts:15 ~data_dir:!data (acked_verdicts !reference)
end

(* --- case-ingest ----------------------------------------------------- *)

(* Whole cases uploaded by two closed-loop clients: each input goes
   through check (a CI gate), then put, then verdict; collections only
   through check.  The size schedule is fixed, the content seeded. *)
module Case_ingest = struct
  let lo = 50
  let hi = 5000
  let strata = 16

  (* The work is fixed, so runs compare the same data: three inputs per
     second of --seconds, about the rate this workload ingests on the
     2-core reference host. *)
  let inputs r = max 8 (int_of_float (3. *. r.seconds))

  type input = { check : string; put : string option; nodes : int }

  (* Input [i] is a pure function of (seed, i), so clients on different
     domains can generate their next input without sharing state. *)
  let fresh_case r i =
    let st = Random.State.make [| r.seed; 3; i |] in
    let size = Gen.stratified_size ~lo ~hi ~k:strata i in
    Gen.gen_case st ~title:(Printf.sprintf "Case %d" i) ~size ~broken:(Gen.chance st 0.3) ()

  let is_collection i = i mod 10 = 9
  let is_variant i = i mod 10 = 2 || i mod 10 = 5 || i mod 10 = 7

  let input r i =
    let st = Random.State.make [| r.seed; 4; i |] in
    let source, nodes =
      if is_collection i then
        Gen.gen_collection st ~size:(Gen.stratified_size ~lo ~hi ~k:strata i) ~broken:(Gen.chance st 0.3)
      else
        let c =
          if is_variant i then
            Gen.variant st (fresh_case r (i - 1 - if is_variant (i - 1) then 1 else 0))
              ~title:(Printf.sprintf "Case %d" i)
          else fresh_case r i
        in
        (Gen.render c, Array.length c.Gen.nodes)
    in
    let src = json_str source in
    let id p = Printf.sprintf "%s%d" p i in
    {
      check = Printf.sprintf {|{"id":"%s","trace_id":"%s","op":"check","source":%s,"lints":true}|} (id "c") (id "c") src;
      put =
        (if is_collection i then None
         else Some (Printf.sprintf {|{"id":"%s","trace_id":"%s","op":"put","source":%s}|} (id "p") (id "p") src));
      nodes;
    }

  let run r =
    let data = ref "" and reference = ref [] in
    let s =
      repeated_setup r ~n:9 (fun d ->
          data := d;
          let s, rqs = setup_with_cases r d (reference_puts r) in
          reference := rqs;
          s)
    in
    let next = Atomic.make 0 in
    let chains = Array.make 2 [] and ingested = Array.make 2 0 in
    let total = inputs r in
    (* Generated before the clock starts, so the clients only send. *)
    let inputs = Array.init total (input r) in
    let a = if r.trace then Some (Layers.stats s.Server.port) else None in
    let t0 = now () in
    let cpu0 = Server.cpu_s s in
    Drive.closed_loop ~port:s.Server.port ~clients:2 ~deadline:infinity (fun k c ->
        let i = Atomic.fetch_and_add next 1 in
        i < total &&
        let inp = inputs.(i) in
        let push q = chains.(k) <- Drive.call c q :: chains.(k) in
        let chk = Drive.make_rq ~key:i ~nodes:inp.nodes ~id:(Printf.sprintf "c%d" i) ~op:"check" inp.check in
        push chk;
        (match inp.put with
        | None -> if Drive.succeeded chk then ingested.(k) <- ingested.(k) + inp.nodes
        | Some line -> (
            let put = Drive.make_rq ~key:i ~nodes:inp.nodes ~id:(Printf.sprintf "p%d" i) ~op:"put" line in
            push put;
            match string_field put.Drive.resp "digest" with
            | None -> ()
            | Some d ->
                let v = Drive.make_rq ~key:i ~id:(Printf.sprintf "v%d" i) ~op:"verdict" (verdict_line (Printf.sprintf "v%d" i) d) in
                push v;
                if Drive.succeeded chk && Drive.succeeded v then ingested.(k) <- ingested.(k) + inp.nodes));
        true);
    let elapsed = now () -. t0 in
    let cpu1 = Server.cpu_s s in
    let b = Option.map (fun _ -> Layers.stats s.Server.port) a in
    let rss = Server.rss_hwm_mb s in
    let chains = Array.to_list (Array.map List.rev chains) in
    let rqs = List.concat chains in
    closed_metrics r rqs ~elapsed;
    e2e r "server_rss_mb" rss "MiB";
    op_table r rqs [ "check"; "put" ] ~tail:0.9;
    op_table r rqs [ "verdict" ] ~tail:0.9;
    show r "nodes_per_s" (float_of_int (ingested.(0) + ingested.(1)) /. elapsed) "nodes/s";
    show r "inputs" (float_of_int total) "count";
    cpu_metric r "server_cpu_ms_per_req" ~raw:"server_cpu_raw_ms_per_req"
      ((cpu1 -. cpu0) *. 1000. /. float_of_int (List.length rqs)) "ms" [ (t0, t0 +. elapsed) ];
    (* Oracle: checks are stateless; store ops replay in commit order;
       put digests are Store.digest_of; each verdict's report is the
       check report of the same source. *)
    let check_of = Hashtbl.create 64 in
    List.iter
      (fun (q : Drive.rq) ->
        if q.Drive.op = "check" && Drive.answered q then begin
          if not r.trace then Oracle.expect r.oracle q (Oracle.stateless q.Drive.line);
          Hashtbl.replace check_of q.Drive.key q.Drive.resp
        end)
      rqs;
    let child =
      replay_store r
        (commit_order
           (!reference :: (if r.trace then chains else List.map (List.filter (fun (q : Drive.rq) -> q.Drive.op <> "check")) chains)))
    in
    let acked = ref [] in
    List.iter
      (fun (q : Drive.rq) ->
        if Drive.succeeded q then
          match q.Drive.op with
          | "put" -> (
              r.oracle.Oracle.checked <- r.oracle.Oracle.checked + 1;
              let req = Oracle.decode q.Drive.line in
              match Argus_dsl.Dsl.parse req.Argus_svc.Protocol.source with
              | Ok case when string_field q.Drive.resp "digest" = Some (Argus_store.Store.digest_of case.Argus_dsl.Dsl.structure) -> ()
              | _ -> Oracle.mismatch r.oracle q.Drive.id "put digest differs from Store.digest_of")
          | "verdict" ->
              r.oracle.Oracle.checked <- r.oracle.Oracle.checked + 1;
              (match Hashtbl.find_opt check_of q.Drive.key with
              | Some chk when Oracle.report chk = Oracle.report q.Drive.resp -> ()
              | _ -> Oracle.mismatch r.oracle q.Drive.id "verdict report differs from the check report");
              Option.iter (fun d -> acked := (d, q.Drive.resp) :: !acked) (string_field q.Drive.resp "digest")
          | _ -> ())
      rqs;
    (match (a, b) with
    | Some a, Some b ->
        finish_trace r ~rqs ~windows:[ (a, b) ] ~cpu_s:(cpu1 -. cpu0) ~elapsed ~lag99:(think_lag99 chains) ~child
          ~data_dir:!data
    | _ -> ());
    recover_store r s ~restarts:9 ~data_dir:!data (acked_verdicts !reference @ List.rev !acked)
end

(* --- edit-loop -------------------------------------------------------- *)

(* Many small edits to stored cases: each client owns two ~5k-node
   cases and loops patch (mostly set-text, 2% shape edits) then
   verdict on the returned digest. *)
module Edit_loop = struct
  let base_size = 5000

  (* Client step [n] edits case [n mod 2] of its two; steps 49 and 98
     of every 100 are shape edits, one on each case: 2% of patches, the
     same share on every seed. *)
  let is_shape n = n mod 100 = 49 || n mod 100 = 98

  (* The WAL tail every recovery replays. *)
  let tail = 128

  let run r =
    let bases =
      Array.init 4 (fun i ->
          let st = Random.State.make [| r.seed; 5; i |] in
          Gen.gen_case st ~title:(Printf.sprintf "Base case %d" i) ~size:base_size ~broken:false ())
    in
    let put_line i =
      Printf.sprintf {|{"id":"b%d","trace_id":"b%d","op":"put","source":%s}|} i i (json_str (Gen.render bases.(i)))
    in
    let put_lines = Array.init 4 put_line in
    let data = ref "" and base_puts = ref [||] in
    let s =
      repeated_setup r ~n:2 (fun d ->
          data := d;
          let s = spawn r d in
          ignore (Server.wait_healthy s);
          (* Client k puts bases 2k and 2k+1, both clients at once. *)
          let puts = Array.init 4 (fun i -> Drive.make_rq ~key:i ~id:(Printf.sprintf "b%d" i) ~op:"put" put_lines.(i)) in
          let todo = [| 0; 0 |] in
          Drive.closed_loop ~port:s.Server.port ~clients:2 ~deadline:infinity (fun k c ->
              ignore (Drive.call c puts.((2 * k) + todo.(k)));
              todo.(k) <- todo.(k) + 1;
              todo.(k) < 2);
          base_puts := puts;
          s)
    in
    let base_puts = !base_puts in
    Array.iter (fun q -> if not (Drive.succeeded q) then die "base put failed: %s" q.Drive.resp) base_puts;
    let digest = Array.map (fun (q : Drive.rq) -> Option.get (string_field q.Drive.resp "digest")) base_puts in
    let models = Array.map Gen.model_of_case bases in
    let last_verdict = Array.make 4 "" in
    let chains = [| [ base_puts.(0); base_puts.(1) ]; [ base_puts.(2); base_puts.(3) ] |] in
    let steps = [| 0; 0 |] and pairs = [| 0; 0 |] and shapes = ref [] in
    let rngs = Array.init 2 (fun k -> Random.State.make [| r.seed; 6; k |]) in
    let a = if r.trace then Some (Layers.stats s.Server.port) else None in
    let t0 = now () in
    let cpu0 = Server.cpu_s s in
    Drive.closed_loop ~port:s.Server.port ~clients:2 ~deadline:(t0 +. r.seconds) (fun k c ->
        let n = steps.(k) in
        steps.(k) <- n + 1;
        let j = (2 * k) + (n mod 2) in
        let edits = Gen.gen_patch rngs.(k) models.(j) ~shape:(if is_shape n then 1. else 0.) in
        let shape = List.exists (function Gen.Set_text _ -> false | _ -> true) edits in
        let pid = Printf.sprintf "p%d.%d" k n and vid = Printf.sprintf "v%d.%d" k n in
        let p =
          Drive.make_rq ~key:j ~id:pid ~op:"patch"
            (Printf.sprintf {|{"id":"%s","trace_id":"%s","op":"patch","digest":"%s","edits":%s}|} pid pid digest.(j)
               (Gen.patch_edits_json edits))
        in
        chains.(k) <- Drive.call c p :: chains.(k);
        if shape then shapes := p :: !shapes;
        (match string_field p.Drive.resp "digest" with
        | Some d when Drive.succeeded p ->
            digest.(j) <- d;
            let v = Drive.call c (Drive.make_rq ~key:j ~id:vid ~op:"verdict" (verdict_line vid d)) in
            chains.(k) <- v :: chains.(k);
            if Drive.succeeded v then begin
              last_verdict.(j) <- v.Drive.resp;
              pairs.(k) <- pairs.(k) + 1
            end
        | _ -> ());
        true);
    let elapsed = now () -. t0 in
    let cpu1 = Server.cpu_s s in
    let b = Option.map (fun _ -> Layers.stats s.Server.port) a in
    let rss = Server.rss_hwm_mb s in
    let timed = List.filter (fun (q : Drive.rq) -> q.Drive.op <> "put") (List.concat_map List.rev (Array.to_list chains)) in
    (* Bring the log to a fixed shape before the crash: set-text patches
       until a snapshot fires, then [tail] more, so every recovery loads
       one snapshot and replays [tail] records. *)
    let seq =
      ref (List.fold_left (fun m (q : Drive.rq) -> max m (Option.value ~default:0 (Oracle.int_field q.Drive.resp "seq"))) 0 timed)
    in
    let c = Conn.connect s.Server.port in
    let filler n =
      let id = Printf.sprintf "f%d" n in
      let edits = Gen.gen_patch rngs.(0) models.(0) ~shape:0. in
      let p =
        Drive.call c
          (Drive.make_rq ~key:0 ~id ~op:"patch"
             (Printf.sprintf {|{"id":"%s","trace_id":"%s","op":"patch","digest":"%s","edits":%s}|} id id digest.(0)
                (Gen.patch_edits_json edits)))
      in
      chains.(0) <- p :: chains.(0);
      match (string_field p.Drive.resp "digest", Oracle.int_field p.Drive.resp "seq") with
      | Some d, Some q -> digest.(0) <- d; seq := q
      | _ -> die "filler patch failed: %s" p.Drive.resp
    in
    let n = ref 0 in
    while !seq mod snapshot_every <> 0 do filler !n; incr n done;
    for _ = 1 to tail do filler !n; incr n done;
    let v = Drive.call c (Drive.make_rq ~key:0 ~id:"fv" ~op:"verdict" (verdict_line "fv" digest.(0))) in
    chains.(0) <- v :: chains.(0);
    last_verdict.(0) <- v.Drive.resp;
    Conn.close c;
    let chains = Array.to_list (Array.map List.rev chains) in
    closed_metrics r timed ~elapsed;
    e2e r "server_rss_mb" rss "MiB";
    op_table r timed [ "patch" ] ~tail:0.99;
    op_table r timed [ "verdict" ] ~tail:0.99;
    let shape_ids = List.map (fun (q : Drive.rq) -> q.Drive.id) !shapes in
    let patches = List.filter (fun (q : Drive.rq) -> q.Drive.op = "patch") timed in
    let text_p, shape_p = List.partition (fun (q : Drive.rq) -> not (List.mem q.Drive.id shape_ids)) patches in
    show r "patch_text_p50_ms" (median (List.map Drive.latency_ms text_p)) "ms";
    show r "patch_shape_p50_ms" (median (List.map Drive.latency_ms shape_p)) "ms";
    show r "patch_shape_count" (float_of_int (List.length shape_p)) "count";
    show r "edits_per_s" (float_of_int (pairs.(0) + pairs.(1)) /. elapsed) "1/s";
    cpu_metric r "server_cpu_ms_per_req" ~raw:"server_cpu_raw_ms_per_req"
      ((cpu1 -. cpu0) *. 1000. /. float_of_int (List.length timed)) "ms" [ (t0, t0 +. elapsed) ];
    let child = replay_store r (commit_order chains) in
    let acked =
      List.filter_map
        (fun j -> if last_verdict.(j) = "" then None else Some (digest.(j), last_verdict.(j)))
        [ 0; 1; 2; 3 ]
    in
    (match (a, b) with
    | Some a, Some b ->
        finish_trace r ~rqs:timed ~windows:[ (a, b) ] ~cpu_s:(cpu1 -. cpu0) ~elapsed ~lag99:(think_lag99 chains) ~child
          ~data_dir:!data
    | _ -> ());
    recover_store r s ~restarts:5 ~data_dir:!data acked
end

(* --- self-test of the generators ------------------------------------- *)

let selftest seed =
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; prerr_endline ("selftest: " ^ s)) fmt in
  let r =
    { argus = ""; dir = ""; seed; seconds = 0.; trace = false; speed = None; live = []; attempted = 0; failed = 0;
      oracle = Oracle.create (); table = []; e2e = []; layers = [] }
  in
  let twice name f = if f () <> f () then fail "%s: the same seed gave different bytes" name in
  twice "small-mix pool" (fun () -> Small_mix.pool (rng r 1));
  twice "case-ingest inputs" (fun () -> List.init 40 (fun i -> (Case_ingest.input r i).Case_ingest.check));
  let script () =
    let st = Random.State.make [| seed; 6 |] in
    let c = Gen.gen_case (Random.State.make [| seed; 5 |]) ~title:"t" ~size:300 ~broken:false () in
    let m = Gen.model_of_case c in
    (c, List.init 400 (fun _ -> Gen.gen_patch st m ~shape:0.2))
  in
  twice "edit script" (fun () -> List.map Gen.patch_edits_json (snd (script ())));
  (* Every generated input parses; the edit script applies cleanly. *)
  let parses name src =
    match Argus_dsl.Dsl.parse_collection src with
    | Ok _ -> ()
    | Error ds -> fail "%s does not parse: %s" name (Argus_core.Diagnostic.report_to_json ds |> Json.to_string)
  in
  List.iter
    (fun (op, body) ->
      match Argus_svc.Protocol.request_of_line ("{" ^ body) with
      | Error e -> fail "small-mix request does not decode: %s" e
      | Ok req -> (
          let src = req.Argus_svc.Protocol.source in
          match op with
          | "check" | "fallacies" -> parses "small-mix case" src
          | "prove" -> (
              match (Argus_prolog.Program.of_string src, Option.map Argus_logic.Term.of_string req.Argus_svc.Protocol.goal) with
              | Ok _, Some (Ok _) -> ()
              | _ -> fail "prolog input does not parse: %s" src)
          | "probe" -> (
              match Argus_logic.Proof_text.parse src with
              | Ok p -> if Result.is_error (Argus_logic.Natded.check p) then fail "proof does not check: %s" src
              | Error e -> fail "proof does not parse: %s (%s)" src e)
          | _ -> ()))
    (Array.to_list (Small_mix.pool (rng r 1)));
  List.iter
    (fun i ->
      match Argus_svc.Protocol.request_of_line (Case_ingest.input r i).Case_ingest.check with
      | Ok req -> parses (Printf.sprintf "case-ingest input %d" i) req.Argus_svc.Protocol.source
      | Error e -> fail "case-ingest input %d does not decode: %s" i e)
    (List.init 40 Fun.id);
  let c, patches = script () in
  let store = Argus_store.Store.create () in
  let d = ref (Argus_store.Store.put store (Argus_dsl.Dsl.parse_exn (Gen.render c)).Argus_dsl.Dsl.structure) in
  List.iter
    (fun edits ->
      let line = Printf.sprintf {|{"op":"patch","digest":"x","edits":%s}|} (Gen.patch_edits_json edits) in
      match Argus_svc.Protocol.request_of_line line with
      | Error e -> fail "patch does not decode: %s" e
      | Ok req -> (
          match Argus_store.Store.patch store ~digest:!d req.Argus_svc.Protocol.edits with
          | Ok d' -> d := d'
          | Error e -> fail "patch refused: %s" (Argus_store.Store.error_message e)))
    patches;
  if !failures = 0 then (print_endline "selftest ok"; 0) else 1

(* --- entry point ------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let finite v = if Float.is_finite v then v else 1e9

let print_result r =
  let metrics = if r.trace then r.layers else r.e2e in
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %14.4f %s\n" n v u) (r.table @ r.layers);
  Printf.printf "%-40s %14.4f %s\n" "fail_ratio" (float_of_int r.failed /. float_of_int (max 1 r.attempted)) "ratio";
  Printf.printf "%-40s %14d %s\n" "oracle_checked" r.oracle.Oracle.checked "count";
  Printf.printf "%-40s %14d %s\n" "oracle_mismatches" r.oracle.Oracle.mismatches "count";
  let fields =
    List.map (fun (n, v, u) -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} n (finite v) u) metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.oracle.Oracle.mismatches = 0)
    (max 1 r.attempted) r.failed (String.concat ", " fields);
  print_newline ()

let () =
  let argus = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and self = ref false in
  let spec =
    [
      ("--argus", Arg.Set_string argus, "PATH the argus binary");
      ("--workload", Arg.Set_string workload, "NAME small-mix, case-ingest or edit-loop");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--selftest", Arg.Set self, " check the generators and exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then exit (selftest !seed);
  let run_workload =
    match !workload with
    | "small-mix" -> Small_mix.run
    | "case-ingest" -> Case_ingest.run
    | "edit-loop" -> Edit_loop.run
    | w -> die "unknown workload %S\n%s" w usage
  in
  if not (Sys.file_exists !argus) then die "no argus binary at %S" !argus;
  let root = ".argbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let speed = Speed.start () in
  let r =
    { argus = !argus; dir; seed = !seed; seconds = !seconds; trace = !trace = 1; speed = Some speed; live = [];
      attempted = 0; failed = 0; oracle = Oracle.create (); table = []; e2e = []; layers = [] }
  in
  (* Whatever happens, no server outlives the run and no scratch
     state is left behind. *)
  at_exit (fun () ->
      List.iter Server.kill r.live;
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  let quit _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  run_workload r;
  Speed.stop speed;
  show r "host.calib_pass_ms" (Speed.pass_ms speed [ (neg_infinity, infinity) ]) "ms";
  print_result r
