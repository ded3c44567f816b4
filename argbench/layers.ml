(* The traced run: spans recorded from the benchmark's own code around
   calls into each library's public functions, replaying the exact
   requests the server answered, plus the server's own counters read
   through [stats] before and after the timed window. *)

open Util
module P = Argus_svc.Protocol
module H = Argus_svc.Handlers
module Json = Argus_core.Json
module Dsl = Argus_dsl.Dsl
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Store = Argus_store.Store
module Wal = Argus_store.Wal

(* --- spans ------------------------------------------------------------ *)

type span = { sid : int; name : string; rid : string; parent : int; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_sid = ref 0

(* Run [f] inside a span; the span's id is passed to [f] so calls made
   on its behalf can name it as their parent. *)
let span ?(parent = -1) ~rid name f =
  incr next_sid;
  let sid = !next_sid in
  let t0 = now () in
  let r = f sid in
  spans := { sid; name; rid; parent; t0; t1 = now () } :: !spans;
  r

let span_ ?parent ~rid name f = span ?parent ~rid name (fun _ -> f ())

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) !spans

let mean_us name = match durations name with [] -> 0. | ds -> mean ds *. 1e6
let total_s name = sum (durations name)

(* Self time per span name: its duration minus its children's.  A
   child here is a span naming it as parent — for a handler, the same
   calls re-run one by one on the same input. *)
let self_us name =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)))
    !spans;
  match List.filter (fun s -> s.name = name) !spans with
  | [] -> 0.
  | ss ->
      mean
        (List.map (fun s -> (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child_sum s.sid)) *. 1e6) ss)

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc {|{"id":%d,"name":"%s","request":"%s","parent":%d,"start_s":%.9f,"end_s":%.9f}|} s.sid s.name
            s.rid s.parent s.t0 s.t1;
          output_char oc '\n')
        (List.rev !spans))

(* The cost of recording one span, measured: the tracing overhead. *)
let span_cost_us () =
  let saved = !spans and n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do span_ ~rid:"" "obs.probe" ignore done;
  let per = (now () -. t0) /. float_of_int n in
  spans := saved;
  per *. 1e6

(* --- server stats ----------------------------------------------------- *)

type stats = { hist : (string * (float * float)) list; counters : (string * int) list; gauge_max : (string * int) list }

let stats port =
  let c = Conn.connect port in
  let line = Conn.call c {|{"id":"layers-stats","op":"stats"}|} in
  Conn.close c;
  let j = match Json.of_string line with Ok j -> j | Error e -> die "stats: %s" e in
  let obj k = match Json.member k j with Some (Json.Obj l) -> l | _ -> [] in
  let num k o = match Json.member k o with Some (Json.Num f) -> f | _ -> 0. in
  {
    hist = List.map (fun (op, o) -> (op, (num "count" o, num "mean" o))) (obj "latency_ms");
    counters = List.filter_map (fun (k, v) -> match v with Json.Num f -> Some (k, int_of_float f) | _ -> None) (obj "counters");
    gauge_max = List.map (fun (k, o) -> (k, int_of_float (num "max" o))) (obj "gauges");
  }

(* The timed window may be several stretches, each bracketed by a
   [stats] read before and after: deltas sum over the stretches. *)
let counter_delta windows k =
  List.fold_left
    (fun acc (a, b) ->
      acc + Option.value ~default:0 (List.assoc_opt k b.counters) - Option.value ~default:0 (List.assoc_opt k a.counters))
    0 windows

(* Requests admitted and their summed admission-to-reply time (ms) for
   one op over the windows, from the histogram's count and mean. *)
let handled windows op =
  List.fold_left
    (fun (n, t) (a, b) ->
      let c, m = Option.value ~default:(0., 0.) (List.assoc_opt op a.hist)
      and c', m' = Option.value ~default:(0., 0.) (List.assoc_opt op b.hist) in
      (n +. c' -. c, t +. (c' *. m') -. (c *. m)))
    (0., 0.) windows

(* --- the replay -------------------------------------------------------- *)

(* State the store-op decomposition runs against: a plain store fed the
   same operations in the same order, and a scratch WAL appended the
   same records under the server's sync policy. *)
type child = {
  store : Store.t;
  wal : Wal.t;
  mutable seq : int;
  mutable wal_bytes : int;
  mutable put_bytes : int;  (** WAL bytes of put records *)
  mutable input_bytes : int;  (** source bytes of put requests *)
}

let child ~dir =
  { store = Store.create (); wal = Wal.openw ~sync:Wal.Always (Filename.concat dir "child.wal"); seq = 0; wal_bytes = 0;
    put_bytes = 0; input_bytes = 0 }

let append c ~rid ~parent op digest =
  c.seq <- c.seq + 1;
  let record = { Wal.seq = c.seq; op; digest } in
  let bytes = String.length (Wal.encode record) in
  c.wal_bytes <- c.wal_bytes + bytes;
  (match op with Wal.Put _ -> c.put_bytes <- c.put_bytes + bytes | Wal.Patch _ -> ());
  span_ ~parent ~rid "wal.append" (fun () -> Wal.append c.wal record)

let nodes s = Argus_gsn.Structure.size s

(* Per-node costs, by case size: parse at the two ends shows whether it
   grows faster than the case. *)
let per_node : (string * float * int) list ref = ref []
let note name secs n = per_node := (name, secs, n) :: !per_node

let timed_node ~parent ~rid name n f =
  let t0 = now () in
  let r = span_ ~parent ~rid name f in
  note name (now () -. t0) n;
  r

let confidence_samples = ref 0

(* Re-run, one call at a time, what the handler did for [req]: each call
   is a child span of the handler span [parent]. *)
let decompose ?child:ch ~parent (req : P.request) =
  let rid = req.P.id in
  let parse_case () =
    match span_ ~parent ~rid "dsl.parse" (fun () -> Dsl.parse_collection ~filename:req.P.filename req.P.source) with
    | Ok cases -> cases
    | Error _ -> []
  in
  let size cases = List.fold_left (fun a c -> a + nodes c.Dsl.structure) 0 cases in
  match req.P.op with
  | P.Check | P.Fallacies -> (
      let t0 = now () in
      let cases = parse_case () in
      note "dsl.parse" (now () -. t0) (size cases);
      match cases with
      | [ c ] when c.Dsl.module_name = None ->
          let n = nodes c.Dsl.structure in
          let ir = timed_node ~parent ~rid "ir.intern" n (fun () -> Caseir.intern c.Dsl.structure) in
          if req.P.op = P.Check then
            ignore (timed_node ~parent ~rid "ir.fused_check" n (fun () -> Fused.check ~lints:req.P.lints ir))
          else ignore (span_ ~parent ~rid "fallacy.lint" (fun () -> Fused.lint ir))
      | cases -> (
          match Dsl.to_modular cases with
          | Ok m -> ignore (span_ ~parent ~rid "ir.check_modular" (fun () -> Fused.check_modular m))
          | Error _ -> ()))
  | P.Prove -> (
      match
        span_ ~parent ~rid "prolog.parse" (fun () ->
            (Argus_prolog.Program.of_string req.P.source, Option.map Argus_logic.Term.of_string req.P.goal))
      with
      | Ok program, Some (Ok goal) ->
          let tries = Argus_obs.Metrics.Counter.make "prolog.clause_tries" in
          let before = Argus_obs.Metrics.Counter.value tries in
          ignore (span_ ~parent ~rid "prolog.prove" (fun () -> Argus_prolog.Exec.prove_term program goal));
          note "prolog.clause_tries" 0. (Argus_obs.Metrics.Counter.value tries - before)
      | _ -> ())
  | P.Probe -> (
      match span_ ~parent ~rid "logic.parse" (fun () -> Argus_logic.Proof_text.parse req.P.source) with
      | Ok proof -> (
          match span_ ~parent ~rid "logic.natded" (fun () -> Argus_logic.Natded.check proof) with
          | Ok checked ->
              span_ ~parent ~rid "confidence.probe" (fun () ->
                  List.iter
                    (fun p -> ignore (Argus_confidence.Confidence.probe_counterexample checked p))
                    checked.Argus_logic.Natded.premises)
          | Error _ -> ())
      | Error _ -> ())
  | P.Put -> (
      let c = Option.get ch in
      c.input_bytes <- c.input_bytes + String.length req.P.source;
      match parse_case () with
      | [ case ] ->
          let s = case.Dsl.structure in
          let n = nodes s in
          let t0 = now () in
          let d = span_ ~parent ~rid "store.put" (fun () -> Store.put c.store s) in
          note "store.put" (now () -. t0) n;
          append c ~rid ~parent (Wal.Put (Argus_gsn.Wellformed.Standard, s)) d;
          (* Not children: the same work measured as the layers see it. *)
          ignore (timed_node ~parent:(-1) ~rid "store.digest" n (fun () -> Store.digest_of s));
          ignore (timed_node ~parent:(-1) ~rid "ir.intern" n (fun () -> Caseir.intern s))
      | _ -> ())
  | P.Patch -> (
      let c = Option.get ch in
      match req.P.digest with
      | None -> ()
      | Some d ->
          let text_only = List.for_all (function Store.Set_text _ -> true | _ -> false) req.P.edits in
          let name = if text_only then "store.patch_text" else "store.patch_shape" in
          (match span_ ~parent ~rid name (fun () -> Store.patch c.store ~digest:d req.P.edits) with
          | Ok d' -> append c ~rid ~parent (Wal.Patch (d, req.P.edits)) d'
          | Error _ -> ()))
  | P.Verdict -> (
      let c = Option.get ch in
      match req.P.digest with
      | None -> ()
      | Some d -> (
          ignore (span_ ~parent ~rid "store.verdict" (fun () -> Store.verdict c.store ~digest:d));
          (* The store memoises root confidence; timing it from scratch
             on a sample of verdicts is enough to show its cost. *)
          match Store.case c.store d with
          | Some s when !confidence_samples < 20 ->
              incr confidence_samples;
              ignore
                (span_ ~parent:(-1) ~rid "confidence.root" (fun () ->
                     Argus_confidence.Confidence.root_confidence ~trust:Store.default_trust s))
          | _ -> ()))
  | P.Health | P.Stats -> ()

(* Replay one request line: decode, handle, encode, then the handler's
   calls one by one.  [handler] is the same function the server's
   workers run; the answer is returned as the server would send it,
   without its newline. *)
let replay ?child ~handler ~op line =
  let rid = Option.value ~default:"" (string_field line "id") in
  span ~rid ("replay." ^ op) (fun root ->
      let req =
        match span_ ~parent:root ~rid "protocol.decode" (fun () -> P.request_of_line line) with
        | Ok req -> req
        | Error e -> die "replay: %s" e
      in
      note "protocol.decode" 0. (String.length line);
      let resp, hid = span ~parent:root ~rid ("handlers." ^ op) (fun h -> (handler req, h)) in
      let line =
        span_ ~parent:root ~rid "protocol.encode" (fun () ->
            P.response_to_line (P.with_trace_id req.P.trace_id resp))
      in
      decompose ?child ~parent:hid req;
      String.sub line 0 (String.length line - 1))

(* --- reporting ---------------------------------------------------------- *)

let ops = [ "check"; "fallacies"; "prove"; "probe"; "put"; "patch"; "verdict" ]

let ns_per name ?(pick = fun _ -> true) () =
  let xs = List.filter (fun (n, _, k) -> n = name && k > 0 && pick k) !per_node in
  match xs with
  | [] -> 0.
  | _ -> sum (List.map (fun (_, s, _) -> s) xs) /. float_of_int (List.fold_left (fun a (_, _, k) -> a + k) 0 xs) *. 1e9

(* The per-layer metrics of one traced run.  [rqs] are the timed
   requests, [windows] the server stats around each stretch of it. *)
let report ~layer ~(rqs : Drive.rq list) ~windows ~cpu_s ~elapsed ~lag99 ~table =
  let rtt (q : Drive.rq) = (q.Drive.recv -. q.Drive.sent) *. 1e6 in
  let ok = List.filter Drive.succeeded rqs in
  let rtts = List.map rtt ok in
  layer "client.rtt_mean_us" (mean rtts) "us";
  layer "client.rtt_p50_us" (median rtts) "us";
  layer "client.rtt_p99_us" (quantile 0.99 rtts) "us";
  layer "client.send_lag_p99_ms" lag99 "ms";
  layer "client.retries" 0. "count";
  layer "client.stale_pooled" 0. "count";
  layer "protocol.decode_us" (mean_us "protocol.decode") "us";
  layer "protocol.decode_ns_per_byte" (total_s "protocol.decode" /. float_of_int (max 1 (List.fold_left (fun a (n, _, k) -> if n = "protocol.decode" then a + k else a) 0 !per_node)) *. 1e9) "ns";
  layer "protocol.encode_us" (mean_us "protocol.encode") "us";
  (* Per-op breakdown of the mean round trip: wire (client RTT minus
     admission-to-reply), queue wait (admission-to-reply minus the
     replayed handler), handler child spans and handler self time. *)
  let agg = Array.make 5 0. and agg_n = ref 0. in
  List.iter
    (fun op ->
      let mine = List.filter (fun (q : Drive.rq) -> q.Drive.op = op) ok in
      let n, sum_ms = handled windows op in
      if mine <> [] && n > 0. then begin
        let rtt_us = mean (List.map rtt mine) and handle_us = sum_ms /. n *. 1000. in
        let handler_us = mean_us ("handlers." ^ op) and self = self_us ("handlers." ^ op) in
        let parts = [| rtt_us; rtt_us -. handle_us; handle_us -. handler_us; handler_us -. self; self |] in
        List.iteri
          (fun i k -> table (Printf.sprintf "breakdown.%s.%s_us" op k) parts.(i) "us")
          [ "rtt"; "wire"; "queue_wait"; "children"; "self" ];
        let w = float_of_int (List.length mine) in
        Array.iteri (fun i v -> agg.(i) <- agg.(i) +. (w *. v)) parts;
        agg_n := !agg_n +. w
      end;
      layer (Printf.sprintf "handlers.%s_us" op) (mean_us ("handlers." ^ op)) "us")
    ops;
  let avg i = if !agg_n > 0. then agg.(i) /. !agg_n else 0. in
  let total_n, total_ms = List.fold_left (fun (n, s) op -> let n', s' = handled windows op in (n +. n', s +. s')) (0., 0.) ops in
  layer "server.handle_mean_us" (if total_n > 0. then total_ms /. total_n *. 1000. else 0.) "us";
  layer "server.wire_mean_us" (avg 1) "us";
  layer "server.queue_wait_mean_us" (avg 2) "us";
  layer "handlers.children_us" (avg 3) "us";
  layer "handlers.self_us" (avg 4) "us";
  layer "server.queue_depth_max"
    (float_of_int
       (List.fold_left (fun m (_, b) -> max m (Option.value ~default:0 (List.assoc_opt "svc.queue_depth" b.gauge_max))) 0 windows))
    "count";
  layer "server.shed" (float_of_int (counter_delta windows "svc.shed")) "count";
  layer "server.restarts" (float_of_int (counter_delta windows "svc.restarts")) "count";
  layer "server.cpu_ms_per_op" (cpu_s *. 1000. /. float_of_int (max 1 (List.length rqs))) "ms";
  layer "server.cpu_util" (cpu_s /. elapsed) "ratio";
  layer "dsl.parse_us" (mean_us "dsl.parse") "us";
  layer "dsl.parse_ns_per_node.small" (ns_per "dsl.parse" ~pick:(fun k -> k < 500) ()) "ns";
  layer "dsl.parse_ns_per_node.large" (ns_per "dsl.parse" ~pick:(fun k -> k > 2000) ()) "ns";
  layer "ir.intern_us" (mean_us "ir.intern") "us";
  layer "ir.intern_ns_per_node" (ns_per "ir.intern" ()) "ns";
  layer "ir.fused_check_us" (mean_us "ir.fused_check") "us";
  layer "ir.fused_ns_per_node" (ns_per "ir.fused_check" ()) "ns";
  layer "ir.check_modular_us" (mean_us "ir.check_modular") "us";
  layer "fallacy.lint_us" (mean_us "fallacy.lint") "us";
  layer "prolog.prove_us" (mean_us "prolog.prove") "us";
  let tries = List.filter_map (fun (n, _, k) -> if n = "prolog.clause_tries" then Some (float_of_int k) else None) !per_node in
  layer "prolog.clause_tries_per_req" (match tries with [] -> 0. | _ -> mean tries) "count";
  layer "logic.natded_us" (mean_us "logic.natded") "us";
  layer "confidence.probe_us" (mean_us "confidence.probe") "us";
  layer "confidence.root_us" (mean_us "confidence.root") "us";
  layer "store.digest_us" (mean_us "store.digest") "us";
  layer "store.digest_ns_per_node" (ns_per "store.digest" ()) "ns";
  layer "store.put_us" (mean_us "store.put") "us";
  layer "store.patch_text_us" (mean_us "store.patch_text") "us";
  layer "store.patch_shape_us" (mean_us "store.patch_shape") "us";
  layer "store.verdict_us" (mean_us "store.verdict") "us";
  let patches = float_of_int (List.length (List.filter (fun (q : Drive.rq) -> q.Drive.op = "patch") ok)) in
  let dirty = float_of_int (counter_delta windows "store.dirty_cone")
  and reused = float_of_int (counter_delta windows "store.reused_verdicts") in
  layer "store.dirty_cone_per_patch" (if patches > 0. then dirty /. patches else 0.) "count";
  layer "store.memo_reuse_ratio" (if reused +. dirty > 0. then reused /. (reused +. dirty) else 0.) "ratio";
  let put_nodes = float_of_int (List.fold_left (fun a (q : Drive.rq) -> if q.Drive.op = "put" then a + q.Drive.nodes else a) 0 ok) in
  layer "store.node_hits" (float_of_int (counter_delta windows "store.node_hits")) "count";
  layer "store.node_hits_per_put_node" (if put_nodes > 0. then float_of_int (counter_delta windows "store.node_hits") /. put_nodes else 0.) "ratio";
  let verdicts = List.filter (fun (q : Drive.rq) -> q.Drive.op = "verdict") ok in
  layer "store.from_memo_ratio"
    (match verdicts with
    | [] -> 0.
    | _ ->
        float_of_int (List.length (List.filter (fun (q : Drive.rq) -> contains q.Drive.resp {|"from_memo":true|}) verdicts))
        /. float_of_int (List.length verdicts))
    "ratio";
  layer "wal.append_us" (mean_us "wal.append") "us";
  layer "wal.fsyncs" (float_of_int (counter_delta windows "store.wal_fsyncs")) "count";
  layer "snapshot.count" (float_of_int (counter_delta windows "store.snapshots")) "count"
