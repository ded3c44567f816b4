module Obs = Argus_obs.Obs
module Span = Argus_obs.Span
module Counter = Argus_obs.Counter
module Histogram = Argus_obs.Histogram
module Metrics = Argus_obs.Metrics
module Gauge = Argus_obs.Metrics.Gauge
module Ring = Argus_obs.Ring
module Prom = Argus_obs.Prom
module Trace = Argus_obs.Trace
module Json = Argus_core.Json
module Clock = Argus_core.Clock

(* Every test starts from a clean slate: spans recording, data empty. *)
let fresh () =
  Obs.reset ();
  Span.set_enabled true

(* --- spans --- *)

let test_span_nesting () =
  fresh ();
  Span.with_ ~name:"outer" (fun () ->
      Span.with_ ~name:"first" (fun () -> ());
      Span.with_ ~name:"second" (fun () ->
          Span.with_ ~name:"inner" (fun () -> ())));
  Span.with_ ~name:"sibling" (fun () -> ());
  match Span.roots () with
  | [ outer; sibling ] ->
      Alcotest.(check string) "root order" "outer" outer.Span.name;
      Alcotest.(check string) "second root" "sibling" sibling.Span.name;
      Alcotest.(check (list string))
        "children in call order"
        [ "first"; "second" ]
        (List.map (fun s -> s.Span.name) outer.Span.children);
      let second = List.nth outer.Span.children 1 in
      Alcotest.(check (list string))
        "grandchild" [ "inner" ]
        (List.map (fun s -> s.Span.name) second.Span.children)
  | roots ->
      Alcotest.failf "expected 2 roots, got %d" (List.length roots)

let test_span_duration_contains_children () =
  fresh ();
  Clock.with_fake (fun () ->
      Span.with_ ~name:"outer" (fun () ->
          Clock.sleep_ms 1.;
          Span.with_ ~name:"inner" (fun () -> Clock.sleep_ms 2.)));
  match Span.roots () with
  | [ outer ] ->
      let inner = List.hd outer.Span.children in
      Alcotest.(check int) "inner lasts its 2 ms" 2_000_000 inner.Span.dur_ns;
      Alcotest.(check int) "outer covers inner" 3_000_000 outer.Span.dur_ns;
      Alcotest.(check int) "inner starts 1 ms in" 1_000_000
        (inner.Span.start_ns - outer.Span.start_ns)
  | _ -> Alcotest.fail "expected one root"

let test_span_disabled_is_transparent () =
  Obs.reset ();
  Span.set_enabled false;
  let r = Span.with_ ~name:"ghost" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.roots ()))

let test_span_exception_safety () =
  fresh ();
  (try
     Span.with_ ~name:"outer" (fun () ->
         Span.with_ ~name:"boom" (fun () -> failwith "boom"))
   with Failure _ -> ());
  (match Span.roots () with
  | [ outer ] ->
      Alcotest.(check string) "outer recorded" "outer" outer.Span.name;
      Alcotest.(check (list string))
        "failing child recorded" [ "boom" ]
        (List.map (fun s -> s.Span.name) outer.Span.children)
  | _ -> Alcotest.fail "expected one root");
  (* The stack unwound: a new span is a fresh root, not a child. *)
  Span.with_ ~name:"after" (fun () -> ());
  Alcotest.(check int) "stack balanced" 2 (List.length (Span.roots ()))

(* --- counters and histograms --- *)

let test_counter_aggregation () =
  fresh ();
  let c = Counter.make "test.counter" in
  let c' = Counter.make "test.counter" in
  Counter.incr c;
  Counter.add c' 4;
  Alcotest.(check int) "same counter via name" 5 (Counter.value c);
  Alcotest.(check (option int))
    "visible in snapshot" (Some 5)
    (List.assoc_opt "test.counter" (Metrics.counters ()))

let test_histogram_aggregation () =
  fresh ();
  let h = Histogram.make "test.histogram" in
  List.iter (Histogram.observe h) [ 4.0; 1.0; 3.0; 2.0 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  let stats = List.assoc "test.histogram" (Metrics.histograms ()) in
  Alcotest.(check (float 1e-9)) "sum" 10.0 stats.Metrics.hsum;
  Alcotest.(check (float 1e-9)) "min" 1.0 stats.Metrics.hmin;
  Alcotest.(check (float 1e-9)) "max" 4.0 stats.Metrics.hmax;
  Alcotest.(check (float 1e-9)) "mean" 2.5 stats.Metrics.hmean;
  Alcotest.(check bool)
    "median within range" true
    (stats.Metrics.hp50 >= 1.0 && stats.Metrics.hp50 <= 4.0)

let test_reset_between_runs () =
  fresh ();
  let c = Counter.make "test.reset" in
  Counter.add c 7;
  let h = Histogram.make "test.reset.h" in
  Histogram.observe h 1.0;
  Span.with_ ~name:"gone" (fun () -> ());
  Obs.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Counter.value c);
  Alcotest.(check int) "histogram emptied" 0 (Histogram.count h);
  Alcotest.(check int) "spans dropped" 0 (List.length (Span.roots ()));
  Alcotest.(check int)
    "empty histograms hidden" 0
    (List.length (Metrics.histograms ()))

let test_histogram_quantiles () =
  fresh ();
  let h = Histogram.make "test.quantiles" in
  for i = 1 to 1000 do
    Histogram.observe h (float_of_int i /. 100.0)
  done;
  let stats = List.assoc "test.quantiles" (Metrics.histograms ()) in
  (* Uniform 0.01..10.00: the quantiles are bucket interpolations, so
     allow the coarseness of log-spaced buckets (factor 2). *)
  Alcotest.(check bool)
    "p50 near the middle" true
    (stats.Metrics.hp50 > 2.5 && stats.Metrics.hp50 < 10.0);
  Alcotest.(check bool)
    "quantiles ordered" true
    (stats.Metrics.hp50 <= stats.Metrics.hp90
    && stats.Metrics.hp90 <= stats.Metrics.hp99);
  Alcotest.(check bool)
    "p99 clamped to observed max" true
    (stats.Metrics.hp99 <= stats.Metrics.hmax +. 1e-9)

let test_bucket_bounds_shape () =
  let bounds = Metrics.bucket_bounds () in
  Alcotest.(check bool) "has bounds" true (Array.length bounds > 2);
  Array.iteri
    (fun i b ->
      if i > 0 then
        Alcotest.(check bool) "strictly increasing" true (b > bounds.(i - 1)))
    bounds

let test_gauge_reset () =
  fresh ();
  let g = Gauge.make "test.gauge" in
  Gauge.set g 5;
  Gauge.set g 9;
  Gauge.set g 2;
  Alcotest.(check int) "value is last set" 2 (Gauge.value g);
  Alcotest.(check int) "max is high-watermark" 9 (Gauge.max_value g);
  Alcotest.(check (option (pair int int)))
    "snapshot carries (value, max)"
    (Some (2, 9))
    (List.assoc_opt "test.gauge" (Metrics.gauges ()));
  Obs.reset ();
  Alcotest.(check int) "value zeroed" 0 (Gauge.value g);
  Alcotest.(check int) "watermark zeroed" 0 (Gauge.max_value g)

(* --- flight-recorder ring --- *)

let test_ring_wrap_keeps_newest () =
  fresh ();
  let r = Ring.make ~name:"test.ring" ~capacity:4 in
  for i = 1 to 10 do
    Ring.record ~ts_ms:(float_of_int i) r ~kind:"tick"
      [ ("i", Json.int i) ]
  done;
  Alcotest.(check int) "total recorded" 10 (Ring.recorded r);
  let kept =
    List.map
      (fun (ev : Ring.event) ->
        match List.assoc "i" ev.Ring.fields with
        | Json.Num n -> int_of_float n
        | _ -> -1)
      (Ring.events r)
  in
  Alcotest.(check (list int)) "newest 4, oldest first" [ 7; 8; 9; 10 ] kept

let test_ring_reset_all () =
  fresh ();
  let r = Ring.make ~name:"test.ring.reset" ~capacity:8 in
  Ring.record r ~kind:"x" [];
  Obs.reset ();
  Alcotest.(check int) "ring cleared by Obs.reset" 0
    (List.length (Ring.events r));
  Alcotest.(check int) "recorded count rewound" 0 (Ring.recorded r)

let test_ring_event_json () =
  fresh ();
  let r = Ring.make ~name:"test.ring.json" ~capacity:2 in
  Ring.record ~ts_ms:1234.5 r ~kind:"shed" [ ("op", Json.Str "check") ];
  match Ring.to_jsonl r with
  | [ ev ] ->
      Alcotest.(check (option string))
        "tagged as flight" (Some "flight")
        (match Json.member "type" ev with
        | Some (Json.Str s) -> Some s
        | _ -> None);
      Alcotest.(check (option string))
        "kind survives" (Some "shed")
        (match Json.member "kind" ev with
        | Some (Json.Str s) -> Some s
        | _ -> None);
      Alcotest.(check bool) "fields spliced in" true
        (Json.member "op" ev = Some (Json.Str "check"))
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_ring_concurrent_records () =
  fresh ();
  let r = Ring.make ~name:"test.ring.domains" ~capacity:64 in
  let n_domains = 4 and per_domain = 5_000 in
  let workers =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Ring.record r ~kind:"w" []
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int)
    "no lost records"
    (n_domains * per_domain)
    (Ring.recorded r);
  Alcotest.(check int) "ring holds capacity" 64 (List.length (Ring.events r))

(* --- Prometheus exposition --- *)

let test_prom_metric_name () =
  Alcotest.(check string)
    "dots to underscores with prefix" "argus_svc_queue_depth"
    (Prom.metric_name "svc.queue-depth")

let test_prom_render () =
  fresh ();
  Counter.add (Counter.make "test.prom.counter") 3;
  Gauge.set (Gauge.make "test.prom.gauge") 7;
  Histogram.observe (Histogram.make "test.prom.h") 0.5;
  let page = Prom.render () in
  let has needle =
    let n = String.length needle and m = String.length page in
    let rec at i = i + n <= m && (String.sub page i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "counter sample" true
    (has "argus_test_prom_counter 3");
  Alcotest.(check bool) "gauge sample" true (has "argus_test_prom_gauge 7");
  Alcotest.(check bool) "gauge watermark" true
    (has "argus_test_prom_gauge_max 7");
  Alcotest.(check bool) "histogram count" true
    (has "argus_test_prom_h_count 1");
  Alcotest.(check bool) "cumulative +Inf bucket" true
    (has "le=\"+Inf\"} 1");
  Alcotest.(check bool) "type comments" true (has "# TYPE")

(* --- domain safety: counters, histograms and spans written from
   worker domains must merge exactly --- *)

let test_counter_concurrent_merge () =
  fresh ();
  let c = Counter.make "test.domains.counter" in
  let n_domains = 4 and per_domain = 50_000 in
  let workers =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Counter.incr c
            done))
  in
  Counter.add c 3;
  List.iter Domain.join workers;
  Alcotest.(check int)
    "no lost increments"
    ((n_domains * per_domain) + 3)
    (Counter.value c)

let test_histogram_concurrent_merge () =
  fresh ();
  let h = Histogram.make "test.domains.histogram" in
  let n_domains = 4 and per_domain = 10_000 in
  let workers =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Histogram.observe h (float_of_int ((d * per_domain) + i))
            done))
  in
  List.iter Domain.join workers;
  let stats = List.assoc "test.domains.histogram" (Metrics.histograms ()) in
  let n = n_domains * per_domain in
  Alcotest.(check int) "count merged" n (Histogram.count h);
  Alcotest.(check (float 1e-3))
    "sum merged"
    (float_of_int (n * (n + 1)) /. 2.0)
    stats.Metrics.hsum;
  Alcotest.(check (float 1e-9)) "min across domains" 1.0 stats.Metrics.hmin;
  Alcotest.(check (float 1e-9))
    "max across domains" (float_of_int n) stats.Metrics.hmax

let test_spans_from_worker_domains () =
  fresh ();
  Span.with_ ~name:"main" (fun () -> ());
  let workers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            Span.with_
              ~name:(Printf.sprintf "worker%d" d)
              (fun () -> Span.with_ ~name:"child" (fun () -> ()))))
  in
  List.iter Domain.join workers;
  let roots = Span.roots () in
  let names = List.map (fun s -> s.Span.name) roots in
  Alcotest.(check int) "three roots survive the join" 3 (List.length roots);
  Alcotest.(check string) "main domain's span first" "main" (List.hd names);
  Alcotest.(check bool)
    "worker spans present" true
    (List.mem "worker0" names && List.mem "worker1" names);
  List.iter
    (fun s ->
      if s.Span.name <> "main" then
        Alcotest.(check (list string))
          "worker span keeps its children" [ "child" ]
          (List.map (fun c -> c.Span.name) s.Span.children))
    roots

(* --- request-scoped capture --- *)

let test_capture_returns_tree () =
  Obs.reset ();
  Span.set_enabled false;
  let v, tree =
    Span.capture ~name:"req" (fun () ->
        Span.with_ ~name:"step1" (fun () -> ());
        Span.with_ ~name:"step2" (fun () ->
            Span.with_ ~name:"leaf" (fun () -> ()));
        17)
  in
  Alcotest.(check int) "value passes through" 17 v;
  Alcotest.(check string) "root named" "req" tree.Span.name;
  Alcotest.(check (list string))
    "children in call order" [ "step1"; "step2" ]
    (List.map (fun s -> s.Span.name) tree.Span.children);
  Alcotest.(check bool) "durations recorded" true (tree.Span.dur_ns >= 0);
  (* Capture is private: nothing leaked into the global trace. *)
  Alcotest.(check int) "globally invisible" 0 (List.length (Span.roots ()))

let test_capture_restores_ambient_recording () =
  fresh ();
  Span.with_ ~name:"before" (fun () -> ());
  let (), _tree = Span.capture ~name:"req" (fun () ->
      Span.with_ ~name:"inside" (fun () -> ()))
  in
  Span.with_ ~name:"after" (fun () -> ());
  Alcotest.(check (list string))
    "ambient trace untouched by capture" [ "before"; "after" ]
    (List.map (fun s -> s.Span.name) (Span.roots ()))

let test_capture_exception_restores () =
  Obs.reset ();
  Span.set_enabled false;
  (try
     ignore (Span.capture ~name:"req" (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* A later capture still works and the fast path is re-armed. *)
  let v, tree = Span.capture ~name:"again" (fun () -> 1) in
  Alcotest.(check int) "later capture works" 1 v;
  Alcotest.(check string) "later tree named" "again" tree.Span.name;
  Span.with_ ~name:"ghost" (fun () -> ());
  Alcotest.(check int)
    "disabled fast path back in force" 0
    (List.length (Span.roots ()))

let test_span_domain_ids () =
  fresh ();
  Span.with_ ~name:"main" (fun () -> ());
  let w =
    Domain.spawn (fun () ->
        Span.with_ ~name:"worker" (fun () -> ());
        (Domain.self () :> int))
  in
  let worker_id = Domain.join w in
  let find name =
    List.find (fun s -> s.Span.name = name) (Span.roots ())
  in
  Alcotest.(check int)
    "main span tagged with main domain"
    (Domain.self () :> int)
    (find "main").Span.domain;
  Alcotest.(check int)
    "worker span tagged with its domain" worker_id (find "worker").Span.domain;
  (* The jsonl view carries the id too. *)
  let domain_of name =
    List.find_map
      (fun ev ->
        match (Json.member "name" ev, Json.member "domain" ev) with
        | Some (Json.Str n), Some (Json.Num d) when n = name ->
            Some (int_of_float d)
        | _ -> None)
      (Trace.jsonl_events ())
  in
  Alcotest.(check (option int))
    "jsonl domain field" (Some worker_id) (domain_of "worker")

let test_span_json_round_trip () =
  Obs.reset ();
  Span.set_enabled false;
  let _, tree =
    Span.capture ~name:"req" (fun () ->
        Span.with_ ~name:"a" (fun () -> Span.with_ ~name:"b" (fun () -> ())))
  in
  let json = Trace.span_to_json tree in
  match Trace.span_of_json json with
  | None -> Alcotest.fail "span_of_json rejected its own output"
  | Some back ->
      Alcotest.(check string) "name survives" tree.Span.name back.Span.name;
      Alcotest.(check int) "domain survives" tree.Span.domain back.Span.domain;
      Alcotest.(check int)
        "children survive"
        (List.length tree.Span.children)
        (List.length back.Span.children);
      let a = List.hd back.Span.children in
      Alcotest.(check (list string))
        "grandchildren survive" [ "b" ]
        (List.map (fun s -> s.Span.name) a.Span.children);
      (* Tolerance: unknown fields ignored, missing numerics default. *)
      (match Trace.span_of_json (Json.Obj [ ("name", Json.Str "bare"); ("extra", Json.Bool true) ]) with
      | Some s ->
          Alcotest.(check string) "bare name accepted" "bare" s.Span.name;
          Alcotest.(check int) "missing dur defaults" 0 s.Span.dur_ns
      | None -> Alcotest.fail "tolerant parse failed");
      Alcotest.(check (option string))
        "nameless span rejected" None
        (Option.map
           (fun (s : Span.t) -> s.Span.name)
           (Trace.span_of_json (Json.Obj [ ("dur_ns", Json.int 3) ])))

(* --- JSONL --- *)

let test_jsonl_round_trip () =
  fresh ();
  Counter.add (Counter.make "test.jsonl.counter") 3;
  Histogram.observe (Histogram.make "test.jsonl.h") 2.5;
  Span.with_ ~name:"a" (fun () -> Span.with_ ~name:"b" (fun () -> ()));
  let events = Trace.jsonl_events () in
  Alcotest.(check bool) "has events" true (List.length events > 3);
  List.iter
    (fun ev ->
      let line = Json.to_string ev in
      match Json.of_string line with
      | Ok parsed ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trips: %s" line)
            true (Json.equal ev parsed)
      | Error e -> Alcotest.failf "unparseable line %s: %s" line e)
    events;
  (* The span events carry depths reflecting the tree. *)
  let depth_of name =
    List.find_map
      (fun ev ->
        match (Json.member "name" ev, Json.member "depth" ev) with
        | Some (Json.Str n), Some (Json.Num d) when n = name ->
            Some (int_of_float d)
        | _ -> None)
      events
  in
  Alcotest.(check (option int)) "root depth" (Some 0) (depth_of "a");
  Alcotest.(check (option int)) "child depth" (Some 1) (depth_of "b")

let test_metrics_to_json_parses () =
  fresh ();
  Counter.incr (Counter.make "test.json.counter");
  let s = Json.to_string ~indent:true (Metrics.to_json ()) in
  match Json.of_string s with
  | Ok (Json.Obj fields) ->
      Alcotest.(check bool)
        "has counters" true
        (List.mem_assoc "counters" fields)
  | Ok _ -> Alcotest.fail "expected an object"
  | Error e -> Alcotest.failf "unparseable: %s" e

let () =
  (* Leave global state clean for any test that runs after us. *)
  at_exit (fun () ->
      Obs.reset ();
      Span.set_enabled false);
  Alcotest.run "argus-obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "durations nest" `Quick
            test_span_duration_contains_children;
          Alcotest.test_case "disabled is transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter aggregation" `Quick
            test_counter_aggregation;
          Alcotest.test_case "histogram aggregation" `Quick
            test_histogram_aggregation;
          Alcotest.test_case "reset between runs" `Quick
            test_reset_between_runs;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "bucket bounds shape" `Quick
            test_bucket_bounds_shape;
          Alcotest.test_case "gauge watermark and reset" `Quick
            test_gauge_reset;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wrap keeps newest" `Quick
            test_ring_wrap_keeps_newest;
          Alcotest.test_case "Obs.reset clears rings" `Quick
            test_ring_reset_all;
          Alcotest.test_case "event json shape" `Quick test_ring_event_json;
          Alcotest.test_case "concurrent records" `Quick
            test_ring_concurrent_records;
        ] );
      ( "prom",
        [
          Alcotest.test_case "metric name mapping" `Quick
            test_prom_metric_name;
          Alcotest.test_case "render exposition page" `Quick test_prom_render;
        ] );
      ( "capture",
        [
          Alcotest.test_case "returns value and tree" `Quick
            test_capture_returns_tree;
          Alcotest.test_case "restores ambient recording" `Quick
            test_capture_restores_ambient_recording;
          Alcotest.test_case "exception-safe restore" `Quick
            test_capture_exception_restores;
          Alcotest.test_case "span domain ids" `Quick test_span_domain_ids;
          Alcotest.test_case "span json round-trip" `Quick
            test_span_json_round_trip;
        ] );
      ( "domains",
        [
          Alcotest.test_case "counter merge is exact" `Quick
            test_counter_concurrent_merge;
          Alcotest.test_case "histogram merge is exact" `Quick
            test_histogram_concurrent_merge;
          Alcotest.test_case "worker spans survive join" `Quick
            test_spans_from_worker_domains;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "metrics json parses" `Quick
            test_metrics_to_json_parses;
        ] );
    ]
