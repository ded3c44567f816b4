(* Regression gate over two bench runs.

   Usage: compare.exe BASELINE.json CURRENT.json [--threshold PCT]
                      [--require-improved KERNEL]...
                      [--require-speedup SLOW:FAST:RATIO]...
          compare.exe --summary RESULTS.json

   [--require-improved KERNEL] (repeatable) inverts the gate for that
   kernel: the run fails unless KERNEL is present in both files and
   strictly faster than baseline.  This pins a PR's headline
   optimisation — a later change that quietly gives the win back fails
   CI even though it would pass the regression threshold.

   [--require-speedup SLOW:FAST:RATIO] (repeatable) gates a ratio
   WITHIN the current run: the run fails unless both kernels are
   present in CURRENT.json and SLOW is at least RATIO times slower
   than FAST.  Where --require-improved pins a win against history,
   this pins a structural invariant of one run — e.g. that an
   incremental store edit stays two orders of magnitude under the full
   re-check it replaces — so it holds even when the baseline predates
   the kernels or the host changes speed.

   Reads the "timings_ns_per_run" table of each argus-bench/1 results
   file, prints a per-kernel delta table, and exits non-zero when any
   kernel present in both runs is slower than baseline * (1 + PCT/100).
   Default threshold: 25%.  Kernels present in only one file are
   reported but never fail the gate (benchmarks come and go across
   PRs); I/O or parse problems exit with status 2.

   Kernels whose name contains "svc-", "par-", "store-wal" or
   "store-recover" are advisory: the first time a request round-trip
   over a real Unix socket, the second fan work across OCaml domains,
   and the store durability pair append to and replay real files — all
   dominated by scheduling or filesystem latency rather than CPU work,
   far too wall-clock-bound to gate on (on shared hardware the par-
   scaling kernels swing ±30% run to run, and a WAL append's cost is
   mostly the page cache's mood).  Their deltas are printed (and the
   baseline records them for trajectory tracking) but they never fail
   the gate.

   The service round-trip latency quantiles recorded by the bench's
   [bench.svc-*] histograms are printed as a second advisory section,
   including the traced-vs-untraced overhead of arming request-scoped
   telemetry; [--summary] prints just that section for one results
   file (the CI job log echo). *)

module Json = Argus_core.Json

let fail fmt =
  Format.kasprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let read_timings path =
  let text =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> fail "%s" msg
  in
  match Json.of_string text with
  | Error msg -> fail "%s: %s" path msg
  | Ok json -> (
      match Json.member "timings_ns_per_run" json with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) ->
              match v with Json.Num ns -> Some (k, ns) | _ -> None)
            kvs
      | _ -> fail "%s: no timings_ns_per_run object" path)

(* The [bench.svc-*] histograms of a results file: client-observed
   round-trip milliseconds per service kernel. *)
let read_service_histograms path =
  let text =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> fail "%s" msg
  in
  match Json.of_string text with
  | Error msg -> fail "%s: %s" path msg
  | Ok json -> (
      match
        Option.bind
          (Json.member "metrics" json)
          (Json.member "histograms")
      with
      | Some (Json.Obj kvs) ->
          List.filter
            (fun (name, _) -> String.starts_with ~prefix:"bench.svc-" name)
            kvs
      | _ -> [])

let hfield stats k =
  match Json.member k stats with Some (Json.Num n) -> Some n | _ -> None

let print_service_quantiles path =
  match read_service_histograms path with
  | [] -> ()
  | hs ->
      Format.printf "@.service round-trip latency (ms, client-observed):@.";
      Format.printf "%-34s %8s %9s %9s %9s %9s@." "kernel" "count" "p50"
        "p90" "p99" "max";
      List.iter
        (fun (name, stats) ->
          let f k = Option.value (hfield stats k) ~default:0. in
          Format.printf "%-34s %8.0f %9.3f %9.3f %9.3f %9.3f@." name
            (f "count") (f "p50") (f "p90") (f "p99") (f "max"))
        hs;
      (match
         ( List.assoc_opt "bench.svc-roundtrip" hs,
           List.assoc_opt "bench.svc-roundtrip-traced" hs )
       with
      | Some plain, Some traced -> (
          match (hfield plain "mean", hfield traced "mean") with
          | Some p, Some t when p > 0. ->
              let pct = (t -. p) /. p *. 100. in
              Format.printf
                "opt-in wire tracing cost: %+.1f%% mean round-trip (full \
                 span capture + tree on the wire)@."
                pct
          | _ -> ())
      | _ -> ())

let () =
  let rec parse paths threshold summary required speedups = function
    | [] -> (List.rev paths, threshold, summary, List.rev required,
             List.rev speedups)
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t -> parse paths t summary required speedups rest
        | None -> fail "--threshold expects a number, got %S" v)
    | "--summary" :: rest -> parse paths threshold true required speedups rest
    | "--require-improved" :: name :: rest ->
        parse paths threshold summary (name :: required) speedups rest
    | "--require-speedup" :: spec :: rest -> (
        match String.split_on_char ':' spec with
        | [ slow; fast; ratio ] -> (
            match float_of_string_opt ratio with
            | Some r when r > 0. ->
                parse paths threshold summary required
                  ((slow, fast, r) :: speedups)
                  rest
            | _ -> fail "--require-speedup: bad ratio in %S" spec)
        | _ -> fail "--require-speedup expects SLOW:FAST:RATIO, got %S" spec)
    | a :: rest -> parse (a :: paths) threshold summary required speedups rest
  in
  let paths, threshold, summary, required, speedups =
    parse [] 25.0 false [] [] (List.tl (Array.to_list Sys.argv))
  in
  if summary then begin
    match paths with
    | [ path ] ->
        print_service_quantiles path;
        exit 0
    | _ -> fail "usage: compare.exe --summary RESULTS.json"
  end;
  match paths with
  | [ baseline_path; current_path ] ->
      let baseline = read_timings baseline_path
      and current = read_timings current_path in
      Format.printf "%-34s %14s %14s %9s@." "kernel" "baseline ns"
        "current ns" "delta";
      let regressions = ref [] in
      List.iter
        (fun (name, cur) ->
          match List.assoc_opt name baseline with
          | None -> Format.printf "%-34s %14s %14.0f %9s@." name "-" cur "new"
          | Some base ->
              let advisory =
                (* e.g. "argus/svc-roundtrip", "argus/par-exp-b" *)
                let contains sub =
                  let n = String.length name and m = String.length sub in
                  let rec at i =
                    i + m <= n && (String.sub name i m = sub || at (i + 1))
                  in
                  at 0
                in
                contains "svc-" || contains "par-"
                || contains "store-wal" || contains "store-recover"
              in
              let pct = (cur -. base) /. base *. 100. in
              let flag =
                if pct > threshold && advisory then "  (advisory)"
                else if pct > threshold then begin
                  regressions := (name, pct) :: !regressions;
                  "  << REGRESSED"
                end
                else ""
              in
              Format.printf "%-34s %14.0f %14.0f %+8.1f%%%s@." name base cur
                pct flag)
        current;
      List.iter
        (fun (name, base) ->
          if not (List.mem_assoc name current) then
            Format.printf "%-34s %14.0f %14s %9s@." name base "-" "gone")
        baseline;
      print_service_quantiles current_path;
      let unimproved =
        List.filter_map
          (fun name ->
            match
              (List.assoc_opt name baseline, List.assoc_opt name current)
            with
            | Some base, Some cur when cur < base ->
                Format.printf
                  "required improvement held: %s (%.0f -> %.0f ns, %.1fx)@."
                  name base cur (base /. cur);
                None
            | Some base, Some cur ->
                Some
                  (Format.asprintf "%s did not improve (%.0f -> %.0f ns)" name
                     base cur)
            | _ -> Some (name ^ " missing from baseline or current run"))
          required
      in
      (* Ratios under 10 keep two decimals: a gate may bound a kernel
         to a fraction of its yardstick's time. *)
      let times digits r =
        Printf.sprintf "%.*fx" (if r >= 10. then digits else 2) r
      in
      let unheld_speedups =
        List.filter_map
          (fun (slow, fast, ratio) ->
            match
              (List.assoc_opt slow current, List.assoc_opt fast current)
            with
            | Some s, Some f when f > 0. ->
                let got = s /. f in
                if got >= ratio then begin
                  Format.printf
                    "required speedup held: %s runs %s under %s (need %s)@."
                    fast (times 0 got) slow (times 0 ratio);
                  None
                end
                else
                  Some
                    (Format.asprintf "%s is only %s faster than %s (need %s)"
                       fast (times 1 got) slow (times 0 ratio))
            | _ ->
                Some
                  (Format.asprintf "%s or %s missing from current run" slow
                     fast))
          speedups
      in
      let failed = ref false in
      (match List.rev !regressions with
      | [] ->
          Format.printf "@.no kernel regressed more than %g%%@." threshold
      | rs ->
          Format.printf "@.%d kernel(s) regressed more than %g%%:@."
            (List.length rs) threshold;
          List.iter
            (fun (name, pct) -> Format.printf "  %s (+%.1f%%)@." name pct)
            rs;
          failed := true);
      (match unimproved with
      | [] -> ()
      | msgs ->
          Format.printf "@.%d required improvement(s) not held:@."
            (List.length msgs);
          List.iter (fun m -> Format.printf "  %s@." m) msgs;
          failed := true);
      (match unheld_speedups with
      | [] -> ()
      | msgs ->
          Format.printf "@.%d required speedup(s) not held:@."
            (List.length msgs);
          List.iter (fun m -> Format.printf "  %s@." m) msgs;
          failed := true);
      if !failed then exit 1
  | _ ->
      fail
        "usage: compare.exe BASELINE.json CURRENT.json [--threshold PCT] \
         [--require-improved KERNEL]... [--require-speedup SLOW:FAST:RATIO]..."
