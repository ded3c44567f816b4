module Budget = Argus_rt.Budget
module Fault = Argus_rt.Fault
module Clock = Argus_core.Clock

(* --- Budget --- *)

let test_unlimited () =
  let b = Budget.unlimited in
  Alcotest.(check bool) "not limited" false (Budget.is_limited b);
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "tick always ok" true (Budget.tick b ~engine:"t")
  done;
  Alcotest.(check bool) "never exhausted" true (Budget.exhausted b = None);
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map
       (fun d -> Argus_core.Diagnostic.(d.message))
       (Budget.diagnostics b))

let test_fuel () =
  let b = Budget.make ~fuel:5 () in
  Alcotest.(check bool) "limited" true (Budget.is_limited b);
  for _ = 1 to 5 do
    Alcotest.(check bool) "within fuel" true (Budget.tick b ~engine:"t")
  done;
  Alcotest.(check bool) "fuel gone" false (Budget.tick b ~engine:"t");
  Alcotest.(check bool) "stays exhausted" false (Budget.tick b ~engine:"t");
  (match Budget.exhausted b with
  | Some { Budget.reason = Budget.Fuel; engine = "t"; _ } -> ()
  | Some e ->
      Alcotest.failf "wrong reason %s" (Budget.reason_to_string e.Budget.reason)
  | None -> Alcotest.fail "not exhausted");
  match Budget.diagnostics b with
  | [ d ] ->
      Alcotest.(check string)
        "code" "rt/budget-exhausted" d.Argus_core.Diagnostic.code
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_deadline () =
  (* An already-passed deadline: the first clock consultation
     (every 256 ticks) must stop the run. *)
  let b = Budget.make ~deadline_ms:0.000001 () in
  let stopped = ref false in
  (try
     for _ = 1 to 100_000 do
       if not (Budget.tick b ~engine:"t") then begin
         stopped := true;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool) "deadline stops ticking" true !stopped;
  match Budget.exhausted b with
  | Some { Budget.reason = Budget.Deadline; _ } -> ()
  | _ -> Alcotest.fail "expected deadline exhaustion"

(* The deadline reads the monotonic Clock: under the fake, an armed
   50 ms budget survives a clock consultation at +49 ms and gives out
   after +51 ms, with no real time passing. *)
let test_deadline_follows_clock () =
  Clock.with_fake @@ fun () ->
  let b = Budget.make ~deadline_ms:50. () in
  let consult () =
    (* [tick] reads the clock on every 256th step. *)
    let ok = ref true in
    for _ = 1 to 256 do
      ok := Budget.tick b ~engine:"t"
    done;
    !ok
  in
  Clock.sleep_ms 49.;
  Alcotest.(check bool) "ticks at +49 ms" true (consult ());
  Alcotest.(check bool) "batch ticks at +49 ms" true
    (Budget.ticks b ~engine:"t" 10);
  Clock.sleep_ms 2.;
  Alcotest.(check bool) "stops after +51 ms" false (consult ());
  (match Budget.exhausted b with
  | Some { Budget.reason = Budget.Deadline; _ } -> ()
  | _ -> Alcotest.fail "expected deadline exhaustion");
  (* A client may send any deadline: one past the int range of ns must
     not wrap into the past. *)
  let huge = Budget.make ~deadline_ms:1e300 () in
  Clock.sleep_ms 1.;
  Alcotest.(check bool) "a huge deadline does not wrap" true
    (Budget.ticks huge ~engine:"t" 1)

let test_spec () =
  Alcotest.(check bool)
    "unlimited spec" true
    (Budget.spec_is_unlimited Budget.spec_unlimited);
  let spec = { Budget.spec_unlimited with Budget.fuel = Some 7 } in
  Alcotest.(check bool) "fuel spec limited" false (Budget.spec_is_unlimited spec);
  let b = Budget.of_spec spec in
  for _ = 1 to 7 do
    ignore (Budget.tick b ~engine:"t")
  done;
  Alcotest.(check bool) "of_spec honours fuel" false (Budget.tick b ~engine:"t")

let test_nonpositive_limits_absent () =
  let b = Budget.make ~fuel:0 ~deadline_ms:(-1.) () in
  Alcotest.(check bool) "zero fuel means no fuel limit" false
    (Budget.is_limited b)

(* --- Fault --- *)

let test_parse_spec () =
  (match Fault.parse_spec "pool.chunk:0.5:7" with
  | Ok { Fault.probe = "pool.chunk"; key = None; rate; seed = 7 }
    when rate = 0.5 ->
      ()
  | Ok _ -> Alcotest.fail "wrong fields"
  | Error e -> Alcotest.fail e);
  (match Fault.parse_spec "check.file@g3.arg:1:42" with
  | Ok { Fault.probe = "check.file"; key = Some "g3.arg"; rate; seed = 42 }
    when rate = 1.0 ->
      ()
  | Ok _ -> Alcotest.fail "wrong keyed fields"
  | Error e -> Alcotest.fail e);
  (match Fault.parse_spec "sat.decide:0.25" with
  | Ok { Fault.seed = 0; rate; _ } when rate = 0.25 -> ()
  | _ -> Alcotest.fail "seed should default to 0");
  List.iter
    (fun s ->
      match Fault.parse_spec s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ ""; "probe"; "probe:x"; "probe:-0.5"; ":1"; "probe:1:zzz"; "a:1:2:3" ]

let test_point_off_is_noop () =
  Fault.set None;
  Fault.point "anything";
  Fault.point ~key:"k" "anything"

let test_point_fires () =
  let spec = { Fault.probe = "p"; key = None; rate = 1.0; seed = 0 } in
  Fault.with_spec spec (fun () ->
      Alcotest.check_raises "unkeyed fires" (Fault.Injected "p") (fun () ->
          Fault.point "p");
      (* A non-matching probe name never fires. *)
      Fault.point "q");
  Alcotest.(check bool) "spec restored" true (Fault.current () = None)

let test_point_keyed () =
  let spec =
    { Fault.probe = "p"; key = Some "hit"; rate = 1.0; seed = 0 }
  in
  Fault.with_spec spec (fun () ->
      Fault.point ~key:"miss" "p";
      (* An unkeyed call never matches a keyed spec. *)
      Fault.point "p";
      Alcotest.check_raises "matching key fires" (Fault.Injected "p")
        (fun () -> Fault.point ~key:"hit" "p"))

let test_keyed_draw_deterministic () =
  (* For a fractional rate the decision for a given key is a pure
     function of (seed, probe, key): repeated runs agree exactly. *)
  let spec = { Fault.probe = "p"; key = None; rate = 0.5; seed = 13 } in
  let fires () =
    List.filter
      (fun k ->
        Fault.with_spec spec (fun () ->
            try
              Fault.point ~key:k "p";
              false
            with Fault.Injected _ -> true))
      (List.init 64 string_of_int)
  in
  let a = fires () and b = fires () in
  Alcotest.(check (list string)) "same keys fire every run" a b;
  Alcotest.(check bool) "roughly half fire" true
    (List.length a > 16 && List.length a < 48)

let test_rate_zero_never_fires () =
  let spec = { Fault.probe = "p"; key = None; rate = 0.0; seed = 1 } in
  Fault.with_spec spec (fun () ->
      for i = 1 to 200 do
        Fault.point ~key:(string_of_int i) "p"
      done)

let () =
  Alcotest.run "argus-rt"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "deadline follows the clock" `Quick
            test_deadline_follows_clock;
          Alcotest.test_case "spec round-trip" `Quick test_spec;
          Alcotest.test_case "non-positive limits" `Quick
            test_nonpositive_limits_absent;
        ] );
      ( "fault",
        [
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
          Alcotest.test_case "off is no-op" `Quick test_point_off_is_noop;
          Alcotest.test_case "fires at rate 1" `Quick test_point_fires;
          Alcotest.test_case "keyed matching" `Quick test_point_keyed;
          Alcotest.test_case "keyed draws deterministic" `Quick
            test_keyed_draw_deterministic;
          Alcotest.test_case "rate 0 never fires" `Quick
            test_rate_zero_never_fires;
        ] );
    ]
