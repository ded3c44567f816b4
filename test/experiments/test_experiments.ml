open Argus_experiments
module Prng = Argus_core.Prng

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  let xs = List.init 20 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "same stream" true (xs = ys)

let test_prng_seed_sensitivity () =
  let a = Prng.create 7 and b = Prng.create 8 in
  Alcotest.(check bool) "different streams" false
    (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_float_range () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_prng_int_range () =
  let rng = Prng.create 2 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of range: %d" x
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_gaussian_moments () =
  let rng = Prng.create 3 in
  let xs = List.init 20000 (fun _ -> Prng.gaussian rng ~mean:5.0 ~sd:2.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  Alcotest.(check bool) "mean close" true (Float.abs (m -. 5.0) < 0.1);
  Alcotest.(check bool) "sd close" true (Float.abs (sd -. 2.0) < 0.1)

let test_prng_bernoulli_rate () =
  let rng = Prng.create 4 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10000.0 in
  Alcotest.(check bool) "rate close" true (Float.abs (rate -. 0.3) < 0.02)

let test_prng_split_independent () =
  let rng = Prng.create 5 in
  let a = Prng.split rng and b = Prng.split rng in
  Alcotest.(check bool) "split streams differ" false
    (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_stream () =
  (* [stream] is pure: it derives a per-index generator without
     advancing the parent, so trial k draws the same numbers whether the
     trials run in order, out of order, or on different domains. *)
  let rng = Prng.create 7 in
  let before = Prng.copy rng in
  let s0 = Prng.stream rng 0 and s1 = Prng.stream rng 1 in
  Alcotest.(check bool)
    "parent not advanced" true
    (Prng.next_int64 before = Prng.next_int64 rng);
  Alcotest.(check bool)
    "distinct indices differ" false
    (Prng.next_int64 s0 = Prng.next_int64 s1);
  let draws t = List.init 5 (fun _ -> Prng.float t) in
  Alcotest.(check bool)
    "same index replays the same draws" true
    (draws (Prng.stream before 3) = draws (Prng.stream before 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.stream: index must be non-negative") (fun () ->
      ignore (Prng.stream rng (-1)))

let test_prng_gaussian_spare_stream_isolated () =
  (* The banked Box-Muller half is per-generator state: a stream must
     not inherit or disturb its parent's spare. *)
  let rng = Prng.create 8 in
  ignore (Prng.gaussian rng ~mean:0.0 ~sd:1.0);
  (* parent now holds a spare *)
  let replay = Prng.copy rng in
  let s = Prng.stream rng 0 in
  let xs = List.init 3 (fun _ -> Prng.gaussian s ~mean:0.0 ~sd:1.0) in
  let ys =
    let s' = Prng.stream replay 0 in
    List.init 3 (fun _ -> Prng.gaussian s' ~mean:0.0 ~sd:1.0)
  in
  Alcotest.(check bool) "stream draws reproducible" true (xs = ys);
  Alcotest.(check bool)
    "parent's banked half intact" true
    (Prng.gaussian rng ~mean:0.0 ~sd:1.0
    = Prng.gaussian replay ~mean:0.0 ~sd:1.0)

let test_prng_shuffle_permutes () =
  let rng = Prng.create 6 in
  let arr = Array.init 10 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true
    (Array.to_list sorted = List.init 10 Fun.id)

(* --- Stats --- *)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "variance" 1.0 (Stats.variance [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 1.5
    (Stats.median [ 1.0; 2.0; 0.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile 0.0 [ 0.0; 1.0 ]);
  Alcotest.(check (float 1e-9)) "p100" 1.0 (Stats.percentile 100.0 [ 0.0; 1.0 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean [])

let test_t_cdf_known_values () =
  (* CDF(0) = 0.5 for any df; CDF(1.96, large df) ~ 0.975. *)
  Alcotest.(check (float 1e-6)) "cdf at 0" 0.5 (Stats.student_t_cdf 0.0 10.0);
  let v = Stats.student_t_cdf 1.96 1000.0 in
  Alcotest.(check bool) "large-df normal limit" true (Float.abs (v -. 0.975) < 0.002);
  (* t distribution with df=1 is Cauchy: CDF(1) = 0.75. *)
  let c = Stats.student_t_cdf 1.0 1.0 in
  Alcotest.(check bool) "Cauchy quartile" true (Float.abs (c -. 0.75) < 0.001)

let test_welch_t () =
  let xs = [ 5.0; 6.0; 5.5; 6.2; 5.8 ] in
  let ys = [ 8.0; 8.5; 7.9; 8.2; 8.4 ] in
  let r = Stats.welch_t xs ys in
  Alcotest.(check bool) "clearly different" true (r.Stats.p < 0.001);
  Alcotest.(check bool) "direction" true (r.Stats.t < 0.0);
  let same = Stats.welch_t xs xs in
  Alcotest.(check bool) "same data: p near 1" true (same.Stats.p > 0.95)

let test_welch_degenerate () =
  let r = Stats.welch_t [ 1.0 ] [ 2.0 ] in
  Alcotest.(check (float 1e-9)) "p = 1" 1.0 r.Stats.p

let test_cohens_d () =
  let d = Stats.cohens_d [ 1.0; 2.0; 3.0 ] [ 4.0; 5.0; 6.0 ] in
  Alcotest.(check (float 1e-9)) "d = -3" (-3.0) d

let test_pearson () =
  let perfect = [ (1.0, 2.0); (2.0, 4.0); (3.0, 6.0) ] in
  Alcotest.(check (float 1e-9)) "perfect positive" 1.0 (Stats.pearson_r perfect);
  let inverse = [ (1.0, 3.0); (2.0, 2.0); (3.0, 1.0) ] in
  Alcotest.(check (float 1e-9)) "perfect negative" (-1.0)
    (Stats.pearson_r inverse);
  Alcotest.(check (float 1e-9)) "degenerate" 0.0
    (Stats.pearson_r [ (1.0, 1.0) ]);
  Alcotest.(check (float 1e-9)) "zero variance" 0.0
    (Stats.pearson_r [ (1.0, 5.0); (1.0, 7.0); (1.0, 9.0) ])

let test_fleiss_kappa () =
  (* Perfect agreement. *)
  let perfect = [| [| 5; 0 |]; [| 0; 5 |]; [| 5; 0 |] |] in
  Alcotest.(check (float 1e-9)) "perfect" 1.0 (Stats.fleiss_kappa perfect);
  (* Split judgments give low kappa. *)
  let split = [| [| 3; 2 |]; [| 2; 3 |]; [| 3; 2 |]; [| 2; 3 |] |] in
  Alcotest.(check bool) "split is low" true (Stats.fleiss_kappa split < 0.2);
  Alcotest.check_raises "ragged"
    (Invalid_argument "fleiss_kappa: unequal rater counts") (fun () ->
      ignore (Stats.fleiss_kappa [| [| 2; 0 |]; [| 3; 1 |] |]))

let ci_contains_mean =
  QCheck.Test.make ~name:"ci95 brackets the mean" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 20) (float_bound_exclusive 100.0))
    (fun xs ->
      let m = Stats.mean xs in
      let lo, hi = Stats.ci95 xs in
      lo <= m +. 1e-9 && m <= hi +. 1e-9)

(* --- Experiment A --- *)

let result_a = Exp_a.run Exp_a.default_config

let test_a_deterministic () =
  let r2 = Exp_a.run Exp_a.default_config in
  Alcotest.(check bool) "same result" true (result_a = r2)

let test_a_duty_costs_time () =
  Alcotest.(check bool) "both-duties arm is slower" true
    (result_a.Exp_a.both_duties.Exp_a.mean_minutes
    > result_a.Exp_a.informal_only.Exp_a.mean_minutes);
  Alcotest.(check bool) "significant" true
    (result_a.Exp_a.time_test.Stats.p < 0.01)

let test_a_tool_perfect_on_formal () =
  Alcotest.(check int) "tool finds all seeded formal fallacies"
    result_a.Exp_a.tool_formal_seeded result_a.Exp_a.tool_formal_found;
  Alcotest.(check int) "no false positives on informal seeds" 0
    result_a.Exp_a.tool_false_positives

let test_a_humans_miss_some () =
  let arm = result_a.Exp_a.both_duties in
  Alcotest.(check bool) "humans with the duty still miss formal fallacies"
    true
    (arm.Exp_a.formal_found < arm.Exp_a.formal_seeded);
  let incidental = result_a.Exp_a.informal_only in
  Alcotest.(check bool) "duty beats incidental detection" true
    (arm.Exp_a.formal_found > incidental.Exp_a.formal_found)

let test_a_reviewer_overlap () =
  (* Greenwell's Section V.C observation: each reviewer overlooked some
     fallacies the other flagged. *)
  let o = result_a.Exp_a.overlap in
  Alcotest.(check bool) "first missed some the second found" true
    (o.Exp_a.second_only > 0);
  Alcotest.(check bool) "second missed some the first found" true
    (o.Exp_a.first_only > 0);
  Alcotest.(check int) "partition covers the 45 instances" 45
    (o.Exp_a.first_only + o.Exp_a.second_only + o.Exp_a.both + o.Exp_a.neither)

(* --- Experiment B --- *)

let result_b = Exp_b.run Exp_b.default_config

let test_b_deterministic () =
  Alcotest.(check bool) "same result" true (result_b = Exp_b.run Exp_b.default_config)

let test_b_learning_effect () =
  Alcotest.(check bool) "later tasks are faster" true
    (result_b.Exp_b.learning_ratio < 1.0)

let test_b_expertise_effect () =
  Alcotest.(check bool) "experts are faster per node" true
    (result_b.Exp_b.expert_minutes_per_node
    < result_b.Exp_b.novice_minutes_per_node);
  Alcotest.(check bool) "formalisation is costly" true
    (result_b.Exp_b.minutes_for_100_node_argument > 100.0)

(* --- Experiment C --- *)

let result_c = Exp_c.run Exp_c.default_config

let test_c_deterministic () =
  Alcotest.(check bool) "same result" true (result_c = Exp_c.run Exp_c.default_config)

let test_c_formal_slower_for_everyone () =
  List.iter
    (fun rr ->
      if rr.Exp_c.formal_minutes <= rr.Exp_c.informal_minutes then
        Alcotest.failf "formal faster for %s"
          (Argus_core.Lifecycle.role_to_string rr.Exp_c.role))
    result_c.Exp_c.per_role

let test_c_gap_tracks_literacy () =
  (* The least logic-literate role suffers the largest comprehension
     drop; the most literate the smallest. *)
  let gaps = result_c.Exp_c.comprehension_gap_vs_literacy in
  let by_literacy = List.sort (fun (a, _) (b, _) -> compare a b) gaps in
  let least = snd (List.hd by_literacy) in
  let most = snd (List.nth by_literacy (List.length by_literacy - 1)) in
  Alcotest.(check bool) "monotone-ish relationship" true (least > most)

let test_c_gap_literacy_correlation_negative () =
  (* Higher literacy means a smaller comprehension gap: strongly
     negative correlation. *)
  Alcotest.(check bool) "strongly negative" true
    (result_c.Exp_c.gap_literacy_correlation < -0.7)

let test_c_engineers_keep_comprehension () =
  let eng =
    List.find
      (fun rr -> rr.Exp_c.role = Argus_core.Lifecycle.Design_engineer)
      result_c.Exp_c.per_role
  in
  let mgr =
    List.find
      (fun rr -> rr.Exp_c.role = Argus_core.Lifecycle.Manager)
      result_c.Exp_c.per_role
  in
  Alcotest.(check bool) "engineers out-comprehend managers on formal" true
    (eng.Exp_c.formal_comprehension > mgr.Exp_c.formal_comprehension)

(* --- Experiment D --- *)

let result_d = Exp_d.run Exp_d.default_config

let test_d_deterministic () =
  Alcotest.(check bool) "same result" true (result_d = Exp_d.run Exp_d.default_config)

let test_d_checker_agreed () =
  (* Every checkable defect was really flagged by Pattern.instantiate,
     and every semantic defect really passed. *)
  Alcotest.(check bool) "real checker behaved as classified" true
    result_d.Exp_d.tool_checker_agreed

let test_d_tool_reduces_residual_defects () =
  Alcotest.(check bool) "fewer residual defects with the tool" true
    (result_d.Exp_d.residual_rate_tool < result_d.Exp_d.residual_rate_manual)

let test_d_semantic_defects_survive_tool () =
  (* The tool arm still has residual defects: the semantically-wrong
     values no checker can catch. *)
  Alcotest.(check bool) "tool arm residuals exist" true
    (result_d.Exp_d.tool.Exp_d.residual_defects > 0)

(* --- Experiment E --- *)

let result_e = Exp_e.run Exp_e.default_config

let test_e_deterministic () =
  Alcotest.(check bool) "same result" true (result_e = Exp_e.run Exp_e.default_config)

let test_e_ground_truth_shape () =
  let gt = result_e.Exp_e.ground_truth in
  let v e = List.assoc e gt in
  (* E1 and E2 are each fully load-bearing; E3/E4 are redundant pair
     members with small relative impact. *)
  Alcotest.(check bool) "E1 critical" true (v "E1" > 0.9);
  Alcotest.(check bool) "E2 critical" true (v "E2" > 0.9);
  Alcotest.(check bool) "E3 partial" true (v "E3" < 0.4);
  Alcotest.(check bool) "E4 partial" true (v "E4" < 0.4)

let test_e_probing_faster_but_coarser () =
  Alcotest.(check bool) "probing is faster" true
    (result_e.Exp_e.probing.Exp_e.mean_minutes
    < result_e.Exp_e.tracing.Exp_e.mean_minutes);
  Alcotest.(check bool) "probing agrees more (it is mechanical)" true
    (result_e.Exp_e.probing.Exp_e.kappa > result_e.Exp_e.tracing.Exp_e.kappa);
  Alcotest.(check bool)
    "but probing is less accurate on matter-of-degree evidence" true
    (result_e.Exp_e.probing.Exp_e.mean_abs_error
    > result_e.Exp_e.tracing.Exp_e.mean_abs_error)

let test_e_categorise () =
  Alcotest.(check bool) "negligible" true (Exp_e.categorise 0.05 = Exp_e.Negligible);
  Alcotest.(check bool) "moderate" true (Exp_e.categorise 0.2 = Exp_e.Moderate);
  Alcotest.(check bool) "critical" true (Exp_e.categorise 0.8 = Exp_e.Critical)

(* Pretty-printers do not raise and mention their experiment. *)
let test_pp_smoke () =
  let checks =
    [
      (Format.asprintf "%a" Exp_a.pp result_a, "Experiment A");
      (Format.asprintf "%a" Exp_b.pp result_b, "Experiment B");
      (Format.asprintf "%a" Exp_c.pp result_c, "Experiment C");
      (Format.asprintf "%a" Exp_d.pp result_d, "Experiment D");
      (Format.asprintf "%a" Exp_e.pp result_e, "Experiment E");
    ]
  in
  List.iter
    (fun (s, tag) ->
      let nh = String.length s and nn = String.length tag in
      let rec go i =
        if i + nn > nh then false else String.sub s i nn = tag || go (i + 1)
      in
      if not (go 0) then Alcotest.failf "output does not mention %s" tag)
    checks

let () =
  Alcotest.run "argus-experiments"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "stream is pure" `Quick test_prng_stream;
          Alcotest.test_case "stream isolates gaussian spare" `Quick
            test_prng_gaussian_spare_stream_isolated;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "t cdf" `Quick test_t_cdf_known_values;
          Alcotest.test_case "welch" `Quick test_welch_t;
          Alcotest.test_case "welch degenerate" `Quick test_welch_degenerate;
          Alcotest.test_case "cohen's d" `Quick test_cohens_d;
          Alcotest.test_case "pearson" `Quick test_pearson;
          Alcotest.test_case "fleiss kappa" `Quick test_fleiss_kappa;
          QCheck_alcotest.to_alcotest ci_contains_mean;
        ] );
      ( "exp-a",
        [
          Alcotest.test_case "deterministic" `Quick test_a_deterministic;
          Alcotest.test_case "duty costs time" `Quick test_a_duty_costs_time;
          Alcotest.test_case "tool perfect on formal" `Quick
            test_a_tool_perfect_on_formal;
          Alcotest.test_case "humans miss some" `Quick test_a_humans_miss_some;
          Alcotest.test_case "reviewer overlap" `Quick test_a_reviewer_overlap;
        ] );
      ( "exp-b",
        [
          Alcotest.test_case "deterministic" `Quick test_b_deterministic;
          Alcotest.test_case "learning effect" `Quick test_b_learning_effect;
          Alcotest.test_case "expertise effect" `Quick test_b_expertise_effect;
        ] );
      ( "exp-c",
        [
          Alcotest.test_case "deterministic" `Quick test_c_deterministic;
          Alcotest.test_case "formal slower" `Quick
            test_c_formal_slower_for_everyone;
          Alcotest.test_case "gap tracks literacy" `Quick
            test_c_gap_tracks_literacy;
          Alcotest.test_case "correlation negative" `Quick
            test_c_gap_literacy_correlation_negative;
          Alcotest.test_case "engineers vs managers" `Quick
            test_c_engineers_keep_comprehension;
        ] );
      ( "exp-d",
        [
          Alcotest.test_case "deterministic" `Quick test_d_deterministic;
          Alcotest.test_case "checker agreed" `Quick test_d_checker_agreed;
          Alcotest.test_case "tool reduces residuals" `Quick
            test_d_tool_reduces_residual_defects;
          Alcotest.test_case "semantic defects survive" `Quick
            test_d_semantic_defects_survive_tool;
        ] );
      ( "exp-e",
        [
          Alcotest.test_case "deterministic" `Quick test_e_deterministic;
          Alcotest.test_case "ground truth shape" `Quick
            test_e_ground_truth_shape;
          Alcotest.test_case "probing faster but coarser" `Quick
            test_e_probing_faster_but_coarser;
          Alcotest.test_case "categorise" `Quick test_e_categorise;
        ] );
      ("pp", [ Alcotest.test_case "smoke" `Quick test_pp_smoke ]);
    ]
