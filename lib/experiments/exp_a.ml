module Prng = Argus_core.Prng
module Prop = Argus_logic.Prop
module Formal = Argus_fallacy.Formal
module Greenwell = Argus_fallacy.Greenwell
module Pool = Argus_par.Pool

type config = {
  seed : int;
  subjects_per_arm : int;
  n_arguments : int;
  steps_per_argument : int;
  formal_seed_rate : float;
  informal_seed_rate : float;
  minutes_per_step : float;
  formal_duty_overhead : float;
  p_informal_detect : float;
  p_formal_detect_with_duty : float;
  p_formal_detect_incidental : float;
}

let default_config =
  {
    seed = 42;
    subjects_per_arm = 30;
    n_arguments = 6;
    steps_per_argument = 30;
    formal_seed_rate = 0.06;
    informal_seed_rate = 0.10;
    minutes_per_step = 1.5;
    formal_duty_overhead = 1.35;
    p_informal_detect = 0.55;
    p_formal_detect_with_duty = 0.65;
    p_formal_detect_incidental = 0.15;
  }

type arm_result = {
  mean_minutes : float;
  ci_minutes : float * float;
  formal_seeded : int;
  formal_found : int;
  informal_seeded : int;
  informal_found : int;
}

type reviewer_overlap = {
  first_only : int;
  second_only : int;
  both : int;
  neither : int;
}

type result = {
  config : config;
  informal_only : arm_result;
  both_duties : arm_result;
  tool_formal_found : int;
  tool_formal_seeded : int;
  tool_false_positives : int;
  time_test : Stats.t_test;
  overlap : reviewer_overlap;
}

(* A reviewable step: sound, or carrying a seeded fallacy. *)
type step =
  | Sound
  | Formal_fallacy of Formal.propositional
  | Informal_fallacy of Greenwell.instance

(* Concrete formal-fallacy instances, varied by index so no two are the
   same argument. *)
let formal_instance rng k =
  let a = Prop.Var (Printf.sprintf "a%d" k)
  and b = Prop.Var (Printf.sprintf "b%d" k) in
  match Prng.int rng 5 with
  | 0 ->
      (* Affirming the consequent. *)
      { Formal.premises = [ Prop.Implies (a, b); b ]; conclusion = a }
  | 1 ->
      (* Denying the antecedent. *)
      {
        Formal.premises = [ Prop.Implies (a, b); Prop.Not a ];
        conclusion = Prop.Not b;
      }
  | 2 ->
      (* Begging the question. *)
      { Formal.premises = [ a; b ]; conclusion = a }
  | 3 ->
      (* Incompatible premises. *)
      { Formal.premises = [ a; Prop.Not a ]; conclusion = b }
  | _ ->
      (* Premise/conclusion contradiction. *)
      { Formal.premises = [ a ]; conclusion = Prop.Not a }

let build_corpus cfg rng =
  List.init cfg.n_arguments (fun _ ->
      List.init cfg.steps_per_argument (fun k ->
          if Prng.bernoulli rng cfg.formal_seed_rate then
            Formal_fallacy (formal_instance rng k)
          else if Prng.bernoulli rng cfg.informal_seed_rate then
            Informal_fallacy (Prng.pick rng Greenwell.corpus)
          else Sound))

type duty = Informal_only | Both

let review_subject cfg rng duty corpus =
  let minutes = ref 0.0 in
  let formal_found = ref 0 and informal_found = ref 0 in
  let step_time () =
    let base = Prng.lognormal rng ~mu:(log cfg.minutes_per_step) ~sigma:0.35 in
    match duty with
    | Informal_only -> base
    | Both -> base *. cfg.formal_duty_overhead
  in
  List.iter
    (fun argument ->
      List.iter
        (fun step ->
          minutes := !minutes +. step_time ();
          match step with
          | Sound -> ()
          | Informal_fallacy _ ->
              if Prng.bernoulli rng cfg.p_informal_detect then
                incr informal_found
          | Formal_fallacy _ ->
              let p =
                match duty with
                | Both -> cfg.p_formal_detect_with_duty
                | Informal_only -> cfg.p_formal_detect_incidental
              in
              if Prng.bernoulli rng p then incr formal_found)
        argument)
    corpus;
  (!minutes, !formal_found, !informal_found)

let seeded_counts corpus =
  List.fold_left
    (fun (f, i) argument ->
      List.fold_left
        (fun (f, i) step ->
          match step with
          | Sound -> (f, i)
          | Formal_fallacy _ -> (f + 1, i)
          | Informal_fallacy _ -> (f, i + 1))
        (f, i) argument)
    (0, 0) corpus

let run_arm ?pool cfg rng duty corpus =
  (* Each subject reviews with their own PRNG stream, indexed by
     subject number, so splitting subjects across domains draws the
     same numbers as the sequential loop. *)
  let runs =
    Pool.init ?pool cfg.subjects_per_arm (fun i ->
        review_subject cfg (Prng.stream rng i) duty corpus)
    |> Array.to_list
  in
  let minutes = List.map (fun (m, _, _) -> m) runs in
  let formal_seeded, informal_seeded = seeded_counts corpus in
  let per_subject f =
    (* Average findings per subject, rounded: what one review pass of
       the corpus yields. *)
    let total = List.fold_left (fun acc r -> acc + f r) 0 runs in
    total / max 1 (List.length runs)
  in
  ( {
      mean_minutes = Stats.mean minutes;
      ci_minutes = Stats.ci95 minutes;
      formal_seeded;
      formal_found = per_subject (fun (_, f, _) -> f);
      informal_seeded;
      informal_found = per_subject (fun (_, _, i) -> i);
    },
    minutes )

(* Two independent reviewers over the 45 Greenwell instances: the
   Section V.C comparison ("each overlooked some fallacies that the
   other flagged"). *)
let reviewer_overlap cfg rng =
  List.fold_left
    (fun acc (_ : Greenwell.instance) ->
      let r1 = Prng.bernoulli rng cfg.p_informal_detect in
      let r2 = Prng.bernoulli rng cfg.p_informal_detect in
      match (r1, r2) with
      | true, false -> { acc with first_only = acc.first_only + 1 }
      | false, true -> { acc with second_only = acc.second_only + 1 }
      | true, true -> { acc with both = acc.both + 1 }
      | false, false -> { acc with neither = acc.neither + 1 })
    { first_only = 0; second_only = 0; both = 0; neither = 0 }
    Greenwell.corpus

let run ?pool cfg =
  let rng = Prng.create cfg.seed in
  let corpus = build_corpus cfg (Prng.split rng) in
  let arm_i, minutes_i =
    run_arm ?pool cfg (Prng.split rng) Informal_only corpus
  in
  let arm_b, minutes_b = run_arm ?pool cfg (Prng.split rng) Both corpus in
  let overlap = reviewer_overlap cfg (Prng.split rng) in
  (* The tool arm: run the real detector over every seeded step — pure
     per-step checks, merged by summing in step order. *)
  let steps = Array.of_list (List.concat corpus) in
  let seeded, found, fps =
    Pool.map_reduce ?pool
      ~map:(fun step ->
        match step with
        | Sound -> (0, 0, 0)
        | Formal_fallacy arg ->
            (1, (if Formal.check_propositional arg <> [] then 1 else 0), 0)
        | Informal_fallacy inst ->
            ( 0,
              0,
              if Formal.check_propositional inst.Greenwell.argument <> [] then 1
              else 0 ))
      ~combine:(fun (a, b, c) (a', b', c') -> (a + a', b + b', c + c'))
      ~init:(0, 0, 0) steps
  in
  {
    config = cfg;
    informal_only = arm_i;
    both_duties = arm_b;
    tool_formal_found = found;
    tool_formal_seeded = seeded;
    tool_false_positives = fps;
    time_test = Stats.welch_t minutes_b minutes_i;
    overlap;
  }

let pp_arm ppf name arm =
  let lo, hi = arm.ci_minutes in
  Format.fprintf ppf
    "%-14s  %7.1f min [%6.1f, %6.1f]   formal %2d/%-2d   informal %2d/%-2d@."
    name arm.mean_minutes lo hi arm.formal_found arm.formal_seeded
    arm.informal_found arm.informal_seeded

let pp ppf r =
  Format.fprintf ppf
    "Experiment A: automatic identification of formal fallacies@.";
  Format.fprintf ppf
    "  (review time and fallacies found, per full corpus pass)@.";
  pp_arm ppf "informal-only" r.informal_only;
  pp_arm ppf "both-duties" r.both_duties;
  Format.fprintf ppf
    "tool            instant            formal %2d/%-2d   false positives %d@."
    r.tool_formal_found r.tool_formal_seeded r.tool_false_positives;
  Format.fprintf ppf "time difference: Welch t = %.2f, p = %.4f@."
    r.time_test.Stats.t r.time_test.Stats.p;
  Format.fprintf ppf
    "two-reviewer comparison over the 45 Greenwell instances (V.C): %d by \
     first only, %d by second only, %d by both, %d by neither@."
    r.overlap.first_only r.overlap.second_only r.overlap.both
    r.overlap.neither
