module Prng = Argus_core.Prng
module Lifecycle = Argus_core.Lifecycle

type config = {
  seed : int;
  subjects_per_role : int;
  informal_words : int;
  formal_words : int;
  formal_formula_symbols : int;
  base_wpm : float;
  literate_symbol_spm : float;
  illiterate_symbol_spm : float;
  base_comprehension : float;
  literate_formal_comprehension : float;
  illiterate_formal_comprehension : float;
}

let default_config =
  {
    seed = 42;
    subjects_per_role = 40;
    informal_words = 1200;
    formal_words = 500;
    formal_formula_symbols = 420;
    base_wpm = 220.0;
    literate_symbol_spm = 55.0;
    illiterate_symbol_spm = 14.0;
    base_comprehension = 0.80;
    literate_formal_comprehension = 0.82;
    illiterate_formal_comprehension = 0.45;
  }

type role_result = {
  role : Lifecycle.role;
  n_literate : int;
  n_subjects : int;
  informal_minutes : float;
  formal_minutes : float;
  informal_comprehension : float;
  formal_comprehension : float;
}

type result = {
  config : config;
  per_role : role_result list;
  comprehension_gap_vs_literacy : (float * float) list;
  gap_literacy_correlation : float;
}

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let subject_run cfg rng role =
  let literate = Prng.bernoulli rng (Lifecycle.logic_literacy role) in
  let wpm = Float.max 60.0 (Prng.gaussian rng ~mean:cfg.base_wpm ~sd:35.0) in
  let informal_minutes = float_of_int cfg.informal_words /. wpm in
  let spm =
    let mean =
      if literate then cfg.literate_symbol_spm else cfg.illiterate_symbol_spm
    in
    Float.max 2.0 (Prng.gaussian rng ~mean ~sd:(0.25 *. mean))
  in
  let formal_minutes =
    (float_of_int cfg.formal_words /. wpm)
    +. (float_of_int cfg.formal_formula_symbols /. spm)
  in
  let informal_comprehension =
    clamp01 (Prng.gaussian rng ~mean:cfg.base_comprehension ~sd:0.08)
  in
  let formal_comprehension =
    let mean =
      if literate then cfg.literate_formal_comprehension
      else cfg.illiterate_formal_comprehension
    in
    clamp01 (Prng.gaussian rng ~mean ~sd:0.10)
  in
  (literate, informal_minutes, formal_minutes, informal_comprehension,
   formal_comprehension)

let run ?pool cfg =
  let rng = Prng.create cfg.seed in
  let per_role =
    List.map
      (fun role ->
        let rng = Prng.split rng in
        (* Subject [i] draws from stream [i] of the role's generator, so
           the role's numbers do not depend on how subjects are split
           across domains. *)
        let runs =
          Argus_par.Pool.init ?pool cfg.subjects_per_role (fun i ->
              subject_run cfg (Prng.stream rng i) role)
          |> Array.to_list
        in
        let pick f = List.map f runs in
        {
          role;
          n_literate =
            List.length (List.filter (fun (l, _, _, _, _) -> l) runs);
          n_subjects = cfg.subjects_per_role;
          informal_minutes = Stats.mean (pick (fun (_, m, _, _, _) -> m));
          formal_minutes = Stats.mean (pick (fun (_, _, m, _, _) -> m));
          informal_comprehension =
            Stats.mean (pick (fun (_, _, _, c, _) -> c));
          formal_comprehension = Stats.mean (pick (fun (_, _, _, _, c) -> c));
        })
      Lifecycle.all_roles
  in
  let comprehension_gap_vs_literacy =
    List.map
      (fun r ->
        ( Lifecycle.logic_literacy r.role,
          r.informal_comprehension -. r.formal_comprehension ))
      per_role
  in
  {
    config = cfg;
    per_role;
    comprehension_gap_vs_literacy;
    gap_literacy_correlation = Stats.pearson_r comprehension_gap_vs_literacy;
  }

let pp ppf r =
  Format.fprintf ppf "Experiment C: restriction of the reading audience@.";
  Format.fprintf ppf "  %-22s %8s %13s %13s %12s %12s@." "role" "literate"
    "informal min" "formal min" "informal c." "formal c.";
  List.iter
    (fun rr ->
      Format.fprintf ppf "  %-22s %4d/%-3d %13.1f %13.1f %12.2f %12.2f@."
        (Lifecycle.role_to_string rr.role)
        rr.n_literate rr.n_subjects rr.informal_minutes rr.formal_minutes
        rr.informal_comprehension rr.formal_comprehension)
    r.per_role;
  Format.fprintf ppf
    "  correlation of comprehension gap with logic literacy: r = %.2f@."
    r.gap_literacy_correlation
