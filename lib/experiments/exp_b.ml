module Prng = Argus_core.Prng

type config = {
  seed : int;
  n_subjects : int;
  n_tasks : int;
  nodes_per_argument : int;
  minutes_per_node : float;
  expertise_saving : float;
  learning_exponent : float;
}

let default_config =
  {
    seed = 42;
    n_subjects = 24;
    n_tasks = 6;
    nodes_per_argument = 30;
    minutes_per_node = 12.0;
    expertise_saving = 0.45;
    learning_exponent = 0.25;
  }

type result = {
  config : config;
  mean_minutes_first_task : float;
  mean_minutes_last_task : float;
  learning_ratio : float;
  novice_minutes_per_node : float;
  expert_minutes_per_node : float;
  expertise_test : Stats.t_test;
  minutes_for_100_node_argument : float;
}

type subject = { expertise : float }

let task_minutes cfg rng subject ~task_index =
  let practice =
    (float_of_int (task_index + 1)) ** -.cfg.learning_exponent
  in
  let skill = 1.0 -. (cfg.expertise_saving *. subject.expertise) in
  let per_node () =
    Prng.lognormal rng ~mu:(log cfg.minutes_per_node) ~sigma:0.4
    *. practice *. skill
  in
  let total = ref 0.0 in
  for _ = 1 to cfg.nodes_per_argument do
    total := !total +. per_node ()
  done;
  !total

let run ?pool cfg =
  let rng = Prng.create cfg.seed in
  let subjects =
    List.init cfg.n_subjects (fun _ -> { expertise = Prng.float rng })
  in
  (* Each subject's per-task times, in task order; subject [i] draws
     from their own PRNG stream, so trajectories are identical whether
     subjects run sequentially or across domains. *)
  let subject_arr = Array.of_list subjects in
  let trajectories =
    Argus_par.Pool.mapi_array ?pool
      (fun i s ->
        let srng = Prng.stream rng i in
        (s, List.init cfg.n_tasks (fun k -> task_minutes cfg srng s ~task_index:k)))
      subject_arr
    |> Array.to_list
  in
  let task k = List.map (fun (_, ts) -> List.nth ts k) trajectories in
  let first = task 0 and last = task (cfg.n_tasks - 1) in
  (* Per-node steady-state time per subject: last task / nodes. *)
  let per_node_last =
    List.map
      (fun (s, ts) ->
        (s, List.nth ts (cfg.n_tasks - 1) /. float_of_int cfg.nodes_per_argument))
      trajectories
  in
  let median_expertise =
    Stats.median (List.map (fun (s, _) -> s.expertise) per_node_last)
  in
  let novice =
    List.filter_map
      (fun (s, t) -> if s.expertise < median_expertise then Some t else None)
      per_node_last
  in
  let expert =
    List.filter_map
      (fun (s, t) -> if s.expertise >= median_expertise then Some t else None)
      per_node_last
  in
  let mean_first = Stats.mean first and mean_last = Stats.mean last in
  {
    config = cfg;
    mean_minutes_first_task = mean_first;
    mean_minutes_last_task = mean_last;
    learning_ratio = (if mean_first > 0.0 then mean_last /. mean_first else 1.0);
    novice_minutes_per_node = Stats.mean novice;
    expert_minutes_per_node = Stats.mean expert;
    expertise_test = Stats.welch_t novice expert;
    minutes_for_100_node_argument =
      100.0 *. Stats.mean (List.map snd per_node_last);
  }

let pp ppf r =
  Format.fprintf ppf "Experiment B: the effort of formalisation@.";
  Format.fprintf ppf
    "  first task %.0f min -> last task %.0f min (practice ratio %.2f)@."
    r.mean_minutes_first_task r.mean_minutes_last_task r.learning_ratio;
  Format.fprintf ppf
    "  per node: novices %.1f min, experts %.1f min (Welch t = %.2f, p = %.4f)@."
    r.novice_minutes_per_node r.expert_minutes_per_node
    r.expertise_test.Stats.t r.expertise_test.Stats.p;
  Format.fprintf ppf
    "  projected cost of formalising a 100-node argument: %.0f minutes@."
    r.minutes_for_100_node_argument
