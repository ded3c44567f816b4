module Prng = Argus_core.Prng
module Pattern = Argus_patterns.Pattern
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Evidence = Argus_core.Evidence
module Id = Argus_core.Id

type defect =
  | Omitted_binding
  | Wrong_type
  | Out_of_range
  | Inconsistent_replacement
  | Semantically_wrong_value

type config = {
  seed : int;
  trials_per_arm : int;
  defect_rate : float;
  semantic_share : float;
  p_review_catch : float;
  p_review_catch_semantic : float;
  minutes_manual : float;
  minutes_tool : float;
  minutes_review : float;
  minutes_rework : float;
}

let default_config =
  {
    seed = 42;
    trials_per_arm = 200;
    defect_rate = 0.30;
    semantic_share = 0.25;
    p_review_catch = 0.60;
    p_review_catch_semantic = 0.25;
    minutes_manual = 35.0;
    minutes_tool = 22.0;
    minutes_review = 15.0;
    minutes_rework = 6.0;
  }

type arm_result = {
  trials : int;
  defects_injected : int;
  defects_caught : int;
  residual_defects : int;
  mean_minutes : float;
}

type result = {
  config : config;
  manual : arm_result;
  tool : arm_result;
  tool_checker_agreed : bool;
  residual_rate_manual : float;
  residual_rate_tool : float;
  time_test : Stats.t_test;
}

(* The specimen pattern: argue over each hazard, with a bounded CPU
   utilisation side-claim (the Matsuno range example). *)
let specimen_pattern =
  let structure =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G_top", "S_hazards");
          (Structure.Supported_by, "S_hazards", "G_hazard");
          (Structure.Supported_by, "G_hazard", "Sn_hazard");
          (Structure.Supported_by, "G_top", "G_util");
          (Structure.Supported_by, "G_util", "Sn_util");
        ]
      ~evidence:
        [
          Evidence.make ~id:(Id.of_string "E_hz") ~kind:Evidence.Analysis
            "hazard analysis";
          Evidence.make ~id:(Id.of_string "E_util") ~kind:Evidence.Analysis
            "schedulability analysis";
        ]
      [
        Node.goal "G_top" "{system} is acceptably safe";
        Node.strategy "S_hazards" "Argument over each identified hazard";
        Node.goal "G_hazard" "Hazard {hazard} is acceptably managed";
        Node.solution ~evidence:"E_hz" "Sn_hazard" "Analysis of {hazard}";
        Node.goal "G_util" "CPU utilisation stays below {util} percent";
        Node.solution ~evidence:"E_util" "Sn_util" "Schedulability analysis";
      ]
  in
  Pattern.make ~name:"hazard-avoidance"
    ~params:
      [
        { Pattern.pname = "system"; ptype = Pattern.Pstring };
        {
          Pattern.pname = "util";
          ptype = Pattern.Pint { min = Some 0; max = Some 100 };
        };
        { Pattern.pname = "hazard"; ptype = Pattern.Plist Pattern.Pstring };
      ]
    ~replicate:[ ("G_hazard", "hazard") ]
    structure

let correct_binding k =
  [
    ("system", Pattern.Vstr (Printf.sprintf "System %d" k));
    ("util", Pattern.Vint 70);
    ( "hazard",
      Pattern.Vlist
        [ Pattern.Vstr "loss of control"; Pattern.Vstr "unintended activation" ]
    );
  ]

(* The would-be mistake of trial [k], arm-independent: both arms face
   the same schedule (a paired design), and the tool arm simply cannot
   commit an inconsistent replacement (the tool does the substitution). *)
let defect_schedule cfg rng =
  List.init cfg.trials_per_arm (fun _ ->
      if not (Prng.bernoulli rng cfg.defect_rate) then None
      else if Prng.bernoulli rng cfg.semantic_share then
        Some Semantically_wrong_value
      else
        Some
          (Prng.pick rng
             [ Omitted_binding; Wrong_type; Out_of_range; Inconsistent_replacement ]))

let corrupt_binding defect binding =
  match defect with
  | Omitted_binding -> List.remove_assoc "util" binding
  | Wrong_type ->
      ("util", Pattern.Vstr "Railway hazards") :: List.remove_assoc "util" binding
  | Out_of_range ->
      ("util", Pattern.Vint 250) :: List.remove_assoc "util" binding
  | Semantically_wrong_value ->
      (* Type-correct but wrong: the analysed bound was 70. *)
      ("util", Pattern.Vint 99) :: List.remove_assoc "util" binding
  | Inconsistent_replacement -> binding

let checker_catches defect binding =
  match Pattern.instantiate specimen_pattern (corrupt_binding defect binding) with
  | Error _ -> true
  | Ok _ -> false

let run ?pool cfg =
  let rng = Prng.create cfg.seed in
  let schedule = defect_schedule cfg (Prng.split rng) in
  let manual_rng = Prng.split rng and tool_rng = Prng.split rng in
  let schedule_arr = Array.of_list schedule in
  (* Both arms draw trial [k]'s numbers from stream [k] of the arm's
     generator and merge counts in trial order, so the results are
     identical whether trials run sequentially or across domains. *)
  let manual_trials =
    Argus_par.Pool.mapi_array ?pool
      (fun k defect ->
        let rng = Prng.stream manual_rng k in
        let t =
          Prng.lognormal rng ~mu:(log cfg.minutes_manual) ~sigma:0.3
          +. Prng.lognormal rng ~mu:(log cfg.minutes_review) ~sigma:0.3
        in
        match defect with
        | None -> (t, 0, 0, 0)
        | Some d ->
            let p =
              match d with
              | Semantically_wrong_value -> cfg.p_review_catch_semantic
              | _ -> cfg.p_review_catch
            in
            if Prng.bernoulli rng p then (t, 1, 1, 0) else (t, 1, 0, 1))
      schedule_arr
  in
  let manual_minutes =
    Array.to_list (Array.map (fun (t, _, _, _) -> t) manual_trials)
  in
  let sum4 f = Array.fold_left (fun acc x -> acc + f x) 0 manual_trials in
  let m_injected = sum4 (fun (_, i, _, _) -> i) in
  let m_caught = sum4 (fun (_, _, c, _) -> c) in
  let m_residual = sum4 (fun (_, _, _, r) -> r) in
  (* Tool arm: same schedule, and the checker is real. *)
  let tool_trials =
    Argus_par.Pool.mapi_array ?pool
      (fun k defect ->
        let rng = Prng.stream tool_rng k in
        let base = Prng.lognormal rng ~mu:(log cfg.minutes_tool) ~sigma:0.3 in
        let binding = correct_binding k in
        match defect with
        | None -> (base, 0, 0, 0, true)
        | Some Inconsistent_replacement ->
            (* The tool substitutes mechanically: the mistake cannot be
               committed in the first place. *)
            (base, 1, 1, 0, true)
        | Some d ->
            let caught = checker_catches d binding in
            let agreed = caught = (d <> Semantically_wrong_value) in
            if caught then
              let rework =
                Prng.lognormal rng ~mu:(log cfg.minutes_rework) ~sigma:0.3
              in
              (base +. rework, 1, 1, 0, agreed)
            else (base, 1, 0, 1, agreed))
      schedule_arr
  in
  let tool_minutes =
    Array.to_list (Array.map (fun (t, _, _, _, _) -> t) tool_trials)
  in
  let sum5 f = Array.fold_left (fun acc x -> acc + f x) 0 tool_trials in
  let t_injected = sum5 (fun (_, i, _, _, _) -> i) in
  let t_caught = sum5 (fun (_, _, c, _, _) -> c) in
  let t_residual = sum5 (fun (_, _, _, r, _) -> r) in
  let checker_agreed =
    Array.for_all (fun (_, _, _, _, a) -> a) tool_trials
  in
  let arm trials injected caught residual minutes =
    {
      trials;
      defects_injected = injected;
      defects_caught = caught;
      residual_defects = residual;
      mean_minutes = Stats.mean minutes;
    }
  in
  let manual =
    arm cfg.trials_per_arm m_injected m_caught m_residual manual_minutes
  in
  let tool =
    arm cfg.trials_per_arm t_injected t_caught t_residual tool_minutes
  in
  {
    config = cfg;
    manual;
    tool;
    tool_checker_agreed = checker_agreed;
    residual_rate_manual =
      float_of_int manual.residual_defects /. float_of_int manual.trials;
    residual_rate_tool =
      float_of_int tool.residual_defects /. float_of_int tool.trials;
    time_test = Stats.welch_t tool_minutes manual_minutes;
  }

let pp_arm ppf name a =
  Format.fprintf ppf
    "  %-8s %4d trials  %3d defects injected, %3d caught, %3d residual, \
     %.1f min/trial@."
    name a.trials a.defects_injected a.defects_caught a.residual_defects
    a.mean_minutes

let pp ppf r =
  Format.fprintf ppf
    "Experiment D: more reliably correct pattern instantiation@.";
  pp_arm ppf "manual" r.manual;
  pp_arm ppf "tool" r.tool;
  Format.fprintf ppf
    "  residual defect rate: manual %.3f vs tool %.3f; checker agreed: %b@."
    r.residual_rate_manual r.residual_rate_tool r.tool_checker_agreed;
  Format.fprintf ppf "  time difference: Welch t = %.2f, p = %.4f@."
    r.time_test.Stats.t r.time_test.Stats.p
