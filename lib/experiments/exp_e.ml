module Prng = Argus_core.Prng
module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Prop = Argus_logic.Prop
module Natded = Argus_logic.Natded
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Confidence = Argus_confidence.Confidence

type config = {
  seed : int;
  n_assessors : int;
  minutes_per_traced_node : float;
  minutes_per_probe : float;
  probe_setup_minutes : float;
  tracing_noise_sd : float;
  probing_noise_sd : float;
}

let default_config =
  {
    seed = 42;
    n_assessors = 12;
    minutes_per_traced_node = 2.0;
    minutes_per_probe = 0.5;
    probe_setup_minutes = 10.0;
    tracing_noise_sd = 0.15;
    probing_noise_sd = 0.05;
  }

type category = Negligible | Moderate | Critical

let categorise x =
  if x < 0.10 then Negligible else if x < 0.40 then Moderate else Critical

type procedure_result = {
  mean_minutes : float;
  kappa : float;
  mean_abs_error : float;
}

type result = {
  config : config;
  n_evidence_items : int;
  ground_truth : (string * float) list;
  tracing : procedure_result;
  probing : procedure_result;
}

(* --- The specimen case ---

   Four evidence items.  E1 and E2 each fully carry one hazard claim
   (critical); E3 and E4 jointly support a third claim through a
   disjunctive goal, so each alone matters only partially — the
   "matter of degree" case the paper says Rushby's scheme does not
   address. *)
let specimen =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G_root", "S_all");
        (Structure.Supported_by, "S_all", "G_h1");
        (Structure.Supported_by, "S_all", "G_h2");
        (Structure.Supported_by, "S_all", "G_h3");
        (Structure.Supported_by, "G_h1", "Sn1");
        (Structure.Supported_by, "G_h2", "Sn2");
        (Structure.Supported_by, "G_h3", "Sn3");
        (Structure.Supported_by, "G_h3", "Sn4");
      ]
    ~evidence:
      [
        Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Analysis
          "interlock timing analysis";
        Evidence.make ~id:(Id.of_string "E2") ~kind:Evidence.Test_results
          "fault-injection campaign";
        Evidence.make ~id:(Id.of_string "E3") ~kind:Evidence.Field_data
          "two years of field returns";
        Evidence.make ~id:(Id.of_string "E4") ~kind:Evidence.Simulation
          "Monte-Carlo wear model";
      ]
    [
      Node.goal "G_root" "The machine is acceptably safe";
      Node.strategy "S_all" "Argument over all identified hazards";
      Node.goal "G_h1" "Hazard H1 (crush) is acceptably managed";
      Node.goal "G_h2" "Hazard H2 (runaway) is acceptably managed";
      Node.goal "G_h3" "Hazard H3 (wear-out) is acceptably managed";
      Node.solution ~evidence:"E1" "Sn1" "Timing analysis";
      Node.solution ~evidence:"E2" "Sn2" "Fault injection results";
      Node.solution ~evidence:"E3" "Sn3" "Field data";
      Node.solution ~evidence:"E4" "Sn4" "Wear simulation";
    ]

(* Formal counterpart: premises e1..e4 with e3 | e4 jointly implying the
   third hazard claim, and the conjunction implying safety. *)
let formal_counterpart =
  let p = Prop.of_string_exn in
  let proof =
    Natded.
      [
        { formula = p "e1"; rule = Premise };
        { formula = p "e2"; rule = Premise };
        { formula = p "e3"; rule = Premise };
        { formula = p "e1 -> h1"; rule = Premise };
        { formula = p "e2 -> h2"; rule = Premise };
        { formula = p "e3 | e4 -> h3"; rule = Premise };
        { formula = p "h1 & h2 & h3 -> safe"; rule = Premise };
        { formula = p "h1"; rule = Imp_elim (4, 1) };
        { formula = p "h2"; rule = Imp_elim (5, 2) };
        { formula = p "e3 | e4"; rule = Or_intro_left 3 };
        { formula = p "h3"; rule = Imp_elim (6, 10) };
        { formula = p "h1 & h2"; rule = And_intro (8, 9) };
        { formula = p "h1 & h2 & h3"; rule = And_intro (12, 11) };
        { formula = p "safe"; rule = Imp_elim (7, 13) };
      ]
  in
  Result.get_ok (Natded.check proof)

let evidence_premise = function
  | "E1" -> Prop.Var "e1"
  | "E2" -> Prop.Var "e2"
  | "E3" -> Prop.Var "e3"
  | "E4" -> Prop.Var "e4"  (* Not a premise: probing cannot even ask. *)
  | _ -> invalid_arg "evidence_premise"

let evidence_ids = [ "E1"; "E2"; "E3"; "E4" ]

let trust (_ : Evidence.t) = 0.9

let ground_truth () =
  List.map
    (fun eid ->
      (eid, Confidence.sensitivity ~trust specimen (Id.of_string eid)))
    evidence_ids

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let run ?pool cfg =
  let rng = Prng.create cfg.seed in
  let truth = ground_truth () in
  let baseline = Confidence.root_confidence ~trust specimen in
  let relative (eid, s) = (eid, if baseline > 0.0 then s /. baseline else s) in
  let truth_rel = List.map relative truth in
  (* The traced-node count and the probe verdict for an evidence item
     do not depend on the assessor, so run the Confidence kernels once
     per item instead of once per assessor per item. *)
  let traced_lengths =
    List.map
      (fun (eid, _) ->
        List.length (Confidence.impact_by_tracing specimen (Id.of_string eid)))
      truth_rel
  in
  let probe_verdicts =
    List.map
      (fun (eid, _) ->
        let premise = evidence_premise eid in
        let is_premise =
          List.exists (Prop.equal premise)
            formal_counterpart.Natded.premises
        in
        if is_premise then Confidence.probe_premise formal_counterpart premise
        else true)
      truth_rel
  in
  (* One assessor's judgments for each evidence item, under a
     procedure.  Returns (minutes, perceived) per item. *)
  let tracing_assessor rng =
    List.map2
      (fun (_, true_rel) n_traced ->
        let minutes =
          float_of_int n_traced
          *. Prng.lognormal rng ~mu:(log cfg.minutes_per_traced_node)
               ~sigma:0.3
        in
        let perceived =
          clamp01
            (Prng.gaussian rng ~mean:true_rel ~sd:cfg.tracing_noise_sd)
        in
        (minutes, perceived))
      truth_rel traced_lengths
  in
  let probing_assessor rng =
    List.map2
      (fun (_, _) still_follows ->
        let minutes =
          cfg.probe_setup_minutes /. float_of_int (List.length evidence_ids)
          +. Prng.lognormal rng ~mu:(log cfg.minutes_per_probe) ~sigma:0.3
        in
        (* The probe is binary: a broken proof reads as total
           dependence, an intact one as negligible — the coarseness the
           paper notes for matter-of-degree evidence. *)
        let mean = if still_follows then 0.05 else 0.95 in
        let perceived =
          clamp01 (Prng.gaussian rng ~mean ~sd:cfg.probing_noise_sd)
        in
        (minutes, perceived))
      truth_rel probe_verdicts
  in
  let run_procedure assessor =
    (* Assessor [i] draws from stream [i] of the procedure's generator,
       so judgments are identical whether assessors run sequentially or
       split across domains. *)
    let proc_rng = Prng.split rng in
    let all =
      Argus_par.Pool.init ?pool cfg.n_assessors (fun i ->
          assessor (Prng.stream proc_rng i))
      |> Array.to_list
    in
    let minutes =
      List.concat_map (fun judgments -> List.map fst judgments) all
    in
    (* Agreement matrix: evidence items x categories. *)
    let n_items = List.length evidence_ids in
    let matrix = Array.make_matrix n_items 3 0 in
    List.iter
      (fun judgments ->
        List.iteri
          (fun i (_, perceived) ->
            let j =
              match categorise perceived with
              | Negligible -> 0
              | Moderate -> 1
              | Critical -> 2
            in
            matrix.(i).(j) <- matrix.(i).(j) + 1)
          judgments)
      all;
    let errors =
      List.concat_map
        (fun judgments ->
          List.map2
            (fun (_, perceived) (_, true_rel) ->
              Float.abs (perceived -. true_rel))
            judgments truth_rel)
        all
    in
    {
      mean_minutes = Stats.mean minutes;
      kappa = Stats.fleiss_kappa matrix;
      mean_abs_error = Stats.mean errors;
    }
  in
  let tracing = run_procedure tracing_assessor in
  let probing = run_procedure probing_assessor in
  {
    config = cfg;
    n_evidence_items = List.length evidence_ids;
    ground_truth = truth_rel;
    tracing;
    probing;
  }

let pp ppf r =
  Format.fprintf ppf
    "Experiment E: complication of evidence sufficiency judgments@.";
  Format.fprintf ppf "  ground truth (relative impact): %s@."
    (String.concat ", "
       (List.map
          (fun (e, s) -> Printf.sprintf "%s=%.2f" e s)
          r.ground_truth));
  let line name p =
    Format.fprintf ppf
      "  %-8s %.1f min/judgment, Fleiss kappa %.2f, mean |error| %.2f@."
      name p.mean_minutes p.kappa p.mean_abs_error
  in
  line "tracing" r.tracing;
  line "probing" r.probing
