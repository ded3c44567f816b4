(* The reproduction harness: regenerates every table and figure of the
   paper (printing computed vs reported), runs the five Section VI
   experiment simulations, and times the machinery with Bechamel (one
   Test.make per reproduced artefact plus the core kernels).

   Run with: dune exec bench/main.exe

   Flags: [--smoke] skips the reproduction sections and runs a short
   Bechamel quota (for the @bench-smoke regression gate, see
   bench/compare.ml); [-o FILE] writes the results JSON to FILE instead
   of bench/results.json. *)

module Survey = Argus_survey.Selection
module Queries = Argus_survey.Queries
module Informal = Argus_fallacy.Informal
module Formal = Argus_fallacy.Formal
module Greenwell = Argus_fallacy.Greenwell
module Compile = Argus_prolog.Compile
module Exec = Argus_prolog.Exec
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Term = Argus_logic.Term
module Prop = Argus_logic.Prop
module Natded = Argus_logic.Natded
module Sat = Argus_logic.Sat
module Cnf_direct = Argus_oracle.Cnf_direct
module Syllogism = Argus_logic.Syllogism
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Pattern = Argus_patterns.Pattern
module Proofgen = Argus_proofgen.Proofgen
module Modular = Argus_gsn.Modular
module Pool = Argus_par.Pool
module Store = Argus_store.Store
module Wal = Argus_store.Wal
module Recover = Argus_store.Recover
open Argus_experiments

let section title =
  Format.printf "@.==== %s ====@.@." title

(* --- Table I --- *)

let table1 () =
  section "Table I: papers selected in the first selection phase";
  let t = Survey.table1 Survey.corpus in
  Format.printf "%a@." Survey.pp_table1 t;
  Format.printf "reported by the paper: IEEE 12/13, ACM 17/7, Springer 24/2, \
                 Scholar 8/1; 72 unique (54 safety, 23 security)@.";
  Format.printf "phase two yield: %d (paper: 20)@."
    (Survey.selected_after_phase2 Survey.corpus)

(* --- Survey derived counts --- *)

let survey_counts () =
  section "Survey counts (Sections IV-VI)";
  Format.printf "%-60s %9s %9s@." "count" "computed" "reported";
  List.iter
    (fun (what, computed, reported) ->
      Format.printf "%-60s %9d %9d%s@." what computed reported
        (if computed = reported then "" else "   << MISMATCH"))
    (Queries.report ())

(* --- Figure 1 --- *)

let figure1 () =
  section "Figure 1: the Desert Bank argument";
  let goal = Result.get_ok (Term.of_string "adjacent(desert_bank, river)") in
  (match Exec.prove_term Informal.desert_bank goal with
  | Some d ->
      Format.printf "formally derivable (as the paper shows):@.%a"
        Argus_prolog.Derivation.pp d
  | None -> Format.printf "NOT derivable — mismatch with the paper!@.");
  Format.printf "equivocation candidates flagged for human review: %s@."
    (String.concat ", "
       (Informal.equivocation_candidates Informal.desert_bank))

(* --- Greenwell fallacy counts (Section V.B) --- *)

let greenwell () =
  section "Greenwell et al. fallacy instances (Section V.B)";
  Format.printf "%-36s %9s %9s %22s@." "kind" "corpus" "reported"
    "formal detector hits";
  List.iter
    (fun (kind, reported) ->
      let instances =
        List.filter (fun i -> i.Greenwell.kind = kind) Greenwell.corpus
      in
      let hits =
        List.length
          (List.filter
             (fun i -> Formal.check_propositional i.Greenwell.argument <> [])
             instances)
      in
      Format.printf "%-36s %9d %9d %22d@."
        (Greenwell.kind_to_string kind)
        (List.length instances) reported hits)
    Greenwell.reported_counts;
  Format.printf
    "total: %d instances; the formal checker flags none of them — and the \
     eight Damer formal fallacies are all detected on positive controls: "
    (List.length Greenwell.corpus);
  (* Positive controls: each of the eight formal fallacies, detected. *)
  let a = Prop.Var "a" and b = Prop.Var "b" in
  let detected =
    [
      List.mem Formal.Begging_the_question
        (Formal.check_propositional
           { Formal.premises = [ a; b ]; conclusion = a });
      List.mem Formal.Incompatible_premises
        (Formal.check_propositional
           { Formal.premises = [ a; Prop.Not a ]; conclusion = b });
      List.mem Formal.Premise_conclusion_contradiction
        (Formal.check_propositional
           { Formal.premises = [ a ]; conclusion = Prop.Not a });
      List.mem Formal.Denying_the_antecedent
        (Formal.check_propositional
           {
             Formal.premises = [ Prop.Implies (a, b); Prop.Not a ];
             conclusion = Prop.Not b;
           });
      List.mem Formal.Affirming_the_consequent
        (Formal.check_propositional
           { Formal.premises = [ Prop.Implies (a, b); b ]; conclusion = a });
      (let from = Syllogism.prop Syllogism.A "s" "p" in
       List.mem Formal.False_conversion
         (Formal.check_conversion
            { Formal.from; to_ = Syllogism.converse from }));
      List.mem Formal.Undistributed_middle
        (Formal.check_syllogism
           Syllogism.
             {
               major = prop A "dog" "animal";
               minor = prop A "cat" "animal";
               conclusion = prop A "cat" "dog";
             });
      List.mem Formal.Illicit_distribution
        (Formal.check_syllogism
           Syllogism.
             {
               major = prop A "m" "p";
               minor = prop E "s" "m";
               conclusion = prop E "s" "p";
             });
    ]
  in
  Format.printf "%d/8@."
    (List.length (List.filter Fun.id detected))

(* --- Experiments --- *)

let experiments () =
  section "Experiment VI.A (simulated)";
  Format.printf "%a" Exp_a.pp (Exp_a.run Exp_a.default_config);
  section "Experiment VI.B (simulated)";
  Format.printf "%a" Exp_b.pp (Exp_b.run Exp_b.default_config);
  section "Experiment VI.C (simulated)";
  Format.printf "%a" Exp_c.pp (Exp_c.run Exp_c.default_config);
  section "Experiment VI.D (simulated, real checker in the tool arm)";
  Format.printf "%a" Exp_d.pp (Exp_d.run Exp_d.default_config);
  section "Experiment VI.E (simulated, real procedures)";
  Format.printf "%a" Exp_e.pp (Exp_e.run Exp_e.default_config)

(* --- Proof-to-argument size (the Basir 'too many details' point) --- *)

let proofgen_sizes () =
  section "Proof-to-argument abstraction (Basir et al.'s complaint)";
  let p = Prop.of_string_exn in
  let well_formed s =
    not
      (Argus_core.Diagnostic.has_errors (Fused.check (Caseir.intern s)).Fused.wf)
  in
  (* A proof with single-citation bookkeeping steps (Split, Reiterate) —
     exactly the detail the generated argument drags along. *)
  let proof =
    Natded.
      [
        { formula = p "a & b"; rule = Premise };
        { formula = p "a"; rule = And_elim_left 1 };
        { formula = p "a"; rule = Reiterate 2 };
        { formula = p "a -> c"; rule = Premise };
        { formula = p "c"; rule = Imp_elim (4, 3) };
        { formula = p "c -> safe"; rule = Premise };
        { formula = p "safe"; rule = Imp_elim (6, 5) };
      ]
  in
  match Natded.check proof with
  | Error _ -> Format.printf "unexpected: proof rejected@."
  | Ok checked ->
      let g = Proofgen.generate checked in
      let a = Proofgen.abstract g in
      Format.printf
        "generated argument: %d nodes; after abstraction: %d nodes \
         (well-formed before and after: %b/%b)@."
        (Proofgen.node_count g) (Proofgen.node_count a)
        (well_formed g) (well_formed a)

(* --- Bechamel micro-benchmarks --- *)

let term_exn s = Result.get_ok (Term.of_string s)

(* A 12-argument framework with a mix of chains and cycles. *)
let bench_af =
  Argus_dialectic.Af.of_lists
    ~arguments:(List.init 12 (fun i -> Printf.sprintf "a%d" i))
    ~attacks:
      (List.init 11 (fun i ->
           (Printf.sprintf "a%d" i, Printf.sprintf "a%d" (i + 1)))
      @ [ ("a11", "a4"); ("a7", "a2") ])

let bench_ec =
  Argus_eventcalc.Eventcalc.make
    ~initially:[ term_exn "friends(u, s)" ]
    ~axioms:
      [
        {
          Argus_eventcalc.Eventcalc.event = term_exn "tap(u, s)";
          conditions = [ term_exn "friends(u, s)" ];
          initiates = [ term_exn "visible(u, s)" ];
          terminates = [];
        };
        {
          Argus_eventcalc.Eventcalc.event = term_exn "unfriend(u, s)";
          conditions = [];
          initiates = [];
          terminates = [ term_exn "friends(u, s)"; term_exn "visible(u, s)" ];
        };
      ]
    (List.init 10 (fun i ->
         ( i,
           if i mod 4 = 3 then term_exn "unfriend(u, s)"
           else term_exn "tap(u, s)" )))

let bench_kaos =
  let ltl = Argus_ltl.Ltl.of_string_exn in
  Argus_kaos.Kaos.(
    empty
    |> add (goal ~formal:(ltl "G (close -> F clear)") "G_top" "avoid")
    |> add ~parent:"G_top"
         (goal ~formal:(ltl "G (close -> tracked)") "G_a" "track")
    |> add ~parent:"G_top"
         (goal ~formal:(ltl "G (tracked -> F clear)") "G_b" "resolve")
    |> add ~parent:"G_a" (requirement ~agent:"sw" "R_a" "sense")
    |> add ~parent:"G_b" (requirement ~agent:"pilot" "R_b" "manoeuvre"))

let ablation_formula =
  Prop.of_string_exn
    "((a | b) & (c | d) & (e | f) & (g | h)) -> ((a & c) | (b & d) | (e & g) | (f & h))"

(* A deep chain case for the well-formedness and hicase ablations. *)
let deep_case =
  let nodes =
    List.concat_map
      (fun i ->
        [
          Argus_gsn.Node.goal (Printf.sprintf "G%d" i)
            (Printf.sprintf "level %d claim is safe" i);
          Argus_gsn.Node.strategy (Printf.sprintf "S%d" i) "decompose";
        ])
      (List.init 20 Fun.id)
    @ [ Argus_gsn.Node.solution ~evidence:"E" "Sn" "evidence" ]
  in
  let links =
    List.concat_map
      (fun i ->
        [
          (Structure.Supported_by, Printf.sprintf "G%d" i, Printf.sprintf "S%d" i);
          ( Structure.Supported_by,
            Printf.sprintf "S%d" i,
            if i = 19 then "Sn" else Printf.sprintf "G%d" (i + 1) );
        ])
      (List.init 20 Fun.id)
  in
  Structure.of_nodes ~links
    ~evidence:
      [
        Argus_core.Evidence.make
          ~id:(Argus_core.Id.of_string "E")
          ~kind:Argus_core.Evidence.Analysis "analysis";
      ]
    nodes

(* A 16-module collection: each module is a small self-contained case,
   chained by away goals (module i cites module i+1's root), so both
   the per-module well-formedness fan-out and the cross-module rules
   have work to do. *)
let bench_modular =
  let module Node = Argus_gsn.Node in
  let id = Argus_core.Id.of_string in
  let n_modules = 16 in
  let mk i =
    let g = Printf.sprintf "M%d_G" i in
    let s = Printf.sprintf "M%d_S" i in
    let sn = Printf.sprintf "M%d_Sn" i in
    let ev = Printf.sprintf "M%d_E" i in
    let nodes =
      [
        Node.goal g (Printf.sprintf "module %d obligations are met" i);
        Node.strategy s "argue over obligations";
        Node.solution ~evidence:ev sn "analysis results";
      ]
      @
      if i = n_modules - 1 then []
      else
        let away = Printf.sprintf "M%d_G" (i + 1) in
        [
          Node.make ~id:(id away)
            ~node_type:(Node.Away_goal (id (Printf.sprintf "M%d" (i + 1))))
            "cited module's obligations are met";
        ]
    in
    let links =
      [
        (Structure.Supported_by, g, s);
        (Structure.Supported_by, s, sn);
      ]
      @
      if i = n_modules - 1 then []
      else
        [ (Structure.Supported_by, s, Printf.sprintf "M%d_G" (i + 1)) ]
    in
    Structure.of_nodes ~links
      ~evidence:
        [
          Argus_core.Evidence.make ~id:(id ev)
            ~kind:Argus_core.Evidence.Analysis "analysis";
        ]
      nodes
  in
  List.fold_left
    (fun acc i ->
      Modular.add_module ~name:(id (Printf.sprintf "M%d" i)) (mk i) acc)
    Modular.empty
    (List.init n_modules Fun.id)

(* A bushy-and-shallow case for the incremental-store kernels: one
   root goal fanned over [strategies] strategies of [leaves] undeveloped
   leaf goals each.  Shallow keeps the findings cone of any leaf at
   three nodes; bushy keeps the node count high.  Sibling leaf texts
   share most of their content words, so the equivocation pair scan
   runs but stays quiet — the store's dirty-cone cost, not a diagnostic
   flood, is what these kernels time. *)
let bench_store_case ~strategies ~leaves =
  let module Node = Argus_gsn.Node in
  let id = Argus_core.Id.of_string in
  let root = Node.goal "G0" "the system is acceptably safe in every mode" in
  let nodes =
    root
    :: List.concat_map
         (fun i ->
           Node.strategy
             (Printf.sprintf "S%d" i)
             (Printf.sprintf "argue over the modes of operating region %d" i)
           :: List.init leaves (fun j ->
                  Node.make
                    ~id:(id (Printf.sprintf "G%d_%d" i j))
                    ~node_type:Node.Goal ~status:Node.Undeveloped
                    (Printf.sprintf
                       "operating region %d mode %d remains safe during \
                        sustained operation"
                       i j)))
         (List.init strategies Fun.id)
  in
  let links =
    List.concat_map
      (fun i ->
        (Structure.Supported_by, "G0", Printf.sprintf "S%d" i)
        :: List.init leaves (fun j ->
               ( Structure.Supported_by,
                 Printf.sprintf "S%d" i,
                 Printf.sprintf "G%d_%d" i j )))
      (List.init strategies Fun.id)
  in
  Structure.of_nodes ~links nodes

(* ~110k nodes for the headline edit-one-node kernels, ~11k for the
   churn kernel that patches shape against a warm verdict memo.  Built
   inside each kernel's Bechamel resource, never at top level: a live
   100k-node heap makes every minor collection scan it, which was
   measured to tax the unrelated sub-microsecond kernels several-fold.
   Scoping the case to the kernel keeps the other timings honest. *)
let store_case_100k () = bench_store_case ~strategies:10_000 ~leaves:10
let store_case_10k () = bench_store_case ~strategies:1_000 ~leaves:10

(* One ~5k-node case rendered as DSL text, for the parse kernel: large
   enough that any per-declaration cost growing with the case size
   dominates the parse (DESIGN.md section 14). *)
let dsl_case_5k () =
  Argus_dsl.Dsl.print
    {
      Argus_dsl.Dsl.module_name = None;
      title = "bench 5k";
      ontology = Argus_gsn.Metadata.ontology [];
      structure = bench_store_case ~strategies:500 ~leaves:9;
    }

(* One 8-node case in the shape the serving benchmark's small-mix
   sends to check — its largest: an ontology, one evidence item, a
   hazard annotation, goals closed by solutions.  A parse this small
   is mostly per-parse fixed cost. *)
let dsl_case_8 =
  {|case "Component argument" {
  enum severity { catastrophic hazardous major minor }
  attr hazard (string, severity)
  evidence E1 analysis "Fault tree analysis results 1"
  goal G1 "Claim item 0: the infusion pump is acceptably safe" {
    in-context-of C2
    supported-by S3
  }
  context C2 "Operating envelope as defined in the concept of operations"
  strategy S3 "Argue over each identified hazard" {
    supported-by G4, G5
  }
  goal G4 "Claim item 4: hazard H4 (overdose) of the infusion pump is fully traceable" {
    meta "hazard \"H4\" catastrophic"
    supported-by Sn6
  }
  goal G5 "Claim item 5: the infusion pump is sufficiently verified" {
    supported-by Sn7, G8
  }
  solution Sn6 "Static analysis findings 6" {
    evidence E1
  }
  solution Sn7 "Formal proof log 7" {
    evidence E1
  }
  goal G8 "Claim item 8: the infusion pump is correctly implemented" {
    undeveloped
  }
}
|}

(* The goal-text vocabulary of the seeded phase cases below. *)
let subjects =
  [| "brake controller"; "pressure relief valve"; "infusion pump";
     "lane keeping assist"; "reactor trip logic"; "flight control law" |]

let qualities =
  [| "acceptably safe"; "adequately mitigated"; "correctly implemented";
     "sufficiently verified"; "independently reviewed" |]

(* One strategy over [k] sibling goals, each closed by a solution that
   cites registered evidence: the fan-out the equivocation scan
   compares pairwise.  [text st i] writes goal [i]'s text from the
   case's seeded random state. *)
let fan_case k text =
  let module Node = Argus_gsn.Node in
  let module Evidence = Argus_core.Evidence in
  let st = Random.State.make [| k |] in
  let goal i = Printf.sprintf "G%d" i and sol i = Printf.sprintf "Sn%d" i in
  Structure.of_nodes
    ~links:
      ((Structure.Supported_by, "G", "S")
      :: List.concat
           (List.init k (fun i ->
                [
                  (Structure.Supported_by, "S", goal i);
                  (Structure.Supported_by, goal i, sol i);
                ])))
    ~evidence:
      [
        Evidence.make ~id:(Argus_core.Id.of_string "E1")
          ~kind:Evidence.Test_results "HIL campaign";
      ]
    (Node.goal "G" "The system is acceptably safe"
    :: Node.strategy "S" "Argue over each identified hazard"
    :: List.concat
         (List.init k (fun i ->
              [
                Node.goal (goal i) (text st i);
                Node.solution ~evidence:"E1" (sol i) "Test report";
              ])))

(* Every goal text says "Claim item N", so every pair shares two words
   and is a candidate the scan must merge (and none fires: a finding
   needs exactly one shared word). *)
let wide_case k =
  fan_case k (fun st i ->
      let pick a = a.(Random.State.int st (Array.length a)) in
      Printf.sprintf "Claim item %d: the %s is %s" i (pick subjects)
        (pick qualities))

(* The sparse twin: 125 topics of 8 made-up words each, goal [i] on
   topic [i mod 125] with 5 cyclically consecutive words of it.  Goals
   on different topics share no word, so only ~3.5k of the ~500k pairs
   are candidates; goals on one topic share at least two words, so
   none fires. *)
let sparse_case k =
  let syllables =
    [| "ka"; "lo"; "mi"; "ru"; "te"; "va"; "no"; "pi"; "de"; "zu" |]
  in
  let word n =
    syllables.(n / 100) ^ syllables.(n / 10 mod 10) ^ syllables.(n mod 10)
  in
  fan_case k (fun st i ->
      let topic = i mod 125 and first = Random.State.int st 8 in
      String.concat " "
        (List.init 5 (fun j -> word ((topic * 8) + ((first + j) mod 8)))))

(* One fixed, seeded ~5k-node tree for the per-phase kernels, grown
   the way the serving benchmark grows its edit-loop cases: goals
   breadth-first, half of them split by a strategy over 2-4 sub-goals,
   the rest supported by 1-3 goals or solutions, a context on about one
   goal in five, and every goal still open at the end closed by a
   solution.  Goal texts are distinct, so the circular-support walk
   compares claims all the way down and finds nothing.  Returns the
   case and the id of its last goal, the one the edit kernel patches. *)
let phase_case_5k () =
  let module Node = Argus_gsn.Node in
  let module Evidence = Argus_core.Evidence in
  let st = Random.State.make [| 5000 |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let nodes = ref [] and links = ref [] and count = ref 0 in
  let fresh make letter text =
    incr count;
    let id = Printf.sprintf "%s%d" letter !count in
    nodes := make id text :: !nodes;
    id
  in
  let link kind src dst = links := (kind, src, dst) :: !links in
  let goal () =
    fresh Node.goal "G"
      (Printf.sprintf "Claim item %d: the %s is %s" (!count + 1)
         (pick subjects) (pick qualities))
  in
  let solution parent =
    link Structure.Supported_by parent
      (fresh (Node.solution ~evidence:"E1") "Sn" "Hardware-in-the-loop test report")
  in
  let root = goal () in
  let last_goal = ref root in
  let frontier = Queue.create () in
  Queue.add root frontier;
  let sub_goal parent =
    let g = goal () in
    link Structure.Supported_by parent g;
    last_goal := g;
    Queue.add g frontier
  in
  while !count + Queue.length frontier < 5000 && not (Queue.is_empty frontier) do
    let g = Queue.pop frontier in
    if Random.State.int st 5 = 0 then
      link Structure.In_context_of g
        (fresh Node.context "C" "Operating envelope as defined in the concept of operations");
    if Random.State.bool st then begin
      let s = fresh Node.strategy "S" "Argue over each identified hazard" in
      link Structure.Supported_by g s;
      for _ = 1 to 2 + Random.State.int st 3 do
        sub_goal s
      done
    end
    else begin
      for _ = 1 to 1 + Random.State.int st 3 do
        if Random.State.int st 100 < 55 then sub_goal g else solution g
      done;
      if Queue.is_empty frontier then sub_goal g
    end
  done;
  Queue.iter solution frontier;
  ( Structure.of_nodes ~links:(List.rev !links)
      ~evidence:
        [
          Evidence.make ~id:(Argus_core.Id.of_string "E1")
            ~kind:Evidence.Test_results "HIL campaign";
        ]
      (List.rev !nodes),
    Argus_core.Id.of_string !last_goal )

let store_edit_texts =
  [|
    "operating region 42 mode 7 remains safe during sustained operation";
    "operating region 42 mode 7 remains safe after the controller rework";
  |]

(* Scratch directories for the durability kernels: each allocation
   gets its own, deleted when the kernel's resource is freed. *)
let bench_tmp_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "argus-bench-%s-%d-%d" name (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    dir

let rec bench_rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> bench_rm_rf (Filename.concat path e))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* A par-* kernel owns its pool only for the duration of its own
   measurement (Bechamel's [uniq] resource): parked worker domains are
   not free — while any live, every minor collection is a multi-domain
   stop-the-world handshake, which benches allocation-heavy sequential
   kernels ~2x slower.  Scoping the pool to the kernel keeps the
   sequential timings honest. *)
let par_kernel ~name ~jobs f =
  let open Bechamel in
  Test.make_with_resource ~name Test.uniq
    ~allocate:(fun () -> Pool.create ~jobs ())
    ~free:Pool.shutdown (Staged.stage f)

(* A svc-* kernel owns a running [argus serve] instance on a loopback
   Unix socket plus one persistent client connection; each run is one
   request/response round-trip through the real wire protocol.  Like
   the par-* pools, the server is scoped to the kernel's own
   measurement so its worker domain does not tax the others, and so is
   the request line it sends ([request_line] runs at allocation). *)
let svc_kernel ~name ~queue_capacity request_line =
  let open Bechamel in
  (* Client-side round-trip latency, observed per run into the
     registry: Bechamel's OLS slope gives the mean, the histogram
     carries the p50/p99 that end up in results.json and the README's
     service numbers. *)
  let h_rtt = Argus_obs.Metrics.Histogram.make ("bench." ^ name) in
  Test.make_with_resource ~name Test.uniq
    ~allocate:(fun () ->
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "argus-bench-%d-%s.sock" (Unix.getpid ()) name)
      in
      let cfg =
        {
          (Argus_svc.Server.default_config ~socket_path:path) with
          Argus_svc.Server.supervisor =
            {
              Argus_svc.Supervisor.default_config with
              Argus_svc.Supervisor.queue_capacity;
            };
        }
      in
      let h = Argus_svc.Server.spawn cfg in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      ( h,
        path,
        fd,
        Unix.in_channel_of_descr fd,
        Unix.out_channel_of_descr fd,
        request_line () ))
    ~free:(fun (h, path, fd, _, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ignore (Argus_svc.Server.stop h);
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (Staged.stage (fun (_, _, _, ic, oc, req_line) ->
         let t0 = Unix.gettimeofday () in
         output_string oc req_line;
         flush oc;
         ignore (input_line ic);
         Argus_obs.Metrics.Histogram.observe h_rtt
           ((Unix.gettimeofday () -. t0) *. 1000.)))

let svc_request_line ?(trace = false)
    ?(source = {|case "b" { goal G1 "b holds" { undeveloped } }|}) () =
  let req =
    Argus_svc.Protocol.request ~id:"bench" ~source ~filename:"bench.arg"
      ~trace Argus_svc.Protocol.Check
  in
  Argus_core.Json.to_string (Argus_svc.Protocol.request_to_json req) ^ "\n"

let svc_check_request_line = svc_request_line ()

(* A check request line carrying a rendered ~1 MB (~8.5k-node) case, a
   line larger than any one read: the wire-layer kernels decode it
   (json-decode-1m) and send it to a server that sheds it
   (svc-shed-1m). *)
let svc_line_1m () =
  svc_request_line
    ~source:
      (Argus_dsl.Dsl.print
         {
           Argus_dsl.Dsl.module_name = None;
           title = "bench 1m";
           ontology = Argus_gsn.Metadata.ontology [];
           structure = bench_store_case ~strategies:850 ~leaves:9;
         })
    ()

(* A combined refutation query in the Argus_kaos style — a conjunction
   of small goal formulas over shared atoms — sized past the labeller's
   memo gate, so [ltl.memo_hits] moves under bench (test/ltl pins the
   gate itself). *)
let bench_ltl_combined =
  let ltl = Argus_ltl.Ltl.of_string_exn in
  ( ltl
      "(G (close -> F clear)) & ((G (close -> tracked)) & ((G (tracked -> F \
       clear)) & !(G (close -> F clear))))",
    Argus_ltl.Ltl.Trace.make
      ~prefix:[ [ "close" ] ]
      ~loop:[ [ "close"; "tracked" ]; [ "clear" ]; [] ] )

let bench_subjects =
  let open Bechamel in
  let goal = term_exn "adjacent(desert_bank, river)" in
  let prop_formula =
    Prop.of_string_exn
      "(a -> b) & (b -> c) & (c -> d) & a -> d | (e <-> ~f) & (g | h)"
  in
  let haley =
    let p = Prop.of_string_exn in
    Natded.
      [
        { formula = p "i -> v"; rule = Premise };
        { formula = p "c -> h"; rule = Premise };
        { formula = p "y -> v & c"; rule = Premise };
        { formula = p "d -> y"; rule = Premise };
        { formula = p "d"; rule = Premise };
        { formula = p "y"; rule = Imp_elim (4, 5) };
        { formula = p "v & c"; rule = Imp_elim (3, 6) };
        { formula = p "v"; rule = And_elim_left 7 };
        { formula = p "c"; rule = And_elim_right 7 };
        { formula = p "h"; rule = Imp_elim (2, 9) };
        { formula = p "d -> h"; rule = Imp_intro (5, 10) };
      ]
  in
  let sample_case =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "S1");
          (Structure.Supported_by, "S1", "G2");
          (Structure.Supported_by, "S1", "G3");
          (Structure.Supported_by, "G2", "Sn1");
          (Structure.Supported_by, "G3", "Sn2");
        ]
      ~evidence:
        [
          Argus_core.Evidence.make
            ~id:(Argus_core.Id.of_string "E1")
            ~kind:Argus_core.Evidence.Analysis "analysis";
        ]
      [
        Argus_gsn.Node.goal "G1" "top claim is safe";
        Argus_gsn.Node.strategy "S1" "argue over hazards";
        Argus_gsn.Node.goal "G2" "hazard one is managed";
        Argus_gsn.Node.goal "G3" "hazard two is managed";
        Argus_gsn.Node.solution ~evidence:"E1" "Sn1" "analysis results";
        Argus_gsn.Node.solution ~evidence:"E1" "Sn2" "analysis results";
      ]
  in
  let hazard_pattern =
    Pattern.make ~name:"bench"
      ~params:
        [
          { Pattern.pname = "system"; ptype = Pattern.Pstring };
          { Pattern.pname = "hazard"; ptype = Pattern.Plist Pattern.Pstring };
        ]
      ~replicate:[ ("G_h", "hazard") ]
      (Structure.of_nodes
         ~links:
           [
             (Structure.Supported_by, "G_top", "G_h");
             (Structure.Supported_by, "G_h", "Sn");
           ]
         ~evidence:
           [
             Argus_core.Evidence.make
               ~id:(Argus_core.Id.of_string "E")
               ~kind:Argus_core.Evidence.Analysis "analysis";
           ]
         [
           Argus_gsn.Node.goal "G_top" "{system} is safe";
           Argus_gsn.Node.goal "G_h" "{hazard} is managed";
           Argus_gsn.Node.solution ~evidence:"E" "Sn" "results";
         ])
  in
  let binding =
    [
      ("system", Pattern.Vstr "S");
      ( "hazard",
        Pattern.Vlist (List.init 8 (fun i -> Pattern.Vstr (Printf.sprintf "h%d" i)))
      );
    ]
  in
  let small_exp_a = { Exp_a.default_config with Exp_a.subjects_per_arm = 5 } in
  let small_exp_d = { Exp_d.default_config with Exp_d.trials_per_arm = 20 } in
  let greenwell_args =
    List.map (fun i -> i.Greenwell.argument) Greenwell.corpus
  in
  (* Compiled kernels (DESIGN.md §13): program and query compiled once,
     case interned once — the amortised steady state a service or a
     corpus sweep runs in.  The *-vs-interpreted / intern-cost kernels
     keep the un-amortised costs visible next to them. *)
  let fig1_cp = Compile.program Informal.desert_bank in
  let fig1_q = Compile.query [ goal ] in
  let dsl_5k = dsl_case_5k () in
  assert (Result.is_ok (Argus_dsl.Dsl.parse dsl_5k));
  assert (Result.is_ok (Argus_dsl.Dsl.parse dsl_case_8));
  let sample_ir = Caseir.intern sample_case in
  let deep_ir = Caseir.intern deep_case in
  (* Direct CNF in which [p] and [q] appear with a single polarity, so
     DPLL's pure-literal elimination fires (Tseitin-encoded queries
     structurally never contain pure literals — DESIGN.md section 7). *)
  let pure_cnf =
    Cnf_direct.cnf_of_prop
      (Prop.of_string_exn
         "(p | a) & (p | ~a) & (q | a) & (q | ~b) & (b | ~a) & (a | b)")
  in
  [
    Test.make ~name:"table1-pipeline" (Staged.stage (fun () ->
        ignore (Survey.table1 Survey.corpus)));
    Test.make ~name:"survey-counts" (Staged.stage (fun () ->
        ignore (Queries.report ())));
    Test.make ~name:"figure1-resolution" (Staged.stage (fun () ->
        ignore (Exec.provable fig1_cp fig1_q)));
    Test.make ~name:"dsl-parse-5k" (Staged.stage (fun () ->
        ignore (Argus_dsl.Dsl.parse dsl_5k)));
    (* The same parse through the list lexer the pull lexer replaced
       (the test oracle [Legacy_dsl]): the yardstick of the parse
       gate, measured next to it in the same run. *)
    Test.make ~name:"dsl-parse-5k-list" (Staged.stage (fun () ->
        ignore (Argus_oracle.Legacy_dsl.parse dsl_5k)));
    Test.make ~name:"dsl-parse-8" (Staged.stage (fun () ->
        ignore (Argus_dsl.Dsl.parse dsl_case_8)));
    (* Every intern derives through the process-wide derivation memo,
       and the deep case re-interned each run finds every payload
       filed: this times an intern whose text derivations all hit. *)
    Test.make ~name:"ir-intern-cost" (Staged.stage (fun () ->
        ignore (Caseir.intern deep_case)));
    Test.make ~name:"fused-corpus-check" (Staged.stage (fun () ->
        ignore (Fused.check sample_ir);
        ignore (Fused.check deep_ir)));
    Test.make ~name:"greenwell-corpus-check" (Staged.stage (fun () ->
        List.iter
          (fun i -> ignore (Formal.check_propositional i.Greenwell.argument))
          Greenwell.corpus));
    Test.make ~name:"exp-a-small" (Staged.stage (fun () ->
        ignore (Exp_a.run small_exp_a)));
    Test.make ~name:"exp-b" (Staged.stage (fun () ->
        ignore (Exp_b.run Exp_b.default_config)));
    Test.make ~name:"exp-c" (Staged.stage (fun () ->
        ignore (Exp_c.run Exp_c.default_config)));
    Test.make ~name:"exp-d-small" (Staged.stage (fun () ->
        ignore (Exp_d.run small_exp_d)));
    Test.make ~name:"exp-e" (Staged.stage (fun () ->
        ignore (Exp_e.run Exp_e.default_config)));
    Test.make ~name:"dpll-sat" (Staged.stage (fun () ->
        ignore (Sat.satisfiable prop_formula)));
    (* Budget overhead: the same workloads as [figure1-resolution] and
       [dpll-sat] but threaded through a limited budget generous enough
       never to exhaust — what the probe points cost when armed.  The
       compare gate holds these (like everything else) within 25% of
       the recorded baseline; the unbudgeted kernels above pin the
       disarmed cost.  A fuel of [max_int] counts as no limit
       ([Budget.make] returns [unlimited]), so both kernels take a
       finite fuel.  Armed, [Exec.provable] runs the full search
       instead of answering from its decision table, which is what
       [figure1-resolution] times, and [Sat.satisfiable] skips its
       memo.  They run right after [dpll-sat], in the same heap state
       as the kernels they are read against: later in the list, after
       the store and pool kernels, the smoke run's short quota timed
       them several-fold slow. *)
    Test.make ~name:"rt-budget-overhead-prolog" (Staged.stage (fun () ->
        let b = Argus_rt.Budget.make ~fuel:1_000_000 () in
        ignore (Exec.provable ~budget:b fig1_cp fig1_q)));
    Test.make ~name:"rt-budget-overhead-dpll" (Staged.stage (fun () ->
        let b = Argus_rt.Budget.make ~fuel:1_000_000 () in
        ignore (Sat.satisfiable ~budget:b prop_formula)));
    Test.make ~name:"natded-check" (Staged.stage (fun () ->
        ignore (Natded.check haley)));
    Test.make ~name:"pattern-instantiate-8" (Staged.stage (fun () ->
        ignore (Pattern.instantiate hazard_pattern binding)));
    Test.make ~name:"syllogism-all-256" (Staged.stage (fun () ->
        List.iter
          (fun s -> ignore (Syllogism.violations s))
          (Syllogism.all_moods_figures ())));
    (* New-substrate kernels. *)
    Test.make ~name:"af-grounded" (Staged.stage (fun () ->
        ignore (Argus_dialectic.Af.grounded bench_af)));
    Test.make ~name:"eventcalc-denial" (Staged.stage (fun () ->
        ignore
          (Argus_eventcalc.Eventcalc.denial bench_ec
             ~when_not:(term_exn "friends(u, s)")
             (term_exn "visible(u, s)"))));
    Test.make ~name:"kaos-refute-50" (Staged.stage (fun () ->
        ignore
          (Argus_kaos.Kaos.verify_refinement ~traces:50 bench_kaos
             (Argus_core.Id.of_string "G_top"))));
    (* Ablations: design choices DESIGN.md calls out. *)
    Test.make ~name:"ablation-cnf-tseitin" (Staged.stage (fun () ->
        ignore (Sat.solve (Sat.tseitin ablation_formula))));
    Test.make ~name:"ablation-cnf-direct" (Staged.stage (fun () ->
        ignore (Sat.solve (Cnf_direct.cnf_of_prop ablation_formula))));
    Test.make ~name:"ablation-hicase-visible-depth1" (Staged.stage (fun () ->
        ignore
          (Argus_gsn.Hicase.visible
             (Argus_gsn.Hicase.collapse_to_depth 1
                (Argus_gsn.Hicase.of_structure deep_case)))));
    Test.make ~name:"dpll-pure-literal" (Staged.stage (fun () ->
        ignore (Sat.solve pure_cnf)));
    Test.make ~name:"ltl-label-combined" (Staged.stage (fun () ->
        let f, tr = bench_ltl_combined in
        ignore (Argus_ltl.Ltl.holds tr f)));
    Test.make ~name:"modular-wf-16" (Staged.stage (fun () ->
        ignore (Fused.check_modular bench_modular)));
    (* Incremental store (DESIGN.md §14).  The pair to read together:
       [store-full-recheck-100k] is what every edit used to cost —
       re-intern the whole case and run the fused checker — and
       [store-edit-1-of-100k] is what the store makes it cost: patch
       one leaf's text by digest, then fetch a full verdict assembled
       from memoized per-node findings.  compare.exe --require-speedup
       gates the ratio at 50x. *)
    Test.make_with_resource ~name:"store-full-recheck-100k" Test.uniq
      ~allocate:store_case_100k
      ~free:(fun _ -> ())
      (Staged.stage (fun case ->
           ignore (Fused.check ~lints:true (Caseir.intern case))));
    (let flip = ref 0 in
     Test.make_with_resource ~name:"store-edit-1-of-100k" Test.uniq
       ~allocate:(fun () ->
         let st = Store.create () in
         let d = ref (Store.put st (store_case_100k ())) in
         (* Prime the one-off costs a long-lived store has already
            paid — first verdict assembly and the root-confidence memo
            — so the kernel times the steady per-edit state. *)
         ignore (Store.verdict st ~digest:!d);
         (st, d))
       ~free:(fun _ -> ())
       (Staged.stage (fun (st, d) ->
            incr flip;
            let text = store_edit_texts.(!flip land 1) in
            (match
               Store.patch st ~digest:!d
                 [ Store.Set_text (Argus_core.Id.of_string "G42_7", text) ]
             with
            | Ok d' -> d := d'
            | Error e -> failwith (Store.error_message e));
            match Store.verdict st ~digest:!d with
            | Ok v -> ignore v.Store.result
            | Error e -> failwith (Store.error_message e))));
    (* Cold put: intern, digest and verdict 100k nodes into a fresh
       store, for amortisation arithmetic next to the edit kernel.  The
       case has 110k distinct payloads, more than the derivation memo
       holds, so re-interning it in the same order finds none of them
       (FIFO eviction drops each before its turn comes round): every
       run re-derives every payload, as in [store-full-recheck-100k]. *)
    Test.make_with_resource ~name:"store-put-100k" Test.uniq
      ~allocate:store_case_100k
      ~free:(fun _ -> ())
      (Staged.stage (fun case ->
           let st = Store.create () in
           ignore (Store.put st case)));
    (* The shape-edit pair of [store-edit-1-of-100k]: unlink one leaf
       and link it back by digest, then fetch a full verdict.  The graph
       delta rebuilds the integer arrays (and the verdict re-runs the
       confidence kernel) over the whole case, but nothing per node
       beyond the edit's cone: compare.exe --require-speedup gates it at
       20x under the full re-check. *)
    (let id = Argus_core.Id.of_string in
     let relink =
       [
         Store.Unlink (Structure.Supported_by, id "S42", id "G42_7");
         Store.Link (Structure.Supported_by, id "S42", id "G42_7");
       ]
     in
     Test.make_with_resource ~name:"store-shape-edit-1-of-100k" Test.uniq
       ~allocate:(fun () ->
         let st = Store.create () in
         let d = ref (Store.put st (store_case_100k ())) in
         ignore (Store.verdict st ~digest:!d);
         (st, d))
       ~free:(fun _ -> ())
       (Staged.stage (fun (st, d) ->
            (match Store.patch st ~digest:!d relink with
            | Ok d' -> d := d'
            | Error e -> failwith (Store.error_message e));
            match Store.verdict st ~digest:!d with
            | Ok v -> ignore v.Store.result
            | Error e -> failwith (Store.error_message e))));
    (* Shape churn: a mixed batch (text edit plus unlink/relink) on a
       ~11k-node case, through the graph delta against a warm arena and
       verdict memo. *)
    (let flip = ref 0 in
     Test.make_with_resource ~name:"store-patch-churn" Test.uniq
       ~allocate:(fun () ->
         let st = Store.create () in
         let d = ref (Store.put st (store_case_10k ())) in
         ignore (Store.verdict st ~digest:!d);
         (st, d))
       ~free:(fun _ -> ())
       (Staged.stage (fun (st, d) ->
            incr flip;
            let text = store_edit_texts.(!flip land 1) in
            let id = Argus_core.Id.of_string in
            (match
               Store.patch st ~digest:!d
                 [
                   Store.Set_text (id "G42_7", text);
                   Store.Unlink
                     (Structure.Supported_by, id "S999", id "G999_9");
                   Store.Link (Structure.Supported_by, id "S999", id "G999_9");
                 ]
             with
            | Ok d' -> d := d'
            | Error e -> failwith (Store.error_message e));
            match Store.verdict st ~digest:!d with
            | Ok v -> ignore v.Store.result
            | Error e -> failwith (Store.error_message e))));
    (* Per-phase kernels on one seeded ~5k-node tree, the size of an
       edit-loop case.  [ir-derive-5k] is the text derivation of every
       payload; [fused-check-5k] is a full check with lints of the
       interned case; [store-verdict-5k] is what a live case tool pays
       per keystroke — one set-text patch by digest, then the verdict,
       whose largest part is the circular-support walk.  compare.exe
       --require-speedup gates the verdict against lint-sparse-1000
       within the smoke run. *)
    Test.make_with_resource ~name:"ir-derive-5k" Test.uniq
      ~allocate:(fun () ->
        Array.of_list (Structure.nodes (fst (phase_case_5k ()))))
      ~free:(fun _ -> ())
      (Staged.stage (fun nodes ->
           Array.iter (fun n -> ignore (Caseir.derive n)) nodes));
    (* A full check with lints of one strategy over 1000 sibling goals
       (~2k nodes): ~500k candidate pairs for the equivocation scan.
       compare.exe --require-speedup bounds it against
       store-full-recheck-100k within the smoke run. *)
    Test.make_with_resource ~name:"lint-wide-1000" Test.uniq
      ~allocate:(fun () -> Caseir.intern (wide_case 1000))
      ~free:(fun _ -> ())
      (Staged.stage (fun ir -> ignore (Fused.check ~lints:true ir)));
    (* The same fan-out whose siblings share few words: ~3.5k candidate
       pairs out of ~500k, the case the scan's inverted index is for. *)
    Test.make_with_resource ~name:"lint-sparse-1000" Test.uniq
      ~allocate:(fun () -> Caseir.intern (sparse_case 1000))
      ~free:(fun _ -> ())
      (Staged.stage (fun ir -> ignore (Fused.check ~lints:true ir)));
    Test.make_with_resource ~name:"fused-check-5k" Test.uniq
      ~allocate:(fun () -> Caseir.intern (fst (phase_case_5k ())))
      ~free:(fun _ -> ())
      (Staged.stage (fun ir -> ignore (Fused.check ~lints:true ir)));
    (let flip = ref 0 in
     Test.make_with_resource ~name:"store-verdict-5k" Test.uniq
       ~allocate:(fun () ->
         let case, leaf = phase_case_5k () in
         let st = Store.create () in
         let d = ref (Store.put st case) in
         ignore (Store.verdict st ~digest:!d);
         (st, d, leaf))
       ~free:(fun _ -> ())
       (Staged.stage (fun (st, d, leaf) ->
            incr flip;
            let text = store_edit_texts.(!flip land 1) in
            (match Store.patch st ~digest:!d [ Store.Set_text (leaf, text) ] with
            | Ok d' -> d := d'
            | Error e -> failwith (Store.error_message e));
            match Store.verdict st ~digest:!d with
            | Ok v -> ignore v.Store.result
            | Error e -> failwith (Store.error_message e))));
    (* Durability kernels (DESIGN.md §15).  [store-wal-append] is the
       write-path tax a durable server adds to every acked patch:
       frame, checksum and append one Patch record, under sync=never
       so the kernel times the code, not the disk (the fsync cost is a
       disk property; the sync policy that pays it is the operator's
       call).  [store-recover-100k] is restart cost: Recover.load of a
       data dir whose WAL holds one ~110k-node put — Marshal decode,
       re-intern, and digest verification, the same work
       `argus serve --store --data-dir` does before its first accept.
       Both touch the filesystem, so compare.exe treats them as
       advisory (see the store- rule there). *)
    (let seq = ref 0 in
     let edit =
       [
         Store.Set_text
           ( Argus_core.Id.of_string "G42_7",
             "operating region 42 mode 7 remains safe after the rework" );
       ]
     in
     Test.make_with_resource ~name:"store-wal-append" Test.uniq
       ~allocate:(fun () ->
         let dir = bench_tmp_dir "wal" in
         (dir, Wal.openw ~sync:Wal.Never (Recover.wal_path dir)))
       ~free:(fun (dir, wal) ->
         Wal.close wal;
         bench_rm_rf dir)
       (Staged.stage (fun (_, wal) ->
            incr seq;
            Wal.append wal
              {
                Wal.seq = !seq;
                op = Wal.Patch (String.make 32 'a', edit);
                digest = String.make 32 'b';
              })));
    Test.make_with_resource ~name:"store-recover-100k" Test.uniq
      ~allocate:(fun () ->
        let dir = bench_tmp_dir "recover" in
        let case = store_case_100k () in
        let wal = Wal.openw ~sync:Wal.Always (Recover.wal_path dir) in
        Wal.append wal
          {
            Wal.seq = 1;
            op = Wal.Put (Wellformed.Standard, case);
            digest = Store.digest_of case;
          };
        Wal.close wal;
        dir)
      ~free:bench_rm_rf
      (Staged.stage (fun dir ->
           match Recover.load ~dir () with
           | Ok outcome -> ignore outcome.Recover.store
           | Error msg -> failwith msg));
    (* Parallel-runtime kernels (argus.par): same workloads as their
       sequential counterparts above, fanned out over a pool.  Results
       are bit-identical to sequential by the pool's determinism
       contract, so these time only the runtime. *)
    par_kernel ~name:"par-exp-a-small" ~jobs:4 (fun pool ->
        ignore (Exp_a.run ~pool small_exp_a));
    par_kernel ~name:"par-exp-b" ~jobs:4 (fun pool ->
        ignore (Exp_b.run ~pool Exp_b.default_config));
    par_kernel ~name:"par-exp-e" ~jobs:4 (fun pool ->
        ignore (Exp_e.run ~pool Exp_e.default_config));
    par_kernel ~name:"par-greenwell-corpus-check" ~jobs:4 (fun pool ->
        ignore (Formal.check_many ~pool greenwell_args));
    par_kernel ~name:"par-modular-wf-16" ~jobs:4 (fun pool ->
        ignore (Fused.check_modular ~pool bench_modular));
    (* Jobs scaling: the same kernel at 1, 2 and 4 workers.  On a
       single-core host jobs=1 wins and the curve is flat — that is
       the point of recording it. *)
    par_kernel ~name:"par-exp-e-jobs1" ~jobs:1 (fun pool ->
        ignore (Exp_e.run ~pool Exp_e.default_config));
    par_kernel ~name:"par-exp-e-jobs2" ~jobs:2 (fun pool ->
        ignore (Exp_e.run ~pool Exp_e.default_config));
    par_kernel ~name:"par-exp-e-jobs4" ~jobs:4 (fun pool ->
        ignore (Exp_e.run ~pool Exp_e.default_config));
    (* Service layer (DESIGN.md §11): a full request round-trip through
       the wire protocol, and the overload path — a zero-capacity queue
       answers svc/overloaded from the acceptor without touching a
       worker, so shedding must stay much cheaper than serving. *)
    svc_kernel ~name:"svc-roundtrip" ~queue_capacity:64 (fun () ->
        svc_check_request_line);
    svc_kernel ~name:"svc-shed-overload" ~queue_capacity:0 (fun () ->
        svc_check_request_line);
    (* The wire layer on a ~1 MB frame: the decode alone, then the same
       line sent to a server that sheds it, so the round trip is read,
       frame, decode and the shed reply.  compare.exe --require-speedup
       bounds the second against the first: the framing overhead. *)
    Test.make_with_resource ~name:"json-decode-1m" Test.uniq
      ~allocate:(fun () ->
        let line = svc_line_1m () in
        String.sub line 0 (String.length line - 1))
      ~free:ignore
      (Staged.stage (fun line ->
           ignore (Argus_svc.Protocol.request_of_line line)));
    svc_kernel ~name:"svc-shed-1m" ~queue_capacity:0 svc_line_1m;
    (* The same round-trip with request-scoped tracing armed: the
       telemetry acceptance gate — capture plus span serialisation must
       stay a small fraction of the untraced round-trip (compare.exe
       prints the ratio in its advisory section). *)
    svc_kernel ~name:"svc-roundtrip-traced" ~queue_capacity:64
      (svc_request_line ~trace:true);
  ]

let run_benchmarks ~quota () =
  section "Bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let test = Test.make_grouped ~name:"argus" ~fmt:"%s/%s" bench_subjects in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort compare rows in
  List.filter_map
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] ->
          Format.printf "%-32s %14.0f ns/run@." name ns;
          Some (name, ns)
      | _ ->
          Format.printf "%-32s %14s@." name "n/a";
          None)
    rows

(* Persist the run for trajectory tracking: per-artefact timings plus
   the engine counters the workloads accumulated (the counters run even
   with tracing disabled, so this costs nothing extra). *)
let write_results ?path timings =
  let module Json = Argus_core.Json in
  let json =
    Json.Obj
      [
        ("schema", Json.Str "argus-bench/1");
        ( "timings_ns_per_run",
          Json.Obj (List.map (fun (n, ns) -> (n, Json.Num ns)) timings) );
        ("metrics", Argus_obs.Metrics.to_json ());
      ]
  in
  let path =
    match path with
    | Some p -> p
    | None ->
        if Sys.file_exists "bench" && Sys.is_directory "bench" then
          Filename.concat "bench" "results.json"
        else "results.json"
  in
  match open_out path with
  | oc ->
      output_string oc (Json.to_string ~indent:true json);
      output_char oc '\n';
      close_out oc;
      Format.printf "@.wrote %s@." path
  | exception Sys_error msg ->
      Format.eprintf "@.could not write %s: %s@." path msg

let () =
  let argv = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" argv in
  let rec out_path = function
    | "-o" :: p :: _ -> Some p
    | _ :: rest -> out_path rest
    | [] -> None
  in
  if not smoke then begin
    table1 ();
    survey_counts ();
    figure1 ();
    greenwell ();
    proofgen_sizes ();
    experiments ()
  end;
  (* The sub-microsecond kernels need the longer quota: at 0.25s their
     run-to-run spread on a shared VM exceeds the bench-smoke gate. *)
  let timings = run_benchmarks ~quota:(if smoke then 0.05 else 1.0) () in
  write_results ?path:(out_path argv) timings;
  Format.printf "@.done.@."
