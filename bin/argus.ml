(* The argus command-line tool: check, query, render and analyse
   assurance cases written in the textual DSL; run the resolution
   engine; regenerate the paper's survey tables; run the Section VI
   experiment simulations. *)

module Dsl = Argus_dsl.Dsl
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Query = Argus_gsn.Query
module Hicase = Argus_gsn.Hicase
module Cae = Argus_cae.Cae
module Informal = Argus_fallacy.Informal
module Program = Argus_prolog.Program
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Diagnostic = Argus_core.Diagnostic
module Json = Argus_core.Json
module Obs = Argus_obs.Obs
module Budget = Argus_rt.Budget
module Fault = Argus_rt.Fault
module Retry = Argus_rt.Retry
module Protocol = Argus_svc.Protocol
module Server = Argus_svc.Server
module Supervisor = Argus_svc.Supervisor
module Handlers = Argus_svc.Handlers
module Endpoint = Argus_svc.Endpoint
module Client = Argus_svc.Client
module Store = Argus_store.Store
module Durable = Argus_store.Durable
module Wal = Argus_store.Wal
open Cmdliner

(* Flag validation: resource knobs must be positive — a zero or
   negative value is a user error the CLI reports, never a crash (or a
   silently ignored limit) deep in the pool or the budget. *)
let positive_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%s must be a positive integer" what))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ ->
        Error (`Msg (Printf.sprintf "%s must be a non-negative integer" what))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%s must be positive" what))
  in
  Arg.conv (parse, Format.pp_print_float)

(* --- observability plumbing ---

   Every subcommand accepts [--trace] (span tree + counters on stderr)
   and [--trace-json FILE] (JSONL events); [ARGUS_TRACE] /
   [ARGUS_TRACE_JSON] do the same from the environment.  The [query]
   subcommand predates this and already uses [--trace] for its
   traceability view, so it only takes [--trace-json].  Each command
   runs under a root span [argus.<cmd>] and the report is emitted once,
   after command evaluation, in [main]. *)

let obs_setup trace trace_json =
  Obs.configure_from_env ();
  if trace then Obs.configure ~trace:true ();
  match trace_json with
  | Some path -> Obs.configure ~trace_json:path ()
  | None -> ()

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL trace (spans, counters, histograms) to $(docv). \
           Also enabled by ARGUS_TRACE_JSON.")

let obs_t =
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print a span tree and engine counters to stderr. Also enabled \
             by ARGUS_TRACE=1.")
  in
  Term.(const obs_setup $ trace $ trace_json_arg)

(* For [query], whose [--trace] means the traceability view. *)
let obs_json_only_t = Term.(const (obs_setup false) $ trace_json_arg)

let spanned name f = Argus_obs.Span.with_ ~name f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_case path =
  match Dsl.parse ~filename:path (read_file path) with
  | Ok case -> Ok case
  | Error ds ->
      Format.eprintf "%a" Diagnostic.pp_report ds;
      Error ()

let exit_of_diags ds = if Diagnostic.has_errors ds then 1 else 0

(* --- resource budgets ---

   Subcommands that run engines accept [--deadline MS] and [--fuel N]
   (env: ARGUS_DEADLINE_MS / ARGUS_FUEL; flags win).  Each unit of work
   gets a fresh budget built from the spec; exhaustion surfaces as an
   [rt/budget-exhausted] warning on that unit's report, never as a hang
   or a crash.  Exit codes follow the taxonomy: 0 clean, 1 findings
   (including budget truncations), 2 internal error (see DESIGN.md
   §10). *)

let budget_spec_t =
  let deadline =
    Arg.(
      value
      & opt (some (positive_float_conv "--deadline")) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Soft wall-clock limit per checked unit, in milliseconds. On \
             expiry the engines stop and report a partial result with an \
             rt/budget-exhausted warning. Also set by ARGUS_DEADLINE_MS.")
  in
  let fuel =
    Arg.(
      value
      & opt (some (positive_int_conv "--fuel")) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Engine step limit per checked unit. Also set by ARGUS_FUEL.")
  in
  let combine deadline_ms fuel =
    let env = Budget.spec_of_env () in
    {
      Budget.deadline_ms =
        (match deadline_ms with Some _ -> deadline_ms | None -> env.Budget.deadline_ms);
      fuel = (match fuel with Some _ -> fuel | None -> env.Budget.fuel);
    }
  in
  Term.(const combine $ deadline $ fuel)

(* [Some budget] when the spec actually limits something, [None]
   otherwise — engines that keep an internal default cap (the informal
   lints) must see [None], not an unlimited budget that would disable
   it. *)
let budget_of_spec spec =
  if Budget.spec_is_unlimited spec then None else Some (Budget.of_spec spec)

(* --- the handler ops at the edge ---

   [check], [fallacies], [prove] and [probe] run the daemon's typed ops
   ({!Handlers}) and only render the answer: the result on stdout, a
   rejected input and budget warnings on stderr, the op's exit code. *)

let rejection_text = function
  | Handlers.Invalid ds -> Format.asprintf "%a" Diagnostic.pp_report ds
  | Handlers.Unreadable msg -> msg ^ "\n"

let print_warnings = function
  | [] -> ()
  | ds -> Format.eprintf "%a" Diagnostic.pp_report ds

let run_op (a : _ Handlers.answer) render =
  (match a.Handlers.result with
  | Ok v -> render v
  | Error r -> Format.eprintf "%s%!" (rejection_text r));
  a.Handlers.exit_code

(* --- check --- *)

let ruleset_conv =
  Arg.enum
    (List.map
       (fun r -> (Wellformed.ruleset_to_string r, r))
       [ Wellformed.Standard; Wellformed.Denney_pai_2013 ])

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Case file.")

let check_cmd =
  let run () ruleset with_lints format jobs spec paths =
    spanned "argus.check" @@ fun () ->
    let render_report ds =
      match format with
      | `Text -> Format.asprintf "%a" Diagnostic.pp_report ds
      | `Json ->
          Json.to_string ~indent:true (Diagnostic.report_to_json ds) ^ "\n"
    in
    (* One file's whole check, fully buffered as (stdout, stderr, exit
       code) so batch mode can run files on worker domains and still
       print byte-identical output in input order.  Each file gets a
       fresh budget from the spec, and the ["check.file"] fault probe
       (keyed by basename) fires before any work so tests can kill one
       file of a batch deterministically.  The check itself is the
       daemon's {!Handlers.check}; a rejected file's diagnostics go to
       stderr in text mode. *)
    let check_file ?pool path =
      Fault.point ~key:(Filename.basename path) "check.file";
      let a =
        Handlers.check ?pool ?budget:(budget_of_spec spec) ~ruleset
          ~lints:with_lints ~filename:path (read_file path)
      in
      match (a.Handlers.result, format) with
      | Ok ds, _ | Error (Handlers.Invalid ds), `Json ->
          (render_report ds, "", a.Handlers.exit_code)
      | Error r, _ -> ("", rejection_text r, a.Handlers.exit_code)
    in
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Argus_par.Pool.default_jobs ()
    in
    (* Fault isolation: one file crashing (a bug, or an injected fault)
       becomes that file's own internal-error report with exit code 2;
       every other file in the batch is still checked and printed, in
       input order. *)
    let capture f =
      try Ok (f ())
      with e ->
        let backtrace = Printexc.get_raw_backtrace () in
        Error { Argus_par.Pool.exn = e; backtrace }
    in
    let results =
      if jobs <= 1 then
        List.map (fun p -> capture (fun () -> check_file p)) paths
      else
        Argus_par.Pool.with_pool ~jobs (fun pool ->
            match paths with
            | [ p ] ->
                (* A single file still uses the pool inside the
                   modular-collection check. *)
                [ capture (fun () -> check_file ~pool p) ]
            | _ -> Argus_par.Pool.map_list_result ~pool check_file paths)
    in
    let internal_error path (f : Argus_par.Pool.failure) =
      let d =
        Diagnostic.errorf ~code:"rt/internal-error"
          "internal error checking %s: %s" path (Printexc.to_string f.exn)
      in
      match format with
      | `Text -> ("", Format.asprintf "%a" Diagnostic.pp_report [ d ], 2)
      | `Json -> (render_report [ d ], "", 2)
    in
    List.fold_left2
      (fun code path result ->
        let out, err, c =
          match result with Ok r -> r | Error f -> internal_error path f
        in
        if out <> "" then begin
          print_string out;
          flush stdout
        end;
        if err <> "" then begin
          prerr_string err;
          flush stderr
        end;
        max code c)
      0 paths results
  in
  let ruleset =
    Arg.(value & opt ruleset_conv Wellformed.Standard
         & info [ "ruleset" ] ~doc:"Rule set: $(b,standard) or $(b,denney-pai).")
  in
  let lints =
    Arg.(value & flag & info [ "lints" ] ~doc:"Also run informal-fallacy lints.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ]
          ~doc:"Output format: $(b,text) or $(b,json) (machine-readable).")
  in
  let jobs =
    Arg.(
      value
      & opt (some (positive_int_conv "--jobs")) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Check files across $(docv) worker domains (default: \
             ARGUS_JOBS, else the machine's recommended domain count). \
             Diagnostics are printed in input order whatever $(docv) is.")
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Case file(s).")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check one or more cases for well-formedness")
    Term.(
      const run $ obs_t $ ruleset $ lints $ format $ jobs $ budget_spec_t
      $ files_arg)

(* --- render --- *)

let render_cmd =
  let run () dot depth path =
    spanned "argus.render" @@ fun () ->
    match load_case path with
    | Error () -> 1
    | Ok case ->
        let structure =
          match depth with
          | None -> case.Dsl.structure
          | Some d ->
              Hicase.visible
                (Hicase.collapse_to_depth d
                   (Hicase.of_structure case.Dsl.structure))
        in
        if dot then print_string (Structure.to_dot structure)
        else Format.printf "%a" Structure.pp_outline structure;
        0
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz.") in
  let depth =
    Arg.(value & opt (some int) None
         & info [ "depth" ] ~docv:"N" ~doc:"Hicase view collapsed at depth $(docv).")
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render a case as an outline or Graphviz")
    Term.(const run $ obs_t $ dot $ depth $ file_arg)

(* --- query --- *)

let query_cmd =
  let run () trace path query_text =
    spanned "argus.query" @@ fun () ->
    match load_case path with
    | Error () -> 1
    | Ok case -> (
        match Query.of_string query_text with
        | Error e ->
            Format.eprintf "query error: %s@." e;
            1
        | Ok q ->
            if trace then
              Format.printf "%a" Structure.pp_outline
                (Query.trace_view q case.Dsl.structure)
            else
              List.iter
                (fun n -> Format.printf "%a@." Argus_gsn.Node.pp n)
                (Query.select q case.Dsl.structure);
            0)
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Print the traceability view instead of matches.")
  in
  let query_text =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query an annotated case (Denney-Naylor-Pai style)")
    Term.(const run $ obs_json_only_t $ trace $ file_arg $ query_text)

(* --- fallacies --- *)

let fallacies_cmd =
  let run () spec path =
    spanned "argus.fallacies" @@ fun () ->
    run_op
      (Handlers.fallacies ?budget:(budget_of_spec spec) ~filename:path
         (read_file path))
      (Format.printf "%a" Diagnostic.pp_report)
  in
  Cmd.v
    (Cmd.info "fallacies" ~doc:"Run the informal-fallacy lints over a case")
    Term.(const run $ obs_t $ budget_spec_t $ file_arg)

(* --- prove --- *)

let prove_cmd =
  let run () max_depth spec path goal =
    spanned "argus.prove" @@ fun () ->
    run_op
      (Handlers.prove ~max_depth ?budget:(budget_of_spec spec) ~goal
         (read_file path))
      (fun p ->
        (match p.Handlers.derivation with
        | Some d -> Format.printf "%a" Argus_prolog.Derivation.pp d
        | None -> Format.printf "not derivable@.");
        print_warnings p.Handlers.warnings)
  in
  let max_depth =
    Arg.(value & opt int 64 & info [ "max-depth" ] ~docv:"N" ~doc:"Depth bound.")
  in
  let goal =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GOAL")
  in
  Cmd.v
    (Cmd.info "prove" ~doc:"Run SLD resolution over a Horn-clause program")
    Term.(const run $ obs_t $ max_depth $ budget_spec_t $ file_arg $ goal)

(* --- cae --- *)

let cae_cmd =
  let run () path =
    spanned "argus.cae" @@ fun () ->
    match load_case path with
    | Error () -> 1
    | Ok case ->
        let cae = Cae.of_gsn case.Dsl.structure in
        Format.printf "%a" Cae.pp_outline cae;
        exit_of_diags (Fused.check_cae (Fused.intern_cae cae))
  in
  Cmd.v
    (Cmd.info "cae" ~doc:"Translate a GSN case to Claims-Argument-Evidence")
    Term.(const run $ obs_t $ file_arg)

(* --- export / stats --- *)

let export_cmd =
  let run () path =
    spanned "argus.export" @@ fun () ->
    match load_case path with
    | Error () -> 1
    | Ok case ->
        print_string (Argus_gsn.Interchange.export case.Dsl.structure);
        print_newline ();
        0
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a case's structure as JSON")
    Term.(const run $ obs_t $ file_arg)

let import_cmd =
  let run () path =
    spanned "argus.import" @@ fun () ->
    match Argus_gsn.Interchange.import (read_file path) with
    | Error ds ->
        Format.eprintf "%a" Diagnostic.pp_report ds;
        1
    | Ok structure ->
        Format.printf "%a" Structure.pp_outline structure;
        exit_of_diags
          (Fused.check ~lints:false (Caseir.intern structure)).Fused.wf
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Import a JSON structure, render it and check well-formedness")
    Term.(const run $ obs_t $ file_arg)

let stats_cmd =
  let run () path =
    spanned "argus.stats" @@ fun () ->
    match load_case path with
    | Error () -> 1
    | Ok case ->
        Format.printf "%a" Argus_gsn.Metrics.pp
          (Argus_gsn.Metrics.measure case.Dsl.structure);
        0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print descriptive metrics of a case")
    Term.(const run $ obs_t $ file_arg)

(* --- probe --- *)

let probe_cmd =
  let run () spec path =
    spanned "argus.probe" @@ fun () ->
    run_op
      (Handlers.probe ?budget:(budget_of_spec spec) (read_file path))
      (fun (p : Handlers.probes) ->
        let show = Argus_logic.Prop.to_string in
        Format.printf "proof checks; it proves %s@.@." (show p.theorem);
        Format.printf "what-if exploration (retract each premise):@.";
        List.iter
          (fun { Handlers.premise; countermodel } ->
            match countermodel with
            | None ->
                Format.printf "  %-30s conclusion survives@." (show premise)
            | Some model ->
                Format.printf "  %-30s LOAD-BEARING; countermodel: %s@."
                  (show premise)
                  (String.concat ", "
                     (List.map
                        (fun (v, b) -> Printf.sprintf "%s=%b" v b)
                        model)))
          p.probes;
        print_warnings p.warnings)
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:
         "Check a natural-deduction proof and run Rushby-style what-if \
          probing of its premises")
    Term.(const run $ obs_t $ budget_spec_t $ file_arg)

(* --- format --- *)

let format_cmd =
  let run () path =
    spanned "argus.format" @@ fun () ->
    match Dsl.parse_collection ~filename:path (read_file path) with
    | Error ds ->
        Format.eprintf "%a" Diagnostic.pp_report ds;
        1
    | Ok cases ->
        List.iteri
          (fun i case ->
            if i > 0 then print_newline ();
            print_string (Dsl.print case))
          cases;
        0
  in
  Cmd.v
    (Cmd.info "format" ~doc:"Reprint a case file in canonical form")
    Term.(const run $ obs_t $ file_arg)

(* --- equivocation --- *)

let equivocation_cmd =
  let run () path =
    spanned "argus.equivocation" @@ fun () ->
    match Program.of_string (read_file path) with
    | Error e ->
        Format.eprintf "program error: %s@." e;
        1
    | Ok program -> (
        match Informal.equivocation_candidates program with
        | [] ->
            Format.printf "no equivocation candidates@.";
            0
        | candidates ->
            List.iter
              (fun c ->
                Format.printf
                  "%s occupies multiple predicate roles; check it means one \
                   thing@."
                  c)
              candidates;
            0)
  in
  Cmd.v
    (Cmd.info "equivocation"
       ~doc:"Flag equivocation candidates in a Horn-clause program")
    Term.(const run $ obs_t $ file_arg)

(* --- survey --- *)

let survey_cmd =
  let run () papers =
    spanned "argus.survey" @@ fun () ->
    if papers then begin
      Format.printf "%a" Argus_survey.Report.pp_all ();
      0
    end
    else begin
    let table = Argus_survey.Selection.table1 Argus_survey.Selection.corpus in
    Format.printf "Table I (regenerated by the selection pipeline):@.%a@."
      Argus_survey.Selection.pp_table1 table;
    Format.printf "Papers surviving phase two: %d@.@."
      (Argus_survey.Selection.selected_after_phase2
         Argus_survey.Selection.corpus);
    Format.printf "Derived survey counts (computed vs reported):@.";
    List.iter
      (fun (what, computed, reported) ->
        Format.printf "  %-58s %3d  (paper: %d)%s@." what computed reported
          (if computed = reported then "" else "  MISMATCH"))
      (Argus_survey.Queries.report ());
    0
    end
  in
  let papers =
    Arg.(value & flag
         & info [ "papers" ]
             ~doc:"Print the per-paper characterisations instead of counts.")
  in
  Cmd.v
    (Cmd.info "survey" ~doc:"Regenerate Table I and the survey counts")
    Term.(const run $ obs_t $ papers)

(* --- experiments --- *)

let experiments_cmd =
  let open Argus_experiments in
  let run () which seed jobs =
    spanned "argus.experiments" @@ fun () ->
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Argus_par.Pool.default_jobs ()
    in
    let with_pool f =
      (* Results are pool-independent by construction (per-trial PRNG
         streams); the pool only changes who runs the trials. *)
      if jobs <= 1 then f None
      else Argus_par.Pool.with_pool ~jobs (fun pool -> f (Some pool))
    in
    with_pool @@ fun pool ->
    let run_a () =
      Format.printf "%a@." Exp_a.pp
        (Exp_a.run ?pool { Exp_a.default_config with seed })
    and run_b () =
      Format.printf "%a@." Exp_b.pp
        (Exp_b.run ?pool { Exp_b.default_config with seed })
    and run_c () =
      Format.printf "%a@." Exp_c.pp
        (Exp_c.run ?pool { Exp_c.default_config with seed })
    and run_d () =
      Format.printf "%a@." Exp_d.pp
        (Exp_d.run ?pool { Exp_d.default_config with seed })
    and run_e () =
      Format.printf "%a@." Exp_e.pp
        (Exp_e.run ?pool { Exp_e.default_config with seed })
    in
    (match which with
    | "a" -> run_a ()
    | "b" -> run_b ()
    | "c" -> run_c ()
    | "d" -> run_d ()
    | "e" -> run_e ()
    | _ ->
        run_a ();
        run_b ();
        run_c ();
        run_d ();
        run_e ());
    0
  in
  let which =
    Arg.(value & pos 0 string "all" & info [] ~docv:"WHICH"
         ~doc:"Which experiment: a, b, c, d, e or all.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let jobs =
    Arg.(
      value
      & opt (some (positive_int_conv "--jobs")) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Split simulation trials across $(docv) worker domains \
             (default: ARGUS_JOBS, else the machine's recommended domain \
             count).  Results are bit-identical for any $(docv).")
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the Section VI experiment simulations")
    Term.(const run $ obs_t $ which $ seed $ jobs)

(* --- serve / call ---

   [argus serve] runs the supervised always-on service (DESIGN.md §11);
   [argus call] is its line-protocol client — it retries the connect
   with deterministic backoff so scripts can start the daemon and call
   it immediately. *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix domain socket path the server listens on.")

let connect_arg =
  Arg.(
    value & opt_all string []
    & info [ "connect" ] ~docv:"ENDPOINT"
        ~doc:
          "Server endpoint: $(b,HOST:PORT) for TCP or a socket path.  \
           Repeatable — the client tries endpoints in order and fails \
           over to the next when one stops answering.")

(* Resolve --socket/--connect into the client's endpoint list: the
   Unix socket (when given) leads, --connect endpoints follow in
   order.  At least one is required. *)
let endpoints_of socket connects =
  let parsed =
    List.map
      (fun s ->
        match Endpoint.of_string s with
        | Ok e -> Ok e
        | Error e -> Error e)
      connects
  in
  match List.find_opt Result.is_error parsed with
  | Some (Error e) -> Error e
  | _ ->
      let eps = List.filter_map Result.to_option parsed in
      let eps =
        match socket with
        | Some p -> Endpoint.Unix_path p :: eps
        | None -> eps
      in
      if eps = [] then Error "no endpoint: give --socket or --connect"
      else Ok eps

let serve_cmd =
  let run () socket listen port_file max_conns idle_timeout read_deadline
      store data_dir sync snapshot_every jobs queue_cap
      deadline max_deadline max_fuel drain_ms breaker_failures
      breaker_cooldown slow_ms =
    spanned "argus.serve" @@ fun () ->
    let jobs =
      match jobs with Some n -> n | None -> Argus_par.Pool.default_jobs ()
    in
    let env_spec = Budget.spec_of_env () in
    let cfg =
      {
        (Server.default_config
           ~socket_path:(Option.value ~default:"" socket))
        with
        Server.listen;
        port_file;
        max_conns;
        idle_timeout_ms = idle_timeout;
        read_deadline_ms = read_deadline;
        supervisor =
          {
            Supervisor.default_config with
            Supervisor.jobs;
            queue_capacity = queue_cap;
            budget =
              {
                Supervisor.default_deadline_ms =
                  (match deadline with
                  | Some _ -> deadline
                  | None -> env_spec.Budget.deadline_ms);
                max_deadline_ms = max_deadline;
                max_fuel;
              };
            breaker_failures;
            breaker_cooldown_ms = breaker_cooldown;
            slow_ms;
          };
        drain_ms;
      }
    in
    if socket = None && listen = None then begin
      Printf.eprintf "argus serve: no listener (give --socket or --listen)\n%!";
      2
    end
    else if (not store) && data_dir <> None then begin
      Printf.eprintf "argus serve: --data-dir needs --store\n%!";
      2
    end
    else if store then begin
      match Durable.create ?dir:data_dir ~sync ~snapshot_every () with
      | Error diagnostic ->
          (* A refused recovery (mid-stream corruption, digest
             mismatch) must not be papered over by starting empty:
             surface it and let the operator decide. *)
          Printf.eprintf "argus serve: %s\n%!" diagnostic;
          2
      | Ok (durable, summary) ->
          Printf.eprintf "argus serve: %s\n%!" summary;
          Server.run
            ~handler:(Handlers.with_store durable)
            ~extra_stats:(fun () ->
              [ ("store", Durable.stats_json durable) ])
            ~on_drain:(fun () ->
              Durable.flush durable;
              Durable.close durable)
            cfg
    end
    else Server.run cfg
  in
  let store =
    Arg.(
      value & flag
      & info [ "store" ]
          ~doc:
            "Serve the stateful store ops (put, patch, verdict) from an \
             incremental case store shared by all workers.  Without this \
             flag those ops answer svc/bad-request.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Make the store durable: append every put/patch to a \
             checksummed write-ahead log under $(docv), compact with \
             periodic snapshots, and on startup recover the prior state \
             (replaying the WAL tail with digest verification).  A \
             corrupted log is refused with a diagnostic; a disk error at \
             runtime degrades the store to read-only instead of crashing.  \
             Requires --store.")
  in
  let sync =
    Arg.(
      value
      & opt
          (enum [ ("always", Wal.Always); ("never", Wal.Never) ])
          Wal.Always
      & info [ "sync" ] ~docv:"POLICY"
          ~doc:
            "WAL fsync policy: $(b,always) fsyncs every append (an \
             acknowledged write is durable), $(b,never) leaves flushing \
             to the kernel until the drain.")
  in
  let snapshot_every =
    Arg.(
      value
      & opt (nonneg_int_conv "--snapshot-every") 1024
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Write a compacting snapshot and reset the WAL every $(docv) \
             logged operations (0 disables snapshots).")
  in
  let jobs =
    Arg.(
      value
      & opt (some (positive_int_conv "--jobs")) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains serving requests (default: ARGUS_JOBS, else \
             the machine's recommended domain count).")
  in
  let queue_cap =
    Arg.(
      value
      & opt (nonneg_int_conv "--queue-cap") 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission queue high-water mark: past $(docv) queued \
             requests, new ones are shed with an immediate \
             svc/overloaded response.  0 sheds everything.")
  in
  let deadline =
    Arg.(
      value
      & opt (some (positive_float_conv "--deadline")) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline in milliseconds, applied when \
             the client sends none (clock starts at admission). Also set \
             by ARGUS_DEADLINE_MS.")
  in
  let max_deadline =
    Arg.(
      value
      & opt (some (positive_float_conv "--max-deadline")) None
      & info [ "max-deadline" ] ~docv:"MS"
          ~doc:"Upper clamp on client-requested deadlines.")
  in
  let max_fuel =
    Arg.(
      value
      & opt (some (positive_int_conv "--max-fuel")) None
      & info [ "max-fuel" ] ~docv:"N"
          ~doc:"Upper clamp on client-requested fuel.")
  in
  let drain_ms =
    Arg.(
      value
      & opt (positive_float_conv "--drain-ms") 5000.
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT, stop accepting and let in-flight work \
             finish for up to $(docv) milliseconds; exit 0 on a clean \
             drain, 1 if work had to be abandoned.")
  in
  let breaker_failures =
    Arg.(
      value
      & opt (nonneg_int_conv "--breaker-failures") 5
      & info [ "breaker-failures" ] ~docv:"N"
          ~doc:
            "Consecutive crashes of one request kind that open its \
             circuit breaker (0 disables the breakers).")
  in
  let breaker_cooldown =
    Arg.(
      value
      & opt (positive_float_conv "--breaker-cooldown") 1000.
      & info [ "breaker-cooldown" ] ~docv:"MS"
          ~doc:
            "Milliseconds an open breaker waits before letting a \
             half-open trial request through.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some (positive_float_conv "--slow-ms")) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Record requests slower than $(docv) milliseconds (admission \
             to reply) in the flight recorder.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Also (or instead) listen on TCP at $(docv); port 0 asks the \
             kernel for an ephemeral port (see --port-file).  Accepted \
             sockets get TCP_NODELAY; slow-loris and half-open clients \
             are bounded by --read-deadline and --idle-timeout.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound TCP port to $(docv) before serving — how \
             scripts find a --listen host:0 server.")
  in
  let max_conns =
    Arg.(
      value
      & opt (positive_int_conv "--max-conns") 4096
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Simultaneous-connection cap; at the cap new clients wait in \
             the listen backlog.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt (positive_float_conv "--idle-timeout") 60000.
      & info [ "idle-timeout" ] ~docv:"MS"
          ~doc:
            "Reap connections with no read activity, nothing buffered \
             and nothing in flight after $(docv) milliseconds.")
  in
  let read_deadline =
    Arg.(
      value
      & opt (positive_float_conv "--read-deadline") 10000.
      & info [ "read-deadline" ] ~docv:"MS"
          ~doc:
            "A partial request frame must complete within $(docv) \
             milliseconds of its first byte; the offender is answered \
             svc/bad-request and closed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the supervised always-on checking service on a Unix socket \
          and/or TCP")
    Term.(
      const run $ obs_t $ socket_arg $ listen $ port_file $ max_conns
      $ idle_timeout $ read_deadline $ store $ data_dir $ sync
      $ snapshot_every $ jobs $ queue_cap $ deadline
      $ max_deadline $ max_fuel $ drain_ms $ breaker_failures
      $ breaker_cooldown $ slow_ms)

(* One request line, one response, through the resilient client: the
   server may still be binding (scripts start it in the background and
   call straight away — the seeded backoff covers that), may be killed
   mid-request (the retry fails over along the --connect list), or may
   dribble (per-attempt deadlines carved from the overall budget bound
   every read).  Shared by [call] and [top]. *)
let roundtrip ?op eps line =
  match Client.call ?op (Client.create eps) line with
  | Ok resp -> Ok resp
  | Error e -> Error (Client.error_message e)

(* The --edit mini-grammar, one edit per occurrence:
   set-text:ID=TEXT | add-node:TYPE:ID=TEXT | remove-node:ID |
   link:KIND:SRC:DST | unlink:KIND:SRC:DST with KIND one of
   supported-by, in-context-of. *)
let edit_conv =
  let split_eq s =
    match String.index_opt s '=' with
    | None -> None
    | Some i ->
        Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let id_of s what =
    match Argus_core.Id.of_string_opt s with
    | Some id -> Ok id
    | None -> Error (`Msg (Printf.sprintf "--edit: bad %s id %S" what s))
  in
  let link_of ctor rest =
    match String.split_on_char ':' rest with
    | [ kind; src; dst ] -> (
        match Structure.link_of_string kind with
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "--edit: link kind must be %s or %s, not %S"
                    (Structure.link_to_string Structure.Supported_by)
                    (Structure.link_to_string Structure.In_context_of)
                    rest))
        | Some kind -> (
            match (id_of src "source", id_of dst "destination") with
            | Ok src, Ok dst -> Ok (ctor kind src dst)
            | (Error _ as e), _ | _, (Error _ as e) -> e))
    | _ -> Error (`Msg "--edit: expected link:KIND:SRC:DST")
  in
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "--edit: no operation in %S" s))
    | Some i -> (
        let op = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match op with
        | "set-text" -> (
            match split_eq rest with
            | None -> Error (`Msg "--edit: expected set-text:ID=TEXT")
            | Some (id, text) ->
                Result.map (fun id -> Store.Set_text (id, text))
                  (id_of id "node"))
        | "add-node" -> (
            match split_eq rest with
            | None -> Error (`Msg "--edit: expected add-node:TYPE:ID=TEXT")
            | Some (head, text) -> (
                match String.index_opt head ':' with
                | None -> Error (`Msg "--edit: expected add-node:TYPE:ID=TEXT")
                | Some j -> (
                    let ty = String.sub head 0 j in
                    let id =
                      String.sub head (j + 1) (String.length head - j - 1)
                    in
                    match Argus_gsn.Node.type_of_string ty with
                    | None ->
                        Error
                          (`Msg
                             (Printf.sprintf "--edit: unknown node type %S" ty))
                    | Some node_type ->
                        Result.map
                          (fun id ->
                            Store.Add_node
                              (Argus_gsn.Node.make ~id ~node_type text))
                          (id_of id "node"))))
        | "remove-node" ->
            Result.map (fun id -> Store.Remove_node id) (id_of rest "node")
        | "link" -> link_of (fun k s d -> Store.Link (k, s, d)) rest
        | "unlink" -> link_of (fun k s d -> Store.Unlink (k, s, d)) rest
        | _ -> Error (`Msg (Printf.sprintf "--edit: unknown operation %S" op)))
  in
  let pp ppf e =
    Format.pp_print_string ppf (Json.to_string (Protocol.edit_to_json e))
  in
  Arg.conv (parse, pp)

let call_cmd =
  let run () socket connects id op file goal ruleset lints spec raw
      trace wire_format digest edits =
    spanned "argus.call" @@ fun () ->
    let line =
      match raw with
      | Some json -> json
      | None ->
          let source, filename =
            match file with
            | Some path -> (read_file path, Filename.basename path)
            | None -> ("", "<request>")
          in
          let req =
            Protocol.request ?id ~source ~filename ?goal
              ~ruleset:(Wellformed.ruleset_to_string ruleset) ~lints
              ?deadline_ms:spec.Budget.deadline_ms ?fuel:spec.Budget.fuel
              ~trace ?format:wire_format ?digest ~edits op
          in
          Json.to_string (Protocol.request_to_json req)
    in
    match
      match endpoints_of socket connects with
      | Error e -> Error e
      | Ok eps -> roundtrip ~op eps line
    with
    | Error msg ->
        Format.eprintf "argus call: %s@." msg;
        2
    | Ok resp -> (
        match resp.Protocol.outcome with
        | Ok (_, payload)
          when wire_format = Some "prometheus"
               && List.mem_assoc "body" payload -> (
            (* Prometheus exposition: print the text page raw, not
               wrapped in JSON. *)
            match List.assoc "body" payload with
            | Json.Str body ->
                print_string body;
                Protocol.exit_code_of_response resp
            | _ ->
                Format.eprintf "argus call: malformed stats body@.";
                2)
        | _ ->
            (* A returned span tree renders as an indented table on
               stderr; the machine-readable response stays on stdout
               without it (use --raw to see the wire form). *)
            let resp =
              match resp.Protocol.outcome with
              | Ok (code, payload) when List.mem_assoc "trace" payload ->
                  (match
                     Argus_obs.Trace.span_of_json (List.assoc "trace" payload)
                   with
                  | Some tree ->
                      Format.eprintf "== server trace (%s) ==@.%a"
                        (Option.value resp.Protocol.rtrace_id ~default:"?")
                        Argus_obs.Trace.pp_span_tree [ tree ]
                  | None -> ());
                  {
                    resp with
                    Protocol.outcome =
                      Ok (code, List.remove_assoc "trace" payload);
                  }
              | _ -> resp
            in
            print_string
              (Json.to_string ~indent:true (Protocol.response_to_json resp));
            print_newline ();
            Protocol.exit_code_of_response resp)
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:
            "Request id (correlates the response; the server assigns one \
             when absent).")
  in
  let op =
    let ops =
      List.map (fun op -> (Protocol.op_to_string op, op)) Protocol.ops
    in
    Arg.(
      required
      & pos 0 (some (enum ops)) None
      & info [] ~docv:"OP"
          ~doc:
            "check, prove, fallacies, probe, health, stats, put, patch or \
             verdict (the last three need $(b,argus serve --store)).")
  in
  let file =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"FILE" ~doc:"Document to send as the request source.")
  in
  let goal =
    Arg.(
      value
      & opt (some string) None
      & info [ "goal" ] ~docv:"GOAL" ~doc:"Goal term (prove requests).")
  in
  let ruleset =
    Arg.(
      value & opt ruleset_conv Wellformed.Standard
      & info [ "ruleset" ] ~doc:"Rule set: $(b,standard) or $(b,denney-pai).")
  in
  let lints =
    Arg.(
      value & flag
      & info [ "lints" ] ~doc:"Also run informal-fallacy lints (check).")
  in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"JSON"
          ~doc:"Send $(docv) verbatim as the request line instead.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Ask the server to capture this request's span tree and \
             render it on stderr (the tree is recorded on the worker \
             that ran the request).")
  in
  let wire_format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "stats only: $(b,json) (default) or $(b,prometheus) (text \
             exposition, printed raw).")
  in
  let digest =
    Arg.(
      value
      & opt (some string) None
      & info [ "digest" ] ~docv:"DIGEST"
          ~doc:"Case address for patch and verdict requests.")
  in
  let edits =
    Arg.(
      value
      & opt_all edit_conv []
      & info [ "edit" ] ~docv:"EDIT"
          ~doc:
            "Repeatable patch edit: $(b,set-text:ID=TEXT), \
             $(b,add-node:TYPE:ID=TEXT), $(b,remove-node:ID), \
             $(b,link:KIND:SRC:DST) or $(b,unlink:KIND:SRC:DST) with KIND \
             $(b,supported-by) or $(b,in-context-of).")
  in
  Cmd.v
    (Cmd.info "call" ~doc:"Send one request to a running argus serve")
    Term.(
      const run $ obs_json_only_t $ socket_arg $ connect_arg $ id $ op
      $ file $ goal $ ruleset $ lints $ budget_spec_t $ raw $ trace
      $ wire_format $ digest $ edits)

(* --- top ---

   A polling one-screen view over the daemon's queue-bypassing [stats]
   op: request rate (from the server's own counter deltas and clock, so
   client skew cannot distort it), queue depth, restarts, per-kind
   latency quantiles, breaker and worker states. *)

let top_cmd =
  let run () socket connects interval_ms once =
    spanned "argus.top" @@ fun () ->
    let stats_line =
      Json.to_string
        (Protocol.request_to_json (Protocol.request Protocol.Stats))
    in
    let eps =
      match endpoints_of socket connects with
      | Ok eps -> eps
      | Error e ->
          Format.eprintf "argus top: %s@." e;
          exit 2
    in
    let prev = ref None in
    let render payload =
      let member k = List.assoc_opt k payload in
      let num k = match member k with Some (Json.Num n) -> Some n | _ -> None in
      let obj k = match member k with Some (Json.Obj kvs) -> kvs | _ -> [] in
      let counters = obj "counters" in
      let counter k =
        match List.assoc_opt k counters with
        | Some (Json.Num n) -> n
        | _ -> 0.
      in
      let int_of k d =
        match num k with Some n -> int_of_float n | None -> d
      in
      let now_ms = Option.value (num "now_ms") ~default:0. in
      let accepted = counter "svc.accepted" in
      let rate =
        match !prev with
        | Some (t0, a0) when now_ms > t0 ->
            Printf.sprintf "%.1f"
              ((accepted -. a0) /. ((now_ms -. t0) /. 1000.))
        | _ -> "-"
      in
      prev := Some (now_ms, accepted);
      let ready =
        match member "ready" with Some (Json.Bool b) -> b | _ -> false
      in
      Format.printf "argus top — %s@."
        (String.concat ", " (List.map Endpoint.to_string eps));
      Format.printf
        "ready %b   queue %d/%d   jobs %d   restarts %d   req/s %s@."
        ready (int_of "queue_depth" 0)
        (int_of "queue_capacity" 0)
        (int_of "jobs" 0) (int_of "restarts" 0) rate;
      Format.printf
        "accepted %.0f   shed %.0f   breaker-open %.0f   flight events %d@."
        accepted (counter "svc.shed")
        (counter "svc.breaker_open")
        (int_of "flight_recorded" 0);
      let latency = obj "latency_ms" in
      if latency <> [] then begin
        Format.printf "@.%-12s %8s %9s %9s %9s %9s@." "latency (ms)" "count"
          "p50" "p90" "p99" "max";
        let q j k =
          match j with
          | Json.Obj kvs -> (
              match List.assoc_opt k kvs with
              | Some (Json.Num n) -> n
              | _ -> 0.)
          | _ -> 0.
        in
        (* The aggregate row leads; kinds follow alphabetically. *)
        let rows =
          List.sort
            (fun (a, _) (b, _) ->
              match (a, b) with
              | "all", "all" -> 0
              | "all", _ -> -1
              | _, "all" -> 1
              | _ -> compare a b)
            latency
        in
        List.iter
          (fun (name, j) ->
            Format.printf "%-12s %8.0f %9.2f %9.2f %9.2f %9.2f@." name
              (q j "count") (q j "p50") (q j "p90") (q j "p99") (q j "max"))
          rows
      end;
      (* The store line appears once the server has served a store op:
         live nodes (gauge) plus the reuse counters that tell whether
         the incremental machinery is earning its keep. *)
      let gauges = obj "gauges" in
      let gauge k =
        match List.assoc_opt k gauges with
        | Some (Json.Obj kvs) -> (
            match List.assoc_opt "value" kvs with
            | Some (Json.Num n) -> int_of_float n
            | _ -> 0)
        | _ -> 0
      in
      let store_nodes = gauge "store.nodes" in
      if
        store_nodes > 0
        || counter "store.reused_verdicts" > 0.
        || counter "store.dirty_cone" > 0.
      then
        Format.printf
          "store: nodes %d   node-hits %.0f   reused-verdicts %.0f   \
           dirty-cone %.0f@."
          store_nodes
          (counter "store.node_hits")
          (counter "store.reused_verdicts")
          (counter "store.dirty_cone");
      let breakers = obj "breakers" in
      if breakers <> [] then begin
        Format.printf "@.breakers:";
        List.iter
          (fun (op, st) ->
            match st with
            | Json.Str s -> Format.printf " %s=%s" op s
            | _ -> ())
          breakers;
        Format.printf "@."
      end;
      (match member "workers" with
      | Some (Json.List ws) ->
          Format.printf "workers:";
          List.iter
            (fun w ->
              match w with
              | Json.Obj kvs -> (
                  match List.assoc_opt "state" kvs with
                  | Some (Json.Str s) -> Format.printf " %s" s
                  | _ -> ())
              | _ -> ())
            ws;
          Format.printf "@."
      | _ -> ());
      Format.print_flush ()
    in
    let rec loop () =
      match roundtrip ~op:Protocol.Stats eps stats_line with
      | Error msg ->
          Format.eprintf "argus top: %s@." msg;
          2
      | Ok resp -> (
          match resp.Protocol.outcome with
          | Error (code, msg) ->
              Format.eprintf "argus top: %s: %s@." code msg;
              2
          | Ok (_, payload) ->
              if not once then print_string "\027[2J\027[H";
              render payload;
              if once then 0
              else begin
                Argus_core.Clock.sleep_ms (Float.max 50. interval_ms);
                loop ()
              end)
    in
    loop ()
  in
  let interval =
    Arg.(
      value
      & opt (positive_float_conv "--interval") 1000.
      & info [ "interval" ] ~docv:"MS"
          ~doc:"Milliseconds between polls (default 1000).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single snapshot and exit (no screen clearing).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live one-screen telemetry view of a running argus serve")
    Term.(
      const run $ obs_json_only_t $ socket_arg $ connect_arg $ interval
      $ once)

(* A consumer that stopped reading (argus check ... | head) must end
   the process quietly, not as a SIGPIPE kill or an "internal error":
   SIGPIPE is ignored, so the write surfaces as EPIPE, which we map to
   a clean exit. *)
let is_broken_pipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | Sys_error msg ->
      (* Stdlib channels wrap EPIPE as Sys_error with strerror text. *)
      Argus_core.Textutil.contains_substring msg "roken pipe"
  | _ -> false

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fault.configure_from_env ();
  let doc = "assurance-argument toolkit (Graydon, DSN 2015, reproduced)" in
  let info = Cmd.info "argus" ~version:"1.0.0" ~doc in
  (* [~catch:false] so unexpected exceptions reach our handler: users get
     a one-line message and exit code 2, never a raw backtrace. *)
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             check_cmd;
             render_cmd;
             query_cmd;
             fallacies_cmd;
             prove_cmd;
             cae_cmd;
             probe_cmd;
             export_cmd;
             import_cmd;
             stats_cmd;
             format_cmd;
             equivocation_cmd;
             survey_cmd;
             experiments_cmd;
             serve_cmd;
             call_cmd;
             top_cmd;
           ])
    with
    | e when is_broken_pipe e -> 0
    | e ->
        Format.eprintf "argus: internal error: %s@." (Printexc.to_string e);
        2
  in
  (try Obs.finish () with e when is_broken_pipe e -> ());
  (* [exit] reruns the stdlib's at_exit flush of stdout; if the
     consumer is gone (| head) that flush re-raises from a buffer that
     can never drain, and the process would die loudly ("Fatal error")
     after we already mapped the pipe error to a clean status.  Flush
     here, and when the pipe is confirmed broken skip the at_exit
     machinery entirely. *)
  let flushed =
    try
      Format.pp_print_flush Format.std_formatter ();
      flush stdout;
      true
    with e when is_broken_pipe e -> false
  in
  if flushed then exit code
  else begin
    (try flush stderr with _ -> ());
    Unix._exit code
  end
