module Pool = Argus_par.Pool

(* The determinism contract: every operation returns results
   bit-identical to the sequential path for any worker count.  The
   workload-level equalities (experiments, corpus scan, batch check)
   are appended once those modules grow their [?pool] parameter. *)

let test_jobs = [ 1; 2; 8 ]

let with_pools f = List.iter (fun j -> Pool.with_pool ~jobs:j (f j)) test_jobs

let test_map_matches_sequential () =
  with_pools (fun j pool ->
      let arr = Array.init 1003 (fun i -> (i * 7919) mod 257) in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        (Printf.sprintf "map_array jobs=%d" j)
        (Array.map f arr)
        (Pool.map_array ~pool f arr);
      Alcotest.(check (array int))
        (Printf.sprintf "mapi_array jobs=%d" j)
        (Array.mapi (fun i x -> i + f x) arr)
        (Pool.mapi_array ~pool (fun i x -> i + f x) arr);
      Alcotest.(check (array int))
        (Printf.sprintf "init jobs=%d" j)
        (Array.init 517 (fun i -> i * 3))
        (Pool.init ~pool 517 (fun i -> i * 3));
      Alcotest.(check (list int))
        (Printf.sprintf "map_list jobs=%d" j)
        (List.map f (Array.to_list arr))
        (Pool.map_list ~pool f (Array.to_list arr)))

let test_map_edge_sizes () =
  with_pools (fun j pool ->
      Alcotest.(check (array int))
        (Printf.sprintf "empty jobs=%d" j)
        [||]
        (Pool.map_array ~pool succ [||]);
      Alcotest.(check (array int))
        (Printf.sprintf "singleton jobs=%d" j)
        [| 42 |]
        (Pool.map_array ~pool succ [| 41 |]))

let test_map_reduce_property () =
  (* For an associative-with-unit combine, map_reduce must equal the
     sequential left fold whatever the worker count. *)
  let prop =
    QCheck.Test.make ~count:50 ~name:"map_reduce = sequential fold"
      QCheck.(pair (small_list small_int) (int_range 1 8))
      (fun (xs, jobs) ->
        let arr = Array.of_list xs in
        let seq =
          Array.fold_left (fun acc x -> acc + ((2 * x) + 1)) 0 arr
        in
        Pool.with_pool ~jobs (fun pool ->
            Pool.map_reduce ~pool
              ~map:(fun x -> (2 * x) + 1)
              ~combine:( + ) ~init:0 arr
            = seq))
  in
  QCheck_alcotest.to_alcotest prop

let test_map_reduce_order () =
  (* A non-commutative combine (list concat) pins the left-to-right
     index order. *)
  with_pools (fun j pool ->
      let arr = Array.init 100 Fun.id in
      Alcotest.(check (list int))
        (Printf.sprintf "index order jobs=%d" j)
        (Array.to_list arr)
        (Pool.map_reduce ~pool ~map:(fun i -> [ i ]) ~combine:( @ ) ~init:[]
           arr))

let test_exception_propagates () =
  with_pools (fun j pool ->
      Alcotest.check_raises
        (Printf.sprintf "exception jobs=%d" j)
        (Failure "boom")
        (fun () ->
          ignore
            (Pool.map_array ~pool
               (fun x -> if x = 37 then failwith "boom" else x)
               (Array.init 500 Fun.id))));
  (* The pool survives a failed operation. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      (try
         ignore
           (Pool.map_array ~pool (fun _ -> failwith "boom") (Array.init 50 Fun.id))
       with Failure _ -> ());
      Alcotest.(check (array int))
        "usable after failure"
        (Array.init 50 succ)
        (Pool.map_array ~pool succ (Array.init 50 Fun.id)))

let test_no_chunk_abandonment () =
  (* Regression: a failing chunk must not abandon the chunks still
     queued — at most the failing chunk's own tail is lost, every other
     chunk runs to completion.  The counter is atomic because workers
     bump it from several domains. *)
  List.iter
    (fun jobs ->
      let processed = Atomic.make 0 in
      let n = 500 in
      let chunk = max 1 ((n + (4 * jobs) - 1) / (4 * jobs)) in
      (try
         Pool.with_pool ~jobs (fun pool ->
             ignore
               (Pool.map_array ~pool
                  (fun x ->
                    if x = 100 then failwith "boom"
                    else begin
                      Atomic.incr processed;
                      x
                    end)
                  (Array.init n Fun.id)))
       with Failure _ -> ());
      let got = Atomic.get processed in
      Alcotest.(check bool)
        (Printf.sprintf "only the failing chunk's tail lost jobs=%d (got %d)"
           jobs got)
        true
        (got >= n - chunk && got < n))
    [ 2; 8 ]

let test_map_result_isolates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let n = 200 in
          let results =
            Pool.map_result ~pool
              (fun x -> if x mod 50 = 17 then failwith "boom" else x * 2)
              (Array.init n Fun.id)
          in
          Array.iteri
            (fun i r ->
              match r with
              | Ok y ->
                  Alcotest.(check int)
                    (Printf.sprintf "slot %d jobs=%d" i jobs)
                    (i * 2) y
              | Error f ->
                  Alcotest.(check bool)
                    (Printf.sprintf "failure only where raised jobs=%d" jobs)
                    true
                    (i mod 50 = 17 && f.Pool.exn = Failure "boom"))
            results;
          Alcotest.(check int)
            (Printf.sprintf "failure count jobs=%d" jobs)
            4
            (Array.fold_left
               (fun acc r -> match r with Error _ -> acc + 1 | Ok _ -> acc)
               0 results)))
    [ 1; 2; 8 ]

let test_map_result_injected_fault () =
  (* A fault injected at the per-item probe lands in exactly the keyed
     slot, whatever the worker count. *)
  let module Fault = Argus_rt.Fault in
  List.iter
    (fun jobs ->
      let spec =
        { Fault.probe = "pool.task"; key = Some "17"; rate = 1.0; seed = 0 }
      in
      Fault.with_spec spec (fun () ->
          Pool.with_pool ~jobs (fun pool ->
              let results = Pool.map_result ~pool succ (Array.init 64 Fun.id) in
              Array.iteri
                (fun i r ->
                  match (i, r) with
                  | 17, Error { Pool.exn = Fault.Injected "pool.task"; _ } -> ()
                  | 17, _ ->
                      Alcotest.failf "slot 17 not faulted (jobs=%d)" jobs
                  | _, Ok y -> Alcotest.(check int) "value" (i + 1) y
                  | _, Error _ ->
                      Alcotest.failf "stray failure at %d (jobs=%d)" i jobs)
                results)))
    [ 1; 2; 8 ];
  (* rate 0: no slot fails; rate 1 unkeyed: every slot fails. *)
  let all rate =
    { Fault.probe = "pool.task"; key = None; rate; seed = 9 }
  in
  Fault.with_spec (all 0.0) (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          Array.iter
            (function
              | Ok _ -> ()
              | Error _ -> Alcotest.fail "rate 0 must never fire")
            (Pool.map_result ~pool succ (Array.init 64 Fun.id))));
  Fault.with_spec (all 1.0) (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          Array.iter
            (function
              | Error _ -> ()
              | Ok _ -> Alcotest.fail "rate 1 must always fire")
            (Pool.map_result ~pool succ (Array.init 64 Fun.id))))

let test_pool_chunk_fault_isolated () =
  (* A fault at the chunk hand-out probe loses (at most) that chunk;
     map_result still returns, in order, with other items Ok. *)
  let module Fault = Argus_rt.Fault in
  List.iter
    (fun jobs ->
      let spec =
        { Fault.probe = "pool.chunk"; key = Some "0"; rate = 1.0; seed = 3 }
      in
      Fault.with_spec spec (fun () ->
          Pool.with_pool ~jobs (fun pool ->
              let n = 300 in
              let results = Pool.map_result ~pool succ (Array.init n Fun.id) in
              Alcotest.(check int)
                (Printf.sprintf "length jobs=%d" jobs)
                n (Array.length results);
              let ok = ref 0 and failed = ref 0 in
              Array.iteri
                (fun i r ->
                  match r with
                  | Ok y ->
                      incr ok;
                      Alcotest.(check int) "in order" (i + 1) y
                  | Error _ -> incr failed)
                results;
              Alcotest.(check bool)
                (Printf.sprintf "first chunk lost jobs=%d" jobs)
                true (!failed > 0);
              Alcotest.(check bool)
                (Printf.sprintf "rest survives jobs=%d" jobs)
                true
                (!ok >= n - 64))))
    [ 2; 8 ]

let test_no_pool_is_sequential () =
  let arr = Array.init 100 Fun.id in
  Alcotest.(check (array int))
    "map_array no pool" (Array.map succ arr)
    (Pool.map_array succ arr);
  Alcotest.(check int)
    "map_reduce no pool" 4950
    (Pool.map_reduce ~map:Fun.id ~combine:( + ) ~init:0 arr)

let test_default_jobs_env () =
  (* ARGUS_JOBS is read at pool-default time; we can only test the
     parse here because the environment is process-global. *)
  let j = Pool.default_jobs () in
  Alcotest.(check bool) "at least one job" true (j >= 1)

let test_counters_flow () =
  Argus_obs.Obs.reset ();
  Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Pool.map_array ~pool succ (Array.init 100 Fun.id)));
  let count name =
    match List.assoc_opt name (Argus_obs.Metrics.counters ()) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "par.tasks counts items" 99 (count "par.tasks");
  Alcotest.(check bool) "par.chunks positive" true (count "par.chunks" > 0)

(* --- Workload equality: every parallelized family must produce the
   same result as its sequential run, for any worker count. --- *)

open Argus_experiments

let with_jobs f =
  List.iter (fun jobs -> Pool.with_pool ~jobs (fun pool -> f ~pool ~jobs)) [ 1; 2; 8 ]

let test_exp_a_equal () =
  let cfg = { Exp_a.default_config with Exp_a.subjects_per_arm = 7 } in
  let seq = Exp_a.run cfg in
  with_jobs (fun ~pool ~jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "exp-a identical at jobs=%d" jobs)
        true
        (Exp_a.run ~pool cfg = seq))

let test_exp_b_equal () =
  let cfg = { Exp_b.default_config with Exp_b.n_subjects = 6 } in
  let seq = Exp_b.run cfg in
  with_jobs (fun ~pool ~jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "exp-b identical at jobs=%d" jobs)
        true
        (Exp_b.run ~pool cfg = seq))

let test_exp_c_equal () =
  let cfg = { Exp_c.default_config with Exp_c.subjects_per_role = 6 } in
  let seq = Exp_c.run cfg in
  with_jobs (fun ~pool ~jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "exp-c identical at jobs=%d" jobs)
        true
        (Exp_c.run ~pool cfg = seq))

let test_exp_d_equal () =
  let cfg = { Exp_d.default_config with Exp_d.trials_per_arm = 9 } in
  let seq = Exp_d.run cfg in
  with_jobs (fun ~pool ~jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "exp-d identical at jobs=%d" jobs)
        true
        (Exp_d.run ~pool cfg = seq))

let test_exp_e_equal () =
  let cfg = { Exp_e.default_config with Exp_e.n_assessors = 5 } in
  let seq = Exp_e.run cfg in
  with_jobs (fun ~pool ~jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "exp-e identical at jobs=%d" jobs)
        true
        (Exp_e.run ~pool cfg = seq))

let test_fallacy_scan_equal () =
  let module Formal = Argus_fallacy.Formal in
  let module Greenwell = Argus_fallacy.Greenwell in
  let args =
    List.map (fun i -> i.Greenwell.argument) Greenwell.corpus
  in
  let seq = Formal.check_many args in
  with_jobs (fun ~pool ~jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "corpus scan identical at jobs=%d" jobs)
        true
        (Formal.check_many ~pool args = seq))

let test_modular_check_equal () =
  let module Node = Argus_gsn.Node in
  let module Structure = Argus_gsn.Structure in
  let module Modular = Argus_gsn.Modular in
  let id = Argus_core.Id.of_string in
  (* Twelve modules; module 3 carries a well-formedness defect (dangling
     solution evidence) and module 5 cites a missing module, so the
     equality below covers diagnostics, not just the happy path. *)
  let mk i =
    let g = Printf.sprintf "N%d_G" i in
    let sn = Printf.sprintf "N%d_Sn" i in
    let ev = Printf.sprintf "N%d_E" i in
    let nodes =
      [
        Node.goal g (Printf.sprintf "module %d claim holds" i);
        Node.solution ~evidence:(if i = 3 then "missing" else ev) sn "results";
      ]
      @
      if i <> 5 then []
      else
        [
          Node.make ~id:(id "Away")
            ~node_type:(Node.Away_goal (id "Nowhere"))
            "cited claim holds";
        ]
    in
    let links =
      [ (Structure.Supported_by, g, sn) ]
      @ if i <> 5 then [] else [ (Structure.Supported_by, g, "Away") ]
    in
    Structure.of_nodes ~links
      ~evidence:
        [
          Argus_core.Evidence.make ~id:(id ev)
            ~kind:Argus_core.Evidence.Analysis "analysis";
        ]
      nodes
  in
  let collection =
    List.fold_left
      (fun acc i ->
        Modular.add_module ~name:(id (Printf.sprintf "N%d" i)) (mk i) acc)
      Modular.empty
      (List.init 12 Fun.id)
  in
  let seq = Argus_ir.Fused.check_modular collection in
  Alcotest.(check bool) "collection has diagnostics" true (seq <> []);
  with_jobs (fun ~pool ~jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "modular check identical at jobs=%d" jobs)
        true
        (Argus_ir.Fused.check_modular ~pool collection = seq))

let () =
  Alcotest.run "argus-par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "edge sizes" `Quick test_map_edge_sizes;
          test_map_reduce_property ();
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_order;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "no chunk abandonment" `Quick
            test_no_chunk_abandonment;
          Alcotest.test_case "map_result isolates" `Quick
            test_map_result_isolates;
          Alcotest.test_case "map_result injected fault" `Quick
            test_map_result_injected_fault;
          Alcotest.test_case "chunk fault isolated" `Quick
            test_pool_chunk_fault_isolated;
          Alcotest.test_case "no pool" `Quick test_no_pool_is_sequential;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
          Alcotest.test_case "counters" `Quick test_counters_flow;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "exp-a parallel = sequential" `Quick
            test_exp_a_equal;
          Alcotest.test_case "exp-b parallel = sequential" `Quick
            test_exp_b_equal;
          Alcotest.test_case "exp-c parallel = sequential" `Quick
            test_exp_c_equal;
          Alcotest.test_case "exp-d parallel = sequential" `Quick
            test_exp_d_equal;
          Alcotest.test_case "exp-e parallel = sequential" `Quick
            test_exp_e_equal;
          Alcotest.test_case "fallacy scan parallel = sequential" `Quick
            test_fallacy_scan_equal;
          Alcotest.test_case "modular check parallel = sequential" `Quick
            test_modular_check_equal;
        ] );
    ]
