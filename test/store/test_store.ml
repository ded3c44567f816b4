(* The incremental store against its oracle: after every [put] and
   every [patch], [Store.verdict] must render byte-identically to a
   from-scratch [Fused.check ~lints:true] of the same structure — the
   node arena, the findings-cone re-checking and the digest bookkeeping
   must never show through in the report.  A patch must re-check its
   findings cone and nothing more.  Digests must be insensitive to
   insertion order, bounded arena eviction must never change results,
   and one store must serve concurrent domains. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Prop = Argus_logic.Prop
module Pool = Argus_par.Pool
module Store = Argus_store.Store
module Wal = Argus_store.Wal
module Snapshot = Argus_store.Snapshot
module Recover = Argus_store.Recover
module Durable = Argus_store.Durable
module Fault = Argus_rt.Fault
module Counter = Argus_obs.Counter
module Confidence = Argus_confidence.Confidence
module Legacy_confidence = Argus_oracle.Legacy_confidence
module Edit_replay = Argus_oracle.Edit_replay

let render ds = Format.asprintf "%a" Diagnostic.pp_report ds

(* The oracle: a full re-intern and fused pass, lints on. *)
let oracle ?(ruleset = Wellformed.Standard) s =
  Fused.check ~ruleset ~lints:true (Caseir.intern s)

let check_verdict ?ruleset store digest shadow =
  match Store.verdict store ~digest with
  | Error e -> Error ("verdict: " ^ Store.error_message e)
  | Ok v ->
      let full = oracle ?ruleset shadow in
      let got_wf = render v.Store.result.Fused.wf in
      let want_wf = render full.Fused.wf in
      let got_inf = render v.Store.result.Fused.informal in
      let want_inf = render full.Fused.informal in
      if got_wf <> want_wf then
        Error
          (Printf.sprintf "wf drift\n-- store --\n%s\n-- full --\n%s" got_wf
             want_wf)
      else if got_inf <> want_inf then
        Error
          (Printf.sprintf "informal drift\n-- store --\n%s\n-- full --\n%s"
             got_inf want_inf)
      else if Store.digest_of shadow <> digest then
        Error "store digest disagrees with digest_of the shadow structure"
      else
        let want =
          Legacy_confidence.root_confidence ~trust:Store.default_trust shadow
        in
        if Int64.bits_of_float v.Store.confidence <> Int64.bits_of_float want
        then
          Error
            (Printf.sprintf "confidence drift: store %h, legacy %h"
               v.Store.confidence want)
        else Ok ()

(* --- generators --- *)

(* The random text pool.  The three long texts share exactly one
   content word pairwise, so siblings drawn from any two of them raise
   an equivocation candidate: a set-text on a child then changes its
   parent's lints. *)
let texts =
  [|
    "The system is acceptably safe";
    "There is no evidence that failures occur";
    "The river bank erosion control scheme performs well";
    "Pump controller isolates primary power bank";
    "Bank vault alarm wiring passes inspection";
    "All inputs are always validated";
    "Deadlock is impossible in every mode";
    "";
    "Claim {TBD} is pending";
    "Argue over hazards";
    "Test report";
  |]

let evidence_table =
  [
    Evidence.make ~id:(Id.of_string "E0") ~kind:Evidence.Test_results "tests";
    Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Expert_judgement
      "opinion";
  ]

let mk_node i tcode scode text ecode =
  let node_type =
    match tcode with
    | 0 | 1 -> Node.Goal
    | 2 -> Node.Strategy
    | 3 -> Node.Solution
    | 4 -> Node.Context
    | 5 -> Node.Assumption
    | _ -> Node.Away_goal (Id.of_string "M1")
  in
  let status =
    match scode with
    | 0 | 1 -> Node.Developed
    | 2 -> Node.Undeveloped
    | 3 -> Node.Uninstantiated
    | _ -> Node.Undeveloped_uninstantiated
  in
  let evidence =
    if node_type = Node.Solution then
      match ecode with
      | 0 -> Some (Id.of_string "E0")
      | 1 -> Some (Id.of_string "E1")
      | 2 -> Some (Id.of_string "Emissing")
      | _ -> None
    else None
  in
  Node.make
    ~id:(Id.of_string (Printf.sprintf "N%d" i))
    ~node_type ~status ?evidence
    texts.(text mod Array.length texts)

let gen_node i =
  let open QCheck.Gen in
  map2
    (fun (tcode, scode) (text, ecode) -> mk_node i tcode scode text ecode)
    (pair (int_bound 6) (int_bound 4))
    (pair (int_bound (Array.length texts - 1)) (int_bound 3))

let gen_link n =
  let open QCheck.Gen in
  map2
    (fun (kind, dangle) (a, b) ->
      let name j = Printf.sprintf "N%d" j in
      let src = if dangle = 0 then "Nowhere" else name (a mod n) in
      let dst = if dangle = 1 then "Nada" else name (b mod n) in
      ( (if kind then Structure.Supported_by else Structure.In_context_of),
        src,
        dst ))
    (pair bool (int_bound 11))
    (pair (int_bound (n - 1)) (int_bound (n - 1)))

let gen_structure =
  let open QCheck.Gen in
  int_range 1 8 >>= fun n ->
  pair (flatten_l (List.init n gen_node)) (list_size (int_range 0 12) (gen_link n))
  |> map (fun (nodes, links) ->
         Structure.of_nodes ~links ~evidence:evidence_table nodes)

(* A random edit against a pool of n node names and three more.
   Set-texts target the case's nodes; shape edits may hit anything: a
   node that is not there (rejected batches must leave the store
   untouched), a link to an id no node has yet (a dangling endpoint), an
   add of a node already there (a payload replacement) or of an id a
   link names (a promoted dangling endpoint). *)
let gen_edit n =
  let open QCheck.Gen in
  let name = map (fun j -> Id.of_string (Printf.sprintf "N%d" (j mod n))) in
  let any = map (fun j -> Id.of_string (Printf.sprintf "N%d" j)) in
  int_bound 9 >>= function
  | 0 | 1 | 2 | 3 ->
      map2
        (fun id t -> Store.Set_text (id, texts.(t mod Array.length texts)))
        (name (int_bound (n - 1)))
        (int_bound (Array.length texts - 1))
  | 4 ->
      map2
        (fun (tcode, scode) (text, ecode) ->
          Store.Add_node (mk_node (n - 1 + (text mod 4)) tcode scode text ecode))
        (pair (int_bound 6) (int_bound 4))
        (pair (int_bound (Array.length texts - 1)) (int_bound 3))
  | 5 -> map (fun id -> Store.Remove_node id) (any (int_bound (n + 2)))
  | 6 | 7 ->
      map2
        (fun k (a, b) ->
          Store.Link
            ((if k then Structure.Supported_by else Structure.In_context_of),
             a, b))
        bool
        (pair (name (int_bound (n - 1))) (any (int_bound (n + 2))))
  | _ ->
      map2
        (fun k (a, b) ->
          Store.Unlink
            ((if k then Structure.Supported_by else Structure.In_context_of),
             a, b))
        bool
        (pair (name (int_bound (n - 1))) (any (int_bound (n + 2))))

(* Batches of 1-3 edits, 4-8 batches per case. *)
let gen_case_and_edits =
  let open QCheck.Gen in
  gen_structure >>= fun s ->
  let n = max 1 (Structure.size s) in
  list_size (int_range 4 8) (list_size (int_range 1 3) (gen_edit n))
  >>= fun batches -> return (s, batches)

let print_scenario (s, batches) =
  Format.asprintf "%a (then %d batches)" Structure.pp_outline s
    (List.length batches)

(* A batch the store accepted, applied to the shadow structure (the
   oracle's view) by the reference replay, which must accept it too. *)
let replayed s batch =
  match Edit_replay.replay s batch with
  | Ok s' -> s'
  | Error msg -> failwith ("the replay refused an accepted batch: " ^ msg)

(* Drive one scenario against one store; the shadow structure is the
   oracle's view.  Rejected batches must leave digest and state
   alone. *)
let drive store (s, batches) =
  let ( let* ) = Result.bind in
  let digest0 = Store.put store s in
  let* () = check_verdict store digest0 s in
  let rec go shadow digest = function
    | [] -> Ok ()
    | batch :: rest -> (
        match Store.patch store ~digest batch with
        | Error (Store.Unknown_digest _ as e) ->
            Error ("patch: " ^ Store.error_message e)
        | Error (Store.Bad_edit msg) -> (
            match Edit_replay.replay shadow batch with
            | Ok _ -> Error ("the store refused a batch the replay accepts: " ^ msg)
            | Error _ ->
                let* () = check_verdict store digest shadow in
                go shadow digest rest)
        | Ok digest' ->
            let shadow' = replayed shadow batch in
            let* () = check_verdict store digest' shadow' in
            go shadow' digest' rest)
  in
  go s digest0 batches

let incremental_matches_full =
  QCheck.Test.make
    ~name:"incremental verdict = full fused check (random edit sequences)"
    ~count:200
    (QCheck.make ~print:print_scenario gen_case_and_edits)
    (fun scenario ->
      let store = Store.create () in
      match drive store scenario with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* File [Caseir.memo_capacity] payloads no other test derives: nothing
   filed before is left (a case of distinct payloads interned first
   finds none of them), and the memo, which never shrinks, stays full,
   so every later insert evicts.  Once per process. *)
let overfilled_memo =
  lazy
    (let early =
       Structure.of_nodes ~links:[] ~evidence:[]
         (List.init 8 (fun i ->
              Node.goal (Printf.sprintf "G%d" i) (Printf.sprintf "early %d" i)))
     in
     ignore (Caseir.intern early);
     ignore
       (Caseir.intern
          (Structure.of_nodes ~links:[] ~evidence:[]
             (List.init Caseir.memo_capacity (fun i ->
                  Node.goal (Printf.sprintf "F%d" i) (Printf.sprintf "filler %d" i)))));
     match Caseir.intern_counted early with
     | _, 0 -> ()
     | _, hits ->
         QCheck.Test.fail_reportf "%d payloads outlived an overfilled memo" hits)

(* An overfilled memo evicts on every insert; results must not move. *)
let eviction_never_changes_results =
  QCheck.Test.make ~name:"bounded memo eviction never changes results"
    ~count:60
    (QCheck.make ~print:print_scenario gen_case_and_edits)
    (fun scenario ->
      Lazy.force overfilled_memo;
      match drive (Store.create ()) scenario with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Rebuild the structure with nodes, links and evidence inserted in
   reverse order: structurally equal, so digests must agree. *)
let reversed s =
  let s' =
    List.fold_left
      (fun acc n -> Structure.add_node n acc)
      Structure.empty
      (List.rev (Structure.nodes s))
  in
  let s' =
    List.fold_left
      (fun acc (k, src, dst) -> Structure.connect k ~src ~dst acc)
      s'
      (List.rev (Structure.links s))
  in
  List.fold_left
    (fun acc ev -> Structure.add_evidence ev acc)
    s'
    (List.rev (Structure.evidence s))

let digest_order_independent =
  QCheck.Test.make ~name:"digests ignore insertion order" ~count:300
    (QCheck.make
       ~print:(fun s -> Format.asprintf "%a" Structure.pp_outline s)
       gen_structure)
    (fun s ->
      let s' = reversed s in
      if not (Structure.equal s s') then
        QCheck.Test.fail_report "reversal changed the structure"
      else if Store.digest_of s <> Store.digest_of s' then
        QCheck.Test.fail_report "insertion order leaked into the digest"
      else true)

(* Distinct structures should (essentially always) digest apart; catch
   gross collisions like ignoring links or texts. *)
let digest_separates =
  let s1 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "G2") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ]
  in
  let s2 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G2", "G1") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ]
  in
  let s3 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "G2") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "C holds" ]
  in
  (* Links out of dangling entities must be visible to the digest. *)
  let d1 =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "Gx");
          (Structure.Supported_by, "Gx", "Gy");
        ]
      [ Node.goal "G1" "A holds" ]
  in
  let d2 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "Gx") ]
      [ Node.goal "G1" "A holds" ]
  in
  fun () ->
    let all = [ s1; s2; s3; d1; d2 ] in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j then
              Alcotest.(check bool)
                (Printf.sprintf "digests of distinct cases %d/%d differ" i j)
                false
                (Store.digest_of a = Store.digest_of b))
          all)
      all

(* The same case is the same case: re-putting is idempotent and a
   patch cycle that undoes itself returns to the original digest. *)
let test_digest_roundtrip () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "S1");
          (Structure.Supported_by, "S1", "G2");
        ]
      [
        Node.goal "G1" "The system is acceptably safe";
        Node.strategy "S1" "Argue over hazards";
        Node.goal "G2" "Hazard H1 is mitigated";
      ]
  in
  let store = Store.create () in
  let d0 = Store.put store s in
  Alcotest.(check string) "idempotent put" d0 (Store.put store s);
  let g2 = Id.of_string "G2" in
  let d1 =
    match Store.patch store ~digest:d0 [ Store.Set_text (g2, "Changed") ] with
    | Ok d -> d
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check bool) "edit moved the digest" true (d0 <> d1);
  let d2 =
    match
      Store.patch store ~digest:d1
        [ Store.Set_text (g2, "Hazard H1 is mitigated") ]
    with
    | Ok d -> d
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check string) "undo returns to the original digest" d0 d2

(* Structurally equal cases digest equal whatever their in-memory
   sharing: a goal whose formal rendering names one variable string
   twice against one naming two copies of it, and an evidence item
   whose id and description are one string against copies. *)
let test_digest_ignores_sharing () =
  let x () = String.make 1 'x' in
  let e () = String.make 2 'E' in
  let case formal ev_id ev_text =
    Structure.of_nodes
      ~evidence:
        [
          Evidence.make ~id:(Id.of_string ev_id) ~kind:Evidence.Test_results
            ev_text;
        ]
      [
        Node.make ~id:(Id.of_string "G1") ~node_type:Node.Goal ~formal
          "A holds";
      ]
  in
  let shared =
    let v = x () and ev = e () in
    case (Prop.And (Prop.Var v, Prop.Var v)) ev ev
  in
  let copied =
    case (Prop.And (Prop.Var (x ()), Prop.Var (x ()))) (e ()) (e ())
  in
  Alcotest.(check bool)
    "structurally equal" true
    (Structure.equal shared copied);
  Alcotest.(check string) "equal digests" (Store.digest_of copied)
    (Store.digest_of shared)

let test_errors () =
  let store = Store.create () in
  (match Store.patch store ~digest:"nope" [] with
  | Error (Store.Unknown_digest _) -> ()
  | _ -> Alcotest.fail "patch of unknown digest must fail");
  (match Store.verdict store ~digest:"nope" with
  | Error (Store.Unknown_digest _) -> ()
  | _ -> Alcotest.fail "verdict of unknown digest must fail");
  let s = Structure.of_nodes [ Node.goal "G1" "A holds" ] in
  let d = Store.put store s in
  match
    Store.patch store ~digest:d
      [ Store.Set_text (Id.of_string "Gmissing", "x") ]
  with
  | Error (Store.Bad_edit _) ->
      Alcotest.(check bool) "store untouched" true (Store.mem store d)
  | _ -> Alcotest.fail "set-text of a missing node must fail"

(* A patch can land on the digest of another live case, which it then
   displaces; its undo re-binds both, each with its own ruleset, for
   either undo kind. *)
let test_undo_restores_displaced () =
  let g1 = Id.of_string "G1" in
  let a = Structure.of_nodes [ Node.goal "G1" "A holds" ]
  and b = Structure.of_nodes [ Node.goal "G1" "B holds" ] in
  List.iter
    (fun (kind, batch) ->
      let store = Store.create () in
      let da = Store.put store a in
      let db = Store.put ~ruleset:Wellformed.Denney_pai_2013 store b in
      match Store.patch_with_undo store ~digest:da batch with
      | Error e -> Alcotest.failf "%s: %s" kind (Store.error_message e)
      | Ok (d, undo) ->
          Alcotest.(check string) (kind ^ ": lands on the other case") db d;
          undo ();
          let bound =
            List.map
              (fun (d, ruleset, s) ->
                (d, ruleset = Wellformed.Standard, Structure.nodes s))
              (Store.cases store)
          in
          let want =
            List.sort compare
              [
                (da, true, Structure.nodes a); (db, false, Structure.nodes b);
              ]
          in
          Alcotest.(check bool) (kind ^ ": both cases back") true (bound = want))
    [
      ("text", [ Store.Set_text (g1, "B holds") ]);
      ( "shape",
        [ Store.Remove_node g1; Store.Add_node (Node.goal "G1" "B holds") ] );
    ]

(* Verdict caching: the second verdict of an unchanged case comes from
   the assembled cache; confidence survives a pure text edit. *)
let test_memoization () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "Sn1") ]
      ~evidence:
        [
          Evidence.make ~id:(Id.of_string "E0") ~kind:Evidence.Test_results
            "tests";
        ]
      [
        Node.goal "G1" "The system is acceptably safe";
        Node.solution ~evidence:"E0" "Sn1" "Test report";
      ]
  in
  let store = Store.create () in
  let d = Store.put store s in
  let v1 =
    match Store.verdict store ~digest:d with
    | Ok v -> v
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check bool) "first verdict is assembled" false v1.Store.from_memo;
  let v2 =
    match Store.verdict store ~digest:d with
    | Ok v -> v
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check bool) "second verdict is cached" true v2.Store.from_memo;
  Alcotest.(check (float 0.)) "same confidence" v1.Store.confidence
    v2.Store.confidence

(* One store, many domains: disjoint scenarios driven concurrently
   through a shared store must all hold the differential property. *)
let concurrent_differential jobs () =
  let scenarios =
    let seed = ref 42 in
    Array.init 16 (fun i ->
        seed := (!seed * 25214903917) + i;
        let rand = Random.State.make [| !seed; i |] in
        QCheck.Gen.generate1 ~rand gen_case_and_edits)
  in
  let store = Store.create () in
  let results =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_array ~pool (fun sc -> drive store sc) scenarios)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "scenario %d: %s" i msg))
    results

(* Eight domains intern overlapping cases through the one derivation
   memo.  A quarter of the payloads come from a pool every domain
   draws from, under five node types (three memo key classes), and
   the rest are unique, so the domains file more payloads than the
   memo holds: lookups, inserts and evictions race.  Every IR's text
   columns must equal a fresh [Caseir.derive] of its nodes. *)
let memo_domains () =
  let words =
    [| "pump"; "valve"; "all"; "always"; "is"; "safe"; "no"; "evidence";
       "failure"; "isolates"; "every"; "mode"; "hazard"; "p -> q"; "TBD";
       "bank"; "river"; "shall"; "never"; "controller" |]
  in
  let types =
    [| Node.Goal; Node.Strategy; Node.Away_goal (Id.of_string "M1");
       Node.Solution; Node.Context |]
  in
  let phrase rand k =
    String.concat " "
      (List.init k (fun _ -> words.(Random.State.int rand (Array.length words))))
  in
  let pool =
    let rand = Random.State.make [| 7 |] in
    Array.init 512 (fun _ -> phrase rand (1 + Random.State.int rand 6))
  in
  let cases_per_domain = 48 and nodes_per_case = 256 in
  assert (8 * cases_per_domain * nodes_per_case * 3 / 4 > Caseir.memo_capacity);
  let case d c =
    let rand = Random.State.make [| d; c |] in
    let nodes =
      List.init nodes_per_case (fun i ->
          let text =
            if Random.State.int rand 4 = 0 then
              pool.(Random.State.int rand (Array.length pool))
            else Printf.sprintf "%s %d.%d.%d" (phrase rand 3) d c i
          in
          Node.make
            ~id:(Id.of_string (Printf.sprintf "N%d" i))
            ~node_type:types.(Random.State.int rand (Array.length types))
            text)
    in
    Structure.of_nodes ~links:[] ~evidence:[] nodes
  in
  let column_drift (ir : Caseir.t) =
    let drift = ref None in
    for i = ir.Caseir.n_nodes - 1 downto 0 do
      let d = Caseir.derive ir.Caseir.nodes.(i) in
      let seen =
        {
          Caseir.d_goal_like = ir.Caseir.goal_like.(i);
          d_norm = ir.Caseir.norm.(i);
          d_claim = ir.Caseir.claim.(i);
          d_content = ir.Caseir.content.(i);
          d_content_hash = ir.Caseir.content_hash.(i);
          d_ignorance = ir.Caseir.ignorance.(i);
          d_universal = ir.Caseir.universal.(i);
          d_propositional = ir.Caseir.propositional.(i);
        }
      in
      if seen <> d then drift := Some ir.Caseir.nodes.(i).Node.text
    done;
    !drift
  in
  let hits_before = Counter.value (Counter.make "ir.derive_hits") in
  let drifts =
    Pool.with_pool ~jobs:8 (fun pool ->
        Pool.init ~pool 8 (fun d ->
            List.filter_map
              (fun c -> column_drift (Caseir.intern (case d c)))
              (List.init cases_per_domain Fun.id)))
  in
  Array.iteri
    (fun d texts ->
      List.iter (Alcotest.failf "domain %d: the columns of %S drift" d) texts)
    drifts;
  Alcotest.(check bool)
    "the domains hit the memo" true
    (Counter.value (Counter.make "ir.derive_hits") > hits_before)

(* --- durability: WAL + snapshots + recovery + degraded mode --- *)

let temp_dir () =
  let f = Filename.temp_file "argus-store-test" "" in
  Sys.remove f;
  f

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let with_dir f =
  let dir = temp_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The corruption fuzz injects its own deterministic damage; ambient
   fault injection (the CI fault matrix) would make its setup phases
   flaky, so it is masked for the scope of each fuzz test. *)
let without_faults f =
  let saved = Fault.current () in
  Fault.set None;
  Fun.protect ~finally:(fun () -> Fault.set saved) f

(* Whether [needle] occurs in [hay]. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let base_structure =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "G2");
        (Structure.Supported_by, "S1", "G3");
      ]
    [
      Node.goal "G1" "The system is acceptably safe";
      Node.strategy "S1" "Argue over hazards";
      Node.goal "G2" "Hazard H1 is mitigated";
      Node.goal "G3" "Hazard H2 is mitigated";
    ]

let nth_edit i =
  [ Store.Set_text (Id.of_string "G2", Printf.sprintf "Revision %d" i) ]

(* Build a durable dir with [ops] set-text patches after the initial
   put, sync always so every record is complete on disk.  Returns the
   acked digest sequence (put first) and the shadow structure at each
   step, plus the WAL size after each record — the record boundaries
   the torn-tail fuzz cuts at. *)
let build_history ?snapshot_every ~ops dir =
  let durable, _ =
    match Durable.create ~dir ~sync:Wal.Always ?snapshot_every () with
    | Ok x -> x
    | Error e -> Alcotest.failf "durable create failed: %s" e
  in
  let wal = Recover.wal_path dir in
  let wal_size () = (Unix.stat wal).Unix.st_size in
  let d0 =
    match Durable.put durable base_structure with
    | Ok (d, _) -> d
    | Error e -> Alcotest.failf "put failed: %s" (Durable.error_message e)
  in
  let digests = ref [ d0 ] in
  let shadows = ref [ base_structure ] in
  let sizes = ref [ wal_size () ] in
  let apply_shadow shadow = function
    | [ Store.Set_text (id, text) ] ->
        let n = Option.get (Structure.find id shadow) in
        Structure.add_node
          (Node.make ~id ~node_type:n.Node.node_type ~status:n.Node.status
             ?formal:n.Node.formal ~annotations:n.Node.annotations
             ?evidence:n.Node.evidence text)
          shadow
    | _ -> assert false
  in
  for i = 1 to ops do
    let batch = nth_edit i in
    match Durable.patch durable ~digest:(List.hd !digests) batch with
    | Error e -> Alcotest.failf "patch %d failed: %s" i (Durable.error_message e)
    | Ok (d, _) ->
        digests := d :: !digests;
        shadows := apply_shadow (List.hd !shadows) batch :: !shadows;
        sizes := wal_size () :: !sizes
  done;
  Durable.close durable;
  (List.rev !digests, List.rev !shadows, List.rev !sizes)

(* Recover a dir and demand exactly one live case, byte-identical in
   verdict to the full fused check of the shadow it should hold. *)
let check_recovered ?(msg = "recovered") dir expected_digest shadow =
  match Recover.load ~dir () with
  | Error e -> Alcotest.failf "%s: recovery refused: %s" msg e
  | Ok outcome ->
      let store = outcome.Recover.store in
      (match Store.cases store with
      | [ (d, _, _) ] ->
          Alcotest.(check string) (msg ^ ": digest") expected_digest d
      | cases ->
          Alcotest.failf "%s: expected 1 case, recovered %d" msg
            (List.length cases));
      (match check_verdict store expected_digest shadow with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" msg e)

let test_recover_roundtrip () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, _ = build_history ~ops:6 dir in
  let final_digest = List.nth digests 6 in
  let final_shadow = List.nth shadows 6 in
  check_recovered ~msg:"clean restart" dir final_digest final_shadow;
  (* Recovery is idempotent: a second restart sees the same state. *)
  check_recovered ~msg:"second restart" dir final_digest final_shadow;
  (* And reopening through Durable keeps accepting writes. *)
  match Durable.create ~dir ~sync:Wal.Always () with
  | Error e -> Alcotest.failf "reopen failed: %s" e
  | Ok (durable, _) -> (
      match Durable.patch durable ~digest:final_digest (nth_edit 99) with
      | Error e ->
          Alcotest.failf "patch after recovery failed: %s"
            (Durable.error_message e)
      | Ok _ -> Durable.close durable)

let test_snapshot_compaction () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, _ = build_history ~snapshot_every:4 ~ops:10 dir in
  Alcotest.(check bool)
    "a snapshot was written" true
    (Snapshot.latest dir <> None);
  (* The WAL was reset at the snapshot: it holds only the tail. *)
  (match Recover.load ~dir () with
  | Error e -> Alcotest.failf "recovery refused: %s" e
  | Ok outcome ->
      Alcotest.(check bool)
        "snapshot carries most of the history" true
        (outcome.Recover.snapshot_seq >= 4);
      Alcotest.(check bool)
        "only the tail replays" true
        (outcome.Recover.replayed <= 11 - outcome.Recover.snapshot_seq));
  check_recovered ~msg:"snapshot + tail" dir (List.nth digests 10)
    (List.nth shadows 10)

(* Torn-tail fuzz: cut the WAL at every byte offset inside the final
   record; recovery must restore the state just before it, truncate
   the torn bytes on disk, and leave the shortened log clean. *)
let test_torn_tail_every_offset () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, sizes = build_history ~ops:4 dir in
  let wal = Recover.wal_path dir in
  let pristine = In_channel.with_open_bin wal In_channel.input_all in
  let last_start = List.nth sizes 3 in
  let last_end = List.nth sizes 4 in
  Alcotest.(check int) "history is intact" last_end (String.length pristine);
  for cut = last_start to last_end - 1 do
    with_dir @@ fun dir' ->
    Out_channel.with_open_bin (Recover.wal_path dir') (fun oc ->
        Out_channel.output_string oc (String.sub pristine 0 cut));
    check_recovered
      ~msg:(Printf.sprintf "cut at byte %d" cut)
      dir' (List.nth digests 3) (List.nth shadows 3);
    (* The torn bytes are gone from disk: the next recovery parses a
       clean log. *)
    match Recover.load ~dir:dir' () with
    | Error e -> Alcotest.failf "re-recovery at %d refused: %s" cut e
    | Ok o ->
        Alcotest.(check int)
          (Printf.sprintf "no torn bytes left after cut %d" cut)
          0 o.Recover.truncated
  done

(* Bit-flip fuzz: flip one byte at every offset of the final record
   (covering its length, checksum and payload regions) and one byte
   per region of an interior record.  Each damaged log must either
   recover a checksum-valid prefix of the committed history or be
   refused with the corruption diagnostic — never crash, hang, or
   resurrect a state that was never committed. *)
let test_bit_flip_fuzz () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, sizes = build_history ~ops:4 dir in
  let wal = Recover.wal_path dir in
  let pristine = In_channel.with_open_bin wal In_channel.input_all in
  let check_flip ~expect_refusal offset =
    with_dir @@ fun dir' ->
    let damaged = Bytes.of_string pristine in
    Bytes.set damaged offset
      (Char.chr (Char.code (Bytes.get damaged offset) lxor 0x40));
    Out_channel.with_open_bin (Recover.wal_path dir') (fun oc ->
        Out_channel.output_bytes oc damaged);
    match Recover.load ~dir:dir' () with
    | Error diagnostic ->
        Alcotest.(check bool)
          (Printf.sprintf "flip at %d: diagnostic names the problem" offset)
          true
          (String.length diagnostic > 0)
    | Ok outcome ->
        if expect_refusal then
          Alcotest.failf
            "flip at %d (interior record) must refuse, recovered %d cases"
            offset
            (Store.size outcome.Recover.store);
        (* A survivable flip must land on a committed prefix, verdicts
           intact. *)
        let store = outcome.Recover.store in
        (match Store.cases store with
        | [ (d, _, _) ] -> (
            match
              List.find_index (fun x -> String.equal x d) digests
            with
            | None ->
                Alcotest.failf
                  "flip at %d resurrected digest %s that was never committed"
                  offset d
            | Some i -> (
                match check_verdict store d (List.nth shadows i) with
                | Ok () -> ()
                | Error e -> Alcotest.failf "flip at %d: %s" offset e))
        | [] -> ()
        | cases ->
            Alcotest.failf "flip at %d: recovered %d cases from 1-case history"
              offset (List.length cases))
  in
  (* Every byte of the final record. *)
  let last_start = List.nth sizes 3 in
  let last_end = List.nth sizes 4 in
  for offset = last_start to last_end - 1 do
    check_flip ~expect_refusal:false offset
  done;
  (* Interior record (records follow it, so a checksum failure there
     is mid-stream corruption): its payload must refuse outright. *)
  let mid_start = List.nth sizes 1 in
  check_flip ~expect_refusal:true (mid_start + 8);
  check_flip ~expect_refusal:true (mid_start + 12);
  (* An interior length/checksum flip may reclassify the damage as a
     torn tail (shorter prefix) — allowed — but must never crash or
     invent state; [expect_refusal:false] still forbids uncommitted
     digests. *)
  check_flip ~expect_refusal:false mid_start;
  check_flip ~expect_refusal:false (mid_start + 4)

(* A log corrupted mid-stream must also refuse end-to-end: reopening
   through Durable (what `argus serve --data-dir` does) reports the
   diagnostic instead of starting empty. *)
let test_corrupt_refused_end_to_end () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let _, _, sizes = build_history ~ops:4 dir in
  let wal = Recover.wal_path dir in
  let data = Bytes.of_string (In_channel.with_open_bin wal In_channel.input_all) in
  let mid = List.nth sizes 1 + 8 in
  Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
  Out_channel.with_open_bin wal (fun oc -> Out_channel.output_bytes oc data);
  match Durable.create ~dir ~sync:Wal.Always () with
  | Ok _ -> Alcotest.fail "corrupted log must refuse to open"
  | Error diagnostic ->
      Alcotest.(check bool)
        "diagnostic says mid-stream" true
        (contains diagnostic "mid-stream" || contains diagnostic "checksum")

(* A data dir written in format 1 (the Merkle digests) cannot be
   verified by this build: recovery refuses its WAL and its snapshot
   with a diagnostic naming the format and the way out, and never
   reports it as a log that "does not describe this store". *)
let test_format_1_refused () =
  without_faults @@ fun () ->
  let downgrade path magic =
    let data = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length magic in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc magic;
        Out_channel.output_string oc
          (String.sub data n (String.length data - n)))
  in
  let refused what dir =
    match Durable.create ~dir ~sync:Wal.Always () with
    | Ok _ -> Alcotest.failf "a format-1 %s must be refused" what
    | Error diagnostic ->
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "%s diagnostic names %S: %s" what needle
                 diagnostic)
              true
              (contains diagnostic needle))
          [ "format 1"; "empty data dir" ];
        Alcotest.(check bool)
          (what ^ " refusal is not a digest mismatch")
          false
          (contains diagnostic "does not describe")
  in
  (with_dir @@ fun dir ->
   ignore (build_history ~ops:3 dir);
   downgrade (Recover.wal_path dir) "ARGUSWAL1\n";
   refused "WAL" dir);
  with_dir @@ fun dir ->
  ignore (build_history ~snapshot_every:2 ~ops:4 dir);
  match Snapshot.latest dir with
  | None -> Alcotest.fail "no snapshot written"
  | Some (_, path) ->
      downgrade path "ARGUSSNAP1\n";
      refused "snapshot" dir

(* Every ack echoes the seq its own commit took.  Domains put distinct
   cases through one durable store: the seqs answered are exactly
   1..N, and each is the seq of the WAL record that holds its digest. *)
let test_concurrent_seq_echo () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let durable =
    match Durable.create ~dir ~sync:Wal.Never ~snapshot_every:0 () with
    | Ok (d, _) -> d
    | Error e -> Alcotest.failf "create failed: %s" e
  in
  let n = 1000 in
  let acks =
    Pool.with_pool ~jobs:8 (fun pool ->
        Pool.map_array ~pool
          (fun i ->
            let text = Printf.sprintf "Case %d is acceptably safe" i in
            match
              Durable.put durable (Structure.of_nodes [ Node.goal "G1" text ])
            with
            | Ok ack -> ack
            | Error e ->
                Alcotest.failf "put %d: %s" i (Durable.error_message e))
          (Array.init n Fun.id))
  in
  Durable.close durable;
  let seqs = List.sort compare (Array.to_list (Array.map snd acks)) in
  Alcotest.(check (list int)) "seqs 1..N" (List.init n succ) seqs;
  let logged =
    match
      Wal.parse
        (In_channel.with_open_bin (Recover.wal_path dir) In_channel.input_all)
    with
    | Ok (records, _) ->
        List.map (fun (r : Wal.record) -> (r.Wal.digest, r.Wal.seq)) records
    | Error e -> Alcotest.failf "WAL: %s" e
  in
  Array.iter
    (fun (digest, seq) ->
      Alcotest.(check (option int))
        (Printf.sprintf "seq of %s" digest)
        (Some seq) (List.assoc_opt digest logged))
    acks

(* Injected I/O faults trip read-only, stick, and never lose acked
   state: after reopening the dir, everything acked before the fault
   is back and verdicts are byte-identical. *)
let test_fault_trips_read_only () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let durable, _ =
    match Durable.create ~dir ~sync:Wal.Always () with
    | Ok x -> x
    | Error e -> Alcotest.failf "create failed: %s" e
  in
  let d0 =
    match Durable.put durable base_structure with
    | Ok (d, _) -> d
    | Error e -> Alcotest.failf "put failed: %s" (Durable.error_message e)
  in
  let spec =
    match Fault.parse_spec "store.wal.append@2:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  (match
     Fault.with_spec spec (fun () ->
         Durable.patch durable ~digest:d0 (nth_edit 1))
   with
  | Error (Durable.Read_only cause) ->
      Alcotest.(check bool)
        "cause names the probe" true
        (String.length cause > 0)
  | Error e -> Alcotest.failf "expected read-only, got %s" (Durable.error_message e)
  | Ok _ -> Alcotest.fail "append fault must refuse the write");
  (* Sticky after the fault window closes; the rolled-back patch left
     the acked digest live. *)
  (match Durable.patch durable ~digest:d0 (nth_edit 2) with
  | Error (Durable.Read_only _) -> ()
  | _ -> Alcotest.fail "read-only must stick");
  (match Durable.verdict durable ~digest:d0 with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "read in degraded mode failed: %s"
        (Durable.error_message e));
  Durable.close durable;
  check_recovered ~msg:"after degraded shutdown" dir d0 base_structure

(* A verdict as bytes: both reports and the confidence's bits. *)
let show_verdict store d =
  match Store.verdict store ~digest:d with
  | Ok v ->
      render v.Store.result.Fused.wf ^ "\x00"
      ^ render v.Store.result.Fused.informal
      ^ Printf.sprintf "\x00%h" v.Store.confidence
  | Error e -> Alcotest.failf "verdict: %s" (Store.error_message e)

(* A patch whose WAL append fails is refused and rolled back, for
   both undo kinds: a text batch (undone by its inverse text batch) and
   two shape batches (undone by re-putting the copied case).  After
   each refusal the old digest answers exactly what a fresh put of the
   pre-patch structure answers, the new digest is unbound, and the
   reopened dir recovers the old digest. *)
let test_refused_patch_rolls_back () =
  without_faults @@ fun () ->
  let spec =
    match Fault.parse_spec "store.wal.append@2:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  let id = Id.of_string and sb = Structure.Supported_by in
  List.iter
    (fun (name, batch) ->
      with_dir @@ fun dir ->
      let durable =
        match Durable.create ~dir ~sync:Wal.Always () with
        | Ok (d, _) -> d
        | Error e -> Alcotest.failf "create failed: %s" e
      in
      let d0 =
        match Durable.put durable base_structure with
        | Ok (d, _) -> d
        | Error e -> Alcotest.failf "put failed: %s" (Durable.error_message e)
      in
      let d1 =
        Store.digest_of (replayed base_structure batch)
      in
      Alcotest.(check bool) (name ^ ": the batch moves the digest") true (d1 <> d0);
      (match
         Fault.with_spec spec (fun () -> Durable.patch durable ~digest:d0 batch)
       with
      | Error (Durable.Read_only _) -> ()
      | Error e ->
          Alcotest.failf "%s: expected read-only, got %s" name
            (Durable.error_message e)
      | Ok _ -> Alcotest.failf "%s: append fault must refuse the patch" name);
      let store = Durable.store durable in
      let fresh = Store.create () in
      Alcotest.(check string)
        (name ^ ": old verdict = fresh put")
        (show_verdict fresh (Store.put fresh base_structure))
        (show_verdict store d0);
      Alcotest.(check bool) (name ^ ": new digest unbound") false
        (Store.mem store d1);
      Durable.close durable;
      check_recovered ~msg:(name ^ ": reopened") dir d0 base_structure)
    [
      ("set-text", [ Store.Set_text (id "G2", "Hazard H1 is controlled") ]);
      ( "unlink+relink",
        [ Store.Unlink (sb, id "S1", id "G3"); Store.Link (sb, id "G1", id "G3") ]
      );
      ( "add-node+remove-node",
        [
          Store.Add_node (Node.goal "G4" "Hazard H3 is mitigated");
          Store.Link (sb, id "S1", id "G4");
          Store.Remove_node (id "G3");
        ] );
    ]

(* A data dir written by the build before [Store.edit] became
   [Caseir.edit] (format 2), which this build and every later one must
   recover.  The history: with [snapshot_every] 4, put [golden_a],
   patch a set-text, an unlink + relink and an add + link + remove
   (the snapshot), then the tail: a set-text, a put of [golden_b] and
   an add + link on it.  The Marshal-encoded [Patch] records in the
   tail only decode if the edit type kept its constructors, their order
   and their argument types.  Recovery lands on the digests and
   verdicts that build answered, pinned here, and each verdict equals
   the full check of the same history replayed on the structure. *)
let golden_a =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "G2");
        (Structure.Supported_by, "S1", "G3");
        (Structure.Supported_by, "G2", "Sn1");
        (Structure.Supported_by, "G3", "Sn2");
        (Structure.In_context_of, "G1", "C1");
      ]
    ~evidence:
      [
        Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Test_results
          "unit test report";
        Evidence.make ~id:(Id.of_string "E2") ~kind:Evidence.Formal_proof
          "model checking run";
      ]
    [
      Node.goal "G1" "The controller is acceptably safe";
      Node.strategy "S1" "Argue over each identified hazard";
      Node.goal "G2" "All overspeed hazards are always mitigated";
      Node.goal "G3" "Hazard H2 is mitigated";
      Node.solution ~evidence:"E1" "Sn1" "Overspeed test results";
      Node.solution ~evidence:"E2" "Sn2" "Model checking of H2";
      Node.context "C1" "Operating context";
    ]

let golden_b =
  Structure.of_nodes
    ~links:[ (Structure.Supported_by, "G1", "Sn1") ]
    ~evidence:
      [
        Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Expert_judgement
          "review";
      ]
    [
      Node.goal "G1" "The pump is acceptably safe";
      Node.solution ~evidence:"E1" "Sn1" "Design review";
    ]

let test_golden_format2_recovers () =
  without_faults @@ fun () ->
  let id = Id.of_string and sb = Structure.Supported_by in
  let replay s batches = List.fold_left replayed s batches in
  let a =
    replay golden_a
      [
        [ Store.Set_text (id "G3", "Hazard H2 is eliminated") ];
        [ Store.Unlink (sb, id "S1", id "G3"); Store.Link (sb, id "G1", id "G3") ];
        [
          Store.Add_node (Node.goal "G4" "Hazard H4 is mitigated");
          Store.Link (sb, id "S1", id "G4");
          Store.Remove_node (id "Sn2");
        ];
        [ Store.Set_text (id "G1", "The controller is safe to operate") ];
      ]
  and b =
    replay golden_b
      [
        [
          Store.Add_node (Node.context "C1" "Pump duty cycle");
          Store.Link (Structure.In_context_of, id "G1", id "C1");
        ];
      ]
  in
  let src =
    List.find Sys.file_exists [ "golden-format2"; "test/store/golden-format2" ]
  in
  with_dir @@ fun dir ->
  Array.iter
    (fun f ->
      let data =
        In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src);
  match Recover.load ~dir () with
  | Error e -> Alcotest.failf "the golden dir was refused: %s" e
  | Ok o ->
      Alcotest.(check (list int))
        "snapshot seq, records replayed, next seq" [ 4; 3; 8 ]
        [ o.Recover.snapshot_seq; o.Recover.replayed; o.Recover.next_seq ];
      let store = o.Recover.store in
      let pinned =
        [
          ( "b9bd71c53c1650f0668db40faef49e0c",
            a,
            "8735f20d8917836a08d878ffa8a2ec36" );
          ( "263da357bac14cd2f1f15b2f63981d58",
            b,
            "618d25c1fd236dd8b7792e934543d3fd" );
        ]
      in
      Alcotest.(check (list string))
        "recovered digests"
        (List.sort compare (List.map (fun (d, _, _) -> d) pinned))
        (List.map (fun (d, _, _) -> d) (Store.cases store));
      List.iter
        (fun (d, shadow, verdict) ->
          (match check_verdict store d shadow with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" d e);
          Alcotest.(check string)
            ("verdict of " ^ d) verdict
            (Digest.to_hex (Digest.string (show_verdict store d))))
        pinned

(* A put whose WAL append fails is refused and leaves no trace: a
   fresh case stays unbound, and a re-put of an equal case under the
   other ruleset leaves the old ruleset and the old structure bound. *)
let test_refused_put_leaves_no_trace () =
  without_faults @@ fun () ->
  let spec =
    match Fault.parse_spec "store.wal.append:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  let with_durable f =
    with_dir @@ fun dir ->
    match Durable.create ~dir ~sync:Wal.Always () with
    | Error e -> Alcotest.failf "create failed: %s" e
    | Ok (durable, _) ->
        Fun.protect ~finally:(fun () -> Durable.close durable) (fun () ->
            f durable)
  in
  let refused durable ruleset s =
    match Fault.with_spec spec (fun () -> Durable.put ~ruleset durable s) with
    | Error (Durable.Read_only _) -> ()
    | Error e ->
        Alcotest.failf "expected read-only, got %s" (Durable.error_message e)
    | Ok _ -> Alcotest.fail "append fault must refuse the put"
  in
  let ids s = List.map (fun n -> Id.to_string n.Node.id) (Structure.nodes s) in
  with_durable (fun durable ->
      refused durable Wellformed.Standard base_structure;
      Alcotest.(check bool)
        "fresh put unbound" false
        (Store.mem (Durable.store durable) (Store.digest_of base_structure)));
  with_durable (fun durable ->
      let d0 =
        match Durable.put durable base_structure with
        | Ok (d, _) -> d
        | Error e -> Alcotest.failf "put failed: %s" (Durable.error_message e)
      in
      let equal = reversed base_structure in
      Alcotest.(check string) "equal case, equal digest" d0
        (Store.digest_of equal);
      refused durable Wellformed.Denney_pai_2013 equal;
      match
        List.find_opt
          (fun (d, _, _) -> d = d0)
          (Store.cases (Durable.store durable))
      with
      | None -> Alcotest.fail "re-put rollback unbound the old case"
      | Some (_, ruleset, s) ->
          Alcotest.(check bool)
            "old ruleset" true
            (ruleset = Wellformed.Standard);
          Alcotest.(check (list string))
            "old structure" (ids base_structure) (ids s))

(* A snapshot failure must degrade without losing the operation that
   triggered it — the WAL still holds every record. *)
let test_snapshot_fault_degrades () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let durable, _ =
    match Durable.create ~dir ~sync:Wal.Always ~snapshot_every:1 () with
    | Ok x -> x
    | Error e -> Alcotest.failf "create failed: %s" e
  in
  let spec =
    match Fault.parse_spec "store.snapshot.write:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  let d0 =
    match
      Fault.with_spec spec (fun () -> Durable.put durable base_structure)
    with
    | Ok (d, _) -> d
    | Error e ->
        Alcotest.failf "the logged op itself must ack: %s"
          (Durable.error_message e)
  in
  Alcotest.(check bool)
    "snapshot fault degrades" true
    (match Durable.mode durable with
    | Durable.Read_only _ -> true
    | Durable.Active -> false);
  Durable.close durable;
  check_recovered ~msg:"WAL survives the failed snapshot" dir d0
    base_structure

(* A fault while reading during recovery surfaces as a diagnostic, not
   a crash or a silently empty store. *)
let test_recover_read_fault () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let _ = build_history ~ops:2 dir in
  let spec =
    match Fault.parse_spec "store.recover.read@wal:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  match Fault.with_spec spec (fun () -> Durable.create ~dir ()) with
  | Ok _ -> Alcotest.fail "recovery under a read fault must refuse"
  | Error diagnostic ->
      Alcotest.(check bool)
        "diagnostic names the injected fault" true
        (contains diagnostic "injected fault")

(* The durable differential: scenarios driven through Durable handles
   (one data dir each) across domains.  Under ambient fault injection
   (the CI fault matrix sets ARGUS_FAULT for each store probe) writes
   may trip read-only at any point; the property is that every ack is
   honest — whatever was acked is byte-identical after recovery — and
   nothing ever crashes.  Without ambient faults it degenerates to a
   full durability round-trip per scenario.

   The scenarios run on pool domains, which never call Alcotest: its
   checks print through one shared formatter whose queue is not
   domain-safe.  Each answers a failure message, or the last acked
   digest and the digest recovered for it, and the main domain asserts
   after the join, as [concurrent_differential] does. *)
exception Scenario_failed of string

let durable_differential jobs () =
  let scenarios = Array.init 8 (fun i -> 3 + (i mod 4)) in
  let failf fmt = Printf.ksprintf (fun m -> raise (Scenario_failed m)) fmt in
  let run_one ops =
    with_dir @@ fun dir ->
    match Durable.create ~dir ~sync:Wal.Always () with
    | Error e ->
        (* Only an injected recovery fault may refuse a fresh dir. *)
        if Fault.current () = None then failf "fresh create refused: %s" e
        else None
    | Ok (durable, _) ->
        let acked = ref [] in
        let shadow = ref base_structure in
        (match Durable.put durable base_structure with
        | Ok (d, _) -> acked := [ (d, base_structure) ]
        | Error (Durable.Read_only _) -> ()
        | Error e -> failf "put: %s" (Durable.error_message e));
        (try
           for i = 1 to ops do
             match !acked with
             | [] -> raise Exit
             | (digest, _) :: _ -> (
                 match Durable.patch durable ~digest (nth_edit i) with
                 | Ok (d, _) ->
                     let n =
                       Option.get (Structure.find (Id.of_string "G2") !shadow)
                     in
                     shadow :=
                       Structure.add_node
                         (Node.make ~id:(Id.of_string "G2")
                            ~node_type:n.Node.node_type ~status:n.Node.status
                            ?formal:n.Node.formal
                            ~annotations:n.Node.annotations
                            ?evidence:n.Node.evidence
                            (Printf.sprintf "Revision %d" i))
                         !shadow;
                     acked := (d, !shadow) :: !acked
                 | Error (Durable.Read_only _) ->
                     (* Degraded: acked reads must still be consistent,
                        then this scenario is done writing. *)
                     (match !acked with
                     | (d, s) :: _ -> (
                         match
                           check_verdict (Durable.store durable) d s
                         with
                         | Ok () -> ()
                         | Error e -> failf "degraded read drifted: %s" e)
                     | [] -> ());
                     raise Exit
                 | Error e -> failf "patch: %s" (Durable.error_message e))
           done
         with Exit -> ());
        Durable.close durable;
        (* Recovery under ambient faults may refuse (injected read
           fault) — that is a diagnostic, not a loss.  When it
           answers, the recovered state must be internally verified
           (recover re-checks every digest) and verdicts must be
           byte-identical to the fused oracle of the recovered
           structure. *)
        match Recover.load ~dir () with
        | Error e ->
            if Fault.current () = None then
              failf "recovery refused without faults: %s" e
            else None
        | Ok outcome -> (
            let store = outcome.Recover.store in
            List.iter
              (fun (d, _, structure) ->
                match check_verdict store d structure with
                | Ok () -> ()
                | Error e -> failf "recovered verdict drifted: %s" e)
              (Store.cases store);
            (* Without ambient faults every ack must be back. *)
            if Fault.current () <> None then None
            else
              match (!acked, Store.cases store) with
              | (d, _) :: _, [ (d', _, _) ] -> Some (d, d')
              | (_, _) :: _, cases ->
                  failf "expected 1 recovered case, got %d"
                    (List.length cases)
              | [], _ -> None)
  in
  let results =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_array ~pool
          (fun ops ->
            match run_one ops with
            | last -> Ok last
            | exception Scenario_failed msg -> Error msg)
          scenarios)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Error msg -> Alcotest.failf "scenario %d: %s" i msg
      | Ok (Some (d, d')) -> Alcotest.(check string) "last ack recovered" d d'
      | Ok None -> ())
    results

(* --- confidence: the array kernel against the id-keyed recursion --- *)

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* Dense random support graphs: mostly developed goals and strategies
   over solutions citing evidence, so confidences are rarely 0, with
   cycles, dangling endpoints on either side of a link, and SupportedBy
   links into contextual nodes — every place the memo, the on-path cut
   and the visiting order could diverge. *)
let gen_support_graph =
  let open QCheck.Gen in
  int_range 1 12 >>= fun n ->
  let node i =
    map2
      (fun t e ->
        let tcode, scode =
          match t with
          | 0 | 1 | 2 | 3 -> (0, 0)
          | 4 -> (0, 2)
          | 5 | 6 -> (2, 0)
          | 7 | 8 | 9 -> (3, 0)
          | 10 -> (4, 0)
          | _ -> (6, 0)
        in
        mk_node i tcode scode 0 e)
      (int_bound 11) (int_bound 3)
  in
  let link =
    map2
      (fun (kind, dangle) (a, b) ->
        let name j = Printf.sprintf "N%d" j in
        let src = if dangle = 0 then "Nowhere" else name (a mod n) in
        let dst = if dangle = 1 then "Nada" else name (b mod n) in
        ( (if kind > 0 then Structure.Supported_by else Structure.In_context_of),
          src,
          dst ))
      (pair (int_bound 5) (int_bound 15))
      (pair (int_bound (n - 1)) (int_bound (n - 1)))
  in
  pair (flatten_l (List.init n node)) (list_size (int_range 0 (3 * n)) link)
  |> map (fun (nodes, links) ->
         Structure.of_nodes ~links ~evidence:evidence_table nodes)

let confidence_kernel_matches_legacy =
  QCheck.Test.make ~name:"confidence kernel = legacy recursion (random)"
    ~count:1000
    (QCheck.make
       ~print:(fun s -> Format.asprintf "%a" Structure.pp_outline s)
       QCheck.Gen.(oneof [ gen_structure; gen_support_graph ]))
    (fun s ->
      let trust (ev : Evidence.t) =
        if Id.to_string ev.Evidence.id = "E0" then 0.9 else 0.35
      in
      let got = Id.Map.bindings (Confidence.assess ~trust s)
      and want = Id.Map.bindings (Legacy_confidence.assess ~trust s) in
      let same (i, a) (j, b) = Id.equal i j && same_float a b in
      if List.length got <> List.length want || not (List.for_all2 same got want)
      then
        QCheck.Test.fail_report
          (String.concat "; "
             (List.map
                (fun (id, c) -> Printf.sprintf "%s=%h" (Id.to_string id) c)
                got)
          ^ "\nlegacy: "
          ^ String.concat "; "
              (List.map
                 (fun (id, c) -> Printf.sprintf "%s=%h" (Id.to_string id) c)
                 want))
      else
        same_float
          (Confidence.root_confidence ~trust s)
          (Legacy_confidence.root_confidence ~trust s))

(* --- shape edits: the graph delta and the store's fast path --- *)

(* The first field where two IRs differ, [index] compared by its
   bindings. *)
let ir_diff (a : Caseir.t) (b : Caseir.t) =
  let bindings (ir : Caseir.t) =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ir.Caseir.index [])
  in
  let ids (ir : Caseir.t) = Array.map Id.to_string ir.Caseir.ids in
  List.find_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("n_nodes", a.Caseir.n_nodes = b.Caseir.n_nodes);
      ("n_entities", a.Caseir.n_entities = b.Caseir.n_entities);
      ("index", bindings a = bindings b);
      ("ids", ids a = ids b);
      ("nodes", a.Caseir.nodes = b.Caseir.nodes);
      ("link_kind", a.Caseir.link_kind = b.Caseir.link_kind);
      ("link_src", a.Caseir.link_src = b.Caseir.link_src);
      ("link_dst", a.Caseir.link_dst = b.Caseir.link_dst);
      ("sup_out_off", a.Caseir.sup_out_off = b.Caseir.sup_out_off);
      ("sup_out", a.Caseir.sup_out = b.Caseir.sup_out);
      ("sup_in_off", a.Caseir.sup_in_off = b.Caseir.sup_in_off);
      ("sup_in", a.Caseir.sup_in = b.Caseir.sup_in);
      ("ctx_out_off", a.Caseir.ctx_out_off = b.Caseir.ctx_out_off);
      ("ctx_out", a.Caseir.ctx_out = b.Caseir.ctx_out);
      ("roots", a.Caseir.roots = b.Caseir.roots);
      ("reachable", a.Caseir.reachable = b.Caseir.reachable);
      ("goal_like", a.Caseir.goal_like = b.Caseir.goal_like);
      ("norm", a.Caseir.norm = b.Caseir.norm);
      ("claim", a.Caseir.claim = b.Caseir.claim);
      ("content", a.Caseir.content = b.Caseir.content);
      ("content_hash", a.Caseir.content_hash = b.Caseir.content_hash);
      ("ignorance", a.Caseir.ignorance = b.Caseir.ignorance);
      ("universal", a.Caseir.universal = b.Caseir.universal);
      ("propositional", a.Caseir.propositional = b.Caseir.propositional);
      ("evidence", a.Caseir.evidence = b.Caseir.evidence);
      ( "structure",
        let a = Caseir.to_structure a and b = Caseir.to_structure b in
        Structure.nodes a = Structure.nodes b
        && Structure.links a = Structure.links b
        && Structure.evidence a = Structure.evidence b );
    ]

(* On the small random cases (dangling endpoints, cycles, re-added
   ids): every batch the reference replay accepts, the delta accepts
   too and builds the IR a fresh intern of the replayed structure
   builds; every batch it refuses, the delta refuses with the same
   message and leaves the IR alone. *)
let apply_matches_intern =
  QCheck.Test.make ~name:"Caseir.apply = intern (random batches)" ~count:300
    (QCheck.make ~print:print_scenario gen_case_and_edits)
    (fun (s, batches) ->
      let _, _ =
        List.fold_left
          (fun (s, ir) batch ->
            match (Caseir.apply ir batch, Edit_replay.replay s batch) with
            | Error msg, Error msg' when msg = msg' -> (
                match ir_diff ir (Caseir.intern s) with
                | None -> (s, ir)
                | Some field ->
                    QCheck.Test.fail_reportf "a refused batch moved %s" field)
            | Error msg, _ ->
                QCheck.Test.fail_reportf "apply refused (%s), replay did not"
                  msg
            | Ok _, Error msg ->
                QCheck.Test.fail_reportf "replay refused (%s), apply did not"
                  msg
            | Ok (ir', _), Ok s' -> (
                match ir_diff ir' (Caseir.intern s') with
                | None -> (s', ir')
                | Some field ->
                    QCheck.Test.fail_reportf "delta IR differs in %s" field))
          (s, Caseir.intern s) batches
      in
      true)

(* The structure is a view of the IR: [to_structure] of an intern
   gives back the nodes, links and evidence of the source in order —
   dangling endpoints and repeated links in the generator's input
   included — not only a [Structure.equal] case. *)
let to_structure_inverts_intern =
  QCheck.Test.make ~name:"Caseir.to_structure inverts intern (random)"
    ~count:500
    (QCheck.make
       ~print:(fun s -> Format.asprintf "%a" Structure.pp_outline s)
       QCheck.Gen.(oneof [ gen_structure; gen_support_graph ]))
    (fun s ->
      let s' = Caseir.to_structure (Caseir.intern s) in
      if Structure.nodes s' <> Structure.nodes s then
        QCheck.Test.fail_report "nodes differ"
      else if Structure.links s' <> Structure.links s then
        QCheck.Test.fail_report "links differ"
      else if Structure.evidence s' <> Structure.evidence s then
        QCheck.Test.fail_report "evidence differs"
      else true)

(* Tree-shaped cases as a live editor grows them: each node hangs off
   an earlier goal or strategy, so every link runs from earlier to
   later in node order and no edit below can close a cycle.  Contexts
   hang off goals by InContextOf; a few goals are SupportedBy a
   context, so detaching that context flips reachability of nodes the
   batch never names. *)
let tree_case rand size =
  let id fmt = Printf.ksprintf Id.of_string fmt in
  let nodes = ref [ Node.goal "G0" "The system is acceptably safe" ] in
  let links = ref [] in
  let inner = ref [| "G0" |] and contexts = ref [||] in
  for i = 1 to size - 1 do
    let pick a = a.(Random.State.int rand (Array.length a)) in
    let text = texts.(Random.State.int rand (Array.length texts)) in
    let name = Printf.sprintf "N%d" i in
    let node, parent, kind =
      match Random.State.int rand 10 with
      | 0 | 1 | 2 ->
          inner := Array.append !inner [| name |];
          ( Node.make ~id:(id "%s" name) ~node_type:Node.Goal text,
            (if Array.length !contexts > 0 && Random.State.int rand 8 = 0 then
               pick !contexts
             else pick !inner),
            Structure.Supported_by )
      | 3 | 4 ->
          inner := Array.append !inner [| name |];
          ( Node.make ~id:(id "%s" name) ~node_type:Node.Strategy text,
            pick !inner,
            Structure.Supported_by )
      | 5 ->
          contexts := Array.append !contexts [| name |];
          ( Node.make ~id:(id "%s" name) ~node_type:Node.Context text,
            pick !inner,
            Structure.In_context_of )
      | r ->
          ( mk_node i 3 0 r (Random.State.int rand 4),
            pick !inner,
            Structure.Supported_by )
    in
    (* [pick !inner] may name the node itself when it was just added;
       hang it off the root instead. *)
    let parent = if parent = name then "G0" else parent in
    nodes := node :: !nodes;
    links := (kind, parent, name) :: !links
  done;
  Structure.of_nodes ~links:(List.rev !links) ~evidence:evidence_table
    (List.rev !nodes)

(* One edit-loop batch against the current structure: add a goal under
   an earlier node, move a subtree to an earlier parent, remove a
   solution, a set-text mixed with an unlink/relink, or detach or
   re-attach a context. *)
let tree_batch rand fresh s =
  let nodes = Array.of_list (Structure.nodes s) in
  let n = Array.length nodes in
  let pos = Hashtbl.create n in
  Array.iteri (fun i (nd : Node.t) -> Hashtbl.replace pos nd.Node.id i) nodes;
  let is_inner (nd : Node.t) =
    nd.Node.node_type = Node.Goal || nd.Node.node_type = Node.Strategy
  in
  let inner_before i =
    let c = List.filter is_inner (List.filteri (fun j _ -> j < i) (Array.to_list nodes)) in
    List.nth c (Random.State.int rand (List.length c))
  in
  let sup_parent (nd : Node.t) =
    match Structure.parents Structure.Supported_by nd.Node.id s with
    | p :: _ -> Some p
    | [] -> None
  in
  let text () = texts.(Random.State.int rand (Array.length texts)) in
  let sb = Structure.Supported_by in
  let movable () =
    let i = 1 + Random.State.int rand (n - 1) in
    Option.map (fun p -> (i, nodes.(i), p)) (sup_parent nodes.(i))
  in
  match Random.State.int rand 5 with
  | 0 ->
      let x = Id.of_string (Printf.sprintf "X%d" fresh) in
      let parent = inner_before n in
      [ Store.Add_node (Node.make ~id:x ~node_type:Node.Goal (text ()));
        Store.Link (sb, parent.Node.id, x) ]
  | 1 -> (
      match movable () with
      | Some (i, c, p) ->
          [ Store.Unlink (sb, p, c.Node.id);
            Store.Link (sb, (inner_before i).Node.id, c.Node.id) ]
      | None -> [ Store.Set_text (nodes.(0).Node.id, text ()) ])
  | 2 -> (
      match
        List.filter
          (fun (nd : Node.t) -> nd.Node.node_type = Node.Solution)
          (Array.to_list nodes)
      with
      | [] -> [ Store.Set_text (nodes.(0).Node.id, text ()) ]
      | sols ->
          let sol = List.nth sols (Random.State.int rand (List.length sols)) in
          [ Store.Remove_node sol.Node.id ])
  | 3 -> (
      let t = Store.Set_text (nodes.(Random.State.int rand n).Node.id, text ()) in
      match movable () with
      | Some (i, c, p) ->
          let p' = if Random.State.bool rand then p else (inner_before i).Node.id in
          [ t; Store.Unlink (sb, p, c.Node.id); Store.Link (sb, p', c.Node.id) ]
      | None -> [ t ])
  | _ -> (
      let ctx =
        List.filter
          (fun (nd : Node.t) -> nd.Node.node_type = Node.Context)
          (Array.to_list nodes)
      in
      match ctx with
      | [] -> [ Store.Set_text (nodes.(0).Node.id, text ()) ]
      | _ -> (
          let c = List.nth ctx (Random.State.int rand (List.length ctx)) in
          let ci = Hashtbl.find pos c.Node.id in
          match Structure.parents Structure.In_context_of c.Node.id s with
          | p :: _ -> [ Store.Unlink (Structure.In_context_of, p, c.Node.id) ]
          | [] ->
              [ Store.Link
                  (Structure.In_context_of, (inner_before ci).Node.id, c.Node.id) ]))

let counter name = Counter.value (Counter.make name)

(* Every batch must take the delta — no re-intern — and leave the
   store exactly where a fresh put of the edited structure lands: same
   IR, verdict, digest and confidence. *)
let fast_path_matches_fresh ~overfill =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "shape edits take the fast path (memo %s)"
         (if overfill then "overfilled" else "as left"))
    ~count:25
    (QCheck.make
       ~print:(fun (seed, size) -> Printf.sprintf "seed %d, %d nodes" seed size)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_range 50 500)))
    (fun (seed, size) ->
      let rand = Random.State.make [| seed |] in
      let s = tree_case rand size in
      if overfill then Lazy.force overfilled_memo;
      let store = Store.create () in
      let d = ref (Store.put store s) in
      ignore (Store.verdict store ~digest:!d);
      let ir = ref (Caseir.intern s) and s = ref s in
      for b = 1 to 12 do
        let batch = tree_batch rand b !s in
        let s' = replayed !s batch in
        (* The delta on its own, against a fresh intern. *)
        (match Caseir.apply !ir batch with
        | Error msg -> QCheck.Test.fail_reportf "batch %d refused: %s" b msg
        | Ok (ir', _) -> (
            ir := ir';
            match ir_diff ir' (Caseir.intern s') with
            | None -> ()
            | Some f -> QCheck.Test.fail_reportf "batch %d: IR differs in %s" b f));
        let interned = counter "ir.interned" in
        let v =
          match Store.patch store ~digest:!d batch with
          | Error e -> QCheck.Test.fail_reportf "patch: %s" (Store.error_message e)
          | Ok d' -> (
              d := d';
              match Store.verdict store ~digest:d' with
              | Ok v -> v
              | Error e -> QCheck.Test.fail_reportf "verdict: %s" (Store.error_message e))
        in
        if counter "ir.interned" <> interned then
          QCheck.Test.fail_reportf "batch %d re-interned" b;
        let fresh = Store.create () in
        let d' = Store.put fresh s' in
        let w = Result.get_ok (Store.verdict fresh ~digest:d') in
        let show (v : Store.verdict) =
          render v.Store.result.Fused.wf ^ "\x00" ^ render v.Store.result.Fused.informal
        in
        if d' <> !d then QCheck.Test.fail_reportf "batch %d: digest differs" b;
        if show v <> show w then
          QCheck.Test.fail_reportf "batch %d: verdict differs\n%s\n--\n%s" b (show v)
            (show w);
        if not (same_float v.Store.confidence w.Store.confidence) then
          QCheck.Test.fail_reportf "batch %d: confidence %h, fresh %h" b
            v.Store.confidence w.Store.confidence;
        s := s'
      done;
      (match check_verdict store !d !s with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      true)

(* Every all-[Set_text] batch takes [Caseir.apply]'s in-place branch:
   no re-intern, and the store lands where a fresh put of
   the edited structure does.  The small random cases have cycles and
   dangling endpoints, which the tree cases above never reach.  An
   empty batch keeps the digest. *)
let text_batches_never_rebuild =
  let set_text n =
    QCheck.Gen.(
      map2
        (fun j t ->
          Store.Set_text
            (Id.of_string (Printf.sprintf "N%d" (j mod n)), texts.(t)))
        (int_bound (n - 1))
        (int_bound (Array.length texts - 1)))
  in
  QCheck.Test.make ~name:"text batches never rebuild (random cases)"
    ~count:200
    (QCheck.make ~print:print_scenario
       QCheck.Gen.(
         gen_structure >>= fun s ->
         let n = max 1 (Structure.size s) in
         list_size (int_range 1 6) (list_size (int_range 0 3) (set_text n))
         >>= fun batches -> return (s, batches)))
    (fun (s, batches) ->
      let store = Store.create () in
      let d = ref (Store.put store s) and s = ref s in
      List.iteri
        (fun b batch ->
          let interned = counter "ir.interned" in
          let d' =
            match Store.patch store ~digest:!d batch with
            | Ok d' -> d'
            | Error e ->
                QCheck.Test.fail_reportf "patch: %s" (Store.error_message e)
          in
          if counter "ir.interned" <> interned then
            QCheck.Test.fail_reportf "batch %d re-interned" b;
          if batch = [] && d' <> !d then
            QCheck.Test.fail_reportf "empty batch %d moved the digest" b;
          d := d';
          s := replayed !s batch;
          let fresh = Store.create () in
          let want = Store.put fresh !s in
          let get store d =
            match Store.verdict store ~digest:d with
            | Ok v -> v
            | Error e ->
                QCheck.Test.fail_reportf "verdict: %s" (Store.error_message e)
          in
          let v = get store d' and w = get fresh want in
          let show (v : Store.verdict) =
            render v.Store.result.Fused.wf ^ "\x00"
            ^ render v.Store.result.Fused.informal
          in
          if want <> d' then QCheck.Test.fail_reportf "batch %d: digest differs" b;
          if show v <> show w then
            QCheck.Test.fail_reportf "batch %d: verdict differs\n%s\n--\n%s" b
              (show v) (show w);
          if not (same_float v.Store.confidence w.Store.confidence) then
            QCheck.Test.fail_reportf "batch %d: confidence %h, fresh %h" b
              v.Store.confidence w.Store.confidence)
        batches;
      true)

(* Put [s], then patch it batch by batch.  Every batch must take the
   delta (no re-intern) and land where the reference replay lands:
   [check_verdict] holds the digest to [digest_of] of the replayed
   structure, the verdict to the full check and the confidence to the
   legacy recursion, and the verdict and confidence equal a fresh
   put's. *)
let patch_takes_the_delta s batches =
  let store = Store.create () in
  let d = ref (Store.put store s) and s = ref s in
  List.iteri
    (fun b batch ->
      let interned = counter "ir.interned" in
      (match Store.patch store ~digest:!d batch with
      | Ok d' -> d := d'
      | Error e -> Alcotest.failf "batch %d: %s" b (Store.error_message e));
      Alcotest.(check int)
        (Printf.sprintf "batch %d took the delta" b)
        interned (counter "ir.interned");
      s := replayed !s batch;
      (match check_verdict store !d !s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "batch %d: %s" b e);
      let fresh = Store.create () in
      Alcotest.(check string)
        (Printf.sprintf "batch %d: verdict = fresh put" b)
        (show_verdict fresh (Store.put fresh !s))
        (show_verdict store !d))
    batches

(* One digest scheme on every graph: a shape batch that closes a
   SupportedBy or InContextOf cycle, and the batch that reopens it, take
   the delta like any other. *)
let test_cycle_close_reopen () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "S1");
          (Structure.Supported_by, "S1", "G2");
          (Structure.Supported_by, "G2", "Sn1");
          (Structure.In_context_of, "G2", "C1");
        ]
      ~evidence:evidence_table
      [
        Node.goal "G1" "The system is acceptably safe";
        Node.strategy "S1" "Argue over hazards";
        Node.goal "G2" "Hazard H1 is mitigated";
        Node.solution ~evidence:"E0" "Sn1" "Test report";
        Node.context "C1" "Operating context";
      ]
  in
  let sb = Structure.Supported_by and ic = Structure.In_context_of in
  let id = Id.of_string in
  patch_takes_the_delta s
    [
      [ Store.Link (sb, id "G2", id "S1") ];
      [ Store.Set_text (id "S1", "Argue over each hazard") ];
      [ Store.Link (ic, id "C1", id "G2") ];
      [
        Store.Unlink (sb, id "G2", id "S1");
        Store.Unlink (ic, id "C1", id "G2");
      ];
    ]

(* A case under construction links to nodes it does not have yet and
   re-sends nodes it has; each such batch takes the delta like any
   other.  The batches: a link to a missing id (and one out of it,
   whose term only the dangling source carries), the unlink of that
   dangling link, the add that promotes the missing id, a re-sent root
   that turns into a context (the case loses its last root), the
   removal of the promoted node, a promotion and removal in one batch,
   and the root sent back (the case gains a root again).  The cycle
   G5 <-> G6 hangs off no root: its nodes are unreachable, a finding
   only a case with roots reports, so losing and regaining the last
   root changes findings outside every seed's cone. *)
let test_dangling_and_readd () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "S1");
          (Structure.Supported_by, "S1", "G2");
          (Structure.Supported_by, "G2", "Sn1");
          (Structure.In_context_of, "G1", "C1");
          (Structure.Supported_by, "G5", "G6");
          (Structure.Supported_by, "G6", "G5");
        ]
      ~evidence:evidence_table
      [
        Node.goal "G1" "The system is acceptably safe";
        Node.strategy "S1" "Argue over hazards";
        Node.goal "G2" "Hazard H1 is mitigated";
        Node.solution ~evidence:"E0" "Sn1" "Test report";
        Node.context "C1" "Operating context";
        Node.goal "G5" "Hazard H5 is mitigated";
        Node.goal "G6" "Hazard H6 is mitigated";
      ]
  in
  let sb = Structure.Supported_by and ic = Structure.In_context_of in
  let id = Id.of_string in
  patch_takes_the_delta s
    [
      [ Store.Link (sb, id "S1", id "G9"); Store.Link (sb, id "G9", id "Sn9") ];
      [ Store.Unlink (sb, id "G9", id "Sn9") ];
      [ Store.Add_node (Node.goal "G9" "Hazard H9 is mitigated") ];
      [ Store.Add_node (Node.context "G1" "The system is acceptably safe") ];
      [ Store.Remove_node (id "G9") ];
      [ Store.Link (sb, id "S1", id "G7"); Store.Link (ic, id "G7", id "C7") ];
      [
        Store.Add_node (Node.goal "G7" "Hazard H7 is mitigated");
        Store.Remove_node (id "G7");
      ];
      [ Store.Add_node (Node.goal "G1" "The system is acceptably safe") ];
    ]

(* A patch re-checks exactly its findings cone: a put computes every
   node's findings, and a set-text on the middle goal of
   goal -> strategy -> three goals (the middle one closed by a
   solution) computes the node's own, its SupportedBy parent's and its
   SupportedBy child's — three, whatever the case's size. *)
let test_patch_rechecks_cone () =
  let dirty () = counter "store.dirty_cone" in
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "S1");
          (Structure.Supported_by, "S1", "G2");
          (Structure.Supported_by, "S1", "G3");
          (Structure.Supported_by, "S1", "G4");
          (Structure.Supported_by, "G3", "Sn1");
        ]
      ~evidence:
        [
          Evidence.make ~id:(Id.of_string "E0") ~kind:Evidence.Test_results
            "tests";
        ]
      [
        Node.goal "G1" "The system is acceptably safe";
        Node.strategy "S1" "Argue over each hazard";
        Node.goal "G2" "Hazard one is mitigated";
        Node.goal "G3" "Hazard two is mitigated";
        Node.goal "G4" "Hazard three is mitigated";
        Node.solution ~evidence:"E0" "Sn1" "Test report";
      ]
  in
  let store = Store.create () in
  let before = dirty () in
  let d = Store.put store s in
  Alcotest.(check int) "a put checks every node" 6 (dirty () - before);
  let edit = Store.Set_text (Id.of_string "G3", "Hazard two is removed") in
  let s' = Structure.add_node (Node.goal "G3" "Hazard two is removed") s in
  let before = dirty () in
  let d' =
    match Store.patch store ~digest:d [ edit ] with
    | Ok d' -> d'
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check int)
    "a set-text checks the node, its parent and its child" 3
    (dirty () - before);
  match check_verdict store d' s' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* [Wal.crc32] (slicing by 8, in C) over any byte range equals the
   bitwise CRC-32 of the same bytes copied out, and reads the standard
   check value. *)
let crc32_matches_bitwise =
  let bitwise s =
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch ->
        c := !c lxor Char.code ch;
        for _ = 1 to 8 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done)
      s;
    !c lxor 0xFFFFFFFF
  in
  QCheck.Test.make ~name:"crc32 = bitwise CRC-32 on any range" ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 100)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Wal.crc32 "123456789" 0 9 = 0xCBF43926
      && Wal.crc32 s off len = bitwise (String.sub s off len)
      && Wal.crc32 s 0 n = bitwise s)

let () =
  Fault.configure_from_env ();
  Alcotest.run "argus-store"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest incremental_matches_full;
          QCheck_alcotest.to_alcotest eviction_never_changes_results;
          QCheck_alcotest.to_alcotest confidence_kernel_matches_legacy;
        ] );
      ( "shape",
        [
          QCheck_alcotest.to_alcotest apply_matches_intern;
          QCheck_alcotest.to_alcotest (fast_path_matches_fresh ~overfill:true);
          QCheck_alcotest.to_alcotest (fast_path_matches_fresh ~overfill:false);
          QCheck_alcotest.to_alcotest text_batches_never_rebuild;
          Alcotest.test_case "closing and reopening a cycle takes the delta"
            `Quick test_cycle_close_reopen;
          Alcotest.test_case "dangling and re-add batches take the delta"
            `Quick test_dangling_and_readd;
          QCheck_alcotest.to_alcotest to_structure_inverts_intern;
        ] );
      ( "digest",
        [
          QCheck_alcotest.to_alcotest digest_order_independent;
          Alcotest.test_case "distinct cases digest apart" `Quick
            digest_separates;
          Alcotest.test_case "put idempotent, patch invertible" `Quick
            test_digest_roundtrip;
          Alcotest.test_case "digests ignore in-memory sharing" `Quick
            test_digest_ignores_sharing;
        ] );
      ( "store",
        [
          Alcotest.test_case "unknown digests and bad edits" `Quick
            test_errors;
          Alcotest.test_case "verdict memoization" `Quick test_memoization;
          Alcotest.test_case "a patch re-checks its cone" `Quick
            test_patch_rechecks_cone;
          Alcotest.test_case "a patch's undo restores the case it displaced"
            `Quick test_undo_restores_displaced;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "shared store, 1 domain" `Quick
            (concurrent_differential 1);
          Alcotest.test_case "shared store, 2 domains" `Quick
            (concurrent_differential 2);
          Alcotest.test_case "shared store, 8 domains" `Quick
            (concurrent_differential 8);
          Alcotest.test_case "derivation memo, 8 domains" `Quick memo_domains;
        ] );
      ( "durability",
        [
          Alcotest.test_case "recover round-trip" `Quick
            test_recover_roundtrip;
          Alcotest.test_case "snapshot compaction" `Quick
            test_snapshot_compaction;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_torn_tail_every_offset;
          Alcotest.test_case "bit-flip fuzz" `Quick test_bit_flip_fuzz;
          Alcotest.test_case "mid-stream corruption refused end-to-end"
            `Quick test_corrupt_refused_end_to_end;
          Alcotest.test_case "disk fault trips read-only" `Quick
            test_fault_trips_read_only;
          Alcotest.test_case "snapshot fault degrades without loss" `Quick
            test_snapshot_fault_degrades;
          Alcotest.test_case "recovery read fault refuses" `Quick
            test_recover_read_fault;
          Alcotest.test_case "durable differential, 1 domain" `Quick
            (durable_differential 1);
          Alcotest.test_case "durable differential, 8 domains" `Quick
            (durable_differential 8);
          Alcotest.test_case "refused put leaves no trace" `Quick
            test_refused_put_leaves_no_trace;
          Alcotest.test_case "refused patch rolls back (text and shape)"
            `Quick test_refused_patch_rolls_back;
          Alcotest.test_case "a format-2 data dir from an earlier build recovers"
            `Quick test_golden_format2_recovers;
          Alcotest.test_case "format-1 data dir refused" `Quick
            test_format_1_refused;
          Alcotest.test_case "concurrent puts echo their own seq" `Quick
            test_concurrent_seq_echo;
          QCheck_alcotest.to_alcotest crc32_matches_bitwise;
        ] );
    ]
