(* Seeded input generators.  Every generator takes its own
   [Random.State.t], so the same seed gives the same bytes; the server
   only ever sees the rendered text. *)

let pick st a = a.(Random.State.int st (Array.length a))
let chance st p = Random.State.float st 1. < p
let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* --- GSN cases ---------------------------------------------------- *)

type node = {
  id : string;
  kind : string;  (** DSL node word: goal, strategy, solution, context, ... *)
  mutable text : string;
  meta : string option;
  evidence : string option;
  mutable support : string list;  (** supported-by targets, in order *)
  mutable context : string list;  (** in-context-of targets, in order *)
}

type case = {
  title : string;
  module_name : string option;
  nodes : node array;  (** Declaration order. *)
  register : (string * string * string) list;  (** id, kind, description *)
}

let subjects =
  [| "brake controller"; "pressure relief valve"; "infusion pump";
     "lane keeping assist"; "reactor trip logic"; "flight control law";
     "battery management unit"; "railway interlocking"; "robot arm guard";
     "insulin dosing software"; "elevator door monitor"; "grid protection relay" |]

let qualities =
  [| "acceptably safe"; "adequately mitigated"; "correctly implemented";
     "sufficiently verified"; "independently reviewed"; "fully traceable";
     "free of single points of failure"; "robust to sensor faults" |]

let hazards =
  [| "overpressure"; "loss of braking"; "unintended acceleration";
     "overdose"; "stale sensor data"; "watchdog timeout"; "thermal runaway";
     "door opening in motion"; "signal passed at danger"; "arc flash" |]

let methods =
  [| "Argue over each identified hazard"; "Argue over software lifecycle phases";
     "Argue over operating modes"; "Argue over subsystem contracts";
     "Argue over verification techniques"; "Argue over failure modes" |]

let solution_words =
  [| "Fault tree analysis results"; "Hardware-in-the-loop test report";
     "Static analysis findings"; "Field data summary"; "Formal proof log";
     "Independent review minutes"; "Timing analysis results" |]

let contexts =
  [| "Operating envelope as defined in the concept of operations";
     "Hazard log revision"; "Applicable standard clause";
     "Maintenance regime as specified"; "Single-operator deployment" |]

let severities = [| "catastrophic"; "hazardous"; "major"; "minor" |]

let evidence_kinds =
  [| "analysis"; "test-results"; "review"; "field-data"; "simulation";
     "formal-proof"; "expert-judgement"; "process-compliance" |]

(* Sibling goal pairs sharing exactly one content word with otherwise
   disjoint vocabularies: the equivocation lint's trigger. *)
let equivocations =
  [| ("Bolt torque calibration verified quarterly onsite",
      "Bolt housing corrosion inspected annually offshore");
     ("Channel redundancy masks transient bitflips reliably",
      "Channel operators escalate alarms promptly overnight");
     ("Release baseline archived under configuration control",
      "Release valve opens below critical threshold") |]

(* Every goal text opens with the same two content words, so sibling
   goals never share exactly one word by accident: equivocation
   findings come only from the planted pairs below. *)
let goal_text st n =
  Printf.sprintf "Claim item %d: the %s is %s" n (pick st subjects) (pick st qualities)

let hazard_text st n =
  Printf.sprintf "Claim item %d: hazard H%d (%s) of the %s is %s" n n (pick st hazards)
    (pick st subjects) (pick st qualities)

type defect = Undeveloped | Dangling | Restated | Cycle | Ignorance | Equivocation

let defects = [| Undeveloped; Dangling; Restated; Cycle; Ignorance; Equivocation |]

(* A case tree of [size] nodes, give or take the last expansion.  [broken] plants one to three
   seeded defects; otherwise the case only carries whatever the lints
   find in its random wording. *)
let gen_case st ?module_name ~title ~size ~broken () =
  let pfx = match module_name with None -> "" | Some m -> m in
  let nodes = ref [] and count = ref 0 in
  let fresh kind letter text ?meta ?evidence () =
    incr count;
    let n =
      { id = Printf.sprintf "%s%s%d" pfx letter !count; kind; text; meta;
        evidence; support = []; context = [] }
    in
    nodes := n :: !nodes;
    n
  in
  let n_evidence = max 1 (size / 25) in
  let register =
    List.init n_evidence (fun i ->
        ( Printf.sprintf "%sE%d" pfx (i + 1),
          pick st evidence_kinds,
          Printf.sprintf "%s %d" (pick st solution_words) (i + 1) ))
  in
  let evidence_id () = Printf.sprintf "%sE%d" pfx (1 + Random.State.int st n_evidence) in
  let root = fresh "goal" "G" (goal_text st 0) () in
  let frontier = Queue.create () in
  Queue.add root frontier;
  let add_goal parent =
    let g =
      if chance st 0.3 then
        fresh "goal" "G" (hazard_text st !count)
          ~meta:(Printf.sprintf "hazard \"H%d\" %s" !count (pick st severities)) ()
      else fresh "goal" "G" (goal_text st !count) ()
    in
    parent.support <- parent.support @ [ g.id ];
    Queue.add g frontier
  in
  let add_solution parent =
    let s =
      fresh "solution" "Sn" (Printf.sprintf "%s %d" (pick st solution_words) !count)
        ~evidence:(evidence_id ()) ()
    in
    parent.support <- parent.support @ [ s.id ]
  in
  (* Every goal left on the frontier is closed with one solution below,
     so stop growing once that closing would reach [size]. *)
  while !count + Queue.length frontier < size && not (Queue.is_empty frontier) do
    let g = Queue.pop frontier in
    if chance st 0.2 then begin
      let c = fresh "context" "C" (pick st contexts) () in
      g.context <- [ c.id ]
    end;
    if chance st 0.5 then begin
      let s = fresh "strategy" "S" (pick st methods) () in
      g.support <- [ s.id ];
      if chance st 0.15 then begin
        let j = fresh "justification" "J" "Decomposition is complete by construction" () in
        s.context <- [ j.id ]
      end;
      for _ = 1 to between st 2 4 do add_goal s done
    end
    else begin
      for _ = 1 to between st 1 3 do
        if chance st 0.55 then add_goal g else add_solution g
      done;
      (* Keep growing until the case reaches its size. *)
      if Queue.is_empty frontier && !count < size then add_goal g
    end
  done;
  (* Close the still-open goals with evidence, leaving one open when
     the case is meant to carry an undeveloped goal. *)
  let planted =
    if not broken then []
    else List.init (between st 1 3) (fun _ -> pick st defects)
  in
  let leave_open = List.mem Undeveloped planted in
  let first = ref true in
  Queue.iter
    (fun g ->
      if g.support = [] then
        if leave_open && !first then first := false else add_solution g)
    frontier;
  let arr = Array.of_list (List.rev !nodes) in
  let goals = List.filter (fun n -> n.kind = "goal" && n != root) (Array.to_list arr) in
  let some_goal () = match goals with [] -> root | l -> pick st (Array.of_list l) in
  List.iter
    (function
      | Undeveloped -> ()
      | Dangling ->
          let g = some_goal () in
          g.support <- g.support @ [ pfx ^ "Gmissing" ^ string_of_int (Random.State.int st 1000) ]
      | Restated -> (some_goal ()).text <- root.text
      | Cycle ->
          let g = some_goal () in
          if g.support <> [] then g.support <- g.support @ [ root.id ]
      | Ignorance ->
          (some_goal ()).text <-
            Printf.sprintf "There is no evidence that %s occurs in the %s"
              (pick st hazards) (pick st subjects)
      | Equivocation -> (
          let strategies =
            Array.of_list
              (List.filter (fun n -> n.kind = "strategy" && List.length n.support >= 2)
                 (Array.to_list arr))
          in
          if Array.length strategies > 0 then
            let s = pick st strategies in
            let a, b = pick st equivocations in
            let find id = List.find (fun n -> n.id = id) goals in
            match s.support with
            | x :: y :: _ -> (
                match (find x, find y) with
                | gx, gy -> gx.text <- a; gy.text <- b
                | exception Not_found -> ())
            | _ -> ()))
    planted;
  { title; module_name; nodes = arr; register }

let copy_case c =
  { c with nodes = Array.map (fun n -> { n with id = n.id }) c.nodes }

(* A variant of an earlier case: same shape, a few texts changed. *)
let variant st c ~title =
  let c = copy_case c in
  for _ = 1 to between st 1 5 do
    let n = pick st c.nodes in
    n.text <- Printf.sprintf "%s, revision %d" n.text (between st 2 99)
  done;
  { c with title }

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      if ch = '"' || ch = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let render_into b c =
  let p = Buffer.add_string b in
  p "case ";
  (match c.module_name with Some m -> p m; p " " | None -> ());
  p (quote c.title);
  p " {\n  enum severity { catastrophic hazardous major minor }\n";
  p "  attr hazard (string, severity)\n";
  List.iter
    (fun (id, kind, desc) ->
      Printf.bprintf b "  evidence %s %s %s\n" id kind (quote desc))
    c.register;
  Array.iter
    (fun n ->
      Printf.bprintf b "  %s %s %s" n.kind n.id (quote n.text);
      let body =
        (match n.meta with Some m -> [ "meta " ^ quote m ] | None -> [])
        @ (match n.evidence with Some e -> [ "evidence " ^ e ] | None -> [])
        @ (if n.support = [] then [] else [ "supported-by " ^ String.concat ", " n.support ])
        @ if n.context = [] then [] else [ "in-context-of " ^ String.concat ", " n.context ]
      in
      if body = [] then p "\n"
      else begin
        p " {\n";
        List.iter (fun l -> p "    "; p l; p "\n") body;
        p "  }\n"
      end)
    c.nodes;
  p "}\n"

let render c =
  let b = Buffer.create (64 * Array.length c.nodes) in
  render_into b c;
  Buffer.contents b

(* A multi-module collection of about [size] nodes: module M1 argues
   over the others through away goals naming their root claims. *)
let gen_collection st ~size ~broken =
  let k = between st 2 4 in
  let subs =
    List.init (k - 1) (fun i ->
        let m = Printf.sprintf "M%d" (i + 2) in
        gen_case st ~module_name:m ~title:(m ^ " subsystem safety")
          ~size:(max 3 (size / k)) ~broken ())
  in
  let top = gen_case st ~module_name:"M1" ~title:"System safety" ~size:(max 3 (size / k)) ~broken:false () in
  let away =
    List.map
      (fun c ->
        let m = Option.get c.module_name in
        { id = "AG" ^ m; kind = Printf.sprintf "away-goal(%s)" m;
          text = c.nodes.(0).text; meta = None; evidence = None; support = [];
          context = [] })
      subs
  in
  let strat =
    { id = "M1Sx"; kind = "strategy"; text = "Argue over each subsystem module";
      meta = None; evidence = None; support = List.map (fun a -> a.id) away;
      context = [] }
  in
  let root = top.nodes.(0) in
  root.support <- root.support @ [ strat.id ];
  let top = { top with nodes = Array.concat [ top.nodes; [| strat |]; Array.of_list away ] } in
  let b = Buffer.create 4096 in
  List.iteri
    (fun i c -> if i > 0 then Buffer.add_char b '\n'; render_into b c)
    (top :: subs);
  (Buffer.contents b, Array.length top.nodes + List.fold_left (fun a c -> a + Array.length c.nodes) 0 subs)

(* --- Prolog programs (Desert Bank sized) -------------------------- *)

let places = [| "bank"; "ford"; "delta"; "ridge"; "quay"; "mesa"; "marsh"; "dune" |]
let waters = [| "river"; "lake"; "canal"; "sea"; "spring" |]

let gen_prolog st =
  let n = between st 1 3 in
  let tag = Random.State.int st 1000 in
  let c i = Printf.sprintf "%s%d_%d" places.(i mod Array.length places) tag i in
  let water = Printf.sprintf "%s%d" (pick st waters) tag in
  let b = Buffer.create 256 in
  for i = 0 to n - 1 do Printf.bprintf b "is_a(%s, %s).\n" (c i) (c (i + 1)) done;
  Printf.bprintf b "adjacent(%s, %s).\n" (c n) water;
  if chance st 0.5 then Printf.bprintf b "adjacent(%s, %s).\n" (c (n + 2)) (pick st waters);
  Buffer.add_string b "adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y).\n";
  let goal =
    if chance st 0.8 then Printf.sprintf "adjacent(%s, %s)" (c 0) water
    else Printf.sprintf "adjacent(%s, nowhere)" (c 0)
  in
  (Buffer.contents b, goal)

(* --- Natural-deduction proofs ------------------------------------- *)

let atom st used =
  let rec go () =
    let a = Printf.sprintf "%c%d" (Char.chr (Char.code 'a' + Random.State.int st 26)) (Random.State.int st 50) in
    if List.mem a !used then go () else (used := a :: !used; a)
  in
  go ()

(* Either the renamed Haley et al. outer argument, or a detach chain
   closed by conditional proof. *)
let gen_proof st =
  let used = ref [] in
  if chance st 0.5 then begin
    let i = atom st used and v = atom st used and c = atom st used
    and h = atom st used and y = atom st used and d = atom st used in
    Printf.sprintf
      "1. %s -> %s premise\n2. %s -> %s premise\n3. %s -> %s & %s premise\n\
       4. %s -> %s premise\n5. %s premise\n6. %s detach 4 5\n7. %s & %s detach 3 6\n\
       8. %s split-left 7\n9. %s split-right 7\n10. %s detach 2 9\n\
       11. %s -> %s conclusion 5 10\n"
      i v c h y v c d y d y v c v c h d h
  end
  else begin
    let k = between st 2 5 in
    let a = Array.init (k + 1) (fun _ -> atom st used) in
    let b = Buffer.create 256 in
    for j = 0 to k - 1 do Printf.bprintf b "%d. %s -> %s premise\n" (j + 1) a.(j) a.(j + 1) done;
    Printf.bprintf b "%d. %s premise\n" (k + 1) a.(0);
    for j = 1 to k do
      Printf.bprintf b "%d. %s detach %d %d\n" (k + 1 + j) a.(j) j (k + j)
    done;
    Printf.bprintf b "%d. %s -> %s conclusion %d %d\n" (2 * k + 2) a.(0) a.(k) (k + 1) (2 * k + 1);
    Buffer.contents b
  end

(* --- Edit scripts -------------------------------------------------- *)

(* The generator's model of one stored case: enough to emit only edits
   that name nodes and links that exist. *)
type model = {
  mutable order : string array;  (** node ids, creation order *)
  kinds : (string, string) Hashtbl.t;
  parents : (string, string) Hashtbl.t;  (** supported-by child -> parent *)
  mutable next : int;
}

let model_of_case c =
  let kinds = Hashtbl.create 1024 and parents = Hashtbl.create 1024 in
  Array.iter
    (fun n ->
      Hashtbl.replace kinds n.id n.kind;
      List.iter (fun d -> if not (Hashtbl.mem parents d) then Hashtbl.replace parents d n.id) n.support)
    c.nodes;
  { order = Array.map (fun n -> n.id) c.nodes; kinds; parents; next = 0 }

type edit =
  | Set_text of string * string
  | Add_node of string * string * string
  | Remove_node of string
  | Link of string * string
  | Unlink of string * string

let edit_json = function
  | Set_text (id, t) -> Printf.sprintf {|{"op":"set-text","id":%s,"text":%s}|} (quote id) (quote t)
  | Add_node (id, ty, t) ->
      Printf.sprintf {|{"op":"add-node","id":%s,"type":%s,"text":%s}|} (quote id) (quote ty) (quote t)
  | Remove_node id -> Printf.sprintf {|{"op":"remove-node","id":%s}|} (quote id)
  | Link (s, d) -> Printf.sprintf {|{"op":"link","kind":"supported-by","src":%s,"dst":%s}|} (quote s) (quote d)
  | Unlink (s, d) -> Printf.sprintf {|{"op":"unlink","kind":"supported-by","src":%s,"dst":%s}|} (quote s) (quote d)

(* One patch: 1-3 set-text edits, or (with probability [shape]) one
   shape edit — add a goal under an earlier node, move a subtree to an
   earlier parent (never creating a cycle), or remove a solution. *)
let gen_patch st m ~shape =
  let n = Array.length m.order in
  let text () =
    Printf.sprintf "%s, edit %d" (goal_text st (Random.State.int st 100000)) (Random.State.int st 1000)
  in
  if not (chance st shape) then
    List.init (between st 1 3) (fun _ -> Set_text (m.order.(Random.State.int st n), text ()))
  else
    let inner id = match Hashtbl.find_opt m.kinds id with Some ("goal" | "strategy") -> true | _ -> false in
    let rec earlier_inner ?(tries = 100) below =
      let id = m.order.(Random.State.int st (max 1 below)) in
      if inner id then id
      else if tries = 0 then m.order.(0)
      else earlier_inner ~tries:(tries - 1) below
    in
    match Random.State.int st 3 with
    | 0 ->
        m.next <- m.next + 1;
        let id = Printf.sprintf "X%d" m.next in
        let parent = earlier_inner n in
        Hashtbl.replace m.kinds id "goal";
        Hashtbl.replace m.parents id parent;
        m.order <- Array.append m.order [| id |];
        [ Add_node (id, "goal", text ()); Link (parent, id) ]
    | 1 -> (
        let rec movable tries =
          let i = 1 + Random.State.int st (n - 1) in
          match Hashtbl.find_opt m.parents m.order.(i) with
          | Some p -> Some (i, m.order.(i), p)
          | None -> if tries = 0 then None else movable (tries - 1)
        in
        match movable 100 with
        | None -> [ Set_text (m.order.(0), text ()) ]
        | Some (i, id, p) ->
            let p' = earlier_inner i in
            Hashtbl.replace m.parents id p';
            [ Unlink (p, id); Link (p', id) ])
    | _ ->
        let sols = List.filter (fun id -> Hashtbl.find_opt m.kinds id = Some "solution") (Array.to_list m.order) in
        if List.length sols < 2 then [ Set_text (m.order.(0), text ()) ]
        else begin
          let id = pick st (Array.of_list sols) in
          Hashtbl.remove m.kinds id;
          Hashtbl.remove m.parents id;
          m.order <- Array.of_list (List.filter (fun x -> x <> id) (Array.to_list m.order));
          [ Remove_node id ]
        end

let patch_edits_json edits = "[" ^ String.concat "," (List.map edit_json edits) ^ "]"

(* --- Case-ingest size schedule ------------------------------------ *)

(* Log-uniform sizes over [lo, hi], stratified: each block of [k]
   consecutive inputs visits every stratum once, in an order that does
   not depend on the seed, so any prefix of the schedule carries
   nearly the same work whichever seed fills in the content. *)
let stratified_size ~lo ~hi ~k i =
  let stratum = (i * 7 + i / k) mod k in
  let u = (float_of_int stratum +. 0.5) /. float_of_int k in
  int_of_float (exp (log (float_of_int lo) +. u *. (log (float_of_int hi) -. log (float_of_int lo))))
