type t = {
  name : string;
  start_ns : int;
  dur_ns : int;
  domain : int;
  children : t list;
}

type node = {
  nname : string;
  nstart : int;
  mutable ndur : int;
  mutable nchildren : node list; (* newest first *)
}

(* Written by the main domain before any workers run; workers only
   read, so a plain ref is safe. *)
let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* Live request-scoped captures across all domains.  Checked on the
   [with_] fast path before any DLS lookup, so a process that never
   captures pays one extra atomic load per span site. *)
let n_captures = Atomic.make 0

(* Monotonic ns relative to module load, so the ints stay small, the
   JSONL output is stable-ish across runs, and there is no racy
   first-call initialisation across domains. *)
let epoch = Argus_core.Clock.now_ns ()
let now_ns () = Argus_core.Clock.now_ns () - epoch

(* Each domain keeps its own span stack and completed list, so workers
   record spans without locks or interleaving; [roots] merges the
   per-domain buffers (main domain's spans first) after the fact — in
   practice once a pool's workers have been joined.  Buffers outlive
   their domain. *)
type dshard = {
  domain : int;
  mutable stack : node list;
  mutable completed : node list; (* newest first *)
  mutable capturing : bool;
}

let shards_mu = Mutex.create ()
let shards : dshard list ref = ref [] (* newest first *)

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          domain = (Domain.self () :> int);
          stack = [];
          completed = [];
          capturing = false;
        }
      in
      Mutex.protect shards_mu (fun () -> shards := s :: !shards);
      s)

let my_shard () = Domain.DLS.get shard_key

let rec freeze domain n =
  {
    name = n.nname;
    start_ns = n.nstart;
    dur_ns = n.ndur;
    domain;
    children = List.rev_map (freeze domain) n.nchildren;
  }

let roots () =
  Mutex.protect shards_mu (fun () -> List.rev !shards)
  |> List.concat_map (fun s -> List.rev_map (freeze s.domain) s.completed)

let reset () =
  Mutex.protect shards_mu (fun () ->
      List.iter
        (fun s ->
          s.stack <- [];
          s.completed <- [])
        !shards)

let record sh ~name f =
  let n = { nname = name; nstart = now_ns (); ndur = 0; nchildren = [] } in
  sh.stack <- n :: sh.stack;
  let finish () =
    n.ndur <- now_ns () - n.nstart;
    Metrics.Histogram.observe
      (Metrics.Histogram.make ("span." ^ name))
      (float_of_int n.ndur);
    (* Pop up to and including [n]; anything above it was left open by
       an escaping exception and is discarded with its parent intact. *)
    let rec pop = function
      | top :: rest when top == n -> rest
      | _ :: rest -> pop rest
      | [] -> []
    in
    sh.stack <- pop sh.stack;
    match sh.stack with
    | parent :: _ -> parent.nchildren <- n :: parent.nchildren
    | [] -> sh.completed <- n :: sh.completed
  in
  Fun.protect ~finally:finish f

let with_ ~name f =
  (* Fast path when neither global tracing nor any capture is armed:
     one ref read and one atomic load, no DLS access. *)
  if (not !enabled_flag) && Atomic.get n_captures = 0 then f ()
  else begin
    let sh = my_shard () in
    if not (!enabled_flag || sh.capturing) then f ()
    else record sh ~name f
  end

(* Request-scoped capture: divert this domain's recording into a fresh
   buffer for the duration of [f] and hand back the completed tree.
   The surrounding stack/completed are saved and restored, so a capture
   in the middle of a globally-traced run leaves the global trace
   intact minus the captured interval. *)
let capture ~name f =
  let sh = my_shard () in
  let saved_stack = sh.stack and saved_completed = sh.completed in
  sh.stack <- [];
  sh.completed <- [];
  sh.capturing <- true;
  Atomic.incr n_captures;
  let restore () =
    Atomic.decr n_captures;
    sh.capturing <- false;
    sh.stack <- saved_stack;
    sh.completed <- saved_completed
  in
  match record sh ~name f with
  | v ->
      let root =
        match sh.completed with
        | n :: _ -> freeze sh.domain n
        | [] ->
            (* Unreachable: [record] always completes its root. *)
            { name; start_ns = 0; dur_ns = 0; domain = sh.domain; children = [] }
      in
      restore ();
      (v, root)
  | exception e ->
      restore ();
      raise e
