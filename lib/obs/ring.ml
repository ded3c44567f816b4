module Json = Argus_core.Json

(* A flight recorder: a fixed-size ring of structured events, always
   on, overwritten oldest-first.  Recording is a mutex-guarded array
   store — events are low-rate control-plane facts (admissions, sheds,
   breaker transitions, restarts), not per-span data, so a single lock
   shared by the acceptor thread and worker domains is cheap and keeps
   the event order globally consistent.  Rings register globally (like
   counters) so [Obs.reset] can clear them and creation is idempotent
   by name. *)

type event = { ts_ms : float; kind : string; fields : (string * Json.t) list }

type t = {
  name : string;
  mu : Mutex.t;
  buf : event option array;
  mutable next : int; (* slot the next event goes into *)
  mutable recorded : int; (* total ever recorded, for wrap detection *)
}

let registry_mu = Mutex.create ()
let rings_by_name : (string, t) Hashtbl.t = Hashtbl.create 4

let make ~name ~capacity =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt rings_by_name name with
      | Some r -> r
      | None ->
          let r =
            {
              name;
              mu = Mutex.create ();
              buf = Array.make (max 1 capacity) None;
              next = 0;
              recorded = 0;
            }
          in
          Hashtbl.add rings_by_name name r;
          r)

let name t = t.name
let capacity t = Array.length t.buf

let record ?ts_ms t ~kind fields =
  let ts_ms =
    match ts_ms with Some t -> t | None -> Argus_core.Clock.wall_ms ()
  in
  Mutex.protect t.mu (fun () ->
      t.buf.(t.next) <- Some { ts_ms; kind; fields };
      t.next <- (t.next + 1) mod Array.length t.buf;
      t.recorded <- t.recorded + 1)

(* Oldest first.  With fewer events than capacity the ring has not
   wrapped and the prefix [0, next) is the history; after a wrap the
   history starts at [next]. *)
let events t =
  Mutex.protect t.mu (fun () ->
      let n = Array.length t.buf in
      let start = if t.recorded <= n then 0 else t.next in
      let len = min t.recorded n in
      List.init len (fun i ->
          match t.buf.((start + i) mod n) with
          | Some e -> e
          | None -> assert false))

let recorded t = Mutex.protect t.mu (fun () -> t.recorded)

let clear t =
  Mutex.protect t.mu (fun () ->
      Array.fill t.buf 0 (Array.length t.buf) None;
      t.next <- 0;
      t.recorded <- 0)

let reset_all () =
  let rings =
    Mutex.protect registry_mu (fun () ->
        Hashtbl.fold (fun _ r acc -> r :: acc) rings_by_name [])
  in
  List.iter clear rings

let event_to_json e =
  Json.Obj
    (("type", Json.Str "flight")
    :: ("ts_ms", Json.Num e.ts_ms)
    :: ("kind", Json.Str e.kind)
    :: e.fields)

let to_jsonl t = List.map event_to_json (events t)

let dump oc t =
  List.iter
    (fun ev ->
      output_string oc (Json.to_string ev);
      output_char oc '\n')
    (to_jsonl t);
  flush oc
