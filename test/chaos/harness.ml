module Prng = Argus_core.Prng
module Json = Argus_core.Json
module Protocol = Argus_svc.Protocol
module Endpoint = Argus_svc.Endpoint
module Client = Argus_svc.Client

type result = {
  offered : int;
  resolved : int;
  ok : int;
  taxonomy : (string * int) list;
  chaos_conns : int;
}

let now_s () = Unix.gettimeofday ()

(* --- per-worker accounting, merged after the joins --- *)

type tally = { mutable issued : int; tax : (string, int) Hashtbl.t }

let new_tally () = { issued = 0; tax = Hashtbl.create 8 }

let record t bucket =
  Hashtbl.replace t.tax bucket
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.tax bucket))

(* --- the request mix --- *)

let valid_source = {|case "lg" { goal G1 "the load holds" { undeveloped } }|}
let broken_source = {|case "lg" { goal G1 |}

let pick_request rng ~id =
  match Prng.int rng 20 with
  | 0 | 1 -> Protocol.request ~id Protocol.Health
  | 2 | 3 -> Protocol.request ~id Protocol.Stats
  | 4 | 5 ->
      (* Parse errors resolve as an ok response with exit 1 — still a
         full round-trip through the diagnostics path. *)
      Protocol.request ~id ~source:broken_source ~filename:"lg.arg"
        Protocol.Check
  | _ ->
      Protocol.request ~id ~source:valid_source ~filename:"lg.arg"
        Protocol.Check

let request_line req = Json.to_string (Protocol.request_to_json req) ^ "\n"

let bucket_of_response (resp : Protocol.response) =
  match resp.Protocol.outcome with
  | Ok _ -> "ok"
  | Error (code, _) -> code

(* --- retrying workers: Client-driven, one call at a time --- *)

(* Open-loop schedule: [next] advances by exponential steps from the
   anchor regardless of how long calls take; a slow stretch leaves a
   backlog of overdue arrivals that are then issued back-to-back. *)
let retry_worker ~eps ~rng ~t_end ~rate_per ~wid () =
  let client = Client.create ~overall_deadline_ms:5_000. eps in
  let tally = new_tally () in
  let next = ref (now_s ()) in
  let n = ref 0 in
  let rec loop () =
    next := !next +. Prng.exponential rng ~rate:rate_per;
    if !next < t_end && now_s () < t_end then begin
      let now = now_s () in
      if !next > now then Unix.sleepf (!next -. now);
      incr n;
      tally.issued <- tally.issued + 1;
      let req = pick_request rng ~id:(Printf.sprintf "w%d-%d" wid !n) in
      record tally
        (match Client.call_request client req with
        | Ok resp -> bucket_of_response resp
        | Error e -> Client.error_code e
        (* The client promises a response or a typed error; a raise
           breaks that promise and gets its own failing bucket. *)
        | exception e -> "raised:" ^ Printexc.to_string e);
      loop ()
    end
  in
  loop ();
  tally

(* --- the pipelining worker: raw connection, batched frames --- *)

type rawconn = { rfd : Unix.file_descr; rbuf : Argus_svc.Framer.t }

let close_raw rc = try Unix.close rc.rfd with Unix.Unix_error _ -> ()

let raw_connect eps =
  let n = Array.length eps in
  let rec walk k =
    if k >= n then None
    else
      match Endpoint.connect ~timeout_ms:1_000. eps.(k) with
      | Ok fd ->
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25
           with Unix.Unix_error _ -> ());
          Some { rfd = fd; rbuf = Argus_svc.Framer.create () }
      | Error _ -> walk (k + 1)
  in
  walk 0

let raw_read_line rc ~deadline_at =
  let rec go () =
    match Argus_svc.Framer.next_line rc.rbuf with
    | Argus_svc.Framer.Line line -> Ok line
    | Argus_svc.Framer.Overlong -> Error "closed"
    | Argus_svc.Framer.Partial -> (
        if now_s () >= deadline_at then Error "timeout"
        else
          match Argus_svc.Framer.read rc.rbuf rc.rfd with
          | 0 -> Error "closed"
          | _ -> go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              go ()
          | exception Unix.Unix_error _ -> Error "closed")
  in
  go ()

let raw_send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> false
  in
  go 0

type batch = { size : int; first_at : float; next : float }

let next_batch rng ~rate ~next ~now ~t_end =
  let first_at = next in
  let rec grow size next =
    if next < t_end && (size = 0 || next <= now) then
      grow (size + 1) (next +. Prng.exponential rng ~rate)
    else { size; first_at; next }
  in
  grow 0 next

(* Pipelining emerges from the open-loop schedule: every arrival that
   is currently due goes out in one write; the batch's responses are
   then collected together.  The server sees true multi-frame reads. *)
let pipeline_worker ~eps ~rng ~t_end ~rate_per ~wid () =
  let eps = Array.of_list eps in
  let tally = new_tally () in
  let next = ref (now_s ()) in
  let n = ref 0 in
  let conn = ref None in
  let rec loop () =
    let now = now_s () in
    let b = next_batch rng ~rate:rate_per ~next:!next ~now ~t_end in
    next := b.next;
    if now < t_end && b.size > 0 then begin
      (* Ahead of schedule: wait for the batch's first arrival. *)
      if b.first_at > now then Unix.sleepf (b.first_at -. now);
      tally.issued <- tally.issued + b.size;
      let lines =
        String.concat ""
          (List.init b.size (fun _ ->
               incr n;
               request_line
                 (pick_request rng ~id:(Printf.sprintf "p%d-%d" wid !n))))
      in
      let rc =
        match !conn with
        | Some rc -> Some rc
        | None ->
            conn := raw_connect eps;
            !conn
      in
      (match rc with
      | None ->
          for _ = 1 to b.size do record tally "connect" done;
          Unix.sleepf 0.05
      | Some rc ->
          if not (raw_send_all rc.rfd lines) then begin
            for _ = 1 to b.size do record tally "closed" done;
            close_raw rc;
            conn := None
          end
          else begin
            let deadline_at = now_s () +. 5. in
            let rec collect k =
              if k < b.size then
                match raw_read_line rc ~deadline_at with
                | Ok line ->
                    record tally
                      (match Protocol.response_of_line line with
                      | Ok resp -> bucket_of_response resp
                      | Error _ -> "bad-response");
                    collect (k + 1)
                | Error kind ->
                    (* Everything still outstanding resolves to the
                       failure bucket; the connection is done for. *)
                    for _ = k + 1 to b.size do record tally kind done;
                    close_raw rc;
                    conn := None
            in
            collect 0
          end);
      loop ()
    end
  in
  loop ();
  (match !conn with Some rc -> close_raw rc | None -> ());
  tally

(* --- the misbehaving-client catalog --- *)

type misbehaviour = Dribbler | Midframe | Neverread | Garbage

let misbehaviours = [ Dribbler; Midframe; Neverread; Garbage ]

let misbehave kind ~eps ~rng ~t_end () =
  let eps = Array.of_list eps in
  let conns = ref 0 in
  let one = Bytes.create 1 in
  let line = request_line (pick_request rng ~id:"evil") in
  while now_s () < t_end do
    match raw_connect eps with
    | None -> Unix.sleepf 0.05
    | Some rc ->
        incr conns;
        (try
           match kind with
           | Dribbler ->
               (* One byte every 50 ms: a legitimate-looking frame
                  that will never complete before any sane read
                  deadline. *)
               let stop_at = Float.min t_end (now_s () +. 2.) in
               let i = ref 0 in
               while now_s () < stop_at && !i < String.length line do
                 Bytes.set one 0 line.[!i];
                 ignore (Unix.write rc.rfd one 0 1);
                 incr i;
                 Unix.sleepf 0.05
               done
           | Midframe ->
               let cut = 1 + Prng.int rng (String.length line - 1) in
               ignore (raw_send_all rc.rfd (String.sub line 0 cut));
               Unix.sleepf (0.005 +. (Prng.float rng *. 0.02))
           | Neverread ->
               for _ = 1 to 4 do
                 ignore (raw_send_all rc.rfd line)
               done;
               Unix.sleepf (Float.min 0.5 (Float.max 0. (t_end -. now_s ())))
           | Garbage ->
               let b = String.init 256 (fun _ -> Char.chr (Prng.int rng 256)) in
               ignore (raw_send_all rc.rfd (b ^ "\n"));
               Unix.sleepf 0.02
         with _ -> ());
        close_raw rc
  done;
  !conns

(* --- the run and the merge --- *)

let run ~duration_s ~rate ~clients ~seed eps =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let root = Prng.create seed in
  let t_end = now_s () +. duration_s in
  let rate_per = rate /. float_of_int (clients + 1) in
  let retriers =
    List.init clients (fun w ->
        Domain.spawn
          (retry_worker ~eps ~rng:(Prng.stream root w) ~t_end ~rate_per
             ~wid:w))
  in
  let pipeliner =
    Domain.spawn
      (pipeline_worker ~eps ~rng:(Prng.stream root clients) ~t_end ~rate_per
         ~wid:clients)
  in
  let catalog =
    List.mapi
      (fun i kind ->
        Domain.spawn
          (misbehave kind ~eps ~rng:(Prng.stream root (1000 + i)) ~t_end))
      misbehaviours
  in
  let tallies = List.map Domain.join retriers @ [ Domain.join pipeliner ] in
  let chaos_conns = List.fold_left (fun acc d -> acc + Domain.join d) 0 catalog in
  let tax = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace tax k
            (v + Option.value ~default:0 (Hashtbl.find_opt tax k)))
        t.tax)
    tallies;
  let taxonomy =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tax [] |> List.sort compare
  in
  {
    offered = List.fold_left (fun acc t -> acc + t.issued) 0 tallies;
    resolved = List.fold_left (fun acc (_, v) -> acc + v) 0 taxonomy;
    ok = Option.value ~default:0 (Hashtbl.find_opt tax "ok");
    taxonomy;
    chaos_conns;
  }

let problems r =
  (if r.resolved = r.offered then []
   else [ Printf.sprintf "offered %d but resolved %d" r.offered r.resolved ])
  @ List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:"raised:" k then
          Some (Printf.sprintf "%d client calls %s" v k)
        else None)
      r.taxonomy
