(* Clock, statistics, line connections and the server subprocess. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- statistics ---------------------------------------------------- *)

(* Linear-interpolated quantile of a sample (q in [0, 1]); nan when
   empty.  Infinite entries (failed requests) sort last. *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 >= n || f = 0. || a.(i) = a.(i + 1) then a.(i)
    else a.(i) +. (f *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile 0.5 xs
let mean xs = match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let sum xs = List.fold_left ( +. ) 0. xs

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("argbench: " ^ s); exit 2) fmt

(* --- JSON field scans ----------------------------------------------- *)

(* The value of a top-level string field, found by scanning: response
   lines are small-object JSON whose string fields never contain an
   unescaped quote, and scanning keeps the load generator light. *)
let string_field line key =
  let pat = "\"" ^ key ^ "\":\"" in
  let lp = String.length pat and n = String.length line in
  let rec find i =
    if i + lp > n then None
    else if String.sub line i lp = pat then
      let j = String.index_from line (i + lp) '"' in
      Some (String.sub line (i + lp) (j - i - lp))
    else find (i + 1)
  in
  find 0

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let is_ok line =
  match string_field line "status" with Some "ok" -> true | _ -> false

(* --- line connections ---------------------------------------------- *)

module Conn = struct
  type t = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let send t s =
    let n = String.length s in
    let rec go off = if off < n then go (off + Unix.write_substring t.fd s off (n - off)) in
    go 0

  (* Complete lines already buffered, without blocking. *)
  let take_line t acc =
    match Bytes.index_from_opt t.buf t.lo '\n' with
    | Some j when j < t.hi ->
        Buffer.add_subbytes acc t.buf t.lo (j - t.lo);
        t.lo <- j + 1;
        true
    | _ ->
        Buffer.add_subbytes acc t.buf t.lo (t.hi - t.lo);
        t.lo <- 0;
        t.hi <- 0;
        false

  let fill t =
    let k = Unix.read t.fd t.buf 0 (Bytes.length t.buf) in
    if k = 0 then failwith "connection closed by server";
    t.lo <- 0;
    t.hi <- k

  (* Blocking: the next response line, newline stripped. *)
  let read_line t =
    let acc = Buffer.create 256 in
    let rec go () = if not (take_line t acc) then (fill t; go ()) in
    go ();
    Buffer.contents acc

  let call t line =
    send t line;
    send t "\n";
    read_line t
end

(* --- host speed ---------------------------------------------------- *)

(* How fast the host ran while the run measured.  A sampler domain
   repeats the fixed calibration pass of cpuclock_stubs.c every
   [period] seconds and records its CPU time.  On a shared host the
   same work takes half as long again at one hour as at another, and
   the server's CPU time moves as about the [exponent]th power of the
   pass time: across two sets of ten seeds per workload on this host
   the log-log slope was 1.4-1.7 for eight of the nine gated pairs of
   metric and workload (0.7 for small-mix CPU per request).  A gated
   CPU time is the measured time times ([reference_ms] / the median
   pass over the same interval) ** [exponent]: the CPU the program
   would have used on a host that runs one pass in [reference_ms].
   The pass uses none of the program, so a change to the program moves
   the figure in full. *)
module Speed = struct
  external pass : unit -> float = "argbench_calib_pass"

  let period = 0.05
  let reference_ms = 1.5
  let exponent = 1.5

  type t = { stop : bool Atomic.t; samples : (float * float) list Atomic.t; sampler : unit Domain.t }

  let start () =
    let stop = Atomic.make false and samples = Atomic.make [] in
    let sampler =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            let ms = pass () *. 1000. in
            Atomic.set samples ((now (), ms) :: Atomic.get samples);
            Unix.sleepf period
          done)
    in
    { stop; samples; sampler }

  let stop t =
    Atomic.set t.stop true;
    Domain.join t.sampler

  (* Median pass time (ms) over the samples taken inside any of the
     [(t0, t1)] intervals, or over all samples so far when none was. *)
  let pass_ms t intervals =
    let all = Atomic.get t.samples in
    match List.filter (fun (at, _) -> List.exists (fun (a, b) -> at >= a && at <= b) intervals) all with
    | [] -> median (List.map snd all)
    | inside -> median (List.map snd inside)

  let scale t intervals = (reference_ms /. pass_ms t intervals) ** exponent
end

(* --- the server subprocess ----------------------------------------- *)

module Server = struct
  type t = { pid : int; port : int; spawned : float }

  let flags ~data_dir ~port_file =
    [ "serve"; "--listen"; "127.0.0.1:0"; "--port-file"; port_file; "--jobs"; "1";
      "--store"; "--data-dir"; data_dir; "--sync"; "always" ]

  let rec wait_port file deadline =
    match In_channel.with_open_text file In_channel.input_all with
    | s when String.length s > 0 && s.[String.length s - 1] = '\n' ->
        int_of_string (String.trim s)
    | _ | (exception Sys_error _) ->
        if now () > deadline then die "server did not write its port file";
        wait_port file deadline

  let spawn ~argus ~data_dir ~log =
    let port_file = Filename.concat data_dir "port" in
    (try Sys.remove port_file with Sys_error _ -> ());
    let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let spawned = now () in
    let pid =
      Unix.create_process argus
        (Array.of_list (argus :: flags ~data_dir:(Filename.concat data_dir "store") ~port_file))
        devnull logfd logfd
    in
    Unix.close logfd;
    Unix.close devnull;
    let port = wait_port port_file (spawned +. 60.) in
    { pid; port; spawned }

  (* Poll [health] until it answers ok; the seconds since spawn.  Both
     waits spin rather than sleep: a sleep on this kind of host can
     oversleep by a scheduler tick, which is as long as the start-up
     being measured. *)
  let wait_healthy t =
    let deadline = now () +. 60. in
    let rec go () =
      match Conn.connect t.port with
      | c ->
          let line = Conn.call c {|{"id":"h0","op":"health"}|} in
          Conn.close c;
          if is_ok line then now () -. t.spawned
          else if now () > deadline then die "server never became healthy"
          else go ()
      | exception Unix.Unix_error _ ->
          if now () > deadline then die "server never accepted a connection";
          go ()
    in
    go ()

  let kill t =
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] t.pid)

  let proc_field t file key =
    let path = Printf.sprintf "/proc/%d/%s" t.pid file in
    In_channel.with_open_text path In_channel.input_lines
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:key l then
             Some (String.trim (String.sub l (String.length key) (String.length l - String.length key)))
           else None)

  (* Peak resident set (VmHWM) in MiB. *)
  let rss_hwm_mb t =
    match proc_field t "status" "VmHWM:" with
    | Some v -> float_of_string (List.hd (String.split_on_char ' ' v)) /. 1024.
    | None -> nan

  external process_cpu_s : int -> float = "argbench_process_cpu_s"

  (* User + system CPU seconds consumed so far, all threads, at
     nanosecond resolution (see cpuclock_stubs.c). *)
  let cpu_s t =
    let s = process_cpu_s t.pid in
    if s < 0. then die "cannot read the CPU clock of server %d" t.pid;
    s
end
