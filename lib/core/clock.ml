external monotonic_ns : unit -> int = "argus_clock_monotonic_ns" [@@noalloc]

(* [real] marks the real source; any other value is the fake's reading.
   One atomic, so a fake installed on one domain is what every domain
   reads (the supervisor's breaker is consulted on the acceptor and on
   workers alike). *)
let real = min_int
let fake = Atomic.make real

let now_ns () =
  let f = Atomic.get fake in
  if f = real then monotonic_ns () else f

let now_ms () = float_of_int (now_ns ()) /. 1e6

(* A CAS loop rather than check-then-add: a worker's sleep racing the
   end of [with_fake] must not add to the [real] marker. *)
let rec advance ns =
  let f = Atomic.get fake in
  f <> real && (Atomic.compare_and_set fake f (f + ns) || advance ns)

let sleep_ms ms =
  if ms > 0. && not (advance (int_of_float (ms *. 1e6))) then
    Unix.sleepf (ms /. 1000.)

let wall_ms () = Unix.gettimeofday () *. 1000.

let with_fake f =
  let saved = Atomic.get fake in
  Atomic.set fake (now_ns ());
  Fun.protect ~finally:(fun () -> Atomic.set fake saved) f
