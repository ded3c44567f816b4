(** Hierarchical timed spans.

    [with_ ~name f] runs [f] and, when tracing is enabled, records a
    span covering the call.  Nesting is tracked with an explicit stack,
    so spans opened inside [f] become children; the completed trees are
    available from {!roots} in call order.  When tracing is disabled the
    cost of [with_] is a single flag test — the engines keep their spans
    in place unconditionally.

    Each completed span also feeds the histogram ["span.<name>"] in
    {!Metrics}, giving per-rule / per-phase duration aggregates for
    free.

    Timing reads the monotonic {!Argus_core.Clock} in nanoseconds, so
    a wall-clock step cannot produce a negative duration, and a test
    under {!Argus_core.Clock.with_fake} gets exact durations.

    Spans are domain-safe: each domain records into its own stack and
    completed buffer ([Domain.DLS]), so worker domains never interleave
    with the main thread; {!roots} merges the buffers, main domain
    first, and the trace sinks emit only after workers have joined. *)

type t = {
  name : string;
  start_ns : int;  (** Relative to the first span of the process. *)
  dur_ns : int;
  domain : int;  (** The domain that recorded the span. *)
  children : t list;  (** In call order. *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_ : name:string -> (unit -> 'a) -> 'a
(** Exception-safe: the span is closed (and recorded) even if [f]
    raises. *)

val capture : name:string -> (unit -> 'a) -> 'a * t
(** Request-scoped tracing: run [f] under a span named [name] recording
    into a private buffer on the calling domain, and return the
    completed tree alongside [f]'s result — independently of
    {!enabled}, without touching {!roots}.  The span sites inside [f]
    need no changes; any {!with_} they run on this domain lands in the
    captured tree.  When no capture (and no global trace) is armed,
    {!with_} still costs only two loads, so idle services keep the
    disabled-tracing fast path. *)

val roots : unit -> t list
(** Completed top-level spans, oldest first — per recording domain, the
    main domain's spans before any worker's. *)

val reset : unit -> unit
(** Drop all recorded spans (any open spans are detached). *)
