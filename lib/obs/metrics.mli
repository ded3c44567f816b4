(** The global metrics registry: named counters and histograms.

    Counters are always on — an increment is one store into the current
    domain's shard, so the engines keep their counters hot even when
    tracing output is disabled; the bench harness snapshots them after a
    run.  Creation is idempotent: [Counter.make name] returns the
    already-registered counter when the name exists, so modules can
    create their counters at load time without coordination.

    The registry is domain-safe: each domain increments its own
    [Domain.DLS] shard (no locks on the hot path) and readers merge all
    shards.  Shards outlive their domain, so totals accumulated inside
    an {!Argus_par} pool are exact once the workers have been joined; a
    read concurrent with running workers may miss in-flight
    increments.

    Names are dotted paths, [subsystem.metric] (e.g.
    ["prolog.unifications"]); the catalogue lives in DESIGN.md. *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or fetch) the counter named [name]. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string

  type shard
  (** A handle on the calling domain's private cells.  Batch flushes
      (one lookup, several adds) use it to pay the domain-local lookup
      once instead of per counter.  A shard belongs to the domain that
      fetched it: never store one across a spawn or send it to another
      domain. *)

  val current_shard : unit -> shard
  val shard_add : shard -> t -> int -> unit
end

module Gauge : sig
  type t

  val make : string -> t
  (** Register (or fetch) the gauge named [name].  Unlike counters,
      gauges are point-in-time values (queue depth, live workers) set
      by the single owner of the measured quantity; they are not
      sharded — one atomic cell plus a high-watermark. *)

  val set : t -> int -> unit

  val value : t -> int
  val max_value : t -> int
  (** Highest value ever {!set} (since the last {!reset}). *)

  val name : t -> string
end

module Histogram : sig
  type t

  val make : string -> t
  (** Register (or fetch) the histogram named [name]. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val name : t -> string
end

type histogram_stats = {
  hcount : int;
  hsum : float;
  hmin : float;
  hmax : float;
  hmean : float;
  hp50 : float;
      (** Quantiles are estimated from the log-spaced buckets (linear
          interpolation within the covering bucket, clamped to the
          observed range); relative error is bounded by the factor-2
          bucket width. *)
  hp90 : float;
  hp99 : float;
  hbuckets : int array;
      (** Per-bucket observation counts, merged across shards; entry
          [i] counts observations [<= bucket_bounds().(i)], the last
          entry is the overflow bucket. *)
}

val bucket_bounds : unit -> float array
(** The shared log-spaced upper bucket bounds (factor-2 steps from 1e-3
    past 1e12) every histogram records into — exposition formats
    (Prometheus) publish these so scrapers can aggregate. *)

val counters : unit -> (string * int) list
(** All registered counters, sorted by name. *)

val histograms : unit -> (string * histogram_stats) list
(** Registered histograms with at least one observation, sorted. *)

val gauges : unit -> (string * (int * int)) list
(** Registered gauges as [(name, (value, max))], sorted by name. *)

val reset : unit -> unit
(** Zero every counter, histogram bucket, and gauge — including the
    gauges' high-watermarks (registrations survive). *)

val to_json : unit -> Argus_core.Json.t
(** [{"counters": {...}, "histograms": {...}}] snapshot. *)
