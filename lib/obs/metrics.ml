module Json = Argus_core.Json

(* Domain-safe registry.  A counter or histogram is a name plus a dense
   id; the actual cells live in per-domain shards reached through
   [Domain.DLS], so the hot-path increment is a plain store into the
   current domain's own arrays — no locks, no contention.  Readers merge
   every shard under the registry mutex.  Shards are registered globally
   and outlive their domain, so totals accumulated inside a worker pool
   survive the workers' join and are exact once the domains have been
   joined (a concurrent read may miss in-flight increments, which is
   fine for monitoring). *)

(* Percentiles come from fixed log-spaced buckets: every histogram
   shares one bounds table (factor-2 steps from 1e-3 up past 1e12, wide
   enough for span nanoseconds and service milliseconds alike), so a
   cell is a constant-size count array whatever the observation volume —
   spans observe durations here, so an unbounded store would grow with
   trace length.  Quantiles interpolate within the covering bucket and
   are clamped to the observed [min, max]; the relative error is bounded
   by the factor-2 bucket width. *)
let bucket_base = 1e-3
let n_bounds = 51

let bounds =
  Array.init n_bounds (fun i -> bucket_base *. Float.of_int (1 lsl i))

let bucket_bounds () = Array.copy bounds

(* Smallest i with v <= bounds.(i); [n_bounds] is the overflow bucket. *)
let bucket_index v =
  if Float.is_nan v || v > bounds.(n_bounds - 1) then n_bounds
  else begin
    let lo = ref 0 and hi = ref (n_bounds - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

type counter = { cname : string; cid : int }
type histogram = { hname : string; hid : int }

type hcell = {
  mutable obs_count : int;
  mutable obs_sum : float;
  mutable obs_min : float;
  mutable obs_max : float;
  buckets : int array; (* length [n_bounds + 1]; last is overflow *)
}

type shard = {
  mutable ccells : int array; (* indexed by counter id *)
  mutable hcells : hcell option array; (* indexed by histogram id *)
}

let registry_mu = Mutex.create ()
let locked f = Mutex.protect registry_mu f
let counters_by_name : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms_by_name : (string, histogram) Hashtbl.t = Hashtbl.create 32
let n_counters = ref 0
let n_histograms = ref 0

(* Newest first; readers reverse so merge order is registration order
   (the main domain's shard first), keeping single-domain behaviour
   bit-identical to the pre-shard implementation. *)
let shards : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = { ccells = [||]; hcells = [||] } in
      locked (fun () -> shards := s :: !shards);
      s)

let my_shard () = Domain.DLS.get shard_key

let grown_length have need = max need ((2 * have) + 8)

let ensure_ccells s n =
  let have = Array.length s.ccells in
  if have < n then begin
    let a = Array.make (grown_length have n) 0 in
    Array.blit s.ccells 0 a 0 have;
    s.ccells <- a
  end

let ensure_hcells s n =
  let have = Array.length s.hcells in
  if have < n then begin
    let a = Array.make (grown_length have n) None in
    Array.blit s.hcells 0 a 0 have;
    s.hcells <- a
  end

module Counter = struct
  type t = counter

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt counters_by_name name with
        | Some c -> c
        | None ->
            let c = { cname = name; cid = !n_counters } in
            Stdlib.incr n_counters;
            Hashtbl.add counters_by_name name c;
            c)

  type shard' = shard
  type shard = shard'

  let current_shard () = my_shard ()

  let shard_add s c k =
    ensure_ccells s (c.cid + 1);
    s.ccells.(c.cid) <- s.ccells.(c.cid) + k

  let add c k = shard_add (my_shard ()) c k
  let incr c = add c 1

  (* Callers hold the registry mutex. *)
  let total_unlocked cid =
    List.fold_left
      (fun acc s ->
        if cid < Array.length s.ccells then acc + s.ccells.(cid) else acc)
      0 !shards

  let value c = locked (fun () -> total_unlocked c.cid)
  let name c = c.cname
end

let fresh_hcell () =
  {
    obs_count = 0;
    obs_sum = 0.;
    obs_min = infinity;
    obs_max = neg_infinity;
    buckets = Array.make (n_bounds + 1) 0;
  }

module Histogram = struct
  type t = histogram

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt histograms_by_name name with
        | Some h -> h
        | None ->
            let h = { hname = name; hid = !n_histograms } in
            Stdlib.incr n_histograms;
            Hashtbl.add histograms_by_name name h;
            h)

  let cell_of s h =
    ensure_hcells s (h.hid + 1);
    match s.hcells.(h.hid) with
    | Some c -> c
    | None ->
        let c = fresh_hcell () in
        s.hcells.(h.hid) <- Some c;
        c

  let observe h v =
    let c = cell_of (my_shard ()) h in
    c.obs_count <- c.obs_count + 1;
    c.obs_sum <- c.obs_sum +. v;
    if v < c.obs_min then c.obs_min <- v;
    if v > c.obs_max then c.obs_max <- v;
    let b = bucket_index v in
    c.buckets.(b) <- c.buckets.(b) + 1

  (* Callers hold the registry mutex. *)
  let cells_unlocked hid =
    List.rev !shards
    |> List.filter_map (fun s ->
           if hid < Array.length s.hcells then s.hcells.(hid) else None)

  let count h =
    locked (fun () ->
        List.fold_left (fun acc c -> acc + c.obs_count) 0 (cells_unlocked h.hid))

  let sum h =
    locked (fun () ->
        List.fold_left (fun acc c -> acc +. c.obs_sum) 0. (cells_unlocked h.hid))

  let name h = h.hname
end

(* Gauges are point-in-time values (queue depth, worker count), not
   accumulators, so sharding them per domain would be meaningless: a
   gauge is one atomic cell plus a high-watermark, set by whoever owns
   the measured quantity. *)
type gauge = { gname : string; gcell : int Atomic.t; gmax : int Atomic.t }

let gauges_by_name : (string, gauge) Hashtbl.t = Hashtbl.create 8

module Gauge = struct
  type t = gauge

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt gauges_by_name name with
        | Some g -> g
        | None ->
            let g =
              { gname = name; gcell = Atomic.make 0; gmax = Atomic.make 0 }
            in
            Hashtbl.add gauges_by_name name g;
            g)

  let set g v =
    Atomic.set g.gcell v;
    let rec bump () =
      let m = Atomic.get g.gmax in
      if v > m && not (Atomic.compare_and_set g.gmax m v) then bump ()
    in
    bump ()

  let value g = Atomic.get g.gcell
  let max_value g = Atomic.get g.gmax
  let name g = g.gname
end

type histogram_stats = {
  hcount : int;
  hsum : float;
  hmin : float;
  hmax : float;
  hmean : float;
  hp50 : float;
  hp90 : float;
  hp99 : float;
  hbuckets : int array;
}

(* Estimate the [q]-quantile from merged bucket counts: find the bucket
   holding the target rank, interpolate linearly within it, clamp to the
   exact observed range (a single spike never reads past the true
   max). *)
let quantile_of_buckets ~count ~mn ~mx buckets q =
  if count = 0 then 0.
  else begin
    let rank =
      max 1 (min count (int_of_float (Float.ceil (q *. float_of_int count))))
    in
    let i = ref 0 and cum = ref 0 in
    while !cum + buckets.(!i) < rank && !i < n_bounds do
      cum := !cum + buckets.(!i);
      Stdlib.incr i
    done;
    let lower = if !i = 0 then 0. else bounds.(!i - 1) in
    let upper = if !i >= n_bounds then mx else bounds.(!i) in
    let in_bucket = buckets.(!i) in
    let est =
      if in_bucket = 0 then upper
      else
        lower
        +. (upper -. lower)
           *. (float_of_int (rank - !cum) /. float_of_int in_bucket)
    in
    Float.max mn (Float.min mx est)
  end

(* Merge the per-shard cells for histogram [hid] — bucket counts add
   across shards.  Caller holds the registry mutex. *)
let stats_of_unlocked hid =
  let cells = Histogram.cells_unlocked hid in
  let count = List.fold_left (fun acc c -> acc + c.obs_count) 0 cells in
  let sum = List.fold_left (fun acc c -> acc +. c.obs_sum) 0. cells in
  let mn = List.fold_left (fun acc c -> min acc c.obs_min) infinity cells in
  let mx = List.fold_left (fun acc c -> max acc c.obs_max) neg_infinity cells in
  let buckets = Array.make (n_bounds + 1) 0 in
  List.iter
    (fun c ->
      Array.iteri (fun i n -> buckets.(i) <- buckets.(i) + n) c.buckets)
    cells;
  let q = quantile_of_buckets ~count ~mn ~mx buckets in
  {
    hcount = count;
    hsum = sum;
    hmin = (if count = 0 then 0. else mn);
    hmax = (if count = 0 then 0. else mx);
    hmean = (if count = 0 then 0. else sum /. float_of_int count);
    hp50 = q 0.5;
    hp90 = q 0.9;
    hp99 = q 0.99;
    hbuckets = buckets;
  }

let counters () =
  locked (fun () ->
      Hashtbl.fold
        (fun name c acc -> (name, Counter.total_unlocked c.cid) :: acc)
        counters_by_name [])
  |> List.sort compare

let histograms () =
  locked (fun () ->
      Hashtbl.fold
        (fun name h acc ->
          let s = stats_of_unlocked h.hid in
          if s.hcount = 0 then acc else (name, s) :: acc)
        histograms_by_name [])
  |> List.sort compare

let gauges () =
  locked (fun () ->
      Hashtbl.fold
        (fun name g acc ->
          ((name, (Gauge.value g, Gauge.max_value g)) :: acc))
        gauges_by_name [])
  |> List.sort compare

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ g ->
          Atomic.set g.gcell 0;
          Atomic.set g.gmax 0)
        gauges_by_name;
      List.iter
        (fun s ->
          Array.fill s.ccells 0 (Array.length s.ccells) 0;
          Array.iter
            (function
              | None -> ()
              | Some c ->
                  c.obs_count <- 0;
                  c.obs_sum <- 0.;
                  c.obs_min <- infinity;
                  c.obs_max <- neg_infinity;
                  Array.fill c.buckets 0 (Array.length c.buckets) 0)
            s.hcells)
        !shards)

let to_json () =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.int v)) (counters ())) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (n, (v, m)) ->
               (n, Json.Obj [ ("value", Json.int v); ("max", Json.int m) ]))
             (gauges ())) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, s) ->
               ( n,
                 Json.Obj
                   [
                     ("count", Json.int s.hcount);
                     ("sum", Json.Num s.hsum);
                     ("min", Json.Num s.hmin);
                     ("max", Json.Num s.hmax);
                     ("mean", Json.Num s.hmean);
                     ("p50", Json.Num s.hp50);
                     ("p90", Json.Num s.hp90);
                     ("p99", Json.Num s.hp99);
                   ] ))
             (histograms ())) );
    ]
