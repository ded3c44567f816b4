(** The one source of time in Argus: every time reading and sleep in
    [lib/] and [bin/] goes through here (a CI step greps for others).

    Durations, deadlines and cooldowns read the monotonic clock
    ([CLOCK_MONOTONIC]), which a wall-clock step (NTP) cannot move, so
    a deadline cannot fire early and a span cannot come out negative.
    Event timestamps read {!wall_ms}.  Tests drive time with
    {!with_fake}. *)

val now_ns : unit -> int
(** Monotonic nanoseconds from an arbitrary origin. *)

val now_ms : unit -> float
(** {!now_ns} in milliseconds. *)

val sleep_ms : float -> unit
(** Block for [ms] milliseconds ([ms <= 0]: return at once); under
    {!with_fake}, advance the fake by [ms] instead. *)

val wall_ms : unit -> float
(** Wall-clock milliseconds since the Unix epoch, for event timestamps
    only.  Not faked. *)

val with_fake : (unit -> 'a) -> 'a
(** [with_fake f] runs [f] with every domain's monotonic readings
    frozen at the current reading and moved only by {!sleep_ms}; the
    real source is back when [f] returns or raises.  I/O waits
    ([poll]/[select] timeouts) still run in real time.  For tests. *)
