(** One monotonic integer clock for the request path: deadlines,
    expiries, sojourns and per-call latencies. *)

val now_ns : unit -> int
(** Nanoseconds on CLOCK_MONOTONIC from an arbitrary origin.  Never
    steps backwards and allocates nothing. *)

val of_seconds : float -> int
(** A duration in float seconds as integer nanoseconds, truncated;
    saturates at [max_int] for infinity, NaN and anything past ~126
    years, so such a budget never expires. *)
