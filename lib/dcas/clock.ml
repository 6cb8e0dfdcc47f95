(* Monotonic nanoseconds from the bechamel stub (CLOCK_MONOTONIC).
   Allocation-free, unaffected by wall-clock steps, and fine-grained
   enough to time a single deque call; [Unix.gettimeofday] is none of
   these: it boxes a float, jumps with NTP and resolves microseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Saturating, so that an infinite or NaN budget never expires, as
   under float comparison: [max_int] ns is some 146 years. *)
let of_seconds s =
  if Float.is_nan s || s >= 4e9 then max_int
  else if s <= -4e9 then -max_int
  else int_of_float (s *. 1e9)
