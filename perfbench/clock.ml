(* Monotonic nanoseconds from the bechamel stub (CLOCK_MONOTONIC, the
   clock Python's [time.monotonic_ns] reads, so run.py can compare
   stamps across processes).  Allocation-free; [Unix.gettimeofday] has
   only microsecond resolution and cannot time 50-400 ns calls. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
