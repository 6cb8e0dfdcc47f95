(* Latency accounting shared by every workload: a log-linear histogram
   of nanosecond samples, percentiles in which failed requests count as
   +infinity, the "highest percentile with at least ten samples beyond
   it" reporting rule, and open-loop arrival reconstruction. *)

(* Values below 64 get exact buckets; above, each power of two is split
   into 32 sub-buckets, each no wider than 1/32 of its values (about
   3%). *)
let sub_bits = 5
let exact = 64
let buckets = exact + ((62 - 6) * (1 lsl sub_bits))

let rec msb v e = if v lsr (e + 1) = 0 then e else msb v (e + 1)

let bucket v =
  if v < exact then max v 0
  else
    let e = msb v 6 in
    exact
    + ((e - 6) lsl sub_bits)
    + ((v lsr (e - sub_bits)) land ((1 lsl sub_bits) - 1))

let lower_bound b =
  if b < exact then b
  else
    let e = ((b - exact) lsr sub_bits) + 6 in
    let s = (b - exact) land ((1 lsl sub_bits) - 1) in
    ((1 lsl sub_bits) + s) lsl (e - sub_bits)

(* One histogram is written by one domain only; merge after joining. *)
type hist = { counts : int array; mutable n : int; mutable sum : int }

let hist () = { counts = Array.make buckets 0; n = 0; sum = 0 }

let add h v =
  let b = bucket v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum

let merged hs =
  let h = hist () in
  List.iter (merge_into h) hs;
  h

let count h = h.n
let mean h = if h.n = 0 then 0. else float h.sum /. float h.n

(* Nearest rank of the [q]-quantile among [n] samples (0-based). *)
let rank n q = min (n - 1) (max 0 (int_of_float (ceil (q *. float n)) - 1))

(* Nearest-rank [q]-quantile over the samples plus [failures] extra
   samples at +infinity (a refused or shed request misses every latency
   limit).  Within a bucket wider than one, the bucket's samples are
   taken as spread evenly over its width.  [nan] when there is nothing
   to rank. *)
let quantile ?(failures = 0) h q =
  let total = h.n + failures in
  if total = 0 then nan
  else
    let r = rank total q in
    if r >= h.n then infinity
    else
      let rec find b seen =
        let c = h.counts.(b) in
        if seen + c <= r then find (b + 1) (seen + c)
        else if b < exact then float b
        else
          let lo = lower_bound b in
          let width = lower_bound (b + 1) - lo in
          float lo +. (float width *. (float (r - seen) +. 0.5) /. float c)
      in
      find 0 0

(* The highest of p50, p90, p99, ... that still has at least ten of
   [n] samples beyond its rank; [None] below 20 samples, where not even
   the median has ten beyond it. *)
let tail_q n =
  let ladder = [ 0.99999; 0.9999; 0.999; 0.99; 0.9; 0.5 ] in
  List.find_opt (fun q -> n - 1 - rank n q >= 10) ladder

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Open-loop schedule: request [v] (the producer's send counter) was
   due at [t0 + v / rate], where [t0] is when request 0 was sent.
   Timing from this instant rather than from the actual push counts
   the wait a stalled producer imposes on every later request. *)
let intended_arrival_ns ~t0 ~rate v = t0 + int_of_float (float v *. 1e9 /. rate)

(* The schedule's origin, from the actual send times [start v] of
   requests [0 .. n-1].  A paced producer never sends early, so each
   send bounds the origin from above and the earliest bound is the
   estimate: the first send when it was on time, earlier when the
   producer started late and caught up.  [max_int] when [n = 0]. *)
let schedule_origin_ns ~rate ~n start =
  let t0 = ref max_int in
  for v = 0 to n - 1 do
    t0 := min !t0 (start v - intended_arrival_ns ~t0:0 ~rate v)
  done;
  !t0
