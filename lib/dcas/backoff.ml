(* Randomized truncated exponential backoff.  Retry loops in the
   lock-free structures back off after a failed DCAS so that, under
   contention, competing operations desynchronize instead of failing
   each other's DCAS repeatedly.  The state is a single record per
   operation, created by [once_lazy] only after a first failure, so an
   uncontended operation allocates none. *)

type t = { min_wait : int; max_wait : int; mutable wait : int; mutable seed : int }

let default_min_wait = 4
let default_max_wait = 1024

(* Domains are seeded from their (small, consecutive) domain ids.  Raw
   xorshift maps nearby seeds to correlated early outputs, and a
   power-of-two [mod] reads exactly the correlated low bits, so domains
   spinning in lockstep would draw the same first waits — defeating the
   decorrelation that is the whole point.  One multiplicative mix
   (Knuth's 2^62-safe constant) spreads consecutive ids across the
   state space before xorshift takes over. *)
let scramble s =
  let s = s lxor (s lsr 30) in
  let s = s * 0x2545F4914F6CDD1D in
  let s = s land max_int in
  if s = 0 then 1 else s

let create ?(min_wait = default_min_wait) ?(max_wait = default_max_wait) () =
  if min_wait < 1 || max_wait < min_wait then
    invalid_arg "Backoff.create: need 1 <= min_wait <= max_wait";
  (* Seed from the domain id so that domains spinning in lockstep pick
     different wait times from the first iteration. *)
  let seed = scramble ((Domain.self () :> int) + 1) in
  { min_wait; max_wait; wait = min_wait; seed }

(* xorshift step; quality is irrelevant, decorrelation is the point. *)
let next_rand t =
  let s = t.seed in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  t.seed <- s land max_int;
  t.seed

(* Unbiased draw from [0, n): rejection-sample under the smallest
   all-ones mask covering n-1.  A plain [next_rand t mod n] is biased
   toward small residues whenever n does not divide the generator's
   range, and collapses to a constant for n = 1 without even advancing
   the generator.  Both loops are top-level functions, so a draw
   allocates nothing and a retry loop's backoff costs no words per
   attempt. *)
let rec widen n m = if m >= n - 1 then m else widen n ((m lsl 1) lor 1)

let rec draw t n mask =
  let r = next_rand t land mask in
  if r < n then r else draw t n mask

let uniform t n =
  if n <= 1 then (
    ignore (next_rand t);
    0)
  else draw t n (widen n 1)

let once t =
  let spins = t.min_wait + uniform t t.wait in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done;
  if t.wait < t.max_wait then t.wait <- min t.max_wait (t.wait * 2)

let once_lazy = function
  | Some t as b ->
      once t;
      b
  | None ->
      let t = create () in
      once t;
      Some t

let reset t = t.wait <- t.min_wait
