(* A sharded deque service front end: K per-core deques behind one
   routing surface (ROADMAP item 3).

   The paper's deques are single components; a service carrying real
   traffic runs K of them and routes M producers/consumers across the
   set.  [Sharded.Make (D)] supplies exactly that data plane, built
   from parts this repo already trusts:

   - {e affinity hashing}: a request key is mixed through a
     SplitMix-style finalizer and lands on a {e home} shard, so a
     given key always meets the same deque (cache affinity, per-key
     FIFO within a shard).  Routing is a pure function of
     [(key, shard count)] — the qcheck determinism property in
     test/test_sharded.ml.

   - {e per-shard policy wrapping}: every shard is a {!Policy.Make}
     wrapper, so deadlines surface as [`Timeout] and a full shard
     degrades by the configured {!Policy.full_policy} (Reject /
     Retry / Spill) before the router even sees it.  If the home
     shard still answers [`Full], the router tries the other live
     shards once each — cross-shard overflow — and only then
     surfaces [`Full].

   - {e steal-based rebalancing}: a pop that finds its home shard
     empty scans the others and transfers up to [steal_batch] items
     (one in hand at a time, so a crash can strand at most one),
     serving the first and parking the rest on the home shard.  The
     scan visits quarantined shards too: an in-flight push that raced
     shard adoption may strand items on a dead shard, and the steal
     sweep is what makes them reachable again.

   - {e quarantine / adopt / revive}: the control plane (a supervisor
     in lib/worksteal, which this library cannot depend on) marks a
     crashed shard dead so routing skips it, [adopt] drains the
     orphaned deque into the survivors, and [revive] puts the shard
     back in rotation once a replacement owner exists.

   - {e double-ended priority}: urgent operations enter and leave the
     left end, bulk ones the right (Fatourou et al.'s deque-as-
     priority-queue usage, PAPERS.md).  An urgent pop therefore sees
     urgent entries first and then the {e oldest} bulk entry (queue
     order); a bulk pop takes the {e newest} bulk entry (stack
     order).

   The wrapper adds no atomicity: each shard operation remains a
   linearizable operation on that shard, and a rebalancing transfer
   is a pop on one shard followed by a push on another.  The service
   is therefore NOT linearizable to a single deque — routing and
   stealing reorder across shards by design — and is checked by
   conservation (no loss, no duplication) plus each shard's own
   representation invariant, not by the deque linearizability oracle
   (see Modelcheck.Scenario.sharded). *)

type stats = {
  pushed : int;  (* external pushes that landed, across all shards *)
  popped : int;  (* external pops served, across all shards *)
  rerouted : int;  (* pushes placed cross-shard after a full home *)
  stolen : int;  (* items moved between shards by rebalancing *)
  adopted : int;  (* items drained out of quarantined shards *)
  per_shard_pushed : int array;  (* external landings per shard *)
  per_shard_popped : int array;  (* external serves per shard *)
}

let pp_stats ppf s =
  Format.fprintf ppf "pushed=%d popped=%d rerouted=%d stolen=%d adopted=%d"
    s.pushed s.popped s.rerouted s.stolen s.adopted

(* SplitMix64-style finalizer over the native int width: every bit of
   the key affects every bit of the hash, so adjacent keys spread over
   the shards instead of striding.  Constants truncated to OCaml's
   63-bit ints; pure, so routing is deterministic for a given key. *)
let mix key =
  let h = key lxor (key lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1E9F36D06D9A25B5 in
  h lxor (h lsr 32)

module Make (D : Deque_intf.S) = struct
  module P = Policy.Make (D)

  type 'a t = {
    shards : 'a P.t array;
    alive : bool Atomic.t array;
    steal_batch : int;
    (* service-level counters; the per-shard Policy counters also tick
       underneath but include internal transfers, so conservation is
       judged on these *)
    s_pushed : int Atomic.t array;
    s_popped : int Atomic.t array;
    s_rerouted : int Atomic.t;
    s_stolen : int Atomic.t;
    s_adopted : int Atomic.t;
    (* the limbo stash: an unbounded last-resort side list for items
       that could not be placed on any shard (every bounded shard at
       capacity — an over-committed fault storm).  It is what lets the
       control plane (adoption, rebalancing park-backs) terminate
       instead of spinning; consumers drain it through [pop] once the
       shards come up empty, and [drain] empties it, so nothing is
       ever lost. *)
    limbo : 'a list Atomic.t;
    (* per-shard end-to-end sojourn observations (enqueue to serve),
       fed by the consuming layer and read back by admission control *)
    sojourn : Policy.Lat.t array;
  }

  let name = "sharded[" ^ D.name ^ "]"

  let create ?(full = Policy.Reject) ?(steal_batch = 8) ~shards ~capacity ()
      =
    if shards < 1 then invalid_arg "Sharded.create: shards must be >= 1";
    if steal_batch < 1 then
      invalid_arg "Sharded.create: steal_batch must be >= 1";
    {
      shards = Array.init shards (fun _ -> P.create ~full ~capacity ());
      alive = Array.init shards (fun _ -> Dcas.Padding.make_atomic true);
      steal_batch;
      s_pushed = Array.init shards (fun _ -> Dcas.Padding.make_atomic 0);
      s_popped = Array.init shards (fun _ -> Dcas.Padding.make_atomic 0);
      s_rerouted = Dcas.Padding.make_atomic 0;
      s_stolen = Dcas.Padding.make_atomic 0;
      s_adopted = Dcas.Padding.make_atomic 0;
      limbo = Dcas.Padding.make_atomic [];
      sojourn = Array.init shards (fun _ -> Policy.Lat.create ());
    }

  let rec limbo_put t v =
    let old = Atomic.get t.limbo in
    if not (Atomic.compare_and_set t.limbo old (v :: old)) then limbo_put t v

  let rec limbo_take t =
    match Atomic.get t.limbo with
    | [] -> None
    | v :: rest as old ->
        if Atomic.compare_and_set t.limbo old rest then Some v
        else limbo_take t

  let limbo_list t = Atomic.get t.limbo

  let shards t = Array.length t.shards
  let alive t ~shard = Atomic.get t.alive.(shard)
  let shard_of t ~key = abs (mix key) mod Array.length t.shards

  (* Home shard, or the next live one probing upward from it; when
     every shard is quarantined, fall back to the home shard — its
     deque is still safe storage, and a later adoption sweep or steal
     scan recovers anything parked there. *)
  let rec probe t ~home i =
    let k = Array.length t.shards in
    if i >= k then home
    else
      let s = (home + i) mod k in
      if Atomic.get t.alive.(s) then s else probe t ~home (i + 1)

  let route t ~key = probe t ~home:(shard_of t ~key) 0

  let side_of ~urgent = if urgent then `Left else `Right

  (* --- sojourn observation / admission control --- *)

  (* The consuming layer reports each request's end-to-end sojourn
     (enqueue to serve — or to shed, so the tail the estimator sees
     includes the requests that missed) against the request's HOME
     shard: admission decides against the home too, keeping the loop
     closed even when stealing served the item elsewhere. *)
  let note_sojourn t ~shard ~ns = Policy.Lat.note t.sojourn.(shard) ~ns

  (* Below this many observations the estimate is noise; admit. *)
  let min_observations = 32

  let sojourn_p99_ns t ~shard =
    let l = t.sojourn.(shard) in
    if Policy.Lat.count l < min_observations then None
    else Some (Policy.Lat.quantile_ns l 0.99)

  (* Admission control: refuse at enqueue when the home shard's
     observed p99 sojourn already exceeds this request's whole budget —
     the request would almost surely expire in queue, so shedding it
     now costs nothing and sheds load where it helps (before the push
     touches shared state).  Conservative in both directions by
     design: with few observations it admits (cold start), and the
     p99 read is a bucket upper bound (sheds slightly early rather
     than late).  A refused request is never enqueued, so it notes no
     sojourn; each refusal therefore retires the worst observation
     instead.  Otherwise a tail left by one past stall would refuse the
     shard's traffic for good, since nothing fresh could dilute it. *)
  let admit t ~key ~budget =
    let shard = shard_of t ~key in
    match sojourn_p99_ns t ~shard with
    | Some p99_ns when p99_ns > budget *. 1e9 ->
        Policy.Lat.forget_max t.sojourn.(shard);
        false
    | Some _ | None -> true

  (* --- push --- *)

  (* First fit: offer [v] to each live shard [(start + j) mod k] for
     [j = i .. k - 1], in that order, one undeadlined push each, and
     return the shard that took it.  Every placement loop — cross-shard
     overflow, adoption, [place]'s sweeps — is this one walk; each
     caller keeps its own counters. *)
  let rec first_fit t ~start ~side v i =
    let k = Array.length t.shards in
    if i >= k then None
    else
      let s = (start + i) mod k in
      let took =
        Atomic.get t.alive.(s)
        && match P.push t.shards.(s) ~side v with
           | `Okay -> true
           | `Full | `Timeout -> false
      in
      if took then Some s else first_fit t ~start ~side v (i + 1)

  let push ?deadline ?(urgent = false) t ~key v : Policy.push_outcome =
    let side = side_of ~urgent in
    let home = route t ~key in
    match P.push ?deadline t.shards.(home) ~side v with
    | `Okay ->
        Atomic.incr t.s_pushed.(home);
        `Okay
    | `Timeout -> `Timeout
    | `Full -> (
        (* cross-shard overflow: one undeadlined attempt per live
           peer; the home shard's policy has already done its Retry /
           Spill work, so a second `Full here is genuine saturation *)
        match first_fit t ~start:home ~side v 1 with
        | Some s ->
            Atomic.incr t.s_pushed.(s);
            Atomic.incr t.s_rerouted;
            `Okay
        | None -> `Full)

  (* --- rebalancing --- *)

  (* Park a value somewhere, never losing it AND never spinning:
     round-robin over the live shards for a bounded number of sweeps,
     then escape to the limbo stash.  Reached only when a moved item's
     target filled up concurrently; with Spill shards (the soak
     configuration) or unbounded shards it lands on the first attempt.
     The bound matters: this runs on control-plane paths (adoption,
     steal park-backs), and the system can be genuinely over-committed
     — a racing push that routed before a quarantine can land in the
     very slot an adoption's drain just freed, leaving one more item
     than the bounded shards have slots.  No amount of re-placing
     terminates then; the model checker's step-limit hunts are what
     forced the escape hatch. *)
  let place_sweeps = 3

  let place t ~start ~side v =
    let rec go sweep backoff =
      if sweep >= place_sweeps then limbo_put t v
      else if Option.is_none (first_fit t ~start ~side v 0) then
        go (sweep + 1) (Dcas.Backoff.once_lazy backoff)
    in
    go 0 None

  (* Transfer up to [budget] items from [victim] to [home], one in
     hand at a time (a crash mid-transfer strands at most one item,
     which supervision writes off like any other in-flight op).  Items
     are taken from the victim's bulk (right) end and parked on the
     home's right, so urgent left-end traffic never reorders. *)
  let rebalance t ~home ~victim ~budget =
    let rec go moved =
      if moved >= budget then moved
      else
        match P.pop t.shards.(victim) ~side:`Right with
        | `Empty | `Timeout -> moved
        | `Value v -> (
            Atomic.incr t.s_stolen;
            match P.push t.shards.(home) ~side:`Right v with
            | `Okay -> go (moved + 1)
            | `Full | `Timeout ->
                (* home filled concurrently: put the item back where
                   it came from and stop pulling *)
                place t ~start:victim ~side:`Right v;
                moved
            )
    in
    go 0

  (* --- pop --- *)

  (* Steals always take from the victim's bulk (right) end, whatever
     end the caller is serving: the victim's urgent traffic keeps its
     left end, and a starving urgent consumer would rather have a bulk
     item than none.  The scan visits every other shard, quarantined
     ones included: stragglers from a push that raced adoption are only
     reachable here.  Like every loop on the pop path, it is a
     top-level function, so an empty scan allocates no closure. *)
  let rec steal_from t ~home i =
    if i >= Array.length t.shards then `Empty
    else
      let victim = (home + i) mod Array.length t.shards in
      match P.pop t.shards.(victim) ~side:`Right with
      | `Value v ->
          Atomic.incr t.s_stolen;
          Atomic.incr t.s_popped.(victim);
          if t.steal_batch > 1 then
            ignore (rebalance t ~home ~victim ~budget:(t.steal_batch - 1));
          `Value v
      | `Empty | `Timeout -> steal_from t ~home (i + 1)

  let try_steal t ~home = steal_from t ~home 1

  (* One routed attempt: home shard, steal scan, then the limbo stash
     (items parked there when every shard was full), credited to the
     server's home. *)
  let attempt t ~home ~side =
    match P.pop t.shards.(home) ~side with
    | `Value v ->
        Atomic.incr t.s_popped.(home);
        `Value v
    | `Timeout -> `Timeout
    | `Empty -> (
        match try_steal t ~home with
        | `Value _ as hit -> hit
        | `Empty -> (
            match limbo_take t with
            | Some v ->
                Atomic.incr t.s_popped.(home);
                `Value v
            | None -> `Empty))

  (* The deadline budgets the whole routed operation (home + steal
     scan), retried with backoff until something turns up; [t0] and
     [budget] are ns on {!Dcas.Clock}, the clock {!Policy} times its
     own deadlines on.  Budget exhaustion with only no-finds surfaces
     as [`Empty], not [`Timeout]: every attempt walked all shards and
     the limbo stash, so the no-find is certified — and consumers'
     quiescence certificates (full no-find scans) must keep flowing
     even when every pop carries a deadline, or a stranded pending
     unit could never be reconciled. *)
  let rec attempt_until t ~home ~side ~t0 ~budget backoff =
    match attempt t ~home ~side with
    | `Value v -> `Value v
    | `Timeout -> `Timeout
    | `Empty ->
        if Dcas.Clock.now_ns () - t0 >= budget then `Empty
        else
          attempt_until t ~home ~side ~t0 ~budget
            (Dcas.Backoff.once_lazy backoff)

  let pop ?deadline ?(urgent = false) t ~key : 'a Policy.pop_outcome =
    let side = side_of ~urgent in
    let home = route t ~key in
    match deadline with
    | None -> attempt t ~home ~side
    | Some budget ->
        attempt_until t ~home ~side ~t0:(Dcas.Clock.now_ns ())
          ~budget:(Dcas.Clock.of_seconds budget) None

  (* --- quarantine / adoption --- *)

  let quarantine t ~shard = Atomic.set t.alive.(shard) false
  let revive t ~shard = Atomic.set t.alive.(shard) true

  (* Drain a quarantined shard into the survivors (round-robin from
     its right neighbour).  The shard stays quarantined: reviving is
     the control plane's call, once a replacement owner exists.
     Returns the number of items moved.  Safe to run concurrently
     with traffic — each move is a pop here plus a push there — but
     an in-flight push that routed before quarantine can land after
     this drain; such stragglers stay reachable through the steal
     scan until the next adoption or revival.

     Adoption must never block: it runs on the supervisor, and an
     adoption that spins while every survivor sits at capacity (Reject
     shards, consumers dead or stalled — exactly a fault storm) would
     hang the control plane.  So each item gets one attempt per live
     shard; a full sweep parks it back on the source shard — which
     usually has the slot the pop just freed — and ends the adoption
     early.  "Usually": a straggler push that routed before the
     quarantine can land in that slot mid-drain, over-committing the
     bounded shards, so a failed park-back escapes through [place]'s
     limbo stash rather than re-placing forever.  The model checker's
     frozen-consumer and straggler schedules are what forced this
     shape. *)
  let adopt t ~shard =
    let k = Array.length t.shards in
    if not (Array.exists Atomic.get t.alive) then 0
    else
      let rec go n =
        match P.pop t.shards.(shard) ~side:`Left with
        | `Empty | `Timeout -> n
        | `Value v ->
            if Option.is_some (first_fit t ~start:shard ~side:`Right v 1)
            then begin
              Atomic.incr t.s_adopted;
              go (n + 1)
            end
            else begin
              (match P.push t.shards.(shard) ~side:`Left v with
              | `Okay -> ()
              | `Full | `Timeout ->
                  (* the freed slot vanished: a straggler push that
                     routed before the quarantine landed mid-drain, so
                     the system may hold one more item than the bounded
                     shards have slots — [place]'s bounded sweeps and
                     limbo escape keep the control plane from spinning
                     on it *)
                  place t ~start:((shard + 1) mod k) ~side:`Right v);
              n
            end
      in
      go 0

  (* --- inspection --- *)

  let shard t i = t.shards.(i)

  let stats t =
    let per_push = Array.map Atomic.get t.s_pushed in
    let per_pop = Array.map Atomic.get t.s_popped in
    {
      pushed = Array.fold_left ( + ) 0 per_push;
      popped = Array.fold_left ( + ) 0 per_pop;
      rerouted = Atomic.get t.s_rerouted;
      stolen = Atomic.get t.s_stolen;
      adopted = Atomic.get t.s_adopted;
      per_shard_pushed = per_push;
      per_shard_popped = per_pop;
    }

  (* Quiescent-only: pop every shard dry (left end first — primary
     then overflow per the Policy contract) and return the values.
     Service counters are untouched, so after a quiescent run
     [stats.pushed - stats.popped = List.length (drain t)] is the
     conservation check. *)
  let drain t =
    let out = ref [] in
    Array.iter
      (fun shard ->
        let rec go () =
          match P.pop shard ~side:`Left with
          | `Value v ->
              out := v :: !out;
              go ()
          | `Empty | `Timeout -> ()
        in
        go ())
      t.shards;
    let rec limbo () =
      match limbo_take t with
      | Some v ->
          out := v :: !out;
          limbo ()
      | None -> ()
    in
    limbo ();
    List.rev !out
end
