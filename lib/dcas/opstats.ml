(* Per-domain operation counters.  Each domain that touches a memory
   model gets its own plain [int array] bucket (registered in a global
   list), written only by that domain, so counting on the hot paths is
   a load and a store with no atomic read-modify-write and no shared
   cache line; [snapshot] sums across domains.

   The counters sit in the middle of the bucket, with one cache line of
   unused words on each side.  OCaml places blocks back to back, so
   without the padding the counters of buckets allocated one after the
   other — or any other hot block next to one — would share a line,
   and "per-domain so the hot path doesn't contend" would be defeated
   by coherence traffic on the line itself.

   Reading another domain's bucket is a data race, which OCaml keeps
   memory-safe: a concurrent [snapshot] sees every count as of some
   recent moment, and an exact one once the writers have joined
   ([Domain.join] orders their writes before the join returns).

   A caller that counts several events in one operation fetches its
   bucket once ([bucket]) and passes it along: each [Domain.DLS.get] is
   a lookup of its own, and an uncontended DCAS counts up to eight
   events.  The bucket also caches its domain's id (in the last word of
   the leading pad), so code that already holds one needs no
   [Domain.self]. *)

(* Counter indices, after the leading pad: 0 = reads, 1 = writes,
   2 = dcas attempts, 3 = dcas successes, 4 = dcas fast-fails,
   5 = injected spurious failures, 6 = injected delays, 7 = injected
   freezes (5-7 used by Mem_chaos), 8 = Dcas2 fast-path hits,
   9 = descriptor allocations, 10 = Value block allocations (8-10 used
   by Mem_lockfree), 11 = orphaned descriptors helped to completion by
   survivors (crash injection).  The layout is the field order of
   Memory_intf.stats: snapshot converts through Memory_intf.of_counts,
   so the two can never drift apart silently. *)

let pad = Padding.cache_line_words
let fields = Memory_intf.stats_fields

type bucket = int array

type t = {
  mutex : Mutex.t;
  mutable buckets : bucket list;
  key : bucket Domain.DLS.key;
}

let id_slot = pad - 1

let create () =
  let rec t =
    lazy
      {
        mutex = Mutex.create ();
        buckets = [];
        key =
          Domain.DLS.new_key (fun () ->
              let b = Array.make (pad + fields + pad) 0 in
              b.(id_slot) <- (Domain.self () :> int);
              let t = Lazy.force t in
              Mutex.lock t.mutex;
              t.buckets <- b :: t.buckets;
              Mutex.unlock t.mutex;
              b);
      }
  in
  Lazy.force t

let bucket t = Domain.DLS.get t.key
let domain_id (b : bucket) = b.(id_slot)
let incr (b : bucket) i = b.(pad + i) <- b.(pad + i) + 1
let incr_read b = incr b 0
let incr_write b = incr b 1
let incr_attempt b = incr b 2
let incr_success b = incr b 3
let incr_fastfail b = incr b 4
let incr_spurious b = incr b 5
let incr_delay b = incr b 6
let incr_freeze b = incr b 7
let incr_dcas2 b = incr b 8
let incr_desc_alloc b = incr b 9
let incr_value_alloc b = incr b 10
let incr_orphan b = incr b 11

let buckets t =
  Mutex.lock t.mutex;
  let bs = t.buckets in
  Mutex.unlock t.mutex;
  bs

let snapshot t : Memory_intf.stats =
  let bs = buckets t in
  let sum i = List.fold_left (fun acc b -> acc + b.(pad + i)) 0 bs in
  Memory_intf.of_counts (Array.init fields sum)

let reset t = List.iter (fun b -> Array.fill b pad fields 0) (buckets t)
