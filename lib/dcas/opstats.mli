(** Per-domain operation counters backing {!Memory_intf.MEMORY.stats}.

    Each domain counts into its own plain, cache-line-padded bucket, so
    counting on the memory models' hot paths does no atomic
    read-modify-write and causes no cross-domain cache contention;
    {!snapshot} sums over every domain that has used the counter. *)

type t

val create : unit -> t
(** A fresh, independent set of counters (one per memory model). *)

type bucket
(** One domain's counters in a {!t}. *)

val bucket : t -> bucket
(** The calling domain's bucket, registered on first use: one
    domain-local lookup.  Fetch it once per operation and pass it to
    every count the operation makes.  Use it only on the domain that
    fetched it. *)

val domain_id : bucket -> int
(** [(Domain.self () :> int)] of the domain that owns the bucket. *)

val incr_read : bucket -> unit
val incr_write : bucket -> unit
val incr_attempt : bucket -> unit
val incr_success : bucket -> unit

val incr_fastfail : bucket -> unit
(** Count a DCAS/CASN attempt rejected by pre-validation (see
    {!Memory_intf.stats.dcas_fastfails}). *)

val incr_spurious : bucket -> unit
(** Count an injected spurious DCAS/CASN failure ({!Mem_chaos}). *)

val incr_delay : bucket -> unit
(** Count an injected bounded operation delay ({!Mem_chaos}). *)

val incr_freeze : bucket -> unit
(** Count an injected long domain stall ({!Mem_chaos}). *)

val incr_dcas2 : bucket -> unit
(** Count a slow path taken through the specialized flat [Dcas2]
    descriptor ({!Mem_lockfree}). *)

val incr_desc_alloc : bucket -> unit
(** Count a CASN descriptor allocation ({!Mem_lockfree}). *)

val incr_value_alloc : bucket -> unit
(** Count a fresh [Value] state-block allocation ({!Mem_lockfree});
    elided releases do not count. *)

val incr_orphan : bucket -> unit
(** Count an orphaned descriptor — published by a domain marked dead —
    decided by a surviving helper ({!Mem_lockfree.mark_dead}). *)

val snapshot : t -> Memory_intf.stats
(** Sum of all domains' counters since creation or the last {!reset}.
    Exact for every domain whose counting happens-before the call —
    the calling domain itself, and any domain it has joined.  Taken
    while other domains are still counting, it is a racy but
    memory-safe estimate: each of their counts is some recent value. *)

val reset : t -> unit
(** Zero every domain's counters.  Quiescent use only: no domain may be
    counting concurrently, and a domain that counts afterwards must
    synchronize with the reset (be spawned after it, or be handed work
    through an atomic), or its next increment may restore a stale
    count. *)
