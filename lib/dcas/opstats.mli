(** Per-domain operation counters backing {!Memory_intf.MEMORY.stats}.

    Each domain counts into its own plain, cache-line-padded bucket, so
    counting on the memory models' hot paths does no atomic
    read-modify-write and causes no cross-domain cache contention;
    {!snapshot} sums over every domain that has used the counter. *)

type t

val create : unit -> t
(** A fresh, independent set of counters (one per memory model). *)

val incr_read : t -> unit
val incr_write : t -> unit
val incr_attempt : t -> unit
val incr_success : t -> unit

val incr_fastfail : t -> unit
(** Count a DCAS/CASN attempt rejected by pre-validation (see
    {!Memory_intf.stats.dcas_fastfails}). *)

val incr_spurious : t -> unit
(** Count an injected spurious DCAS/CASN failure ({!Mem_chaos}). *)

val incr_delay : t -> unit
(** Count an injected bounded operation delay ({!Mem_chaos}). *)

val incr_freeze : t -> unit
(** Count an injected long domain stall ({!Mem_chaos}). *)

val incr_dcas2 : t -> unit
(** Count a slow path taken through the specialized flat [Dcas2]
    descriptor ({!Mem_lockfree}). *)

val incr_desc_alloc : t -> unit
(** Count a CASN descriptor allocation ({!Mem_lockfree}). *)

val incr_value_alloc : t -> unit
(** Count a fresh [Value] state-block allocation ({!Mem_lockfree});
    elided releases do not count. *)

val incr_orphan : t -> unit
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
