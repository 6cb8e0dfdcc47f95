(** Non-blocking software DCAS: a two-word CASN built from single-word
    CAS with descriptors and helping (the paper's "non-blocking software
    emulation [8, 30]").

    This is the production memory model: all operations are lock-free.
    Reads never help; they resolve a holding descriptor's status
    in-place.  Writers and DCAS operations help any undecided descriptor
    they encounter, so a preempted operation can never block others.
    Descriptor reclamation relies on the garbage collector, mirroring
    the paper's reliance on GC for list nodes.

    A two-location DCAS runs a flat descriptor that holds each location
    with a 2-word tag and whose release always installs a fresh value
    block, so a block it displaced is never current again; the generic
    N-location CASN holds locations with [Owned] blocks and reinstalls
    a displaced block when the value comes out unchanged (value
    elision).  A no-op DCAS over plain values needs no descriptor.
    Each call counts through one {!Opstats} bucket lookup. *)

include Memory_intf.MEMORY_CASN
(** [casn entries] atomically compares-and-swaps every entry with
    descriptor-based helping, succeeding iff all expected values match:
    the generalization the paper's Section 6 gestures at, used by the
    3CAS deque extension. *)

val set_dcas2_enabled : bool -> unit
(** Ablation switch (default [true]): with [false], every DCAS/CASN
    slow path builds the generic entry-array descriptor, no release is
    value-elided and a no-op DCAS always builds a descriptor — the
    substrate before the flat [Dcas2] specialization and the
    descriptor-free confirmation.  For experiment E21 and tests; do
    not toggle while operations are in flight. *)

(** {2 Fail-stop crash bookkeeping}

    Hooks for {!Harness.Crash} and experiment E22.  Every descriptor
    records the domain id of its initiator; a domain {!mark_dead}ed
    before its final operation leaves {e orphaned} descriptors, and
    each one whose status is decided by a {e surviving} helper is
    counted in {!Memory_intf.stats.helped_orphans} — the operational
    content of the paper's claim that a stopped process's in-flight
    DCAS is completed by others.  All checks hide behind armed flags,
    so the fault-free paths are unchanged. *)

val mark_dead : int -> unit
(** [mark_dead id] marks domain [id] (as in [(Domain.self () :> int)])
    dead: descriptors it owns that are decided by other domains from
    now on count as helped orphans.  Call {e before} the domain's
    final, fatal operation so the accounting has no race window. *)

val clear_dead : unit -> unit
(** Empty the dead set (between experiments). *)

val dead_domains : unit -> int list
(** Domain ids currently marked dead. *)

val set_publish_hook : (unit -> unit) -> unit
(** [set_publish_hook f] arms [f] to run each time a domain installs
    its {e own} descriptor on a location — i.e. mid-CASN, after the
    operation has published shared state but before it is decided.
    [f] runs on the installing domain and may raise to simulate a
    crash at exactly that point; helpers working on other domains'
    descriptors never trigger it.  One global hook; the crash layer
    multiplexes per-domain decisions through domain-local state. *)

val clear_publish_hook : unit -> unit
(** Disarm the publish hook. *)

val orphans : unit -> int
(** Number of orphaned descriptors observed so far: descriptors
    published by a domain after it was {!mark_dead}ed.  A killed
    domain publishes at most one (the crash layer kills it at its
    first publish), so this equals the number of mid-CASN deaths. *)

val help_orphans : unit -> int
(** Help every orphaned descriptor to completion on the current
    domain, and return the number of orphans observed (same count as
    {!orphans}).  Idempotent: descriptors already decided — by organic
    helping or a previous call — are left untouched, and the
    [helped_orphans] counter ticks exactly once per descriptor however
    many parties help.  Call from a surviving domain once the dead
    domains' deques are drained, before asserting
    [helped_orphans = orphans ()]. *)
