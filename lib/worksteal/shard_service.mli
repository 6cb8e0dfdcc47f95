(** A supervised producer/consumer service over {!Deque.Sharded}
    (ROADMAP item 3, experiment E24): M producer domains inject keyed
    traffic over K policy-wrapped shards, N consumer domains drain
    them, and the {!Supervisor} monitor engine — on an immortal domain,
    the same engine as {!Scheduler.Make.run_supervised} — fences and
    replaces dead, silent or zombie workers.  The service's adoption
    action takes over a failed consumer's home shard (quarantine,
    drain into survivors, revive for the replacement), and the engine
    reconciles the pending count under its quiescence certificate
    once the producers have stopped.  Pending is derived from the
    workers' own counters ({!Supervisor.derived}), so a produced or
    served request touches no counter shared with another worker.

    The acceptance law, service-wide and fault-storm-proof:

    [spawned = executed + reconciled + shed] and [leftover = 0]

    — a pending unit is granted before each push and returned on an
    honest [`Full], so a death inside any operation strands at most
    one unit, written off only once consumers' full no-find scans
    (which walk every shard, quarantined included) certify that
    nothing live remains.  [shed] is deadline enforcement (E25): ops
    refused at admission, timed out mid-push, or popped past their
    stamped expiry resolve their unit as first-class timed-out
    outcomes that stay on the books.

    Failure detection is the engine's two disjoint detectors:
    tick-based silence ([silence_after]) for frozen heartbeats, and
    progress-based zombie detection ([zombie_after]) for consumers —
    the only workers that certify quiescence — whose heartbeat ticks
    while their progress counters are frozen
    ({!Harness.Stall.Zombie}).  Idle consumers trip neither — their
    empty scans advance progress, and their idle-backoff parks are
    flagged so they cannot read as silence.  Either detector fences
    the old worker before replacing it, so a woken or cured worker
    never runs beside its replacement and no slot is adopted twice
    for one failure. *)

type config = {
  shards : int;
  producers : int;
  consumers : int;
  capacity : int;  (** per-shard primary capacity *)
  full : Deque.Policy.full_policy;  (** per-shard full policy *)
  steal_batch : int;  (** rebalancing transfer bound *)
  rate : float;
      (** per-producer open-loop arrivals per second; [<= 0.] = closed
          loop (inject as fast as the service absorbs) *)
  burst : int;  (** arrivals released per token-bucket refill *)
  urgent_share : float;  (** fraction of pushes entering the left end *)
  key_space : int;  (** routing keys drawn uniformly from [0,key_space) *)
  deadline : float option;
      (** per-request budget, seconds: bounds the push call, stamps
          the item with an absolute expiry on the monotonic
          {!Dcas.Clock}, and sheds it at dequeue once exceeded *)
  admission : bool;
      (** refuse requests at enqueue when the home shard's observed
          p99 sojourn already exceeds [deadline]
          ({!Deque.Sharded.Make.admit}); no-op without a deadline *)
  sup : Supervisor.config;
  seed : int;
}

val default : config
(** 4 shards, 2+2 workers, Spill shards, closed loop, 10% urgent. *)

val validate : config -> unit
(** @raise Invalid_argument on non-positive counts, [urgent_share]
    outside [0,1], or an invalid supervisor config. *)

type report = {
  spawned : int;  (** pending units granted to pushes *)
  executed : int;  (** pops served within deadline *)
  reconciled : int;  (** phantom units written off at quiescence *)
  shed_admission : int;
      (** ops refused at enqueue by admission control (unit retained) *)
  shed_expired : int;
      (** ops timed out with their unit retained: the push ran out of
          budget, or the item was popped past its stamped expiry *)
  leftover : int;  (** items found by the final quiescent drain *)
  pushed_ok : int;
  push_full : int;
  timeouts : int;  (** push/pop calls that ran out of deadline *)
  empty_scans : int;  (** consumers' full no-find scans *)
  overshoot_max_ns : int;
      (** worst served-op completion past its stamped expiry; expired
          items are shed at dequeue, so anything beyond a scheduling
          epsilon is an enforcement bug — the E25 gate *)
  killed : int;  (** workers lost to {!Harness.Crash.Died} *)
  presumed_dead : int;  (** silent workers replaced without certificate *)
  zombies_fenced : int;
      (** consumers fenced by progress-based zombie detection *)
  replacements : int;
  adoptions : int;  (** shard quarantine+drain+revive cycles *)
  adopted_items : int;
  orphans_helped : int;
  recoveries : float list;
      (** seconds from detection to replacement running, per event *)
  per_shard_pushed : int array;
      (** external landings per shard — feed
          {!Harness.Metrics.Starvation} *)
  per_shard_popped : int array;
  elapsed : float;
}

val shed : report -> int
(** [shed_admission + shed_expired] — ops resolved as timed out with
    their spawned unit retained. *)

val conserved : report -> bool
(** [spawned = executed + reconciled + shed && leftover = 0] — the
    E24/E25 acceptance predicate. *)

val pp_report : Format.formatter -> report -> unit

module Make (D : Deque.Deque_intf.S) : sig
  module S : module type of Deque.Sharded.Make (D)

  val run :
    ?config:config ->
    ?watchdog:Harness.Watchdog.t ->
    ?on_push:(tid:int -> ns:float -> Deque.Policy.push_outcome -> unit) ->
    ?on_pop:(tid:int -> ns:float -> int Deque.Policy.pop_outcome -> unit) ->
    ?driver:(unit -> unit) ->
    duration:float ->
    unit ->
    report
  (** Run the service for [duration] seconds of injection (values are
      ints: each producer pushes its own send counter).  [on_push] /
      [on_pop] observe every operation with its latency in nanoseconds
      on the monotonic {!Dcas.Clock} — E24's histogram feed; they run on the worker
      domains, so they must be thread-safe and cheap.  [driver], when
      given, runs on the calling domain {e while traffic flows} and
      replaces the default [sleepf duration] — E24 uses it to fire
      crash, stall and chaos storms mid-soak; its return stops the
      producers, after which the run drains, reconciles and joins.

      Workers enroll with {!Harness.Crash} and
      {!Harness.Stall.Freezer} under their slot id (producers first,
      then consumers) and poll {!Harness.Stall.Zombie} under the same
      id, so callers can target kills, freezes and zombifications at
      specific roles. *)
end

module Array_service : module type of Make (Deque.Array_deque.Lockfree)
module List_service : module type of Make (Deque.List_deque.Lockfree)
