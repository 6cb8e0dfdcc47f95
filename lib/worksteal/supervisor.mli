(** Supervision for crash-fault-tolerant runtimes: policy knobs, the
    scheduler's run report, the quiescence tracker, and the one monitor
    engine behind both [Scheduler.Make.run_supervised] and
    [Shard_service.Make.run].

    Fault model: fail-stop ({!Harness.Crash}) — a worker dies for good
    at a shared-memory point, possibly mid-CASN with a published
    undecided descriptor.  The engine detects the failure (death
    certificate, silence, or zombie), fences the worker, and lets the
    runtime's [replace] callback adopt what it owned into a
    replacement.  What a death can actually lose is only what the
    worker held in hand — for the scheduler the task it was executing,
    a child mid-push, and a stolen batch, at most [steal_batch + 2]
    pending units per death — written off by reconciliation once
    provably phantom.

    Pending is derived, never a shared hot counter: each worker counts
    what it spawned and executed in its own padded atomics, and the
    count is [base + Σ spawned − Σ executed] over every worker state
    ever created ({!derived}).  The [base] atomic changes only off the
    hot path: the scheduler's root task, the service's shed paths, and
    the engine's write-offs. *)

type config = {
  interval : float;
      (** monitor poll period in seconds (default 2ms); also the sweep
          granularity of the quiescence window *)
  silence_after : float;
      (** presume a worker dead when its tick counter has not moved
          for this long (default 0.25s); [0.] disables silence
          detection — deaths certified by {!Harness.Crash.Died} still
          trigger adoption.  A silent-but-alive worker replaced by
          mistake is fenced: it runs any stale work it still holds
          inline and retires at its next loop check. *)
  zombie_after : float;
      (** fence a certifying worker (a scheduler worker, a service
          consumer) as a {e zombie} — alive and ticking its heartbeat
          but making no progress (no op completed, no no-find scan
          finished) for this long (default [0.] = disabled).
          Complements [silence_after]: silence catches frozen ticks,
          zombie detection catches moving ticks with frozen progress
          ({!Harness.Stall.Zombie}), and an idle worker trips neither
          because its empty scans keep its progress advancing. *)
  quiet_sweeps : int;
      (** consecutive frozen sweeps required before reconciling
          (default 3) *)
}

val default : config

val validate : config -> unit
(** @raise Invalid_argument on non-positive [interval], negative
    [silence_after] or [zombie_after], or [quiet_sweeps < 1]. *)

type report = {
  spawned : int;  (** tasks made pending, root included *)
  executed : int;  (** task bodies run to completion (or caught raise) *)
  raised : int;  (** bodies that raised — caught by the per-task barrier *)
  killed : int;  (** workers that died via {!Harness.Crash.Died} *)
  presumed_dead : int;  (** silent workers adopted without a certificate *)
  adopted : int;  (** tasks drained from adopted workers' deques *)
  reconciled : int;  (** phantom pending units written off at quiescence *)
  replacements : int;
      (** replacement workers the supervisor spawned: one per death,
          silence presumption and zombie fencing *)
  orphans_helped : int;
      (** orphaned descriptors helped to completion at the end of the
          run ({!Dcas.Mem_lockfree.help_orphans}) *)
}

val conserved : report -> bool
(** Task conservation: [spawned = executed + reconciled].  Holds for
    every terminating supervised run; the E22 acceptance predicate. *)

val pp_report : Format.formatter -> report -> unit

(** {2 Quiescence certification}

    The supervisor may write off leftover pending units only when no
    live task exists anywhere.  The tracker certifies this from
    per-sweep observations: counters frozen and nobody busy for
    [quiet_sweeps] sweeps, {e and} every live worker completed at
    least two full no-find steal scans inside the frozen window (two
    completions inside the window imply one scan ran entirely within
    it, and a full scan over frozen deques cannot miss a queued
    task). *)

type quiescence

val quiescence : unit -> quiescence

val observe :
  quiescence ->
  pending:int ->
  executed:int ->
  spawned:int ->
  busy:bool ->
  scans:int array ->
  quiet_sweeps:int ->
  bool
(** Record one supervisor sweep; [scans] are the live workers' full
    no-find scan counters (a length change restarts the window) and
    [busy] is true when any live worker is executing a task body.
    Returns [true] when reconciling [pending] to zero is provably
    safe. *)

val derived :
  base:int Atomic.t ->
  executed:('a -> int Atomic.t) ->
  spawned:('a -> int Atomic.t) ->
  (unit -> 'a list) ->
  int
(** [derived ~base ~executed ~spawned states] is the pending count
    [base + Σ spawned − Σ executed] over [states ()], every worker
    state ever created.  It reads [base] and every [executed] first and
    calls [states] again to read every [spawned] last.  While [base]
    only falls and both counters only rise, the result bounds the true
    count from above at an instant between the two phases, so zero is
    never read early, and a worker registered between the phases is
    still counted. *)

(** {2 The monitor engine}

    One engine runs detect → fence → replace → reconcile for every
    supervised runtime.  Each runtime keeps only its worker loop, its
    adoption action ([replace]), its finish predicate and its report;
    its workers share one {!worker} record with the monitor. *)

type worker = {
  slot : int;  (** the role this domain fills; a replacement inherits it *)
  busy : bool Atomic.t;  (** inside an operation and its accounting *)
  ticks : int Atomic.t;  (** liveness heartbeat, bumped every loop *)
  scans : int Atomic.t;  (** completed full no-find scans *)
  progress : (unit -> int) option;
      (** [Some resolved] marks a {e certifying} worker: its [scans]
          feed the quiescence certificate, and [resolved () + scans]
          is the progress the zombie detector watches.  [None] (a
          producer) opts out of both. *)
  idling : bool Atomic.t;
      (** inside a deliberate idle-backoff park, never read as silence *)
  fenced : bool Atomic.t;
      (** set by the monitor before it replaces this worker; the worker
          must retire at its next loop check and run any work it still
          holds inline *)
  died : bool Atomic.t;  (** exited via {!Harness.Crash.Died} *)
  retired : bool Atomic.t;  (** worker body finished, any reason *)
}

val worker : ?progress:(unit -> int) -> slot:int -> unit -> worker
(** A fresh record: counters zero, flags clear, atomics padded. *)

type 'a replacement = {
  adopted : int;  (** items the adoption moved *)
  worker : worker;  (** the replacement's record *)
  state : 'a;  (** the runtime's own per-worker state *)
  domain : unit Domain.t option;  (** joined by {!run} *)
}

type tally = {
  killed : int;  (** workers that died via {!Harness.Crash.Died} *)
  presumed_dead : int;  (** silent workers replaced without certificate *)
  zombies_fenced : int;  (** ticking-but-stuck workers fenced *)
  replacements : int;
  adopted : int;  (** sum of the replacements' [adopted] *)
  reconciled : int;  (** phantom pending units written off *)
  recoveries : float list;
      (** per replacement, oldest first: seconds from the sweep that
          detected the failure to the replacement running *)
}

type 'a monitor

val monitor :
  ?clock:(unit -> float) ->
  config ->
  pending:int Atomic.t ->
  executed:('a -> int Atomic.t) ->
  spawned:('a -> int Atomic.t) ->
  may_reconcile:(unit -> bool) ->
  replace:(slot:int -> 'a -> 'a replacement) ->
  (worker * 'a) list ->
  'a monitor
(** A monitor over the initial workers (the [i]-th must have slot [i]).
    [pending] is the {e base} of the derived pending count ({!derived}):
    the units granted or resolved outside the per-worker counters, the
    one word reconciliation writes.  [executed] and [spawned] name the
    runtime's per-worker counters the count and the quiescence tracker
    sum; [may_reconcile] gates reconciliation
    (e.g. only once producers stopped); [replace ~slot old] adopts what
    the fenced worker [old] owned and starts its replacement.  [clock]
    (default [Unix.gettimeofday]) stamps the initial heartbeats and
    times recoveries. *)

val sweep : 'a monitor -> now:float -> unit
(** One monitor pass.  For each slot's current owner: a death
    certificate, silence (ticks frozen past [silence_after] and not
    [idling]) or a zombie (a certifying worker whose ticks moved since
    the last sweep while its progress stayed frozen past
    [zombie_after]) sets [fenced] and calls [replace]; the replacement
    becomes the slot's owner, so a fenced worker is never judged
    again.  Then derives pending, feeds {!observe} and, when
    [may_reconcile ()] holds and the tracker certifies quiescence,
    re-reads both counter totals: only if neither moved does it CAS
    the base from its observed value down by the derived count, which
    writes pending off to exactly zero. *)

val run : 'a monitor -> finished:(unit -> bool) -> tally
(** Sweep every [interval] seconds until [finished ()] holds and every
    worker ever tracked has retired, then join the replacements'
    domains. *)

val tally : 'a monitor -> tally
val states : 'a monitor -> 'a list
(** Every tracked worker's runtime state, newest first. *)

val pending : 'a monitor -> int
(** The derived pending count over every tracked worker.  Call it on
    the monitor's domain (e.g. from [run]'s [finished]), which is the
    only one that adds replacements to the tracked set. *)

val total : ('a -> int Atomic.t) -> 'a list -> int
(** Sum one per-worker counter over states. *)
