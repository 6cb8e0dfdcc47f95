(* Supervision machinery for crash-fault-tolerant runtimes.

   Both supervised runtimes — the work-stealing scheduler's
   [Scheduler.Make.run_supervised] and [Shard_service.Make.run] — run
   a monitor domain beside their workers.  This module is that
   monitor, once: the policy knobs, the run report, the derived
   pending count, the quiescence tracker that decides when leftover
   pending units are provably phantom, and the engine that drives
   detect → fence → replace → reconcile.  A runtime supplies only what
   differs: its worker loop, its adoption action (the [replace]
   callback), its finish predicate and its report.

   Pending is never a shared hot counter.  Each worker counts what it
   spawned and executed in its own padded atomics, and the count is
   derived as [base + Σ spawned − Σ executed] over every worker state
   ever created ({!derived}).  The [base] atomic moves only off the hot
   path: the scheduler's root task, the service's shed paths, and this
   engine's write-offs.

   Fault model (fail-stop, the paper's Section 1 "a process stops
   forever"): a worker domain can die at any instrumented shared-memory
   point, including mid-CASN with a published undecided descriptor
   ({!Harness.Crash}).  A death can lose pending-task units in exactly
   three ways, all bounded per death:

   - the task it was {e executing} never finishes (1 unit);
   - a child it was {e spawning} dies inside the push, so the increment
     happened but the task may never have become visible (1 unit);
   - a batch it had {e stolen} — popped from the victim, not yet
     re-queued or run — vanishes with it (up to [steal_batch] units).

   What the dead worker owned is NOT lost: the runtime's [replace]
   drains it (the scheduler steals the deque empty from the thief end;
   the service quarantines and adopts the home shard) and hands it to
   a replacement.  Only the units above remain, and they keep the
   derived pending count above zero forever, which would hang
   termination detection.  The quiescence tracker certifies the moment
   they are the ONLY thing keeping it up, so the engine can lower the
   base by exactly that much without ever writing off a live task. *)

type config = {
  interval : float;
      (* monitor poll period, seconds; also the sweep granularity of
         the quiescence window *)
  silence_after : float;
      (* presume a worker dead when its tick counter has not moved for
         this long; 0 disables silence detection (death certificates
         from Crash.Died still trigger adoption) *)
  zombie_after : float;
      (* fence a certifying worker as a zombie when its heartbeat keeps
         ticking but its progress (ops resolved + no-find scans) has
         not moved for this long; 0 disables zombie detection.
         Disjoint from silence by construction: a silent worker's
         ticks are frozen, a zombie's are moving — so the two
         detectors never race over one worker, and an idle consumer
         (whose no-find scans keep advancing progress) trips
         neither. *)
  quiet_sweeps : int;
      (* consecutive frozen sweeps required before reconciling *)
}

let default =
  { interval = 0.002; silence_after = 0.25; zombie_after = 0.; quiet_sweeps = 3 }

let validate c =
  if not (c.interval > 0.) then
    invalid_arg "Supervisor: interval must be > 0";
  if c.silence_after < 0. then
    invalid_arg "Supervisor: silence_after must be >= 0";
  if c.zombie_after < 0. then
    invalid_arg "Supervisor: zombie_after must be >= 0";
  if c.quiet_sweeps < 1 then
    invalid_arg "Supervisor: quiet_sweeps must be >= 1"

type report = {
  spawned : int;  (* tasks made pending, root included *)
  executed : int;  (* task bodies run to completion (or caught raise) *)
  raised : int;  (* bodies that raised; caught by the per-task barrier *)
  killed : int;  (* workers that died via Crash.Died *)
  presumed_dead : int;  (* silent workers adopted without a certificate *)
  adopted : int;  (* tasks drained from adopted workers' deques *)
  reconciled : int;  (* phantom pending units written off at quiescence *)
  replacements : int;  (* replacement workers the supervisor spawned *)
  orphans_helped : int;
      (* orphaned descriptors helped to completion at the end of the
         run (Dcas.Mem_lockfree.help_orphans) *)
}

let conserved r = r.spawned = r.executed + r.reconciled

let pp_report ppf r =
  Format.fprintf ppf
    "spawned=%d executed=%d raised=%d killed=%d presumed-dead=%d adopted=%d \
     reconciled=%d replacements=%d orphans-helped=%d"
    r.spawned r.executed r.raised r.killed r.presumed_dead r.adopted
    r.reconciled r.replacements r.orphans_helped

(* --- Quiescence certification ---

   The supervisor may reconcile pending to zero only when no live
   task exists anywhere — queued, stolen-in-hand, or executing.  The
   tracker certifies this from per-sweep observations alone:

   - [pending], [executed] and [spawned] unchanged across the window
     and no live worker [busy]: nothing ran, so deque contents were
     frozen for the whole window;
   - every live worker completed at least TWO full no-find steal scans
     during the window: two completions inside the window mean at
     least one scan ran entirely within it, and a full scan over
     frozen, uncontended deques cannot miss a queued task.

   Together: any queued task would have been found (contradiction),
   any executing task would show as busy or move [executed], and any
   task mid-spawn belongs to a busy worker.  So the remaining pending
   units are exactly the dead workers' lost units. *)

type quiescence = {
  mutable prev : int * int * int;  (* pending, executed, spawned *)
  mutable quiet : int;  (* consecutive frozen sweeps *)
  mutable scans0 : int array;  (* live workers' scan counts at window start *)
  mutable have_base : bool;
}

let quiescence () =
  { prev = (-1, -1, -1); quiet = 0; scans0 = [||]; have_base = false }

let restart q scans =
  q.quiet <- 0;
  q.scans0 <- Array.copy scans;
  q.have_base <- true

(* One sweep's observation.  [scans] holds the current full-scan
   counters of the live (non-dead, non-retired) workers; its length
   changes when the live set changes, which restarts the window.
   Returns [true] when reconciliation is provably safe. *)
let observe q ~pending ~executed ~spawned ~busy ~scans ~quiet_sweeps =
  let snap = (pending, executed, spawned) in
  let frozen = snap = q.prev && pending > 0 && not busy in
  q.prev <- snap;
  if
    (not frozen)
    || (not q.have_base)
    || Array.length scans <> Array.length q.scans0
  then begin
    restart q scans;
    false
  end
  else begin
    q.quiet <- q.quiet + 1;
    q.quiet >= quiet_sweeps
    && Array.length scans > 0
    && Array.for_all2 (fun now base -> now >= base + 2) scans q.scans0
  end

(* --- The monitor engine ---

   One record per worker domain, shared between the worker (which
   writes it on its hot path) and the monitor (which only reads it,
   except for [fenced]).  All atomics are padded: the records of one
   pool sit next to each other. *)

type worker = {
  slot : int;  (* the role this domain fills; a replacement inherits it *)
  busy : bool Atomic.t;  (* inside an operation + its accounting *)
  ticks : int Atomic.t;  (* liveness heartbeat, bumped every loop *)
  scans : int Atomic.t;  (* completed full no-find scans *)
  progress : (unit -> int) option;
      (* [Some resolved] for a worker whose no-find scans certify
         quiescence: [resolved ()] counts the operations it finished,
         and together with [scans] it is the progress the zombie
         detector watches.  [None] (e.g. a producer) opts out of both. *)
  idling : bool Atomic.t;
      (* inside a deliberate idle-backoff park: never read as silence *)
  fenced : bool Atomic.t;
      (* set by the monitor before replacing this worker: the worker
         retires at its next loop check, so a presumed-dead worker that
         wakes up, or a cured zombie, never runs beside its
         replacement *)
  died : bool Atomic.t;  (* exited via Crash.Died *)
  retired : bool Atomic.t;  (* worker body finished, any reason *)
}

let worker ?progress ~slot () =
  let flag () = Dcas.Padding.make_atomic false in
  let count () = Dcas.Padding.make_atomic 0 in
  {
    slot;
    busy = flag ();
    ticks = count ();
    scans = count ();
    progress;
    idling = flag ();
    fenced = flag ();
    died = flag ();
    retired = flag ();
  }

type 'a replacement = {
  adopted : int;
  worker : worker;
  state : 'a;
  domain : unit Domain.t option;
}

(* The monitor's view of one worker domain, with the heartbeat and
   progress samples only the (single-threaded) monitor touches. *)
type 'a tracked = {
  w : worker;
  state : 'a;
  domain : unit Domain.t option;  (* None for initial workers *)
  mutable last_ticks : int;
  mutable last_move : float;
  mutable last_progress : int;
  mutable last_progress_move : float;
}

type tally = {
  killed : int;
  presumed_dead : int;
  zombies_fenced : int;
  replacements : int;
  adopted : int;
  reconciled : int;
  recoveries : float list;
}

type 'a monitor = {
  config : config;
  clock : unit -> float;
  base : int Atomic.t;  (* the pending base; see [derived] *)
  executed : 'a -> int Atomic.t;
  spawned : 'a -> int Atomic.t;
  may_reconcile : unit -> bool;
  replace : slot:int -> 'a -> 'a replacement;
  owners : 'a tracked array;  (* current owner of each slot *)
  mutable all : 'a tracked list;  (* every worker ever, newest first *)
  q : quiescence;
  mutable t : tally;
      (* [killed] is counted by [tally]; [recoveries] newest first *)
}

let progress_of w =
  match w.progress with
  | None -> 0
  | Some resolved -> resolved () + Atomic.get w.scans

let track ~now w state domain =
  {
    w;
    state;
    domain;
    last_ticks = Atomic.get w.ticks;
    last_move = now;
    last_progress = progress_of w;
    last_progress_move = now;
  }

let monitor ?(clock = Unix.gettimeofday) config ~pending ~executed ~spawned
    ~may_reconcile ~replace initial =
  let now = clock () in
  let owners =
    Array.of_list (List.map (fun (w, st) -> track ~now w st None) initial)
  in
  Array.iteri
    (fun i t ->
      if t.w.slot <> i then invalid_arg "Supervisor.monitor: slot <> index")
    owners;
  {
    config;
    clock;
    base = pending;
    executed;
    spawned;
    may_reconcile;
    replace;
    owners;
    all = List.rev (Array.to_list owners);
    q = quiescence ();
    t =
      {
        killed = 0;
        presumed_dead = 0;
        zombies_fenced = 0;
        replacements = 0;
        adopted = 0;
        reconciled = 0;
        recoveries = [];
      };
  }

let rec sum field n = function
  | [] -> n
  | s :: rest -> sum field (n + Atomic.get (field s)) rest

let total field states = sum field 0 states

(* The derived pending count.  [base] and every [executed] can only
   fall (as terms of the sum) and every [spawned] can only rise, so
   reading the first group before the second bounds the true count
   from above at any instant between the two phases: zero is never
   read early.  [states] is re-read for the second phase, so a worker
   registered in between (a replacement) is covered.  The bound needs
   [spawned] to only rise while the count gates anything; the shard
   service's producers lower it on [`Full], so the service reads the
   count only once they have stopped. *)
let derived ~base ~executed ~spawned states =
  let b = Atomic.get base in
  let e = total executed (states ()) in
  b - e + total spawned (states ())

let states m = List.map (fun t -> t.state) m.all

let pending m =
  derived ~base:m.base ~executed:m.executed ~spawned:m.spawned (fun () ->
      states m)

(* Judge the current owner of [slot] and replace it if it failed.
   Heartbeat sampling is shared by both detectors, so it happens
   unconditionally: zombie detection must know the ticks are MOVING
   even when silence detection is disabled. *)
let judge m ~now slot t =
  let c = m.config and w = t.w in
  let dead = Atomic.get w.died in
  let gone = dead || Atomic.get w.retired in
  let ticks_moving =
    let ticks = Atomic.get w.ticks in
    if ticks <> t.last_ticks then begin
      t.last_ticks <- ticks;
      t.last_move <- now;
      true
    end
    else false
  in
  (* ticks frozen too long: dead without a certificate, or frozen
     mid-operation.  A deliberate idle-backoff park is excluded — an
     idle worker descheduled inside its park is healthy, not silent. *)
  let silent =
    c.silence_after > 0. && (not gone) && (not ticks_moving)
    && (not (Atomic.get w.idling))
    && now -. t.last_move >= c.silence_after
  in
  (* ticks moving, progress frozen: a zombie.  [ticks_moving] is
     required on the very sweep that crosses the threshold: a healthy
     worker descheduled for a long spell (oversubscribed box) freezes
     ticks and progress together, and must not read as a zombie.
     Disjoint from [silent] by construction, so one worker is claimed
     by at most one detector. *)
  let zombie =
    c.zombie_after > 0. && (not gone) && (not silent)
    &&
    Option.is_some w.progress
    &&
    let p = progress_of w in
    if p <> t.last_progress then begin
      t.last_progress <- p;
      t.last_progress_move <- now;
      false
    end
    else
      ticks_moving
      && (not (Atomic.get w.idling))
      && now -. t.last_progress_move >= c.zombie_after
  in
  if dead || silent || zombie then begin
    (* fence before replacing; the owners table then points at the
       replacement, so this failure is acted on exactly once and the
       fenced worker is never judged again *)
    Atomic.set w.fenced true;
    let r = m.replace ~slot t.state in
    let after = m.clock () and n = m.t in
    m.t <-
      {
        n with
        presumed_dead = (n.presumed_dead + if silent then 1 else 0);
        zombies_fenced = (n.zombies_fenced + if zombie then 1 else 0);
        replacements = n.replacements + 1;
        adopted = n.adopted + r.adopted;
        recoveries = (after -. now) :: n.recoveries;
      };
    let t' = track ~now:after r.worker r.state r.domain in
    m.owners.(slot) <- t';
    m.all <- t' :: m.all
  end

(* One monitor sweep: judge every slot's owner, then feed the
   quiescence tracker and reconcile when it certifies that only dead
   workers' lost units remain.  Only certifying workers' scans count —
   theirs are the full no-find scans over everything a live task could
   sit in.  Pending is derived in [derived]'s read order; reconciling
   re-reads both totals and lowers the base only if neither moved, so
   the [pending] written off is exact, not just an upper bound. *)
let sweep m ~now =
  Array.iteri (judge m ~now) m.owners;
  let live =
    List.filter
      (fun t -> not (Atomic.get t.w.died || Atomic.get t.w.retired))
      m.all
  in
  let busy = List.exists (fun t -> Atomic.get t.w.busy) live in
  let scans =
    Array.of_list
      (List.filter_map
         (fun t ->
           Option.map (fun _ -> Atomic.get t.w.scans) t.w.progress)
         live)
  in
  let states = states m in
  let base = Atomic.get m.base in
  let executed = total m.executed states in
  let spawned = total m.spawned states in
  let pending = base + spawned - executed in
  if
    m.may_reconcile ()
    && observe m.q ~pending ~executed ~spawned ~busy ~scans
         ~quiet_sweeps:m.config.quiet_sweeps
    && total m.executed states = executed
    && total m.spawned states = spawned
    && Atomic.compare_and_set m.base base (base - pending)
  then m.t <- { m.t with reconciled = m.t.reconciled + pending }

let tally m =
  {
    m.t with
    killed = List.length (List.filter (fun t -> Atomic.get t.w.died) m.all);
    recoveries = List.rev m.t.recoveries;
  }

let run m ~finished =
  let retired t = Atomic.get t.w.retired || Atomic.get t.w.died in
  while not (finished () && List.for_all retired m.all) do
    sweep m ~now:(m.clock ());
    Unix.sleepf m.config.interval
  done;
  List.iter (fun t -> Option.iter Domain.join t.domain) m.all;
  tally m
