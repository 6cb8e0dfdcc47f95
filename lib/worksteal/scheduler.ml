(* A work-stealing task scheduler in the style of Arora, Blumofe and
   Plaxton [4] — the application domain the paper cites for deques
   ("currently used in load balancing algorithms").  Each worker owns a
   deque of tasks: it pushes and pops its own bottom end (LIFO, for
   locality) and steals from a victim's top end (FIFO, for load
   spread).  Global termination is detected with a pending-task count
   derived from per-worker counters ({!Supervisor.derived}): a worker
   bumps its own [spawned_w] before a task becomes visible and its own
   [executed_w] after a task body finishes, and pending is [base +
   Σ spawned_w − Σ executed_w] over every worker ever registered, with
   [base] = 1 for the root task.  It can only reach zero when no task
   is queued or running, and no task touches a counter shared with
   another worker.

   Two robustness layers ride on top of the classic design:

   - a per-task exception barrier: a task body that raises no longer
     kills its worker domain (which would strand a pending unit and
     hang every other worker); the exception is counted, the first
     one is re-raised by [run] after all domains have joined;

   - a supervised mode ([run_supervised]) tolerating fail-stop worker
     deaths ({!Harness.Crash}): the {!Supervisor} engine detects dead,
     silent or zombie workers and fences them; this module's adoption
     action drains a fenced worker's deque from the thief end into a
     replacement, and the engine lowers the pending base once the
     units lost with the dead workers are provably the only thing
     keeping the count above zero. *)

module Make_direct (D : Worksteal_intf.DIRECT_DEQUE) :
  Worksteal_intf.SCHEDULER = struct
  type pool = {
    deques : task D.t array;
        (* slot contents are swapped on adoption; both old and new
           values are valid deques, so racy reads stay safe *)
    base : int Atomic.t;
        (* pending base: 1 for the root, lowered only by the
           supervisor's write-offs *)
    registry : counters list Atomic.t;
        (* every worker's counters, newest first; a worker is
           registered before its domain starts.  One writer at a time:
           [start] before any domain runs, then the monitor. *)
    workers : int;
    steal_max : int;  (* tasks taken per steal; 1 = classic steal-one *)
    capacity : int;  (* per-deque capacity, for replacement deques *)
    first_error : exn option Atomic.t;
        (* first exception a task body raised, re-raised by [run] *)
    wd : Harness.Watchdog.t option;
  }

  (* Per-worker-domain counters, the only ones a task touches: pending
     and the report are sums over the registry.  The liveness side
     lives in the engine's record [w].  All atomics padded: these sit
     next to each other. *)
  and counters = {
    executed_w : int Atomic.t;
    raised_w : int Atomic.t;
    spawned_w : int Atomic.t;
  }

  and ctx = {
    pool : pool;
    worker : int;
    rng : Harness.Splitmix.t;
    w : Supervisor.worker;
    ws : counters;
  }

  and task = ctx -> unit

  let deque_name = D.name
  let worker ctx = ctx.worker
  let rng ctx = ctx.rng

  (* Each spawned domain — initial worker or replacement — has its own
     context, registered here, before the domain starts.  A worker's
     progress for the zombie detector is the tasks it completed (the
     engine adds its no-find scans). *)
  let make_ctx pool ~worker ~rng =
    let ws =
      {
        executed_w = Dcas.Padding.make_atomic 0;
        raised_w = Dcas.Padding.make_atomic 0;
        spawned_w = Dcas.Padding.make_atomic 0;
      }
    in
    Atomic.set pool.registry (ws :: Atomic.get pool.registry);
    let progress () = Atomic.get ws.executed_w in
    { pool; worker; rng; w = Supervisor.worker ~progress ~slot:worker (); ws }

  let executed_of ws = ws.executed_w
  let spawned_of ws = ws.spawned_w

  let pending pool =
    Supervisor.derived ~base:pool.base ~executed:executed_of
      ~spawned:spawned_of (fun () -> Atomic.get pool.registry)

  (* Run a task body and retire it, behind the exception barrier.  A
     raising task is a task bug, not a scheduler failure: count it,
     remember the first exception for [run] to re-raise, and retire
     the task normally so pending still drains.  {!Harness.Crash.Died}
     is the one exception that must NOT be caught: it is a fail-stop
     fault — the domain dies here, the task's pending unit is written
     off later by the supervisor's reconciliation. *)
  let execute ctx (t : task) =
    let ws = ctx.ws in
    Atomic.set ctx.w.busy true;
    (try t ctx with
    | Harness.Crash.Died as e -> raise e
    | e ->
        ignore (Atomic.compare_and_set ctx.pool.first_error None (Some e));
        Atomic.incr ws.raised_w);
    Atomic.incr ws.executed_w;
    Atomic.set ctx.w.busy false;
    (* the watchdog heartbeat is per completed task, not per loop
       iteration: idle steal-spinning must not mask a genuine stall *)
    match ctx.pool.wd with
    | None -> ()
    | Some w -> Harness.Watchdog.tick w ~tid:ctx.worker

  (* A fenced worker no longer owns its slot: its push would land on
     the replacement's deque (owner-end, two owners) or on the drained
     old one (task stranded forever) — run inline instead, which is
     always sound.  Stolen tasks are already counted in their
     spawner's [spawned_w], so they are re-queued here directly, not
     via [spawn]. *)
  let requeue ctx t =
    if Atomic.get ctx.w.fenced || not (D.push ctx.pool.deques.(ctx.worker) t)
    then execute ctx t

  let spawn ctx t =
    Atomic.incr ctx.ws.spawned_w;
    requeue ctx t

  (* One full steal sweep over every other worker's deque, starting at
     a random victim for fairness.  Returning [] certifies that a
     complete pass found every deque empty — the certificate the
     supervisor's quiescence tracker counts (see {!Supervisor}); a
     single random victim probe could miss a queued task forever. *)
  let steal_scan ctx =
    let n = ctx.pool.workers in
    if n <= 1 then []
    else begin
      let start = Harness.Splitmix.int ctx.rng ~bound:n in
      let rec go k =
        if k >= n then []
        else
          let v = (start + k) mod n in
          if v = ctx.worker then go (k + 1)
          else
            match D.steal_batch ctx.pool.deques.(v) ~max:ctx.pool.steal_max with
            | [] -> go (k + 1)
            | ts -> ts
      in
      go 0
    end

  (* A fenced worker retires at its next loop check. *)
  let worker_loop ctx =
    let w = ctx.w in
    let rec loop () =
      Atomic.incr w.ticks;
      if Atomic.get w.fenced then ()
      else
        match D.pop ctx.pool.deques.(ctx.worker) with
        | `Value t ->
            execute ctx t;
            loop ()
        | `Empty ->
            if pending ctx.pool = 0 then ()
            else begin
              (match steal_scan ctx with
              | [] ->
                  Atomic.incr w.scans;
                  Domain.cpu_relax ()
              | t :: rest ->
                  (* one that does not fit runs inline rather than be
                     lost *)
                  List.iter (requeue ctx) rest;
                  execute ctx t);
              loop ()
            end
    in
    loop ()

  (* The body of a worker domain: run [init] then the loop, certify a
     fail-stop death, always mark retirement.  [Crash.point] only
     fires at instrumented memory operations, so the handler itself
     runs in a crash-free zone.  Supervised workers enroll with the
     crash layer under their slot id, making them eligible victims;
     each tid dies at most once, so a replacement enrolled under the
     same slot is never re-killed.  The monitor domain never enrolls
     and is immortal. *)
  let worker_body ?(enroll = false) ?(init = ignore) ctx () =
    if enroll && ctx.worker < Harness.Crash.max_slots then
      Harness.Crash.enroll ~tid:ctx.worker;
    (try
       init ();
       worker_loop ctx
     with Harness.Crash.Died -> Atomic.set ctx.w.died true);
    Atomic.set ctx.w.retired true

  let make_pool ?wd ~workers ~capacity ~steal_max () =
    {
      deques = Array.init workers (fun _ -> D.create ~capacity ());
      base = Atomic.make 0;
      registry = Atomic.make [];
      workers;
      steal_max;
      capacity;
      first_error = Atomic.make None;
      wd;
    }

  let check_args ~who ~workers ~steal_batch =
    if workers < 1 then
      invalid_arg (Printf.sprintf "Scheduler.%s: workers must be >= 1" who);
    if steal_batch < 1 then
      invalid_arg (Printf.sprintf "Scheduler.%s: steal_batch must be >= 1" who)

  (* Check the arguments, build the pool and one context per worker,
     and seed the root task on worker 0's deque. *)
  let start ~who ?wd ~seed ~steal_batch ~workers ~capacity root =
    check_args ~who ~workers ~steal_batch;
    let master = Harness.Splitmix.create ~seed in
    let pool = make_pool ?wd ~workers ~capacity ~steal_max:steal_batch () in
    let ctxs =
      Array.init workers (fun worker ->
          make_ctx pool ~worker ~rng:(Harness.Splitmix.split master))
    in
    Atomic.incr pool.base;
    if not (D.push pool.deques.(0) root) then
      invalid_arg "Scheduler: capacity too small for the root task";
    (master, pool, ctxs)

  (* Join every spawned domain even when one join raises, then
     re-raise the first failure — a raising domain must not leave its
     siblings unjoined and leaking. *)
  let join_all domains =
    let errs =
      List.filter_map
        (fun d -> try Domain.join d; None with e -> Some e)
        domains
    in
    match errs with [] -> () | e :: _ -> raise e

  let reraise pool =
    match Atomic.get pool.first_error with Some e -> raise e | None -> ()

  let run ?(seed = 0xD0E5) ?(steal_batch = 8) ~workers ~capacity root =
    let _, pool, ctxs =
      start ~who:"run" ~seed ~steal_batch ~workers ~capacity root
    in
    join_all
      (Array.to_list
         (Array.map (fun ctx -> Domain.spawn (worker_body ctx)) ctxs));
    reraise pool

  (* --- Supervised mode --- *)

  (* The adoption action: drain the fenced worker's deque from the
     thief end — safe concurrently with live thieves on every adapter —
     and hand the tasks to a replacement on a fresh deque.  The drained
     tasks are already counted as spawned; the replacement pushes them
     itself (it owns the fresh deque), running inline any that do not
     fit.  Batches are gathered newest-first and reversed once, so the
     drain stays linear in the deque's size and the tasks keep their
     oldest-first order. *)
  let adopt pool ~rng ~slot _old : counters Supervisor.replacement =
    let old = pool.deques.(slot) in
    let rec drain rev_acc =
      match D.steal_batch old ~max:pool.steal_max with
      | [] -> List.rev rev_acc
      | ts -> drain (List.rev_append ts rev_acc)
    in
    let tasks = drain [] in
    let fresh = D.create ~capacity:pool.capacity () in
    pool.deques.(slot) <- fresh;
    let ctx = make_ctx pool ~worker:slot ~rng:(Harness.Splitmix.split rng) in
    let init () =
      List.iter (fun t -> if not (D.push fresh t) then execute ctx t) tasks
    in
    {
      adopted = List.length tasks;
      worker = ctx.w;
      state = ctx.ws;
      domain = Some (Domain.spawn (worker_body ~enroll:true ~init ctx));
    }

  let run_supervised ?(seed = 0xD0E5) ?(steal_batch = 8)
      ?(config = Supervisor.default) ?watchdog ~workers ~capacity root =
    Supervisor.validate config;
    let master, pool, ctxs =
      start ~who:"run_supervised" ?wd:watchdog ~seed ~steal_batch ~workers
        ~capacity root
    in
    Option.iter Harness.Watchdog.start watchdog;
    let m =
      Supervisor.monitor config ~pending:pool.base ~executed:executed_of
        ~spawned:spawned_of
        ~may_reconcile:(fun () -> true)
        ~replace:(adopt pool ~rng:(Harness.Splitmix.split master))
        (Array.to_list (Array.map (fun ctx -> (ctx.w, ctx.ws)) ctxs))
    in
    let domains =
      Array.to_list
        (Array.map
           (fun ctx -> Domain.spawn (worker_body ~enroll:true ctx))
           ctxs)
    in
    let sup =
      Domain.spawn (fun () ->
          Supervisor.run m ~finished:(fun () -> pending pool = 0))
    in
    (* initial workers retire when pending reaches zero — naturally or
       by reconciliation; dead ones are joinable immediately *)
    join_all domains;
    let t = Domain.join sup in
    Option.iter (fun w -> ignore (Harness.Watchdog.stop w)) watchdog;
    reraise pool;
    let states = Supervisor.states m in
    {
      Supervisor.spawned = 1 + Supervisor.total spawned_of states;
      executed = Supervisor.total executed_of states;
      raised = Supervisor.total (fun ws -> ws.raised_w) states;
      killed = t.killed;
      presumed_dead = t.presumed_dead;
      adopted = t.adopted;
      reconciled = t.reconciled;
      replacements = t.replacements;
      (* survivors must decide every descriptor a dead domain left
         undecided — the deque drain alone only *reads* past them *)
      orphans_helped = Dcas.Mem_lockfree.help_orphans ();
    }
end

(* A deque behind the option-returning interface pays a second block
   per pop here, to rewrap its result. *)
module Make (D : Worksteal_intf.WORKSTEAL_DEQUE) = Make_direct (struct
  include D

  let pop d = match D.pop d with Some v -> `Value v | None -> `Empty
  let steal d = match D.steal d with Some v -> `Value v | None -> `Empty
end)

(* --- Deque adapters --- *)

(* Each deque is written once, in the direct form the stock schedulers
   run on; [Optional] derives the option-returning adapter from it. *)
module Optional (D : Worksteal_intf.DIRECT_DEQUE) :
  Worksteal_intf.WORKSTEAL_DEQUE = struct
  include D

  let option_of = function `Value v -> Some v | `Empty -> None
  let pop d = option_of (D.pop d)
  let steal d = option_of (D.steal d)
end

(* The ABP deque implements the restricted interface natively. *)
module Abp_direct = struct
  type 'a t = 'a Baselines.Abp_deque.t

  let name = Baselines.Abp_deque.name
  let create = Baselines.Abp_deque.create

  let push d v =
    match Baselines.Abp_deque.push_bottom d v with `Okay -> true | `Full -> false

  let pop = Baselines.Abp_deque.pop_bottom
  let steal = Baselines.Abp_deque.steal_retry

  (* The ABP deque can only steal one item per CAS; a batch is a
     sequence of single steals (each its own linearization point). *)
  let steal_batch d ~max =
    let rec go n acc =
      if n >= max then List.rev acc
      else
        match steal d with
        | `Value v -> go (n + 1) (v :: acc)
        | `Empty -> List.rev acc
    in
    go 0 []
end

module Abp_adapter = Optional (Abp_direct)

(* Any general deque runs the same role by restriction: the owner uses
   the right end, thieves pop the left end. *)
module Restrict_direct (D : Deque.Deque_intf.S) = struct
  type 'a t = 'a D.t

  module B = Deque.Deque_intf.Batch (D)

  let name = D.name
  let create = D.create
  let push d v = match D.push_right d v with `Okay -> true | `Full -> false
  let pop = D.pop_right
  let steal = D.pop_left
  let steal_batch d ~max = B.pop_many_left d max
end

module Restrict (D : Deque.Deque_intf.S) = Optional (Restrict_direct (D))
module Abp_scheduler = Make_direct (Abp_direct)

(* The array deque restricts like any deque but steals batches with its
   native atomic [pop_many_left]: one CASN takes the whole batch. *)
module Array_deque_direct = struct
  module A = Deque.Array_deque.Lockfree

  type 'a t = 'a A.t

  let name = A.name
  let create = A.create
  let push d v = match A.push_right d v with `Okay -> true | `Full -> false
  let pop = A.pop_right
  let steal = A.pop_left
  let steal_batch d ~max = A.pop_many_left d max
end

module Array_deque_adapter = Optional (Array_deque_direct)

module List_deque_direct = Restrict_direct (struct
  include Deque.List_deque.Lockfree

  let name = Deque.List_deque.Lockfree.name
end)

module Lock_deque_direct = Restrict_direct (struct
  include Baselines.Lock_deque

  let name = Baselines.Lock_deque.name
end)

(* The Sundell–Tsigas single-word-CAS deque restricts like any general
   deque; steal_batch is the generic one-at-a-time fallback (each steal
   its own marking CAS — there is no multi-word primitive to batch
   under). *)
module St_deque_direct = Restrict_direct (struct
  include Baselines.St_deque

  let name = Baselines.St_deque.name
end)

module St_deque_adapter = Optional (St_deque_direct)
module Array_scheduler = Make_direct (Array_deque_direct)
module List_scheduler = Make_direct (List_deque_direct)
module Lock_scheduler = Make_direct (Lock_deque_direct)
module St_scheduler = Make_direct (St_deque_direct)
