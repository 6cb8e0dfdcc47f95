(* A supervised producer/consumer service over a sharded deque
   (ROADMAP item 3, experiment E24).

   [Core.Sharded] is the data plane: K policy-wrapped deques behind
   affinity routing, cross-shard overflow and steal rebalancing.  This
   module is the control plane that turns it into a service that
   survives fail-stop faults: M producer domains inject keyed traffic
   (open-loop token bucket or closed loop), N consumer domains drain
   it, and the {!Supervisor} engine's monitor domain — never enrolled
   with the crash layer, hence immortal — watches for dead, silent or
   zombie workers and fences them.  This module's adoption action
   quarantines and adopts a fenced consumer's home shard and spawns a
   replacement (each crash tid dies at most once, so replacements are
   immortal); the engine then reconciles the pending count under the
   same quiescence certificate as {!Scheduler.Make.run_supervised}.

   Pending is derived, as in the scheduler ({!Supervisor.derived}):
   [base + Σ spawned_w − Σ executed_w] over every worker state ever
   created.  A produced or served request touches only its own
   domain's padded counters; the shared [base] moves only on the shed
   paths (one unit each) and by the engine's write-offs.

   Conservation is the acceptance law, service-wide:

     spawned = executed + reconciled + shed   and   leftover = 0

   [spawned] counts pushes that were granted a pending unit (the unit
   is taken in the producer's [spawned_w] BEFORE the push and returned
   there if the push honestly answers [`Full], so a death inside a
   push leaves the unit up whether or not the item landed); [executed]
   counts pops served; [reconciled] is
   what the quiescence certificate wrote off — at most one in-flight
   item per death, the same bound the scheduler proves.  [shed] is the
   deadline-enforcement path (E25): ops refused at admission (the home
   shard's observed p99 sojourn already exceeds the budget), ops whose
   push ran out of budget, and ops popped after their stamped expiry
   all resolve their pending unit as first-class timed-out outcomes,
   by lowering the base — they keep their spawned unit, so shedding is
   visible in the books, never silent.  [leftover] is the final quiescent drain of every
   shard, which must be empty precisely because a consumer's full
   no-find scan (the certificate's ingredient) walks every shard,
   quarantined ones included, primary and overflow both.

   Failure detection is the engine's two disjoint detectors: silence
   ([silence_after]) for frozen heartbeats, and zombie detection
   ([zombie_after]) for consumers whose heartbeat ticks while their
   progress — ops resolved plus no-find scans — is frozen
   (Harness.Stall.Zombie's alive-but-useless mode).  Only consumers
   certify: producers carry no progress measure, since an open-loop
   producer between token-bucket refills is legitimately idle.  An
   idle consumer trips neither detector: its empty scans advance
   progress, and its idle-backoff sleeps are flagged ([idling]) so a
   long park between scans is never mistaken for silence.  A fenced
   worker retires at its next loop check, even if it wakes later. *)

type config = {
  shards : int;
  producers : int;
  consumers : int;
  capacity : int;  (* per-shard primary capacity *)
  full : Deque.Policy.full_policy;  (* per-shard full policy *)
  steal_batch : int;  (* rebalancing transfer bound *)
  rate : float;  (* per-producer arrivals/s; <= 0 = closed loop *)
  burst : int;  (* arrivals released per token-bucket refill *)
  urgent_share : float;  (* fraction of pushes entering the left end *)
  key_space : int;  (* routing keys drawn uniformly from [0,key_space) *)
  deadline : float option;
  (* per-request budget, seconds: bounds the push, stamps the item
     with an absolute expiry, and sheds it at dequeue if exceeded *)
  admission : bool;
  (* refuse requests at enqueue when the home shard's observed p99
     sojourn already exceeds the deadline (no-op without one) *)
  sup : Supervisor.config;  (* monitor poll / silence / quiet knobs *)
  seed : int;
}

let default =
  {
    shards = 4;
    producers = 2;
    consumers = 2;
    capacity = 1024;
    full = Deque.Policy.Spill;
    steal_batch = 8;
    rate = 0.;
    burst = 32;
    urgent_share = 0.1;
    key_space = 1024;
    deadline = None;
    admission = false;
    sup = Supervisor.default;
    seed = 0x5EA5;
  }

let validate c =
  if c.shards < 1 then invalid_arg "Shard_service: shards must be >= 1";
  if c.producers < 1 then invalid_arg "Shard_service: producers must be >= 1";
  if c.consumers < 1 then invalid_arg "Shard_service: consumers must be >= 1";
  if c.burst < 1 then invalid_arg "Shard_service: burst must be >= 1";
  if c.key_space < 1 then invalid_arg "Shard_service: key_space must be >= 1";
  if not (c.urgent_share >= 0. && c.urgent_share <= 1.) then
    invalid_arg "Shard_service: urgent_share must be in [0,1]";
  Supervisor.validate c.sup

type report = {
  spawned : int;  (* pending units granted to pushes *)
  executed : int;  (* pops served (within deadline) *)
  reconciled : int;  (* phantom units written off at quiescence *)
  shed_admission : int;  (* ops refused at enqueue by admission control *)
  shed_expired : int;
  (* ops timed out with their unit retained: push ran out of budget,
     or the item was popped after its stamped expiry *)
  leftover : int;  (* items found by the final quiescent drain *)
  pushed_ok : int;  (* pushes that landed *)
  push_full : int;  (* pushes refused as `Full (unit returned) *)
  timeouts : int;  (* push/pop calls that ran out of deadline *)
  empty_scans : int;  (* consumers' full no-find scans *)
  overshoot_max_ns : int;
  (* worst served-op completion past its stamped expiry: expired items
     are shed at dequeue, so anything beyond a scheduling epsilon here
     is an enforcement bug — the E25 gate *)
  killed : int;  (* workers lost to Crash.Died *)
  presumed_dead : int;  (* silent workers replaced without certificate *)
  zombies_fenced : int;  (* ticking-but-stuck consumers fenced *)
  replacements : int;  (* replacement domains spawned *)
  adoptions : int;  (* shard quarantine+drain+revive cycles *)
  adopted_items : int;  (* items moved off quarantined shards *)
  orphans_helped : int;  (* descriptors completed for dead domains *)
  recoveries : float list;
      (* seconds from detection to replacement running, per event *)
  per_shard_pushed : int array;  (* external landings, for Starvation *)
  per_shard_popped : int array;
  elapsed : float;
}

let shed r = r.shed_admission + r.shed_expired

let conserved r =
  r.spawned = r.executed + r.reconciled + shed r && r.leftover = 0

let pp_report ppf r =
  Format.fprintf ppf
    "spawned=%d executed=%d reconciled=%d shed=%d+%d leftover=%d ok=%d \
     full=%d timeout=%d overshoot-max=%dns killed=%d presumed-dead=%d \
     zombies-fenced=%d replacements=%d adoptions=%d adopted-items=%d \
     orphans-helped=%d recoveries=%d"
    r.spawned r.executed r.reconciled r.shed_admission r.shed_expired
    r.leftover r.pushed_ok r.push_full r.timeouts r.overshoot_max_ns
    r.killed r.presumed_dead r.zombies_fenced r.replacements r.adoptions
    r.adopted_items r.orphans_helped
    (List.length r.recoveries)

module Make (D : Deque.Deque_intf.S) = struct
  module S = Deque.Sharded.Make (D)

  (* Per-worker-domain counters, summed into the report; the liveness
     side lives in the engine's record [w].  All atomics padded. *)
  type wstate = {
    w : Supervisor.worker;
    role : [ `Producer | `Consumer ];
    spawned_w : int Atomic.t;  (* net pending units granted *)
    executed_w : int Atomic.t;
    ok_w : int Atomic.t;
    full_w : int Atomic.t;
    timeout_w : int Atomic.t;
    shed_adm_w : int Atomic.t;  (* refused at enqueue by admission *)
    shed_exp_w : int Atomic.t;  (* budget spent: push timeout / expired pop *)
    late_ns_w : int Atomic.t;  (* max served completion past expiry, ns *)
  }

  (* Progress (as opposed to liveness) is every operation the worker
     RESOLVED — served, refused, timed out, shed — plus its finished
     no-find scans, which the engine adds.  A healthy idle consumer
     keeps completing empty scans, so its progress moves; a zombie's
     heartbeat moves while this stays frozen.  Producers carry no
     progress measure: they neither certify nor get zombie-checked. *)
  let make_wstate cfg ~slot =
    let c () = Dcas.Padding.make_atomic 0 in
    let spawned_w = c () and executed_w = c () and ok_w = c () in
    let full_w = c () and timeout_w = c () and shed_adm_w = c () in
    let shed_exp_w = c () and late_ns_w = c () in
    let role = if slot < cfg.producers then `Producer else `Consumer in
    let progress =
      match role with
      | `Producer -> None
      | `Consumer ->
          Some
            (fun () ->
              Atomic.get executed_w + Atomic.get ok_w + Atomic.get full_w
              + Atomic.get timeout_w + Atomic.get shed_adm_w
              + Atomic.get shed_exp_w)
    in
    {
      w = Supervisor.worker ?progress ~slot ();
      role;
      spawned_w;
      executed_w;
      ok_w;
      full_w;
      timeout_w;
      shed_adm_w;
      shed_exp_w;
      late_ns_w;
    }

  (* What travels through the deques: the value plus its stamps.
     Clock: [enq] and [expiry] are ns on {!Dcas.Clock}, the monotonic
     integer clock that [Policy] and [Sharded] time their deadlines on,
     so a wall-clock step can neither expire nor immortalize a queued
     request, and a stamp is an unboxed field.  [expiry] is absolute
     ([max_int] without a deadline) so a consumer can shed an expired
     item with one clock read; [home] is the key's home shard, so the
     sojourn lands on the shard admission control will consult for the
     next request on that key. *)
  type item = { v : int; enq : int; expiry : int; home : int }

  type state = {
    service : item S.t;
    cfg : config;
    base : int Atomic.t;  (* pending base: minus units shed or written off *)
    stop : bool Atomic.t;  (* producers: stop injecting *)
    producers_running : int Atomic.t;
    drained : bool Atomic.t;  (* consumers may exit: stop + pending=0 *)
    wd : Harness.Watchdog.t option;
    budget_ns : int;  (* [cfg.deadline] in ns; [max_int] without one *)
  }

  (* Consumers are pinned to a home shard round-robin by slot: their
     pops route there first, so a consumer death starves a specific
     shard until the monitor adopts it — the scenario E24 storms. *)
  let consumer_shard cfg ~slot = (slot - cfg.producers) mod cfg.shards

  (* Keys whose affinity hash routes to a wanted shard, found by probe
     (pure, so computed once per worker). *)
  let key_for service ~shard =
    let rec go k =
      if k > 1_000_000 then shard (* unreachable: hash is uniform *)
      else if S.shard_of service ~key:k = shard then k
      else go (k + 1)
    in
    go 0

  let tick_wd st ~tid =
    match st.wd with
    | None -> ()
    | Some w -> Harness.Watchdog.tick w ~tid

  (* --- producer --- *)

  (* A push is granted its pending unit in [spawned_w] BEFORE the
     attempt: if the push honestly answers [`Full] the unit is
     returned; if the domain dies inside, the unit stays up and is
     reconciled at quiescence whether or not the item landed.  (If it
     landed, a consumer pops it and the books balance through
     [executed].)  The deadline paths resolve the unit as SHED, by
     lowering the base, instead of returning it — a timed-out op was a
     real request the service failed, so it keeps its place in the
     conservation law: refused at admission (the home shard's observed
     p99 already exceeds the whole budget, so the enqueue would only
     age into an expired pop) or timed out inside the push itself.
     Both surface to the observer as the first-class [`Timeout]
     outcome. *)
  let produce st ws ~on_push ~rng value =
    let cfg = st.cfg and w = ws.w in
    let key = Harness.Splitmix.int rng ~bound:cfg.key_space in
    let urgent =
      cfg.urgent_share > 0.
      && Harness.Splitmix.int rng ~bound:10_000
         < int_of_float (cfg.urgent_share *. 10_000.)
    in
    Atomic.set w.busy true;
    Atomic.incr ws.spawned_w;
    let t0 = Dcas.Clock.now_ns () in
    let admitted =
      match cfg.deadline with
      | Some budget when cfg.admission ->
          S.admit st.service ~key ~budget
      | Some _ | None -> true
    in
    let out =
      if not admitted then begin
        Atomic.decr st.base;
        Atomic.incr ws.shed_adm_w;
        `Timeout
      end
      else
        let expiry =
          if st.budget_ns >= max_int - t0 then max_int else t0 + st.budget_ns
        in
        let item =
          { v = value; enq = t0; expiry; home = S.shard_of st.service ~key }
        in
        match S.push ?deadline:cfg.deadline ~urgent st.service ~key item with
        | `Okay ->
            Atomic.incr ws.ok_w;
            `Okay
        | `Full ->
            Atomic.decr ws.spawned_w;
            Atomic.incr ws.full_w;
            `Full
        | `Timeout ->
            (* the budget died inside the push: shed, keeping the
               spawned unit on the books *)
            Atomic.decr st.base;
            Atomic.incr ws.shed_exp_w;
            Atomic.incr ws.timeout_w;
            `Timeout
    in
    let ns = float (Dcas.Clock.now_ns () - t0) in
    Atomic.set w.busy false;
    on_push ~tid:w.slot ~ns out;
    tick_wd st ~tid:w.slot

  let producer_loop st ws ~on_push =
    let cfg = st.cfg and w = ws.w in
    let rng =
      Harness.Splitmix.create ~seed:(cfg.seed + (w.slot * 7919) + 1)
    in
    let t_start = Dcas.Clock.now_ns () in
    let sent = ref 0 in
    while not (Atomic.get st.stop) && not (Atomic.get w.fenced) do
      Atomic.incr w.ticks;
      if Harness.Stall.Zombie.active ~tid:w.slot then begin
        (* zombified: alive and ticking, injecting nothing *)
        Harness.Stall.Zombie.bite ~tid:w.slot;
        tick_wd st ~tid:w.slot;
        Unix.sleepf 0.0001
      end
      else if cfg.rate <= 0. then begin
        (* closed loop: inject as fast as the service absorbs *)
        produce st ws ~on_push ~rng !sent;
        incr sent
      end
      else begin
        (* open loop: the token bucket owes [rate * elapsed] arrivals
           regardless of completions; release them in bursts *)
        let owed =
          int_of_float
            (float (Dcas.Clock.now_ns () - t_start) *. 1e-9 *. cfg.rate)
          - !sent
        in
        if owed >= 1 then
          let n = min owed cfg.burst in
          for _ = 1 to n do
            produce st ws ~on_push ~rng !sent;
            incr sent
          done
        else Domain.cpu_relax ()
      end
    done

  (* --- consumer --- *)

  let consumer_loop st ws ~on_pop =
    let cfg = st.cfg and w = ws.w in
    let home = consumer_shard cfg ~slot:w.slot in
    let key = key_for st.service ~shard:home in
    (* Park briefly (busy=false) after a run of consecutive no-finds.
       Besides not burning a core on an idle service, this is what
       makes quiescence certification live on few cores: the monitor
       needs to sample an instant where no consumer is inside a pop,
       and a consumer that never sleeps is inside a pop almost
       always. *)
    let idle = ref 0 in
    let rec loop () =
      if Atomic.get w.fenced then ()  (* replaced: retire quietly *)
      else if Atomic.get st.drained then ()
      else if Harness.Stall.Zombie.active ~tid:w.slot then begin
        (* zombified: the heartbeat ticks, the watchdog is fed, and no
           work happens — indistinguishable from healthy by every
           liveness signal, which is the point; only the frozen
           progress counters give it away *)
        Atomic.incr w.ticks;
        Harness.Stall.Zombie.bite ~tid:w.slot;
        tick_wd st ~tid:w.slot;
        Unix.sleepf 0.0001;
        loop ()
      end
      else begin
        Atomic.incr w.ticks;
        Atomic.set w.busy true;
        let t0 = Dcas.Clock.now_ns () in
        (* urgent-side pops: left end first = urgent entries, then the
           oldest bulk — FIFO service with priority jumping.  A pop that
           comes back `Empty has scanned every shard (Sharded's steal
           sweep), which is exactly the full no-find scan certificate
           quiescence needs.  The deadline budget applies only while
           traffic flows: a budgeted pop blocks inside the deque for
           the whole budget when the service is empty, which would pin
           [busy] true almost always and starve the monitor of the
           all-idle instant quiescence certification samples for — so
           once [stop] is set (no new requests left to bound), drain
           pops run unbudgeted and certificates flow freely. *)
        let deadline =
          if Atomic.get st.stop then None else cfg.deadline
        in
        let out = S.pop ?deadline ~urgent:true st.service ~key in
        let now = Dcas.Clock.now_ns () in
        let ns = float (now - t0) in
        let out' =
          match out with
          | `Value it ->
              (* the sojourn estimate must see the whole tail, shed
                 requests included — they ARE the tail *)
              S.note_sojourn st.service ~shard:it.home
                ~ns:(float (now - it.enq));
              if now >= it.expiry then begin
                (* expired in queue: shed at dequeue — the op resolves
                   as a first-class timeout, its unit stays spawned *)
                Atomic.incr ws.shed_exp_w;
                Atomic.decr st.base;
                `Timeout
              end
              else begin
                Atomic.incr ws.executed_w;
                (* overshoot is judged at completion, on a fresh clock
                   read: the gap between the expiry check above and
                   here is exactly the scheduling epsilon E25 allows *)
                let late_ns = Dcas.Clock.now_ns () - it.expiry in
                if late_ns > Atomic.get ws.late_ns_w then
                  Atomic.set ws.late_ns_w late_ns;
                `Value it.v
              end
          | `Empty ->
              Atomic.incr w.scans;
              `Empty
          | `Timeout ->
              Atomic.incr ws.timeout_w;
              `Timeout
        in
        Atomic.set w.busy false;
        on_pop ~tid:w.slot ~ns out';
        tick_wd st ~tid:w.slot;
        if Atomic.get st.drained then ()
        else begin
          (match out with
          | `Value _ -> idle := 0
          | `Empty | `Timeout ->
              incr idle;
              if !idle >= 32 then begin
                (* flag the deliberate park: an idle consumer
                   descheduled inside this sleep must read as idling,
                   never as silent (the false-silence hazard) *)
                Atomic.set w.idling true;
                Unix.sleepf 0.0005;
                Atomic.set w.idling false
              end
              else Domain.cpu_relax ());
          loop ()
        end
      end
    in
    loop ()

  (* --- domain bodies --- *)

  let body st ws ~on_push ~on_pop () =
    let w = ws.w in
    if w.slot < Harness.Crash.max_slots then
      Harness.Crash.enroll ~tid:w.slot;
    if w.slot < Harness.Stall.Freezer.max_slots then
      Harness.Stall.Freezer.enroll ~tid:w.slot;
    (try
       match ws.role with
       | `Producer -> producer_loop st ws ~on_push
       | `Consumer -> consumer_loop st ws ~on_pop
     with Harness.Crash.Died -> Atomic.set w.died true);
    (match ws.role with
    | `Producer -> Atomic.decr st.producers_running
    | `Consumer -> ());
    Atomic.set w.retired true

  (* The adoption action for a fenced worker.  Consumers additionally
     get their home shard quarantined, drained into the survivors and
     revived for the replacement — the adoption path under test. *)
  let replace st ~on_push ~on_pop ~slot (old : wstate) :
      wstate Supervisor.replacement =
    let adopted =
      match old.role with
      | `Producer ->
          Atomic.incr st.producers_running;
          0
      | `Consumer ->
          let shard = consumer_shard st.cfg ~slot in
          S.quarantine st.service ~shard;
          let n = S.adopt st.service ~shard in
          S.revive st.service ~shard;
          n
    in
    let ws = make_wstate st.cfg ~slot in
    {
      adopted;
      worker = ws.w;
      state = ws;
      domain = Some (Domain.spawn (body st ws ~on_push ~on_pop));
    }

  (* Consumers may leave once the producers are gone and pending has
     drained; reconciliation waits for the producers too.  Both gates
     read the derived count only after every producer domain has
     exited: a producer lowers its [spawned_w] when a push answers
     [`Full], and only once [spawned_w] is frozen does the count's
     read order bound it from above. *)
  let producers_done st =
    Atomic.get st.stop && Atomic.get st.producers_running = 0

  let finished st ~pending () =
    if producers_done st && pending () = 0 then
      Atomic.set st.drained true;
    Atomic.get st.drained

  (* --- entry point --- *)

  let null_push ~tid:_ ~ns:_ _ = ()
  let null_pop ~tid:_ ~ns:_ _ = ()

  (* Run the service.  [driver] executes on the calling domain while
     traffic flows — E24 uses it to fire crash/stall/chaos storms
     mid-soak — and its return asks the producers to stop; the run
     then drains, reconciles and joins.  Default driver: sleep
     [duration] seconds. *)
  let run ?(config = default) ?watchdog
      ?(on_push = null_push) ?(on_pop = null_pop)
      ?driver ~duration () =
    validate config;
    if duration < 0. then invalid_arg "Shard_service.run: duration < 0";
    let service =
      S.create ~full:config.full ~steal_batch:config.steal_batch
        ~shards:config.shards ~capacity:config.capacity ()
    in
    let st =
      {
        service;
        cfg = config;
        base = Dcas.Padding.make_atomic 0;
        stop = Dcas.Padding.make_atomic false;
        producers_running = Dcas.Padding.make_atomic config.producers;
        drained = Dcas.Padding.make_atomic false;
        wd = watchdog;
        budget_ns =
          (match config.deadline with
          | None -> max_int
          | Some b -> Dcas.Clock.of_seconds b);
      }
    in
    let wss =
      List.init (config.producers + config.consumers) (fun slot ->
          make_wstate config ~slot)
    in
    Option.iter Harness.Watchdog.start watchdog;
    let t0 = Dcas.Clock.now_ns () in
    let m =
      Supervisor.monitor config.sup ~pending:st.base
        ~executed:(fun ws -> ws.executed_w)
        ~spawned:(fun ws -> ws.spawned_w)
        ~may_reconcile:(fun () -> producers_done st)
        ~replace:(replace st ~on_push ~on_pop)
        (List.map (fun ws -> (ws.w, ws)) wss)
    in
    let initial =
      List.map (fun ws -> Domain.spawn (body st ws ~on_push ~on_pop)) wss
    in
    let sup =
      Domain.spawn (fun () ->
          Supervisor.run m
            ~finished:(finished st ~pending:(fun () -> Supervisor.pending m)))
    in
    (match driver with
    | Some f -> f ()
    | None -> Unix.sleepf duration);
    Atomic.set st.stop true;
    List.iter Domain.join initial;
    let t = Domain.join sup in
    Option.iter (fun w -> ignore (Harness.Watchdog.stop w)) watchdog;
    let elapsed = float (Dcas.Clock.now_ns () - t0) *. 1e-9 in
    (* survivors must decide every descriptor a dead domain left
       undecided before the quiescent drain reads past them *)
    let orphans_helped = Dcas.Mem_lockfree.help_orphans () in
    let leftover = List.length (S.drain service) in
    let states = Supervisor.states m in
    let sum field = Supervisor.total field states in
    let stats = S.stats service in
    {
      spawned = sum (fun ws -> ws.spawned_w);
      executed = sum (fun ws -> ws.executed_w);
      reconciled = t.reconciled;
      shed_admission = sum (fun ws -> ws.shed_adm_w);
      shed_expired = sum (fun ws -> ws.shed_exp_w);
      leftover;
      pushed_ok = sum (fun ws -> ws.ok_w);
      push_full = sum (fun ws -> ws.full_w);
      timeouts = sum (fun ws -> ws.timeout_w);
      empty_scans = sum (fun ws -> ws.w.scans);
      overshoot_max_ns =
        List.fold_left (fun m ws -> max m (Atomic.get ws.late_ns_w)) 0 states;
      killed = t.killed;
      presumed_dead = t.presumed_dead;
      zombies_fenced = t.zombies_fenced;
      replacements = t.replacements;
      (* every consumer state beyond the initial ones is an adoption *)
      adoptions =
        List.length (List.filter (fun ws -> ws.role = `Consumer) states)
        - config.consumers;
      adopted_items = t.adopted;
      orphans_helped;
      recoveries = t.recoveries;
      per_shard_pushed = stats.Deque.Sharded.per_shard_pushed;
      per_shard_popped = stats.Deque.Sharded.per_shard_popped;
      elapsed;
    }
end

module Array_service = Make (Deque.Array_deque.Lockfree)
module List_service = Make (Deque.List_deque.Lockfree)
