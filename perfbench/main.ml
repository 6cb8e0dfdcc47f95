(* The repository's benchmark: four workloads over the DCAS deque stack,
   end-to-end metrics from the stock modules and per-layer metrics from
   the same workloads instantiated over the timing wrappers of
   [Layers].  README.md in this directory explains the workloads, the
   metrics and how to run them; run.py is the entry point that builds
   this program and measures set-up time. *)

module Sm = Harness.Splitmix
module Ss = Worksteal.Shard_service

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ---------- bookkeeping ---------- *)

(* Correctness gates: any violation fails the run. *)
let violations = ref []
let gate ok msg = if not ok then violations := msg :: !violations

(* Start of the first timed window, for the set-up time run.py reports. *)
let ready_ns = ref 0

let window_start () =
  let t = Clock.now_ns () in
  if !ready_ns = 0 then ready_ns := t;
  t

(* What one mode (stock or traced) of a workload measured, summed over
   its rounds.  [units] are deque operations, requests attempted or
   tasks spawned; [served] those that completed. *)
type acc = {
  mutable units : int;
  mutable served : int;
  mutable failed : int;
  mutable rates : float list;  (** per-round units per second *)
  mutable window_ns : int;
  soj : Stats.hist;
  dcas : int array;
  mutable minor : float;
  mutable promoted : float;
  mutable minor_coll : int;
  mutable major_coll : int;
  mutable heap_words : int list;  (** peak major heap of each round *)
  (* service workloads *)
  push_h : Stats.hist;
  pop_h : Stats.hist;
  wait_h : Stats.hist;
  lag_h : Stats.hist;
  mutable empty_scans : int;
  mutable drain_s : float list;
  mutable false_recoveries : int;
  mutable imbalance : float list;
  mutable p50s : float list;
  mutable p99s : float list;
      (** sojourn percentiles of each round, or on the paced service of
          each window of intended arrivals *)
}

let new_acc () =
  {
    units = 0;
    served = 0;
    failed = 0;
    rates = [];
    window_ns = 0;
    soj = Stats.hist ();
    dcas = Array.make Dcas.Memory_intf.stats_fields 0;
    minor = 0.;
    promoted = 0.;
    minor_coll = 0;
    major_coll = 0;
    heap_words = [];
    push_h = Stats.hist ();
    pop_h = Stats.hist ();
    wait_h = Stats.hist ();
    lag_h = Stats.hist ();
    empty_scans = 0;
    drain_s = [];
    false_recoveries = 0;
    imbalance = [];
    p50s = [];
    p99s = [];
  }

let dcas_counts () = Dcas.Memory_intf.to_counts (Dcas.Mem_lockfree.stats ())

(* Run one round, charging its substrate counters and GC activity to
   [acc].  Every domain a round starts has joined when it returns, and
   [Gc.quick_stat] sums the counters of joined domains.  Each round
   starts from a compacted heap, after which the runtime's
   [top_heap_words] is the peak of that round alone, so the peak
   does not depend on where major cycles fell in earlier rounds. *)
let measured acc round =
  Gc.compact ();
  let d0 = dcas_counts () and g0 = Gc.quick_stat () in
  round ();
  let d1 = dcas_counts () and g1 = Gc.quick_stat () in
  Array.iteri (fun i x -> acc.dcas.(i) <- acc.dcas.(i) + x - d0.(i)) d1;
  acc.minor <- acc.minor +. g1.minor_words -. g0.minor_words;
  acc.promoted <- acc.promoted +. g1.promoted_words -. g0.promoted_words;
  acc.minor_coll <- acc.minor_coll + g1.minor_collections - g0.minor_collections;
  acc.major_coll <- acc.major_coll + g1.major_collections - g0.major_collections;
  acc.heap_words <- g1.top_heap_words :: acc.heap_words

let add_round acc ~units ~served ~failed ~window_ns =
  acc.units <- acc.units + units;
  acc.served <- acc.served + served;
  acc.failed <- acc.failed + failed;
  acc.window_ns <- acc.window_ns + window_ns;
  acc.rates <- (float served *. 1e9 /. float (max 1 window_ns)) :: acc.rates

(* One round's sojourns, [failures] of its requests
   counting as +infinity. *)
let add_sojourns acc h ~failures =
  acc.p50s <- Stats.quantile ~failures h 0.5 :: acc.p50s;
  acc.p99s <- Stats.quantile ~failures h 0.99 :: acc.p99s;
  Stats.merge_into acc.soj h

(* Repeat rounds for [seconds]; in a traced run, alternate stock and
   traced rounds so both see the same machine conditions. *)
let repeat ~seconds ~trace round =
  let stop = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i =
    round ~traced:(trace && i land 1 = 1) i;
    if Clock.now_ns () < stop || (trace && i < 1) then go (i + 1)
  in
  go 0

(* ---------- deque-2end ---------- *)

module Two_end (D : Deque.Deque_intf.S) = struct
  type tally = {
    pushed : int;
    popped : int;
    sum_in : int;
    sum_out : int;
    full : int;
    t_end : int;
  }

  let prefill = 64

  (* Domain 0 works the right end, domain 1 the left; each flips a
     seeded coin between push and pop.  One op in 16 is timed for the
     latency percentiles (two clock reads, about 1% of an op). *)
  let worker d ~id ~ops ~rng ~hist ~traced ~ready ~go () =
    let pushed = ref 0 and popped = ref 0 and sum_in = ref 0
    and sum_out = ref 0 and full = ref 0 in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Unix.sleepf 20e-6
    done;
    for i = 0 to ops - 1 do
      if traced then Spans.set_req (Spans.get ()) ((id lsl 32) lor i);
      let timed = i land 15 = 0 in
      let t0 = if timed then Clock.now_ns () else 0 in
      (if Sm.bool rng then begin
         let v = ((id + 1) lsl 32) lor i in
         match if id = 0 then D.push_right d v else D.push_left d v with
         | `Okay ->
             incr pushed;
             sum_in := !sum_in + v
         | `Full -> incr full
       end
       else
         match if id = 0 then D.pop_right d else D.pop_left d with
         | `Value v ->
             incr popped;
             sum_out := !sum_out + v
         | `Empty -> ());
      if timed then Stats.add hist (Clock.now_ns () - t0)
    done;
    {
      pushed = !pushed;
      popped = !popped;
      sum_in = !sum_in;
      sum_out = !sum_out;
      full = !full;
      t_end = Clock.now_ns ();
    }

  let round acc ~traced ~seed ~ops i = measured acc @@ fun () ->
    let d = D.create ~capacity:1 () in
    for v = 1 to prefill do
      ignore (D.push_right d v)
    done;
    let ready = Atomic.make 0 and go = Atomic.make false in
    let hists = [| Stats.hist (); Stats.hist () |] in
    let spawn id =
      let rng = Sm.create ~seed:((seed * 1_000_003) + (i * 2) + id) in
      Domain.spawn
        (worker d ~id ~ops ~rng ~hist:hists.(id) ~traced ~ready ~go)
    in
    let ds = [ spawn 0; spawn 1 ] in
    (* Nobody spins before the window opens: three spinning domains on
       2 vCPUs leave the last one to start waiting for a scheduler tick,
       which made set-up time bimodal (4 ms apart). *)
    while Atomic.get ready < 2 do
      Unix.sleepf 20e-6
    done;
    let t_start = window_start () in
    Atomic.set go true;
    let ts = List.map Domain.join ds in
    let t_end = List.fold_left (fun m t -> max m t.t_end) 0 ts in
    let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
    let drain pop =
      let rec go n total =
        match pop d with `Value v -> go (n + 1) (total + v) | `Empty -> (n, total)
      in
      go 0 0
    in
    (* the left drain must empty the deque; the right one only checks *)
    let drained, sum_drained = drain D.pop_left in
    let stranded, sum_stranded = drain D.pop_right in
    let pushed = sum (fun t -> t.pushed) and popped = sum (fun t -> t.popped) in
    gate (stranded = 0)
      (Printf.sprintf "deque-2end: pop_left said empty with %d items left" stranded);
    gate
      (prefill + pushed = popped + drained + stranded)
      (Printf.sprintf "deque-2end: prefill %d + pushed %d <> popped %d + drained %d"
         prefill pushed popped (drained + stranded));
    (* a value is ((domain + 1) lsl 32) lor op index, or 1..prefill *)
    let missing =
      (prefill * (prefill + 1) / 2)
      + sum (fun t -> t.sum_in)
      - sum (fun t -> t.sum_out)
      - sum_drained - sum_stranded
    in
    let lost = prefill + pushed - popped - drained - stranded in
    gate (missing = 0)
      (if lost = 1 && missing > prefill then
         Printf.sprintf "deque-2end: the lost value is domain %d's op %d"
           ((missing asr 32) - 1) (missing land 0xFFFF_FFFF)
       else
         Printf.sprintf "deque-2end: values out differ from values in by %d"
           missing);
    let full = sum (fun t -> t.full) in
    add_round acc ~units:(2 * ops) ~served:((2 * ops) - full) ~failed:full
      ~window_ns:(t_end - t_start);
    add_sojourns acc (Stats.merged (Array.to_list hists)) ~failures:full
end

module Two_end_stock = Two_end (Deque.List_deque.Lockfree)
module Two_end_traced = Two_end (Layers.List_deque)

(* ---------- service-paced and service-flood ---------- *)

let service_config ~seed ~paced =
  {
    Ss.default with
    shards = 4;
    producers = 1;
    consumers = 1;
    capacity = 1024;
    full = Deque.Policy.Spill;
    rate = (if paced then 50_000. else 0.);
    burst = 1;
    urgent_share = 0.1;
    deadline = (if paced then Some 0.05 else None);
    admission = paced;
    seed;
  }

type service_run =
  on_push:(tid:int -> ns:float -> Deque.Policy.push_outcome -> unit) ->
  on_pop:(tid:int -> ns:float -> int Deque.Policy.pop_outcome -> unit) ->
  driver:(unit -> unit) ->
  config:Ss.config ->
  Ss.report

let stock_service : service_run =
 fun ~on_push ~on_pop ~driver ~config ->
  Ss.Array_service.run ~config ~on_push ~on_pop ~driver ~duration:0. ()

let traced_service : service_run =
 fun ~on_push ~on_pop ~driver ~config ->
  Layers.Service.run ~config ~on_push ~on_pop ~driver ~duration:0. ()

(* A service call is a span whose interval the service reports only
   after the call returned ([ns] is its duration). *)
let claim_service kind ~req ~now ~ns =
  let t = Spans.get () in
  Spans.set_req t req;
  Spans.claim t kind ~start:(now - ns) ~stop:now

let check_report name (r : Ss.report) =
  gate (Ss.conserved r)
    (Format.asprintf "%s: service not conserved: %a" name Ss.pp_report r);
  gate (r.leftover = 0) (Printf.sprintf "%s: leftover %d" name r.leftover);
  let false_recoveries = r.replacements + r.presumed_dead + r.zombies_fenced in
  gate (false_recoveries = 0)
    (Printf.sprintf "%s: %d false recoveries in a fault-free run" name
       false_recoveries);
  gate (r.killed = 0) (Printf.sprintf "%s: %d workers killed" name r.killed);
  false_recoveries

let finish_service acc (r : Ss.report) ~injection_end ~false_recoveries =
  let failed = Ss.shed r + r.push_full in
  acc.empty_scans <- acc.empty_scans + r.empty_scans;
  acc.drain_s <- (float (Clock.now_ns () - injection_end) /. 1e9) :: acc.drain_s;
  acc.false_recoveries <- acc.false_recoveries + false_recoveries;
  acc.imbalance <-
    (Harness.Metrics.Starvation.of_counts r.per_shard_pushed).imbalance
    :: acc.imbalance;
  add_round acc ~units:(r.spawned + r.push_full) ~served:r.executed ~failed
    ~window_ns:(int_of_float (r.elapsed *. 1e9))

(* Per-request stamps, outside the OCaml heap so that they do not count
   in [heap_peak_mb]; 0 = not stamped. *)
let stamps n =
  let a = Bigarray.(Array1.create int c_layout n) in
  Bigarray.Array1.fill a 0;
  a

(* Open loop at 50k requests/s.  Sojourn runs from the request's
   intended arrival (Stats.intended_arrival_ns) to the end of [on_pop].
   The producer never sends early, so the schedule's origin [t0] is the
   earliest [push_start v - v / rate] over all requests: the start of
   the first push when that push was on time, and earlier when the
   producer domain started late and then caught up.  Sojourns are
   therefore computed after each round.  Queue wait, from the
   end of the push to the start of the pop, is sampled on one request
   in 16. *)
let paced_round_s = 2.

let paced acc ~run ~traced ~seed ~seconds ~probe =
  let config = service_config ~seed ~paced:true in
  let rate = config.rate in
  let len = int_of_float (rate *. (seconds +. 5.)) + 16 in
  let push_start = stamps len and pop_end = stamps len in
  let push_end = stamps ((len / 16) + 1) in
  let pushes = Atomic.make 0 in
  let on_push ~tid:_ ~ns out =
    let now = Clock.now_ns () and ns = int_of_float ns in
    let k = Atomic.fetch_and_add pushes 1 in
    if k = 0 && !ready_ns = 0 then ready_ns := now - ns;
    Stats.add acc.push_h ns;
    if k < len then begin
      push_start.{k} <- now - ns;
      match out with
      | `Okay -> if k land 15 = 0 then push_end.{k / 16} <- now
      | `Full | `Timeout -> pop_end.{k} <- -1
    end;
    if traced then claim_service Spans.service_push ~req:k ~now ~ns
  in
  let on_pop ~tid:_ ~ns out =
    let now = Clock.now_ns () and ns = int_of_float ns in
    match out with
    | `Value v ->
        Stats.add acc.pop_h ns;
        if v < len then begin
          pop_end.{v} <- now;
          if v land 15 = 0 then
            let pe = push_end.{v / 16} in
            if pe > 0 then Stats.add acc.wait_h (now - ns - pe)
        end;
        if traced then claim_service Spans.service_pop ~req:v ~now ~ns
    | `Empty | `Timeout ->
        if traced then claim_service Spans.service_pop ~req:(-1) ~now ~ns
  in
  let injection_end = ref 0 in
  let driver () =
    if probe then
      while Atomic.get pushes = 0 do
        Unix.sleepf 0.0001
      done
    else Unix.sleepf seconds;
    injection_end := Clock.now_ns ()
  in
  measured acc (fun () ->
      let r = run ~on_push ~on_pop ~driver ~config in
      let false_recoveries = check_report "service-paced" r in
      let n = min len (Atomic.get pushes) in
      let t0 = Stats.schedule_origin_ns ~rate ~n (fun v -> push_start.{v}) in
      (* refused, timed out, or shed at dequeue: never popped *)
      let h = Stats.hist () and failed = ref 0 in
      for v = 0 to n - 1 do
        let due = Stats.intended_arrival_ns ~t0 ~rate v in
        Stats.add acc.lag_h (push_start.{v} - due);
        if pop_end.{v} > 0 then Stats.add h (pop_end.{v} - due) else incr failed
      done;
      add_sojourns acc h ~failures:!failed;
      finish_service acc r ~injection_end:!injection_end ~false_recoveries)

(* Closed loop: the producer injects [n] requests as fast as the
   service absorbs them, then the service drains.  A request's latency
   here is its service time, its push call plus its pop call, each
   timed from the return of the same domain's previous call (the
   service's own [ns] has microsecond resolution): its
   queue wait is set by where it lands — a request that finds its
   shard full is spilled to the overflow list and served during the
   drain, hundreds of milliseconds later — and with 40-45% of a round
   spilled, a median over push-to-pop times would sit on that cliff and
   move by 1000x between rounds.  The wait is reported per layer as
   [service.wait_p50_us].  The four stamps per request are joined after
   the run, since a consumer can serve a request before the producer's
   [on_push] for it has run. *)
let flood_n = 100_000

let flood acc ~run ~traced ~seed ~probe i =
  let config = service_config ~seed:(seed + (i * 7919)) ~paced:false in
  let n = if probe then 1 else flood_n in
  let len = n + 65_536 in
  let push_start = stamps len and push_end = stamps len in
  let pop_start = stamps len and pop_end = stamps len in
  let pushes = Atomic.make 0 and last_push = ref 0 and last_pop = ref 0 in
  (* A call's interval, on the monotonic clock: it began when the
     domain's previous call returned, or [ns] ago for its first. *)
  let cycle last ~now ~ns =
    let c = if !last = 0 then ns else now - !last in
    last := now;
    c
  in
  let on_push ~tid:_ ~ns out =
    let now = Clock.now_ns () and ns = int_of_float ns in
    let k = Atomic.fetch_and_add pushes 1 in
    if k = 0 && !ready_ns = 0 then ready_ns := now - ns;
    Stats.add acc.push_h ns;
    let c = cycle last_push ~now ~ns in
    (match out with
    | `Okay when k < len ->
        push_start.{k} <- now - c;
        push_end.{k} <- now
    | _ -> ());
    if traced then claim_service Spans.service_push ~req:k ~now ~ns
  in
  let on_pop ~tid:_ ~ns out =
    let now = Clock.now_ns () and ns = int_of_float ns in
    let c = cycle last_pop ~now ~ns in
    match out with
    | `Value v ->
        Stats.add acc.pop_h ns;
        if v < len then begin
          pop_start.{v} <- now - c;
          pop_end.{v} <- now
        end;
        if traced then claim_service Spans.service_pop ~req:v ~now ~ns
    | `Empty | `Timeout ->
        if traced then claim_service Spans.service_pop ~req:(-1) ~now ~ns
  in
  let injection_end = ref 0 in
  let driver () =
    while Atomic.get pushes < n do
      Unix.sleepf 0.0002
    done;
    injection_end := Clock.now_ns ()
  in
  measured acc (fun () ->
      let r = run ~on_push ~on_pop ~driver ~config in
      let false_recoveries = check_report "service-flood" r in
      let h = Stats.hist () in
      for v = 0 to min len (Atomic.get pushes) - 1 do
        if pop_end.{v} > 0 then begin
          Stats.add h (push_end.{v} - push_start.{v} + pop_end.{v} - pop_start.{v});
          Stats.add acc.wait_h (pop_start.{v} - push_end.{v})
        end
      done;
      add_sojourns acc h ~failures:(Ss.shed r + r.push_full);
      finish_service acc r ~injection_end:!injection_end ~false_recoveries)

(* ---------- worksteal-fib ---------- *)

let rec seq_fib n = if n < 2 then n else seq_fib (n - 1) + seq_fib (n - 2)
let fib_n = 27
let fib_cutoff = 2
let workers = 2

module Fib (S : Worksteal.Worksteal_intf.SCHEDULER) = struct
  (* The naive spawn tree of Worksteal.Workloads.fib, with one spawn in
     16 per worker timed from spawn to the end of the task's body (its
     sojourn), and in the traced run each body a "task" span. *)
  let round acc ~traced ~seed ~probe i =
    let n = if probe then 2 else fib_n in
    let result = Atomic.make 0 in
    let spawned = Array.make (workers * 8) 0 in
    let hists = Array.init workers (fun _ -> Stats.hist ()) in
    let rec body n ctx =
      if n < fib_cutoff then ignore (Atomic.fetch_and_add result (seq_fib n))
      else begin
        spawn ctx (n - 1);
        spawn ctx (n - 2)
      end
    and task n ctx =
      if traced then begin
        let t = Spans.get () in
        let w = S.worker ctx in
        Spans.set_req t ((w lsl 32) lor spawned.(w * 8));
        Spans.enter t Spans.task;
        body n ctx;
        Spans.leave t
      end
      else body n ctx
    and spawn ctx n =
      let w = S.worker ctx * 8 in
      let c = spawned.(w) in
      spawned.(w) <- c + 1;
      if c land 15 = 0 then begin
        let t0 = Clock.now_ns () in
        S.spawn ctx (fun ctx ->
            task n ctx;
            Stats.add hists.(S.worker ctx) (Clock.now_ns () - t0))
      end
      else S.spawn ctx (task n)
    in
    measured acc (fun () ->
        let t_start = window_start () in
        let r =
          S.run_supervised ~seed:(seed + (i * 7919)) ~workers ~capacity:1024
            (task n)
        in
        let t_end = Clock.now_ns () in
        gate (Atomic.get result = seq_fib n)
          (Printf.sprintf "worksteal-fib: fib %d = %d, expected %d" n
             (Atomic.get result) (seq_fib n));
        gate
          (Worksteal.Supervisor.conserved r)
          (Format.asprintf "worksteal-fib: not conserved: %a"
             Worksteal.Supervisor.pp_report r);
        let false_recoveries = r.replacements + r.presumed_dead + r.killed in
        gate (false_recoveries = 0)
          (Printf.sprintf "worksteal-fib: %d false recoveries" false_recoveries);
        acc.false_recoveries <- acc.false_recoveries + false_recoveries;
        add_round acc ~units:r.spawned ~served:r.executed
          ~failed:(r.spawned - r.executed) ~window_ns:(t_end - t_start);
        add_sojourns acc
          (Stats.merged (Array.to_list hists))
          ~failures:(r.spawned - r.executed))
end

module Fib_stock = Fib (Worksteal.Scheduler.Array_scheduler)
module Fib_traced = Fib (Layers.Scheduler)

(* ---------- metrics ---------- *)

let us ns = ns /. 1e3
let ratio a b = if b = 0 then 0. else float a /. float b

let end_to_end acc =
  [
    ("throughput_per_s", "1/s", Stats.median acc.rates);
    ("sojourn_p50_us", "us", us (Stats.median acc.p50s));
    ("ok_frac", "ratio", ratio acc.served acc.units);
    ("minor_words_per_op", "words", acc.minor /. float (max 1 acc.units));
    ( "heap_peak_mb",
      "MB",
      Stats.median (List.map float acc.heap_words)
      *. float (Sys.word_size / 8)
      /. 1048576. );
  ]

(* Per-op time of a mode, for the tracing overhead: the inverse of its
   throughput, or on the paced service (whose throughput is the offered
   rate) the mean service time of a served request. *)
let per_op_ns ~paced acc =
  if paced then Stats.mean acc.push_h +. Stats.mean acc.pop_h
  else 1e9 /. Stats.median acc.rates

let per_layer ~workload ~(stock : acc) ~(traced : acc) =
  let service = workload = "service-paced" || workload = "service-flood" in
  let fib = workload = "worksteal-fib" in
  let d i = stock.dcas.(i) in
  let ops = traced.units in
  let q h p = Stats.quantile h p in
  let push_k, pop_k, deque_ks =
    if fib then Spans.(ws_push, ws_pop, [ ws_push; ws_pop; ws_steal ])
    else Spans.(deque_push, deque_pop, [ deque_push; deque_pop ])
  in
  let sum_k f = List.fold_left (fun a k -> a + f k) 0 deque_ks in
  let deque_calls = sum_k Spans.calls in
  let deque_words = List.fold_left (fun a k -> a +. Spans.words k) 0. deque_ks in
  let service_self = Spans.self_ns Spans.service_push + Spans.self_ns Spans.service_pop in
  let busy_ns = workers * traced.window_ns in
  let if_ c x = if c then x else 0. in
  (* share of the traced per-op time the spans account for *)
  let accounted =
    if workload = "service-paced" then
      (Stats.mean traced.lag_h +. Stats.mean traced.push_h
      +. Stats.mean traced.wait_h +. Stats.mean traced.pop_h)
      /. Stats.mean traced.soj
    else if service then
      float (Spans.total_ns Spans.service_push + Spans.total_ns Spans.service_pop)
      /. float busy_ns
    else float (Spans.root_ns ()) /. float busy_ns
  in
  let paced = workload = "service-paced" in
  [
    ("dcas.attempts_per_op", "count", ratio (d 2) stock.units);
    ("dcas.success_ratio", "ratio", ratio (d 3) (d 2));
    ("dcas.fastfails_per_op", "count", ratio (d 4) stock.units);
    ("dcas.descriptors_per_op", "count", ratio (d 9) stock.units);
    ("dcas.value_allocs_per_op", "count", ratio (d 10) stock.units);
    ("dcas.self_ns_per_op", "ns", ratio (Spans.self_ns Spans.dcas) ops);
    ("deque.calls_per_op", "count", ratio deque_calls ops);
    ("deque.empty_pop_ratio", "ratio", ratio (Spans.misses pop_k) (Spans.calls pop_k));
    ("deque.push_ns_p50", "ns", q (Spans.lat push_k) 0.5);
    ("deque.push_ns_p99", "ns", q (Spans.lat push_k) 0.99);
    ("deque.pop_ns_p50", "ns", q (Spans.lat pop_k) 0.5);
    ("deque.pop_ns_p99", "ns", q (Spans.lat pop_k) 0.99);
    ("deque.self_ns_per_op", "ns", ratio (sum_k Spans.self_ns) ops);
    ("deque.words_per_call", "words", deque_words /. float (max 1 deque_calls));
    ("sharded.deque_calls_per_served", "count", if_ service (ratio deque_calls traced.served));
    ( "sharded.useful_pop_ratio",
      "ratio",
      if_ service
        (1. -. ratio (Spans.misses Spans.deque_pop) (Spans.calls Spans.deque_pop)) );
    ("sharded.imbalance", "ratio", if_ service (Stats.median stock.imbalance));
    ("sharded.self_ns_per_served", "ns", if_ service (ratio service_self traced.served));
    ("service.push_ns_p50", "ns", if_ service (q stock.push_h 0.5));
    ("service.push_ns_p99", "ns", if_ service (q stock.push_h 0.99));
    ("service.pop_ns_p50", "ns", if_ service (q stock.pop_h 0.5));
    ("service.pop_ns_p99", "ns", if_ service (q stock.pop_h 0.99));
    ("service.wait_p50_us", "us", if_ service (us (q stock.wait_h 0.5)));
    ("service.sojourn_p99_us", "us", if_ service (us (Stats.median stock.p99s)));
    ("service.gen_lag_p99_us", "us", if_ paced (us (q stock.lag_h 0.99)));
    ("service.empty_scans_per_served", "count", if_ service (ratio stock.empty_scans stock.served));
    ("service.drain_s", "s", if_ service (Stats.median stock.drain_s));
    ("service.false_recoveries", "count", float stock.false_recoveries);
    ("scheduler.steal_attempts_per_task", "count", if_ fib (ratio (Spans.calls Spans.ws_steal) ops));
    ( "scheduler.steal_success_ratio",
      "ratio",
      if_ fib (1. -. ratio (Spans.misses Spans.ws_steal) (Spans.calls Spans.ws_steal)) );
    ("scheduler.push_full_ratio", "ratio", if_ fib (ratio (Spans.misses Spans.ws_push) (Spans.calls Spans.ws_push)));
    ("scheduler.owner_pop_ns_p50", "ns", if_ fib (q (Spans.lat Spans.ws_pop) 0.5));
    ("scheduler.steal_ns_p50", "ns", if_ fib (q (Spans.lat Spans.ws_steal) 0.5));
    ("scheduler.self_ns_per_task", "ns", if_ fib (ratio (busy_ns - Spans.root_ns ()) ops));
    ("gc.minor_collections_per_kop", "count", float stock.minor_coll *. 1000. /. float (max 1 stock.units));
    ("gc.major_collections", "count", float stock.major_coll);
    ("gc.promoted_words_per_op", "words", stock.promoted /. float (max 1 stock.units));
    ("trace.overhead_ratio", "ratio", per_op_ns ~paced traced /. per_op_ns ~paced stock);
    ("trace.accounted_ratio", "ratio", accounted);
  ]

(* ---------- report ---------- *)

let describe_timing name (h : Stats.hist) ~failures =
  let n = Stats.count h + failures in
  match Stats.tail_q n with
  | None -> say "%s: %d samples, too few to rank" name n
  | Some q ->
      say "%s: p50 %.2f us, p%g %.2f us (%d samples, %d failed counted as +inf)"
        name
        (us (Stats.quantile ~failures h 0.5))
        (q *. 100.)
        (us (Stats.quantile ~failures h q))
        n failures

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_nan x then "NaN"
  else if x = infinity then "Infinity"
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit_, v) -> say "  %-34s %14.6g %s" name v unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
             unit_)
         metrics)
  in
  say
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"ready_ns\": %d, \
     \"metrics\": {%s}}"
    correct attempted failed !ready_ns body

(* ---------- main ---------- *)

let workloads = [ "deque-2end"; "service-paced"; "service-flood"; "worksteal-fib" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and probe = ref false and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics from a traced run");
      ("--setup-only", Arg.Set probe, " stop at the start of the timed window");
      ("--spans-out", Arg.Set_string spans_out, " CSV file for the recorded spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed and trace = !trace = 1 in
  if not (List.mem workload workloads) then begin
    prerr_endline ("unknown workload: " ^ workload);
    exit 2
  end;
  let seconds = if !probe then 0. else !seconds in
  let probe = !probe in
  say "workload %s, seed %d, %.1f s, %s" workload seed seconds
    (if trace then "traced" else "untraced");
  let stock = new_acc () and traced = new_acc () in
  let pick t = if t then traced else stock in
  (match workload with
  | "deque-2end" ->
      let ops = if probe then 1 else 200_000 in
      repeat ~seconds ~trace (fun ~traced:t i ->
          if t then Two_end_traced.round traced ~traced:t ~seed ~ops i
          else Two_end_stock.round stock ~traced:t ~seed ~ops i)
  | "service-paced" ->
      repeat ~seconds ~trace (fun ~traced:t i ->
          let run = if t then traced_service else stock_service in
          paced (pick t) ~run ~traced:t ~seed:(seed + (i * 7919))
            ~seconds:(if probe then 0. else paced_round_s)
            ~probe)
  | "service-flood" ->
      repeat ~seconds ~trace (fun ~traced:t i ->
          let run = if t then traced_service else stock_service in
          flood (pick t) ~run ~traced:t ~seed ~probe i)
  | _ ->
      repeat ~seconds ~trace (fun ~traced:t i ->
          if t then Fib_traced.round traced ~traced:t ~seed ~probe i
          else Fib_stock.round stock ~traced:t ~seed ~probe i));
  if probe then begin
    say "ready_ns=%d" !ready_ns;
    exit 0
  end;
  let fails = stock.units - stock.served in
  say "failed_frac: %d failed of %d attempted (%s)" fails stock.units
    (if stock.units = 0 then "n/a" else Printf.sprintf "%.6f" (ratio fails stock.units));
  describe_timing "sojourn" stock.soj ~failures:fails;
  say "sojourn p50 and p99 (us) of each round: %s"
    (String.concat " "
       (List.rev_map2 (fun a b -> Printf.sprintf "%.1f/%.0f" (us a) (us b))
          stock.p50s stock.p99s));
  if stock.lag_h.n > 0 then describe_timing "generator lag" stock.lag_h ~failures:0;
  say "rounds: %d stock%s" (List.length stock.rates)
    (if trace then Printf.sprintf ", %d traced" (List.length traced.rates) else "");
  let metrics =
    if trace then begin
      if !spans_out <> "" then Spans.write_csv !spans_out;
      per_layer ~workload ~stock ~traced
    end
    else end_to_end stock
  in
  List.iter (fun v -> say "VIOLATION: %s" v) (List.rev !violations);
  let correct = !violations = [] in
  print_result ~correct ~attempted:(stock.units + traced.units)
    ~failed:(stock.failed + traced.failed) metrics;
  exit (if correct then 0 else 1)
