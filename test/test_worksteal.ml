(* Tests for the work-stealing scheduler over every deque adapter: the
   computed results certify that no task is lost or duplicated, across
   worker counts and workloads (experiment E8's correctness side). *)

let rec seq_fib n = if n < 2 then n else seq_fib (n - 1) + seq_fib (n - 2)

let schedulers : (string * (module Worksteal.Worksteal_intf.SCHEDULER)) list =
  [
    ("abp", (module Worksteal.Scheduler.Abp_scheduler));
    ("array-deque", (module Worksteal.Scheduler.Array_scheduler));
    ("list-deque", (module Worksteal.Scheduler.List_scheduler));
    ("lock-deque", (module Worksteal.Scheduler.Lock_scheduler));
  ]

let fib_case name (module S : Worksteal.Worksteal_intf.SCHEDULER) workers n =
  Alcotest.test_case
    (Printf.sprintf "%s: fib %d on %d workers" name n workers)
    `Slow
    (fun () ->
      let module W = Worksteal.Workloads.Make (S) in
      let got = W.fib ~workers ~capacity:8192 n in
      Alcotest.(check int) "fib result" (seq_fib n) got)

let tree_case name (module S : Worksteal.Worksteal_intf.SCHEDULER) workers
    degree depth =
  Alcotest.test_case
    (Printf.sprintf "%s: %d^%d tree on %d workers" name degree depth workers)
    `Slow
    (fun () ->
      let module W = Worksteal.Workloads.Make (S) in
      let got = W.tree ~workers ~capacity:8192 ~degree ~depth () in
      let expect = int_of_float (float_of_int degree ** float_of_int depth) in
      Alcotest.(check int) "leaf count" expect got)

let fib_tests =
  List.concat_map
    (fun (name, s) -> [ fib_case name s 1 18; fib_case name s 4 20 ])
    schedulers

let tree_tests =
  List.concat_map
    (fun (name, s) -> [ tree_case name s 3 3 7; tree_case name s 2 5 5 ])
    schedulers

(* Tiny deques force the spawn-inline fallback path. *)
let inline_fallback_tests =
  List.map
    (fun (name, (module S : Worksteal.Worksteal_intf.SCHEDULER)) ->
      Alcotest.test_case (name ^ ": capacity-2 inline fallback") `Slow
        (fun () ->
          let module W = Worksteal.Workloads.Make (S) in
          let got = W.tree ~workers:3 ~capacity:2 ~degree:2 ~depth:8 () in
          Alcotest.(check int) "leaf count despite tiny deques" 256 got))
    schedulers

(* --- steal_batch: the deque-level contract and the scheduler knob --- *)

(* Every adapter must steal oldest-first, take at most [max] tasks, and
   leave the remainder for the owner — whether the batch commits in one
   CASN (array deque) or one steal at a time (ABP, Restrict). *)
let steal_batch_adapters :
    (string * (module Worksteal.Worksteal_intf.WORKSTEAL_DEQUE)) list =
  [
    ("abp", (module Worksteal.Scheduler.Abp_adapter));
    ("array-deque", (module Worksteal.Scheduler.Array_deque_adapter));
  ]

let steal_batch_semantics_tests =
  List.map
    (fun (name, (module D : Worksteal.Worksteal_intf.WORKSTEAL_DEQUE)) ->
      Alcotest.test_case (name ^ ": steal_batch contract") `Quick (fun () ->
          let d = D.create ~capacity:32 () in
          for v = 1 to 10 do
            Alcotest.(check bool) "push" true (D.push d v)
          done;
          Alcotest.(check (list int)) "max 0 steals nothing" [] (D.steal_batch d ~max:0);
          Alcotest.(check (list int))
            "oldest four, oldest first" [ 1; 2; 3; 4 ]
            (D.steal_batch d ~max:4);
          Alcotest.(check (list int))
            "truncated at empty" [ 5; 6; 7; 8; 9; 10 ]
            (D.steal_batch d ~max:99);
          Alcotest.(check (list int)) "now empty" [] (D.steal_batch d ~max:1);
          (* interleaves with owner pops: owner keeps the newest end *)
          for v = 20 to 25 do
            ignore (D.push d v)
          done;
          Alcotest.(check (option int)) "owner pops newest" (Some 25) (D.pop d);
          Alcotest.(check (list int))
            "thief takes the oldest pair" [ 20; 21 ]
            (D.steal_batch d ~max:2)))
    steal_batch_adapters

(* The scheduler's ~steal_batch knob must not change results, only
   stealing granularity; 0 is rejected. *)
let steal_batch_scheduler_tests =
  let tree_with sb =
    let module S = Worksteal.Scheduler.Array_scheduler in
    let acc = Atomic.make 0 in
    let rec task depth ctx =
      if depth = 0 then Atomic.incr acc
      else
        for _ = 1 to 2 do
          S.spawn ctx (task (depth - 1))
        done
    in
    S.run ?steal_batch:sb ~workers:3 ~capacity:1024 (task 8);
    Atomic.get acc
  in
  [
    Test_support.tiered "steal-one and steal-half agree on the result" `Slow
      (fun () ->
        Alcotest.(check int) "steal_batch=1" 256 (tree_with (Some 1));
        Alcotest.(check int) "steal_batch=32" 256 (tree_with (Some 32));
        Alcotest.(check int) "default" 256 (tree_with None));
    Alcotest.test_case "steal_batch 0 rejected" `Quick (fun () ->
        Alcotest.check_raises "validated"
          (Invalid_argument "Scheduler.run: steal_batch must be >= 1")
          (fun () ->
            Worksteal.Scheduler.Array_scheduler.run ~steal_batch:0 ~workers:1
              ~capacity:8 (fun _ -> ())));
  ]

(* Determinism of the RNG plumbing: same seed, same single-worker
   schedule, same result (trivially), but also repeated multi-worker
   runs must agree on the (deterministic) result value. *)
let repeatability =
  [
    Alcotest.test_case "results stable across runs" `Slow (fun () ->
        let module W = Worksteal.Workloads.Make (Worksteal.Scheduler.Abp_scheduler)
        in
        let a = W.fib ~workers:4 ~capacity:4096 19 in
        let b = W.fib ~workers:4 ~capacity:4096 19 in
        Alcotest.(check int) "same value" a b);
  ]

(* --- The supervision engine, driven by hand ---

   A fake pool: no domains, workers are bare records the test moves by
   hand, a replacement is a fresh record, and the engine's clock reads
   the explicit [now] of the current sweep.  Every detector decision is
   therefore deterministic. *)

module Sup = Worksteal.Supervisor

type fake = {
  m : unit Sup.monitor;
  clock : float ref;
  hires : Sup.worker list ref;  (* replacements, newest first *)
}

let fake ?(silence = 0.) ?(zombie = 0.) workers =
  let clock = ref 0. and hires = ref [] in
  let zero = Atomic.make 0 in
  let replace ~slot () =
    let w = Sup.worker ~progress:(fun () -> 0) ~slot () in
    hires := w :: !hires;
    { Sup.adopted = 0; worker = w; state = (); domain = None }
  in
  let config =
    { Sup.default with silence_after = silence; zombie_after = zombie }
  in
  let m =
    Sup.monitor ~clock:(fun () -> !clock) config ~pending:(Atomic.make 0)
      ~executed:(fun () -> zero)
      ~spawned:(fun () -> zero)
      ~may_reconcile:(fun () -> true)
      ~replace
      (List.map (fun w -> (w, ())) workers)
  in
  { m; clock; hires }

let sweep_at f now =
  f.clock := now;
  Sup.sweep f.m ~now

let fenced (w : Sup.worker) = Atomic.get w.fenced

let test_silent_replaced_once () =
  let victim = Sup.worker ~slot:0 () in
  let f = fake ~silence:0.25 [ victim ] in
  List.iter
    (fun now ->
      (* the replacement's heart keeps beating *)
      List.iter (fun (w : Sup.worker) -> Atomic.incr w.ticks) !(f.hires);
      sweep_at f now;
      Alcotest.(check bool)
        (Printf.sprintf "fenced iff silent past the threshold at %.1f" now)
        (now >= 0.25) (fenced victim))
    [ 0.1; 0.2; 0.3; 0.4; 1.0; 5.0 ];
  let t = Sup.tally f.m in
  Alcotest.(check int) "replaced exactly once" 1 (List.length !(f.hires));
  Alcotest.(check int) "presumed dead" 1 t.presumed_dead;
  Alcotest.(check int) "no zombie" 0 t.zombies_fenced;
  Alcotest.(check int) "one recovery timed" 1 (List.length t.recoveries)

let test_zombie_needs_moving_ticks () =
  let w = Sup.worker ~progress:(fun () -> 0) ~slot:0 () in
  let f = fake ~zombie:0.1 [ w ] in
  Atomic.incr w.ticks;
  sweep_at f 0.05;
  Alcotest.(check bool) "below the threshold" false (fenced w);
  (* past the threshold with frozen ticks: a descheduled worker, not a
     zombie *)
  sweep_at f 0.2;
  sweep_at f 0.3;
  Alcotest.(check bool) "ticks frozen on the crossing sweep" false (fenced w);
  Atomic.incr w.ticks;
  sweep_at f 0.4;
  Alcotest.(check bool) "ticks moving, progress frozen" true (fenced w);
  let t = Sup.tally f.m in
  Alcotest.(check int) "counted as a zombie" 1 t.zombies_fenced;
  Alcotest.(check int) "not as silent" 0 t.presumed_dead;
  Alcotest.(check int) "replaced" 1 (List.length !(f.hires))

let test_idling_never_silent () =
  let w = Sup.worker ~slot:0 () in
  Atomic.set w.idling true;
  let f = fake ~silence:0.25 [ w ] in
  List.iter (sweep_at f) [ 0.1; 0.3; 1.0; 10.0; 100.0 ];
  Alcotest.(check bool) "never fenced" false (fenced w);
  Alcotest.(check int) "never replaced" 0 (List.length !(f.hires))

let test_frozen_together_not_zombie () =
  let done_ = Atomic.make 0 in
  let w = Sup.worker ~progress:(fun () -> Atomic.get done_) ~slot:0 () in
  let f = fake ~zombie:0.1 [ w ] in
  Atomic.incr w.ticks;
  Atomic.incr done_;
  sweep_at f 0.05;
  (* from here on neither ticks nor progress move *)
  List.iter (sweep_at f) [ 0.1; 0.2; 0.5; 1.0; 10.0 ];
  Alcotest.(check bool) "never fenced" false (fenced w);
  Alcotest.(check int) "no zombie" 0 (Sup.tally f.m).zombies_fenced

let test_fenced_never_judged_again () =
  let calls = ref 0 in
  let w =
    Sup.worker ~progress:(fun () -> incr calls; 0) ~slot:0 ()
  in
  let f = fake ~zombie:0.1 [ w ] in
  Atomic.incr w.ticks;
  sweep_at f 0.2;
  Alcotest.(check bool) "fenced as a zombie" true (fenced w);
  let seen = !calls in
  (* the fenced worker keeps looking like a zombie, then dies; the
     slot's owner is now the replacement, so none of it is judged *)
  List.iter
    (fun now ->
      Atomic.incr w.ticks;
      sweep_at f now)
    [ 0.3; 0.5; 1.0 ];
  Atomic.set w.died true;
  List.iter (sweep_at f) [ 1.1; 1.2 ];
  Alcotest.(check int) "progress never sampled again" seen !calls;
  Alcotest.(check int) "replaced exactly once" 1 (List.length !(f.hires));
  Alcotest.(check int) "one zombie" 1 (Sup.tally f.m).zombies_fenced

(* The scheduler honours [zombie_after]: its workers certify, so the
   detector watches them, and a healthy run — every loop iteration
   completes a task or a no-find scan — fences nobody. *)
let test_scheduler_zombie_after_healthy () =
  let module S = Worksteal.Scheduler.Array_scheduler in
  let sum = Atomic.make 0 in
  let rec fib n ctx =
    if n < 2 then ignore (Atomic.fetch_and_add sum n)
    else begin
      S.spawn ctx (fib (n - 1));
      S.spawn ctx (fib (n - 2))
    end
  in
  let config = { Sup.default with zombie_after = 0.1 } in
  let r = S.run_supervised ~config ~workers:2 ~capacity:1024 (fib 26) in
  Alcotest.(check int) "fib result" (seq_fib 26) (Atomic.get sum);
  Alcotest.(check bool) "conserved" true (Sup.conserved r);
  Alcotest.(check int) "nobody replaced" 0 r.replacements;
  Alcotest.(check int) "nothing reconciled" 0 r.reconciled

let () =
  Alcotest.run "worksteal"
    [
      ("fib", fib_tests);
      ("tree", tree_tests);
      ("inline fallback", inline_fallback_tests);
      ( "steal batching",
        steal_batch_semantics_tests @ steal_batch_scheduler_tests );
      ("repeatability", repeatability);
      ( "supervision",
        [
          Alcotest.test_case "silent worker replaced exactly once" `Quick
            test_silent_replaced_once;
          Alcotest.test_case "zombie needs moving ticks" `Quick
            test_zombie_needs_moving_ticks;
          Alcotest.test_case "idling worker never silent" `Quick
            test_idling_never_silent;
          Alcotest.test_case "frozen ticks and progress: no zombie" `Quick
            test_frozen_together_not_zombie;
          Alcotest.test_case "fenced worker never judged again" `Quick
            test_fenced_never_judged_again;
          Alcotest.test_case "scheduler honours zombie_after" `Slow
            test_scheduler_zombie_after_healthy;
        ] );
    ]
