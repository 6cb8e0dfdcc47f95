(* Allocation ceilings for an empty pop at every layer of the request
   path: the deque, the Policy wrapper and the sharded service front
   end.  An idle consumer spends its time in exactly these calls, so
   each must allocate nothing: the deques confirm emptiness with a
   descriptor-free no-op DCAS, and every retry loop above them is a
   top-level function timed on the integer {!Dcas.Clock}.

   Words per empty call before these changes, for reference: array
   deque 21, list deque 7, Policy with Spill over the array deque 49,
   4-shard Sharded 219.  A ceiling of 1 word leaves room for noise in
   [Gc.minor_words] and none for a per-call allocation. *)

let ceiling = 1.

(* Each pop is given as a thunk that pops once and says whether the
   layer answered [`Empty]. *)
let check_empty_pops name pops =
  List.iter
    (fun (side, pop_is_empty) ->
      let w =
        Test_support.words_per_call (fun () ->
            if not (pop_is_empty ()) then
              Alcotest.fail "empty pop found something")
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: %.2f words per empty pop <= %.0f" name side w
           ceiling)
        true (w <= ceiling))
    pops

let test_array () =
  let module D = Deque.Array_deque.Lockfree in
  let d = D.make ~length:8 () in
  (* push and pop once so the confirm runs over cells a DCAS wrote *)
  ignore (D.push_right d 1);
  ignore (D.pop_left d);
  check_empty_pops "array deque"
    [
      ("pop_left", fun () -> D.pop_left d = `Empty);
      ("pop_right", fun () -> D.pop_right d = `Empty);
    ]

let test_list () =
  let module D = Deque.List_deque.Lockfree in
  let d = D.make () in
  check_empty_pops "list deque (sentinels only)"
    [
      ("pop_left", fun () -> D.pop_left d = `Empty);
      ("pop_right", fun () -> D.pop_right d = `Empty);
    ];
  (* one push and a pop from the other end leave a logically deleted
     null node, so this end's empty pops run the no-op confirm DCAS *)
  let d = D.make () in
  ignore (D.push_right d 1);
  ignore (D.pop_left d);
  check_empty_pops "list deque (null node)"
    [ ("pop_right", fun () -> D.pop_right d = `Empty) ]

let test_policy () =
  let module P = Deque.Policy.Make (Deque.Array_deque.Lockfree) in
  let p = P.create ~full:Deque.Policy.Spill ~capacity:8 () in
  check_empty_pops "policy[spill]"
    [
      ("pop_left", fun () -> P.pop p ~side:`Left = `Empty);
      ("pop_right", fun () -> P.pop p ~side:`Right = `Empty);
    ]

module S = Deque.Sharded.Make (Deque.Array_deque.Lockfree)

let test_sharded () =
  let s = S.create ~full:Deque.Policy.Spill ~shards:4 ~capacity:8 () in
  check_empty_pops "4-shard sharded"
    [
      ("urgent", fun () -> S.pop ~urgent:true s ~key:0 = `Empty);
      ("bulk", fun () -> S.pop s ~key:1 = `Empty);
    ]

(* A deadlined pop of an empty service retries until its budget is
   spent, so a 20 ms budget runs roughly ten times the attempts of a
   2 ms one.  Both calls pay the same one-off costs (the deadline
   option, the backoff state); equal totals mean no attempt
   allocates. *)
let test_sharded_deadline () =
  let s = S.create ~full:Deque.Policy.Spill ~shards:4 ~capacity:8 () in
  let words deadline =
    let before = Gc.minor_words () in
    (match S.pop ~deadline ~urgent:true s ~key:0 with
    | `Empty -> ()
    | `Value _ | `Timeout -> Alcotest.fail "empty pop found something");
    Gc.minor_words () -. before
  in
  ignore (words 0.001);
  let w_short = words 0.002 and w_long = words 0.020 in
  Alcotest.(check bool)
    (Printf.sprintf "2 ms: %.0f words, 20 ms: %.0f words, within 8" w_short
       w_long)
    true
    (Float.abs (w_long -. w_short) <= 8.)

(* An empty pop's confirmation usually publishes no descriptor, so it
   must not host a mid-CASN death: a pending mid-CASN kill waits past
   the empty pops for the push, whose DCAS does publish one.  Were the
   confirmation a crash point, the victim would die at its first empty
   pop, at the operation boundary, orphaning nothing. *)
module C_array =
  Deque.Array_deque.Make (Harness.Crash.Mem_crashing_casn (Dcas.Mem_lockfree))

let test_crash_point () =
  let module Crash = Harness.Crash in
  Crash.reset ();
  let d = C_array.make ~length:4 () in
  let empty_pops = Atomic.make 0 in
  let victim =
    Domain.spawn (fun () ->
        Crash.enroll ~tid:0;
        Crash.kill ~mode:`Mid_casn ~tid:0 ();
        try
          for _ = 1 to 10 do
            if C_array.pop_right d = `Empty then Atomic.incr empty_pops
          done;
          ignore (C_array.push_right d 7);
          false
        with Crash.Died -> true)
  in
  let died = Domain.join victim in
  Alcotest.(check bool) "victim died" true died;
  Alcotest.(check int) "survived every empty pop" 10 (Atomic.get empty_pops);
  Alcotest.(check int) "died mid-CASN" 1 (Crash.mid_casn_kills ());
  Alcotest.(check int) "one orphan" 1 (Dcas.Mem_lockfree.orphans ());
  ignore (Dcas.Mem_lockfree.help_orphans ());
  (* the fatal push either committed or it did not *)
  let rec drain n = if C_array.pop_left d = `Empty then n else drain (n + 1) in
  let n = drain 0 in
  Alcotest.(check bool) (Printf.sprintf "%d items left, 0 or 1" n) true (n <= 1);
  Crash.reset ()

let () =
  Alcotest.run "empty_scan"
    [
      ( "allocation ceiling",
        [
          Alcotest.test_case "array deque empty pop" `Quick test_array;
          Alcotest.test_case "list deque empty pop" `Quick test_list;
          Alcotest.test_case "policy spill empty pop" `Quick test_policy;
          Alcotest.test_case "4-shard sharded empty pop" `Quick test_sharded;
          Alcotest.test_case "deadlined sharded pop: no per-attempt words"
            `Quick test_sharded_deadline;
        ] );
      ( "crash point",
        [
          Alcotest.test_case "a mid-CASN kill waits past empty pops" `Quick
            test_crash_point;
        ] );
    ]
