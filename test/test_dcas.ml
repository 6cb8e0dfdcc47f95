(* Tests for the DCAS memory models: Figure 1 semantics sequentially on
   every model, and atomicity under real concurrency — the pair-ness of
   DCAS is exactly what a broken emulation loses first, so the
   concurrent tests revolve around invariants that relate the two
   locations of each DCAS. *)

module type MEM = Dcas.Memory_intf.MEMORY

let models : (module MEM) list =
  [
    (module Dcas.Mem_lockfree);
    (module Dcas.Mem_lock);
    (module Dcas.Mem_striped);
    (module Dcas.Mem_seq);
  ]

let concurrent_models : (module MEM) list =
  [ (module Dcas.Mem_lockfree); (module Dcas.Mem_lock); (module Dcas.Mem_striped) ]

(* --- Sequential Figure 1 semantics --- *)

let seq_tests (module M : MEM) =
  let name tag = M.name ^ ": " ^ tag in
  [
    Alcotest.test_case (name "get/set roundtrip") `Quick (fun () ->
        let l = M.make 1 in
        Alcotest.(check int) "initial" 1 (M.get l);
        M.set l 42;
        Alcotest.(check int) "after set" 42 (M.get l);
        M.set_private l 7;
        Alcotest.(check int) "after set_private" 7 (M.get l));
    Alcotest.test_case (name "dcas success updates both") `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 in
        Alcotest.(check bool) "succeeds" true (M.dcas a b 1 2 10 20);
        Alcotest.(check int) "a" 10 (M.get a);
        Alcotest.(check int) "b" 20 (M.get b));
    Alcotest.test_case (name "dcas failure updates neither") `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 in
        Alcotest.(check bool) "first mismatch" false (M.dcas a b 9 2 10 20);
        Alcotest.(check bool) "second mismatch" false (M.dcas a b 1 9 10 20);
        Alcotest.(check bool) "both mismatch" false (M.dcas a b 9 9 10 20);
        Alcotest.(check int) "a unchanged" 1 (M.get a);
        Alcotest.(check int) "b unchanged" 2 (M.get b));
    Alcotest.test_case (name "dcas across types") `Quick (fun () ->
        let a = M.make 5 and b = M.make "x" in
        Alcotest.(check bool) "succeeds" true (M.dcas a b 5 "x" 6 "y");
        Alcotest.(check int) "a" 6 (M.get a);
        Alcotest.(check string) "b" "y" (M.get b));
    Alcotest.test_case (name "same location rejected") `Quick (fun () ->
        let a = M.make 1 in
        match M.dcas a a 1 1 2 2 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case (name "strong form returns view on failure") `Quick
      (fun () ->
        let a = M.make 1 and b = M.make 2 in
        let ok, v1, v2 = M.dcas_strong a b 5 5 0 0 in
        Alcotest.(check bool) "failed" false ok;
        Alcotest.(check int) "saw a" 1 v1;
        Alcotest.(check int) "saw b" 2 v2;
        let ok, v1, v2 = M.dcas_strong a b 1 2 10 20 in
        Alcotest.(check bool) "succeeded" true ok;
        Alcotest.(check int) "old a" 1 v1;
        Alcotest.(check int) "old b" 2 v2;
        Alcotest.(check int) "new a" 10 (M.get a));
    Alcotest.test_case (name "custom equality") `Quick (fun () ->
        (* physical-equality cells: structurally equal but physically
           distinct expected values must NOT match *)
        let x = ref 1 in
        let l = M.make ~equal:( == ) x in
        let other = M.make 0 in
        Alcotest.(check bool) "match on same block" true
          (M.dcas l other x 0 x 1);
        let x' = ref 1 in
        Alcotest.(check bool) "no match on copy" false (M.dcas l other x' 1 x' 2));
    Alcotest.test_case (name "stats count dcas") `Quick (fun () ->
        M.reset_stats ();
        let a = M.make 1 and b = M.make 2 in
        ignore (M.dcas a b 1 2 3 4);
        ignore (M.dcas a b 1 2 3 4);
        let s = M.stats () in
        Alcotest.(check bool) "attempts >= 2" true (s.dcas_attempts >= 2);
        Alcotest.(check bool) "successes >= 1" true (s.dcas_successes >= 1);
        Alcotest.(check bool) "failures happened" true
          (s.dcas_attempts > s.dcas_successes));
    Alcotest.test_case (name "padded locations behave identically") `Quick
      (fun () ->
        let a = M.make_padded 1 and b = M.make_padded 2 in
        Alcotest.(check bool) "dcas" true (M.dcas a b 1 2 10 20);
        Alcotest.(check int) "a" 10 (M.get a);
        Alcotest.(check int) "b" 20 (M.get b);
        M.set a 5;
        Alcotest.(check int) "set" 5 (M.get a);
        let x = ref 1 in
        let l = M.make_padded ~equal:( == ) x in
        let o = M.make_padded 0 in
        Alcotest.(check bool) "custom equality respected" true
          (M.dcas l o x 0 x 1);
        let x' = ref 1 in
        Alcotest.(check bool) "copy rejected" false (M.dcas l o x' 1 x' 2));
  ]

(* --- Concurrency: conservation under transfer --- *)

(* Threads move credits between two accounts with DCAS; the total is
   conserved iff each DCAS is atomic. *)
let transfer_test (module M : MEM) () =
  let a = M.make 1000 and b = M.make 1000 in
  let iters = 20_000 in
  let worker seed () =
    let rng = Harness.Splitmix.create ~seed in
    for _ = 1 to iters do
      let amount = 1 + Harness.Splitmix.int rng ~bound:5 in
      let flip = Harness.Splitmix.bool rng in
      let rec attempt () =
        let va = M.get a and vb = M.get b in
        let ok =
          if flip then M.dcas a b va vb (va - amount) (vb + amount)
          else M.dcas a b va vb (va + amount) (vb - amount)
        in
        if not ok then attempt ()
      in
      attempt ()
    done
  in
  let ds = List.init 4 (fun i -> Domain.spawn (worker (i * 7 + 1))) in
  List.iter Domain.join ds;
  Alcotest.(check int) "total conserved" 2000 (M.get a + M.get b)

(* Writers keep the two locations equal with paired DCAS increments;
   concurrent snapshots (the strong form's failing view and the no-op
   DCAS) must never observe them unequal. *)
let snapshot_test (module M : MEM) () =
  let a = M.make 0 and b = M.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let writer () =
    while not (Atomic.get stop) do
      let rec attempt () =
        let va = M.get a and vb = M.get b in
        if not (M.dcas a b va vb (va + 1) (vb + 1)) then attempt ()
      in
      attempt ()
    done
  in
  let reader () =
    for _ = 1 to 20_000 do
      (* a no-op DCAS that succeeds certifies an atomic view *)
      let rec snap () =
        let va = M.get a and vb = M.get b in
        if M.dcas a b va vb va vb then (va, vb) else snap ()
      in
      let va, vb = snap () in
      if va <> vb then Atomic.incr violations
    done
  in
  let w1 = Domain.spawn writer and w2 = Domain.spawn writer in
  let r = Domain.spawn reader in
  Domain.join r;
  Atomic.set stop true;
  Domain.join w1;
  Domain.join w2;
  Alcotest.(check int) "no unequal snapshots" 0 (Atomic.get violations);
  Alcotest.(check int) "locations still equal" (M.get a) (M.get b)

(* strong-form views taken under contention are atomic pairs *)
let strong_view_test (module M : MEM) () =
  let a = M.make 0 and b = M.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let writer () =
    while not (Atomic.get stop) do
      let rec attempt () =
        let va = M.get a and vb = M.get b in
        if not (M.dcas a b va vb (va + 1) (vb + 1)) then attempt ()
      in
      attempt ()
    done
  in
  let reader () =
    for _ = 1 to 10_000 do
      (* expected values never match (negative), so this always fails
         and must return an atomic view *)
      let ok, va, vb = M.dcas_strong a b (-1) (-1) 0 0 in
      if ok || va <> vb then Atomic.incr violations
    done
  in
  let w = Domain.spawn writer in
  let r = Domain.spawn reader in
  Domain.join r;
  Atomic.set stop true;
  Domain.join w;
  Alcotest.(check int) "atomic failing views" 0 (Atomic.get violations)

(* slow tier: multi-domain cases SKIP unless DCAS_SLOW_TESTS=1 *)
let concurrent_tests (module M : MEM) =
  [
    Test_support.tiered
      (M.name ^ ": transfer conservation")
      `Slow
      (transfer_test (module M));
    Test_support.tiered (M.name ^ ": snapshot equality") `Slow
      (snapshot_test (module M));
    Test_support.tiered
      (M.name ^ ": strong failing view")
      `Slow
      (strong_view_test (module M));
  ]

(* --- CASN (lock-free model only) --- *)

let casn_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "casn: 3-way swap" `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 and c = M.make 3 in
        let ok = M.casn [ M.Cass (a, 1, 10); M.Cass (b, 2, 20); M.Cass (c, 3, 30) ] in
        Alcotest.(check bool) "succeeds" true ok;
        Alcotest.(check (list int)) "values" [ 10; 20; 30 ]
          [ M.get a; M.get b; M.get c ]);
    Alcotest.test_case "casn: partial mismatch changes nothing" `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 and c = M.make 3 in
        let ok = M.casn [ M.Cass (a, 1, 10); M.Cass (b, 99, 20); M.Cass (c, 3, 30) ] in
        Alcotest.(check bool) "fails" false ok;
        Alcotest.(check (list int)) "unchanged" [ 1; 2; 3 ]
          [ M.get a; M.get b; M.get c ]);
    Alcotest.test_case "casn: empty succeeds" `Quick (fun () ->
        Alcotest.(check bool) "trivial" true (M.casn []));
    Alcotest.test_case "casn: duplicate locations rejected" `Quick (fun () ->
        let a = M.make 1 in
        match M.casn [ M.Cass (a, 1, 2); M.Cass (a, 1, 3) ] with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Test_support.tiered "casn: concurrent conservation" `Slow (fun () ->
        (* four counters, transfers across a random pair via casn *)
        let locs = Array.init 4 (fun _ -> M.make 100) in
        let worker seed () =
          let rng = Harness.Splitmix.create ~seed in
          for _ = 1 to 10_000 do
            let i = Harness.Splitmix.int rng ~bound:4 in
            let j = (i + 1 + Harness.Splitmix.int rng ~bound:3) mod 4 in
            let rec attempt () =
              let vi = M.get locs.(i) and vj = M.get locs.(j) in
              if
                not
                  (M.casn
                     [ M.Cass (locs.(i), vi, vi - 1); M.Cass (locs.(j), vj, vj + 1) ])
              then attempt ()
            in
            attempt ()
          done
        in
        let ds = List.init 4 (fun i -> Domain.spawn (worker (i + 11))) in
        List.iter Domain.join ds;
        let total = Array.fold_left (fun acc l -> acc + M.get l) 0 locs in
        Alcotest.(check int) "conserved" 400 total);
  ]

(* --- qcheck: casn against its sequential semantics --- *)

(* A random batch of (index, expected, new) entries over 5 locations,
   applied via casn and via a reference fold: outcome and final state
   must agree. *)
let casn_matches_reference =
  let gen =
    QCheck2.Gen.(
      pair
        (array_size (return 5) (int_bound 9))
        (list_size (1 -- 5)
           (triple (int_bound 4) (int_bound 9) (int_bound 9))))
  in
  let print (init, entries) =
    Printf.sprintf "init=[%s] entries=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int init)))
      (String.concat ";"
         (List.map (fun (i, o, n) -> Printf.sprintf "(%d,%d,%d)" i o n) entries))
  in
  QCheck2.Test.make ~name:"casn agrees with sequential reference" ~count:500
    ~print gen (fun (init, entries) ->
      let module M = Dcas.Mem_lockfree in
      (* drop duplicate indices: casn rejects them by contract *)
      let entries =
        List.fold_left
          (fun acc ((i, _, _) as e) ->
            if List.exists (fun (j, _, _) -> j = i) acc then acc else e :: acc)
          [] entries
        |> List.rev
      in
      let locs = Array.map (fun v -> M.make v) init in
      let reference = Array.copy init in
      let expect_ok =
        List.for_all (fun (i, o, _) -> reference.(i) = o) entries
      in
      if expect_ok then
        List.iter (fun (i, _, n) -> reference.(i) <- n) entries;
      let ok = M.casn (List.map (fun (i, o, n) -> M.Cass (locs.(i), o, n)) entries) in
      ok = expect_ok
      && Array.for_all2 (fun l v -> M.get l = v) locs reference)

(* --- the pre-validation fast path (Mem_lockfree) --- *)

(* A DCAS whose expected values are already stale must fail from two
   plain reads: no descriptor allocated, no [Owned] placeholder ever
   installed, the locations untouched.  These tests pin each piece of
   that contract. *)
let fastpath_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "fast-fail: counted exactly" `Quick (fun () ->
        let a = M.make 0 and b = M.make 0 in
        M.reset_stats ();
        ignore (M.dcas a b 1 1 2 2);
        let s = M.stats () in
        Alcotest.(check int) "one attempt" 1 s.dcas_attempts;
        Alcotest.(check int) "one fast-fail" 1 s.dcas_fastfails;
        Alcotest.(check int) "no success" 0 s.dcas_successes;
        (* second-location staleness takes the same early exit *)
        ignore (M.dcas a b 0 1 2 2);
        Alcotest.(check int) "two fast-fails" 2 (M.stats ()).dcas_fastfails);
    Alcotest.test_case "fast-fail: allocation-free" `Quick (fun () ->
        let a = M.make 0 and b = M.make 0 in
        (* warm-up: first call initializes this domain's stats bucket *)
        ignore (M.dcas a b 1 1 2 2);
        (* [Gc.minor_words] itself boxes its float result, so a single
           delta cannot be zero; instead the delta must not grow with
           the iteration count, which proves the per-call cost is 0. *)
        let delta n =
          let before = Gc.minor_words () in
          for _ = 1 to n do
            ignore (M.dcas a b 1 1 2 2)
          done;
          Gc.minor_words () -. before
        in
        let d_small = delta 10 in
        let d_large = delta 10_000 in
        Alcotest.(check (float 0.)) "delta independent of iterations" d_small
          d_large);
    Alcotest.test_case "fast-fail: leaves no residue" `Quick (fun () ->
        let a = M.make 10 and b = M.make 20 in
        for _ = 1 to 100 do
          ignore (M.dcas a b 99 99 0 0)
        done;
        Alcotest.(check int) "a unchanged" 10 (M.get a);
        Alcotest.(check int) "b unchanged" 20 (M.get b);
        (* no Owned left behind: a correct DCAS must still succeed, and
           the strong form must report the plain values *)
        let ok, va, vb = M.dcas_strong a b 10 20 11 21 in
        Alcotest.(check bool) "clean success afterwards" true ok;
        Alcotest.(check int) "saw a" 10 va;
        Alcotest.(check int) "saw b" 20 vb);
    Alcotest.test_case "casn: stale entry fast-fails without mutation" `Quick
      (fun () ->
        let a = M.make 1 and b = M.make 2 and c = M.make 3 in
        M.reset_stats ();
        let ok =
          M.casn [ M.Cass (a, 1, 10); M.Cass (b, 99, 20); M.Cass (c, 3, 30) ]
        in
        Alcotest.(check bool) "fails" false ok;
        let s = M.stats () in
        Alcotest.(check int) "fast-failed" 1 s.dcas_fastfails;
        Alcotest.(check (list int)) "unchanged" [ 1; 2; 3 ]
          [ M.get a; M.get b; M.get c ]);
  ]

(* qcheck: a doomed DCAS on the lock-free model must be observationally
   identical to one on the sequential reference — same verdict, same
   final values, at every step of a random operation sequence. *)
let fastfail_matches_reference =
  let gen =
    QCheck2.Gen.(
      pair
        (pair (int_bound 4) (int_bound 4))
        (list_size (1 -- 20)
           (pair (pair (int_bound 4) (int_bound 4))
              (pair (int_bound 4) (int_bound 4)))))
  in
  let print ((i1, i2), ops) =
    Printf.sprintf "init=(%d,%d) ops=[%s]" i1 i2
      (String.concat ";"
         (List.map
            (fun ((o1, o2), (n1, n2)) ->
              Printf.sprintf "(%d,%d)->(%d,%d)" o1 o2 n1 n2)
            ops))
  in
  QCheck2.Test.make
    ~name:"dcas (incl. fast-fail) agrees with sequential reference" ~count:500
    ~print gen (fun ((i1, i2), ops) ->
      let module L = Dcas.Mem_lockfree in
      let module S = Dcas.Mem_seq in
      let la = L.make i1 and lb = L.make i2 in
      let sa = S.make i1 and sb = S.make i2 in
      List.for_all
        (fun ((o1, o2), (n1, n2)) ->
          let lr = L.dcas la lb o1 o2 n1 n2 in
          let sr = S.dcas sa sb o1 o2 n1 n2 in
          lr = sr && L.get la = S.get sa && L.get lb = S.get sb)
        ops)

(* qcheck: Mem_striped agrees with Mem_seq on arbitrary single-threaded
   op sequences (set / dcas over five locations).  The striped model's
   only behavioral risk is lock-ordering over the hashed stripes, so
   the generator biases toward dcas pairs that collide and retries in
   both orders. *)
let striped_matches_seq =
  let gen =
    QCheck2.Gen.(
      pair
        (array_size (return 5) (int_bound 9))
        (list_size (1 -- 40)
           (frequency
              [
                (1, map2 (fun i v -> `Set (i, v)) (int_bound 4) (int_bound 9));
                ( 4,
                  map2
                    (fun ((i, dj), (o1, o2)) (n1, n2) ->
                      `Dcas (i, (i + 1 + dj) mod 5, o1, o2, n1, n2))
                    (pair
                       (pair (int_bound 4) (int_bound 3))
                       (pair (int_bound 9) (int_bound 9)))
                    (pair (int_bound 9) (int_bound 9)) );
              ])))
  in
  let print (init, ops) =
    Printf.sprintf "init=[%s] ops=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int init)))
      (String.concat ";"
         (List.map
            (function
              | `Set (i, v) -> Printf.sprintf "set(%d,%d)" i v
              | `Dcas (i, j, o1, o2, n1, n2) ->
                  Printf.sprintf "dcas(%d,%d:%d,%d->%d,%d)" i j o1 o2 n1 n2)
            ops))
  in
  QCheck2.Test.make
    ~name:"striped model agrees with sequential reference" ~count:500 ~print
    gen (fun (init, ops) ->
      let module T = Dcas.Mem_striped in
      let module S = Dcas.Mem_seq in
      let ts = Array.map (fun v -> T.make v) init in
      let ss = Array.map (fun v -> S.make v) init in
      let agree () =
        Array.for_all2 (fun t s -> T.get t = S.get s) ts ss
      in
      List.for_all
        (fun op ->
          (match op with
          | `Set (i, v) ->
              T.set ts.(i) v;
              S.set ss.(i) v;
              true
          | `Dcas (i, j, o1, o2, n1, n2) ->
              let tr = T.dcas ts.(i) ts.(j) o1 o2 n1 n2 in
              let sr = S.dcas ss.(i) ss.(j) o1 o2 n1 n2 in
              let tok, tv1, tv2 = T.dcas_strong ts.(i) ts.(j) o1 o2 n1 n2 in
              let sok, sv1, sv2 = S.dcas_strong ss.(i) ss.(j) o1 o2 n1 n2 in
              tr = sr && tok = sok && tv1 = sv1 && tv2 = sv2)
          && agree ())
        ops)

(* --- the specialized two-location descriptor (Dcas2) --- *)

(* Run [f] with the Dcas2 specialization forced to [flag], restoring
   the default afterwards (the knob is global). *)
let with_dcas2 flag f =
  Dcas.Mem_lockfree.set_dcas2_enabled flag;
  Fun.protect ~finally:(fun () -> Dcas.Mem_lockfree.set_dcas2_enabled true) f

let dcas2_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "dcas2: hits counted on the two-location path" `Quick
      (fun () ->
        with_dcas2 true (fun () ->
            let a = M.make 1 and b = M.make 2 in
            M.reset_stats ();
            Alcotest.(check bool) "succeeds" true (M.dcas a b 1 2 10 20);
            let s = M.stats () in
            Alcotest.(check int) "one dcas2 hit" 1 s.dcas2_hits;
            Alcotest.(check int) "one descriptor" 1 s.descriptor_allocs));
    Alcotest.test_case "dcas2: ablation routes to generic descriptors" `Quick
      (fun () ->
        with_dcas2 false (fun () ->
            let a = M.make 1 and b = M.make 2 in
            M.reset_stats ();
            Alcotest.(check bool) "succeeds" true (M.dcas a b 1 2 10 20);
            let s = M.stats () in
            Alcotest.(check int) "no dcas2 hits" 0 s.dcas2_hits;
            Alcotest.(check int) "still one descriptor" 1 s.descriptor_allocs));
    Alcotest.test_case "dcas2: 2-entry casn takes the specialized path" `Quick
      (fun () ->
        with_dcas2 true (fun () ->
            let a = M.make 1 and b = M.make 2 and c = M.make 3 in
            M.reset_stats ();
            Alcotest.(check bool) "2-entry succeeds" true
              (M.casn [ M.Cass (b, 2, 20); M.Cass (a, 1, 10) ]);
            Alcotest.(check int) "specialized" 1 (M.stats ()).dcas2_hits;
            Alcotest.(check bool) "3-entry succeeds" true
              (M.casn
                 [ M.Cass (a, 10, 11); M.Cass (b, 20, 21); M.Cass (c, 3, 30) ]);
            Alcotest.(check int) "3-entry stays generic" 1
              (M.stats ()).dcas2_hits));
    Alcotest.test_case "dcas2: value elision on no-op confirms" `Quick
      (fun () ->
        (* with the specialization on, a no-op DCAS over plain values
           confirms from reads alone and never displaces a Value block,
           so value_allocs stays zero; with it off every confirm runs
           the generic descriptor and its release allocates 2 per op *)
        let confirms n flag =
          with_dcas2 flag (fun () ->
              let a = M.make 7 and b = M.make 8 in
              M.reset_stats ();
              for _ = 1 to n do
                Alcotest.(check bool) "confirm" true (M.dcas a b 7 8 7 8)
              done;
              M.stats ())
        in
        let s_on = confirms 50 true and s_off = confirms 50 false in
        Alcotest.(check int) "elided entirely" 0 s_on.value_allocs;
        Alcotest.(check int) "generic allocates two per op" 100
          s_off.value_allocs);
    Alcotest.test_case "dcas2: elision reduces minor allocation" `Quick
      (fun () ->
        let words flag =
          with_dcas2 flag (fun () ->
              let a = M.make 7 and b = M.make 8 in
              ignore (M.dcas a b 7 8 7 8);
              let before = Gc.minor_words () in
              for _ = 1 to 10_000 do
                ignore (M.dcas a b 7 8 7 8)
              done;
              Gc.minor_words () -. before)
        in
        let w_on = words true and w_off = words false in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f < %.0f minor words" w_on w_off)
          true (w_on < w_off));
    Alcotest.test_case "dcas2: both modes agree with the reference" `Quick
      (fun () ->
        (* the same mixed op sequence — successful, failing, no-op and
           cross-type DCASes plus 2-entry CASNs — must be observationally
           identical on Mem_seq and on Mem_lockfree in either mode *)
        let module S = Dcas.Mem_seq in
        List.iter
          (fun flag ->
            with_dcas2 flag (fun () ->
                let la = M.make 0 and lb = M.make 100 in
                let sa = S.make 0 and sb = S.make 100 in
                let rng = Harness.Splitmix.create ~seed:(Bool.to_int flag) in
                for _ = 1 to 2_000 do
                  let o1 = Harness.Splitmix.int rng ~bound:4 in
                  let o2 = 100 + Harness.Splitmix.int rng ~bound:4 in
                  let n1 = Harness.Splitmix.int rng ~bound:4 in
                  let n2 = 100 + Harness.Splitmix.int rng ~bound:4 in
                  let lr, sr =
                    if Harness.Splitmix.bool rng then
                      ( M.casn [ M.Cass (la, o1, n1); M.Cass (lb, o2, n2) ],
                        S.casn [ S.Cass (sa, o1, n1); S.Cass (sb, o2, n2) ] )
                    else (M.dcas la lb o1 o2 n1 n2, S.dcas sa sb o1 o2 n1 n2)
                  in
                  Alcotest.(check bool) "verdicts agree" sr lr;
                  Alcotest.(check int) "a agrees" (S.get sa) (M.get la);
                  Alcotest.(check int) "b agrees" (S.get sb) (M.get lb)
                done))
          [ true; false ]);
    Test_support.tiered "dcas2: concurrent conservation in both modes" `Slow
      (fun () ->
        List.iter
          (fun flag -> with_dcas2 flag (transfer_test (module M)))
          [ true; false ]);
  ]

(* --- stats record completeness --- *)

(* [to_counts] fully destructures the record (field omission is a
   compile error via warning 9), and everything else — merge, reset,
   snapshot — is built on [to_counts]/[of_counts].  These tests pin the
   runtime half: conversions are mutually inverse and no field is
   silently dropped by merge or export. *)
let stats_completeness_tests =
  let module I = Dcas.Memory_intf in
  let counted = Array.init I.stats_fields (fun i -> (i + 1) * 3) in
  [
    Alcotest.test_case "stats: of_counts/to_counts round-trip" `Quick
      (fun () ->
        Alcotest.(check (array int))
          "round-trip" counted
          (I.to_counts (I.of_counts counted));
        Alcotest.check_raises "arity mismatch rejected"
          (Invalid_argument "Memory_intf.of_counts: wrong arity")
          (fun () -> ignore (I.of_counts (Array.make (I.stats_fields - 1) 0))));
    Alcotest.test_case "stats: add_stats covers every field" `Quick (fun () ->
        let a = I.of_counts counted in
        let doubled = I.add_stats a a in
        Alcotest.(check (array int))
          "every field doubled"
          (Array.map (fun c -> 2 * c) counted)
          (I.to_counts doubled);
        Alcotest.(check (array int))
          "empty is the identity" counted
          (I.to_counts (I.add_stats a I.empty_stats)));
    Alcotest.test_case "stats: assoc export covers every field" `Quick
      (fun () ->
        let assoc = I.stats_to_assoc (I.of_counts counted) in
        Alcotest.(check int) "one entry per field" I.stats_fields
          (List.length assoc);
        let names = List.map fst assoc in
        Alcotest.(check int)
          "names distinct" I.stats_fields
          (List.length (List.sort_uniq compare names));
        Alcotest.(check (list int))
          "values in field order" (Array.to_list counted)
          (List.map snd assoc));
  ]

(* --- per-domain stats plumbing --- *)

let opstats_tests =
  [
    Alcotest.test_case "opstats: multi-domain aggregation is exact" `Quick
      (fun () ->
        let module M = Dcas.Mem_lockfree in
        M.reset_stats ();
        let domains = 4 and per_domain = 5_000 in
        let ds =
          List.init domains (fun i ->
              Domain.spawn (fun () ->
                  (* private locations: every dcas is a deterministic
                     fast-fail, so the expected counts are exact *)
                  let a = M.make (2 * i) and b = M.make ((2 * i) + 1) in
                  for _ = 1 to per_domain do
                    ignore (M.dcas a b (-1) (-1) 0 0)
                  done))
        in
        List.iter Domain.join ds;
        let s = M.stats () in
        Alcotest.(check int) "attempts summed across domains"
          (domains * per_domain) s.dcas_attempts;
        Alcotest.(check int) "fast-fails summed across domains"
          (domains * per_domain) s.dcas_fastfails;
        Alcotest.(check int) "no successes" 0 s.dcas_successes);
    Alcotest.test_case "opstats: reset races with incrementers" `Quick
      (fun () ->
        let module M = Dcas.Mem_lockfree in
        let stop = Atomic.make false in
        let ds =
          List.init 3 (fun i ->
              Domain.spawn (fun () ->
                  let a = M.make (100 + (2 * i)) and b = M.make (101 + (2 * i)) in
                  while not (Atomic.get stop) do
                    ignore (M.dcas a b (-1) (-1) 0 0)
                  done))
        in
        (* hammer reset/snapshot while the incrementers run; the test
           is that nothing crashes, no count goes negative, and a final
           quiescent reset really zeroes every domain's bucket *)
        for _ = 1 to 200 do
          M.reset_stats ();
          let s = M.stats () in
          Alcotest.(check bool) "attempts non-negative" true
            (s.dcas_attempts >= 0)
        done;
        Atomic.set stop true;
        List.iter Domain.join ds;
        M.reset_stats ();
        let s = M.stats () in
        Alcotest.(check int) "attempts zero after quiescent reset" 0
          s.dcas_attempts;
        Alcotest.(check int) "fast-fails zero after quiescent reset" 0
          s.dcas_fastfails);
  ]

(* --- exact counters across domains --- *)

(* Each domain counts into its own plain bucket; [Domain.join] orders
   those writes before the snapshot, so once the writers have joined
   the deltas must be exact, field by field, and a quiescent reset
   must zero every field. *)
let counter_exactness_test (module M : MEM) ~descriptors =
  Alcotest.test_case
    (M.name ^ ": counts exact after join, reset zeroes")
    `Quick (fun () ->
      let n = 5_000 and domains = 2 in
      let before = Dcas.Memory_intf.to_counts (M.stats ()) in
      let ds =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                (* private locations: every dcas is uncontended and
                   succeeds *)
                let a = M.make 0 and b = M.make 0 in
                for _ = 1 to n do
                  let va = M.get a and vb = M.get b in
                  if not (M.dcas a b va vb (va + 1) (vb + 1)) then
                    failwith "uncontended dcas failed"
                done))
      in
      List.iter Domain.join ds;
      let after = Dcas.Memory_intf.to_counts (M.stats ()) in
      let delta =
        Dcas.Memory_intf.of_counts (Array.map2 ( - ) after before)
      in
      let ops = domains * n in
      (* on Mem_lockfree every success takes the Dcas2 slow path and
         its release allocates a fresh Value block per location *)
      let expected : Dcas.Memory_intf.stats =
        {
          Dcas.Memory_intf.empty_stats with
          reads = 2 * ops;
          dcas_attempts = ops;
          dcas_successes = ops;
          dcas2_hits = (if descriptors then ops else 0);
          descriptor_allocs = (if descriptors then ops else 0);
          value_allocs = (if descriptors then 2 * ops else 0);
        }
      in
      let fields s = Dcas.Memory_intf.stats_to_assoc s in
      Alcotest.(check (list (pair string int)))
        "deltas exact" (fields expected) (fields delta);
      M.reset_stats ();
      Alcotest.(check (list (pair string int)))
        "reset zeroes every field"
        (fields Dcas.Memory_intf.empty_stats)
        (fields (M.stats ())))

let counter_exactness_tests =
  [
    counter_exactness_test (module Dcas.Mem_lockfree) ~descriptors:true;
    counter_exactness_test (module Dcas.Mem_seq) ~descriptors:false;
  ]

(* --- allocation ceiling of the uncontended fast path --- *)

let alloc_ceiling_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "successful int dcas: at most 19 words" `Quick
      (fun () ->
        (* the Dcas2 descriptor (9) and its status atomic (2), one tag
           per location (2 + 2) and one fresh Value block per location
           on release (2 + 2); helping and counting allocate nothing *)
        let a = M.make 0 and b = M.make 0 in
        let w =
          Test_support.words_per_call (fun () ->
              let va = M.get a and vb = M.get b in
              if not (M.dcas a b va vb (va + 1) (vb + 1)) then
                Alcotest.fail "uncontended dcas failed")
        in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f words <= 19" w)
          true (w <= 19.));
  ]

(* --- Dcas2 tags under helping --- *)

(* A [Dcas2] holds its locations with 2-word tags that read their
   values out of the descriptor.  These tests drive the tags through
   helping: a descriptor found half-installed, and overlapping pairs
   whose descriptors meet on a shared location. *)
let dcas2_tag_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "tags: a half-installed writer is helped through"
      `Quick (fun () ->
        (* the publish hook runs once the writer's descriptor holds [a],
           its lower-id location, and nothing else.  A DCAS on (a, c)
           issued there finds a's tag undecided, so it must complete the
           writer — acquire [b], decide, release both — before its own
           attempt fails on a's new value. *)
        with_dcas2 true (fun () ->
            let a = M.make 0 and b = M.make 0 and c = M.make 0 in
            let inner = ref None in
            M.set_publish_hook (fun () ->
                if !inner = None then begin
                  inner := Some (false, (-1, -1));
                  let ok = M.dcas a c 0 0 5 5 in
                  inner := Some (ok, (M.get a, M.get b))
                end);
            M.reset_stats ();
            let ok =
              Fun.protect ~finally:M.clear_publish_hook (fun () ->
                  M.dcas a b 0 0 1 1)
            in
            Alcotest.(check bool) "writer succeeds" true ok;
            Alcotest.(check (option (pair bool (pair int int))))
              "the helper completed the writer, then failed" (Some (false, (1, 1)))
              !inner;
            Alcotest.(check (list int)) "both writes visible, c untouched"
              [ 1; 1; 0 ] [ M.get a; M.get b; M.get c ];
            (* two attempts, each with a Dcas2 descriptor; the helper
               releases the writer's two locations (2 Value blocks) and
               holds nothing itself; reads: 2 in the hook, 3 above *)
            let expected : Dcas.Memory_intf.stats =
              {
                Dcas.Memory_intf.empty_stats with
                reads = 5;
                dcas_attempts = 2;
                dcas_successes = 1;
                dcas2_hits = 2;
                descriptor_allocs = 2;
                value_allocs = 2;
              }
            in
            let fields s = Dcas.Memory_intf.stats_to_assoc s in
            Alcotest.(check (list (pair string int)))
              "counters exact" (fields expected) (fields (M.stats ()))));
    Alcotest.test_case "tags: two domains around a ring of three" `Quick
      (fun () ->
        (* each domain moves one unit along (a, b), (b, c) and (c, a) in
           turn: every success adds 1 to the pair's first location and
           takes 1 from its second, so each location ends at its
           inflow minus its outflow and the sum stays 0.  Every pair
           shares a location with the other two, so descriptors meet
           on tags and help each other. *)
        with_dcas2 true (fun () ->
            let locs = [| M.make 0; M.make 0; M.make 0 |] in
            let n = 20_000 in
            let before = (M.stats ()).dcas_successes in
            let worker () =
              let moved = Array.make 3 0 in
              for i = 0 to n - 1 do
                let p = i mod 3 in
                let x = locs.(p) and y = locs.((p + 1) mod 3) in
                let vx = M.get x and vy = M.get y in
                if M.dcas x y vx vy (vx + 1) (vy - 1) then
                  moved.(p) <- moved.(p) + 1
              done;
              moved
            in
            let ds = List.init 2 (fun _ -> Domain.spawn worker) in
            let moved = Array.make 3 0 in
            List.iter
              (fun d ->
                Array.iteri (fun p k -> moved.(p) <- moved.(p) + k) (Domain.join d))
              ds;
            let successes = Array.fold_left ( + ) 0 moved in
            Alcotest.(check int) "successes = units moved" successes
              ((M.stats ()).dcas_successes - before);
            let v = Array.map M.get locs in
            Alcotest.(check int) "sum invariant" 0 (Array.fold_left ( + ) 0 v);
            Alcotest.(check (array int))
              "each location: inflow - outflow"
              (Array.init 3 (fun p -> moved.(p) - moved.((p + 2) mod 3)))
              v;
            (* no tag left behind: each pair confirms its current values
               and takes one more unit at the first attempt *)
            for p = 0 to 2 do
              let x = locs.(p) and y = locs.((p + 1) mod 3) in
              let vx = M.get x and vy = M.get y in
              Alcotest.(check (triple bool int int))
                "clean confirm" (true, vx, vy)
                (M.dcas_strong x y vx vy vx vy);
              Alcotest.(check (triple bool int int))
                "clean write" (true, vx, vy)
                (M.dcas_strong x y vx vy (vx + 1) (vy - 1))
            done;
            Alcotest.(check int) "sum invariant after the writes" 0
              (Array.fold_left ( + ) 0 (Array.map M.get locs))));
  ]

(* --- the descriptor-free no-op DCAS --- *)

(* A DCAS that writes back the values it expects (the deques'
   empty/full confirmation) succeeds from three reads when both
   locations hold plain values: no descriptor, no [Owned] block, no CAS.
   These tests pin its cost, its counters and its atomicity. *)
let noop_confirm_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "no-op dcas: counted without a descriptor" `Quick
      (fun () ->
        with_dcas2 true (fun () ->
            let a = M.make 3 and b = M.make 4 in
            M.reset_stats ();
            Alcotest.(check bool) "confirms" true (M.dcas a b 3 4 3 4);
            let s = M.stats () in
            Alcotest.(check int) "one attempt" 1 s.dcas_attempts;
            Alcotest.(check int) "one success" 1 s.dcas_successes;
            Alcotest.(check int) "one dcas2 hit" 1 s.dcas2_hits;
            Alcotest.(check int) "no descriptor" 0 s.descriptor_allocs;
            Alcotest.(check int) "no value block" 0 s.value_allocs;
            Alcotest.(check int) "no fast-fail" 0 s.dcas_fastfails;
            (* a stale no-op still fails, by the pre-validation path *)
            Alcotest.(check bool) "stale rejects" false (M.dcas a b 9 4 9 4);
            Alcotest.(check int) "fast-failed" 1 (M.stats ()).dcas_fastfails));
    Alcotest.test_case "no-op dcas: allocation-free" `Quick (fun () ->
        with_dcas2 true (fun () ->
            let a = M.make 3 and b = M.make 4 in
            ignore (M.dcas a b 3 4 3 4);
            (* as for the fast-fail: the delta must not grow with the
               iteration count *)
            let delta n =
              let before = Gc.minor_words () in
              for _ = 1 to n do
                ignore (M.dcas a b 3 4 3 4)
              done;
              Gc.minor_words () -. before
            in
            let d_small = delta 10 in
            let d_large = delta 10_000 in
            Alcotest.(check (float 0.)) "delta independent of iterations"
              d_small d_large));
    Alcotest.test_case "no-op dcas: the generic ablation keeps descriptors"
      `Quick (fun () ->
        with_dcas2 false (fun () ->
            let a = M.make 3 and b = M.make 4 in
            M.reset_stats ();
            Alcotest.(check bool) "confirms" true (M.dcas a b 3 4 3 4);
            let s = M.stats () in
            Alcotest.(check int) "no dcas2 hit" 0 s.dcas2_hits;
            Alcotest.(check int) "one descriptor" 1 s.descriptor_allocs));
    Alcotest.test_case "no-op dcas: a change between its reads is caught"
      `Quick (fun () ->
        (* A location's [equal] runs between the confirmation's reads,
           so a one-shot hook there plays a writer at exactly that
           point.  The writer keeps a = b: after the read of a it moves
           both 0 -> 1, so b reads 1 and the pair (0, 1) is torn; after
           the read of b it moves them on to 2 and back to 0, so a holds
           its first value again in a fresh block (ABA).  Only the
           block identity check rejects. *)
        with_dcas2 true (fun () ->
            let hook_a = ref ignore and hook_b = ref ignore in
            let eq hook x y =
              let f = !hook in
              hook := ignore;
              f ();
              x = y
            in
            let a = M.make ~equal:(eq hook_a) 0
            and b = M.make ~equal:(eq hook_b) 0 in
            let steps = ref 0 in
            let step v v' =
              incr steps;
              Alcotest.(check bool) "writer step" true (M.dcas a b v v v' v')
            in
            (hook_a :=
               fun () ->
                 step 0 1;
                 hook_b :=
                   fun () ->
                     step 1 2;
                     step 2 0);
            Alcotest.(check bool) "torn pair rejected" false
              (M.dcas a b 0 1 0 1);
            Alcotest.(check int) "every writer step ran" 3 !steps;
            Alcotest.(check (pair int int)) "a = b" (0, 0) (M.get a, M.get b)));
    Alcotest.test_case "no-op dcas: an owned location takes the descriptor"
      `Quick (fun () ->
        (* the publish hook runs once the writer's descriptor owns its
           first location; a confirmation issued there must not read
           past the [Owned] block, and falls back to a descriptor that
           helps the writer through *)
        with_dcas2 true (fun () ->
            let a = M.make 0 and b = M.make 0 in
            let inner = ref None in
            M.set_publish_hook (fun () ->
                if !inner = None then begin
                  inner := Some false;
                  inner := Some (M.dcas a b 0 0 0 0)
                end);
            M.reset_stats ();
            let ok =
              Fun.protect ~finally:M.clear_publish_hook (fun () ->
                  M.dcas a b 0 0 1 1)
            in
            Alcotest.(check bool) "writer succeeds" true ok;
            Alcotest.(check (option bool)) "confirmation of the old pair"
              (Some false) !inner;
            Alcotest.(check int) "two descriptors" 2
              (M.stats ()).descriptor_allocs;
            Alcotest.(check (pair int int)) "written" (1, 1)
              (M.get a, M.get b)));
    Alcotest.test_case "no-op dcas: never certifies a torn snapshot" `Quick
      (fun () ->
        (* the writer keeps a = b, cycling the values mod 3 so that each
           recurs (ABA); the checker reads a and b separately and asks a
           no-op DCAS to confirm the pair.  Confirming a torn pair
           (va <> vb) would certify a state that never existed. *)
        with_dcas2 true (fun () ->
            let a = M.make 0 and b = M.make 0 in
            let stop = Atomic.make false in
            let writer =
              Domain.spawn (fun () ->
                  while not (Atomic.get stop) do
                    let v = M.get a in
                    let v' = (v + 1) mod 3 in
                    ignore (M.dcas a b v v v' v')
                  done)
            in
            let torn = ref 0 and confirmed = ref 0 and rejected = ref 0 in
            Fun.protect
              ~finally:(fun () ->
                Atomic.set stop true;
                Domain.join writer)
              (fun () ->
                let t_end = Unix.gettimeofday () +. 5. in
                let i = ref 0 in
                while
                  (!i < 200_000 || !confirmed = 0 || !rejected = 0)
                  && Unix.gettimeofday () < t_end
                do
                  incr i;
                  let va = M.get a in
                  let vb = M.get b in
                  if M.dcas a b va vb va vb then begin
                    incr confirmed;
                    if va <> vb then incr torn
                  end
                  else incr rejected
                done);
            Alcotest.(check int) "torn pairs confirmed" 0 !torn;
            Alcotest.(check bool)
              (Printf.sprintf "%d confirmed, %d rejected: both > 0" !confirmed
                 !rejected)
              true
              (!confirmed > 0 && !rejected > 0)));
  ]

(* --- substrate odds and ends --- *)

let misc_tests =
  [
    Alcotest.test_case "backoff: parameter validation" `Quick (fun () ->
        Alcotest.check_raises "min_wait 0"
          (Invalid_argument "Backoff.create: need 1 <= min_wait <= max_wait")
          (fun () -> ignore (Dcas.Backoff.create ~min_wait:0 ()));
        Alcotest.check_raises "max < min"
          (Invalid_argument "Backoff.create: need 1 <= min_wait <= max_wait")
          (fun () -> ignore (Dcas.Backoff.create ~min_wait:8 ~max_wait:4 ())));
    Alcotest.test_case "backoff: once/reset terminate" `Quick (fun () ->
        let b = Dcas.Backoff.create ~min_wait:1 ~max_wait:4 () in
        for _ = 1 to 20 do
          Dcas.Backoff.once b
        done;
        Dcas.Backoff.reset b;
        Dcas.Backoff.once b);
    Alcotest.test_case "backoff: defaults are exposed and valid" `Quick
      (fun () ->
        Alcotest.(check bool) "1 <= min <= max" true
          (1 <= Dcas.Backoff.default_min_wait
          && Dcas.Backoff.default_min_wait <= Dcas.Backoff.default_max_wait);
        ignore
          (Dcas.Backoff.create ~min_wait:Dcas.Backoff.default_min_wait
             ~max_wait:Dcas.Backoff.default_max_wait ()));
    Alcotest.test_case "backoff: degenerate bounds terminate" `Quick (fun () ->
        (* min = max leaves a zero-width random range; each [once] must
           still return (the rng draw has bound 1) *)
        let b = Dcas.Backoff.create ~min_wait:3 ~max_wait:3 () in
        for _ = 1 to 50 do
          Dcas.Backoff.once b
        done;
        let b1 = Dcas.Backoff.create ~min_wait:1 ~max_wait:1 () in
        for _ = 1 to 50 do
          Dcas.Backoff.once b1
        done);
    Alcotest.test_case "id: strictly increasing" `Quick (fun () ->
        let a = Dcas.Id.next () in
        let b = Dcas.Id.next () in
        Alcotest.(check bool) "a < b" true (a < b));
    Alcotest.test_case "opstats: reset zeroes counters" `Quick (fun () ->
        let module M = Dcas.Mem_seq in
        M.reset_stats ();
        let l = M.make 0 in
        ignore (M.get l);
        M.set l 1;
        Alcotest.(check bool) "counted" true ((M.stats ()).reads >= 1);
        M.reset_stats ();
        let s = M.stats () in
        Alcotest.(check int) "reads zero" 0 s.reads;
        Alcotest.(check int) "writes zero" 0 s.writes);
    QCheck_alcotest.to_alcotest casn_matches_reference;
    QCheck_alcotest.to_alcotest fastfail_matches_reference;
    QCheck_alcotest.to_alcotest striped_matches_seq;
  ]

let () =
  Alcotest.run "dcas"
    [
      ("figure-1-semantics", List.concat_map seq_tests models);
      ("concurrent-atomicity", List.concat_map concurrent_tests concurrent_models);
      ("casn", casn_tests);
      ("fast-path", fastpath_tests);
      ("dcas2", dcas2_tests);
      ("stats-completeness", stats_completeness_tests);
      ("opstats", opstats_tests);
      ("counter-exactness", counter_exactness_tests);
      ("alloc-ceiling", alloc_ceiling_tests);
      ("dcas2-tags", dcas2_tag_tests);
      ("noop-confirm", noop_confirm_tests);
      ("substrate", misc_tests);
    ]
