(* Tests for the measurement harness itself: RNG determinism and
   distribution sanity, table rendering, histograms, workload mixes and
   the runner's accounting.  The harness is load-bearing for every
   benchmark number in EXPERIMENTS.md, so it gets its own checks. *)

let test_splitmix_determinism () =
  let a = Harness.Splitmix.create ~seed:123 in
  let b = Harness.Splitmix.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same stream" (Harness.Splitmix.next_int64 a)
      (Harness.Splitmix.next_int64 b)
  done

let test_splitmix_split_independent () =
  let master = Harness.Splitmix.create ~seed:7 in
  let s1 = Harness.Splitmix.split master in
  let s2 = Harness.Splitmix.split master in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Harness.Splitmix.next_int64 s1 = Harness.Splitmix.next_int64 s2 then
      incr same
  done;
  Alcotest.(check int) "split streams differ" 0 !same

let test_splitmix_bounds () =
  let rng = Harness.Splitmix.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Harness.Splitmix.int rng ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Harness.Splitmix.int rng ~bound:0))

let test_splitmix_uniformish () =
  let rng = Harness.Splitmix.create ~seed:11 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Harness.Splitmix.int rng ~bound:4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expect = n / 4 in
      if abs (c - expect) > expect / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expect)
    counts

let test_table_render () =
  let s =
    Harness.Table.render
      ~headers:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "23" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "5 lines (incl. trailing empty)" 5 (List.length lines);
  (* all non-empty lines are equally wide *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
  | [] -> Alcotest.fail "no output");
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Table.render: ragged row") (fun () ->
      ignore (Harness.Table.render ~headers:[ "a" ] [ [ "1"; "2" ] ]))

let test_table_formats () =
  Alcotest.(check string) "ops M" "2.50M" (Harness.Table.ops_per_sec 2.5e6);
  Alcotest.(check string) "ops k" "3.0k" (Harness.Table.ops_per_sec 3.0e3);
  Alcotest.(check string) "ns" "750ns" (Harness.Table.ns 750.);
  Alcotest.(check string) "us" "1.50us" (Harness.Table.ns 1500.);
  Alcotest.(check string) "ratio" "2.00x" (Harness.Table.ratio 2.0)

let test_histogram () =
  let h = Harness.Metrics.Histogram.create () in
  List.iter
    (fun ns -> Harness.Metrics.Histogram.add h ~ns)
    [ 100; 100; 100; 100; 100; 100; 100; 100; 100; 10_000 ];
  let mean = Harness.Metrics.Histogram.mean_ns h in
  Alcotest.(check bool) "mean near 1090" true (abs_float (mean -. 1090.) < 1.);
  let p50 = Harness.Metrics.Histogram.quantile_ns h 0.5 in
  Alcotest.(check bool) "p50 bucket covers 100ns" true (p50 <= 256.);
  let p99 = Harness.Metrics.Histogram.quantile_ns h 0.99 in
  Alcotest.(check bool) "p99 bucket covers 10us" true (p99 >= 8192.)

let test_histogram_merge () =
  let a = Harness.Metrics.Histogram.create () in
  let b = Harness.Metrics.Histogram.create () in
  Harness.Metrics.Histogram.add a ~ns:10;
  Harness.Metrics.Histogram.add b ~ns:1000;
  let m = Harness.Metrics.Histogram.merge a b in
  Alcotest.(check bool) "count 2" true (Harness.Metrics.Histogram.mean_ns m = 505.)

let test_workload_mix () =
  let rng = Harness.Splitmix.create ~seed:3 in
  let counts = Hashtbl.create 4 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  for _ = 1 to 10_000 do
    bump (Harness.Workload.draw Harness.Workload.push_heavy rng)
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  let pushes = get Harness.Workload.Push_right + get Harness.Workload.Push_left in
  let pops = get Harness.Workload.Pop_right + get Harness.Workload.Pop_left in
  Alcotest.(check bool)
    (Printf.sprintf "push-heavy mix skews to pushes (%d vs %d)" pushes pops)
    true
    (pushes > 2 * pops)

let test_workload_right_only () =
  let rng = Harness.Splitmix.create ~seed:4 in
  for _ = 1 to 1_000 do
    match Harness.Workload.draw Harness.Workload.right_only rng with
    | Harness.Workload.Push_right | Harness.Workload.Pop_right -> ()
    | Harness.Workload.Push_left | Harness.Workload.Pop_left ->
        Alcotest.fail "left operation drawn from right_only mix"
  done

let test_runner_counts () =
  let r =
    Harness.Runner.run ~threads:3 ~duration:0.05 (fun ~tid:_ ~rng:_ -> ())
  in
  Alcotest.(check int) "three buckets" 3 (Array.length r.Harness.Runner.per_thread);
  Array.iter
    (fun c -> Alcotest.(check bool) "every thread ran" true (c > 0))
    r.Harness.Runner.per_thread;
  Alcotest.(check bool) "throughput positive" true (Harness.Runner.throughput r > 0.)

let test_runner_fixed () =
  let hits = Array.make 3 0 in
  let _elapsed =
    Harness.Runner.run_fixed ~threads:3 ~iters:1000 (fun ~tid ~rng:_ ~i:_ ->
        hits.(tid) <- hits.(tid) + 1)
  in
  Array.iter (fun c -> Alcotest.(check int) "exact iteration count" 1000 c) hits

(* --- Stall request validation --- *)

let test_stall_validation () =
  List.iter
    (fun f ->
      match f () with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Harness.Stall.request ~after_ops:0 ~duration:0.1);
      (fun () -> Harness.Stall.request ~after_ops:(-3) ~duration:0.1);
      (fun () -> Harness.Stall.request ~after_ops:1 ~duration:(-0.5));
      (fun () -> Harness.Stall.request ~after_ops:1 ~duration:Float.nan);
    ];
  Alcotest.(check bool) "rejected requests leave nothing pending" false
    (Harness.Stall.pending ())

let test_stall_cancel_idempotent () =
  Harness.Stall.cancel ();
  Harness.Stall.cancel ();
  Alcotest.(check bool) "nothing pending" false (Harness.Stall.pending ());
  Harness.Stall.request ~after_ops:1000 ~duration:0.;
  Alcotest.(check bool) "armed" true (Harness.Stall.pending ());
  Harness.Stall.cancel ();
  Alcotest.(check bool) "cancelled" false (Harness.Stall.pending ());
  Harness.Stall.cancel ();
  Alcotest.(check bool) "still cancelled" false (Harness.Stall.pending ())

let test_stall_request_overwrites () =
  (* a second request replaces the first countdown, it does not queue:
     one point () call later the (new) 1-op request fires, and nothing
     remains pending *)
  Harness.Stall.request ~after_ops:1_000_000 ~duration:60.;
  Harness.Stall.request ~after_ops:1 ~duration:0.;
  Harness.Stall.point ();
  Alcotest.(check bool) "single armed slot consumed" false
    (Harness.Stall.pending ())

(* --- Watchdog --- *)

let test_watchdog_validation () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Harness.Watchdog.create ~threads:0 ());
      (fun () -> Harness.Watchdog.create ~interval:0. ~threads:1 ());
      (fun () -> Harness.Watchdog.create ~stall_after:(-1.) ~threads:1 ());
    ]

let test_watchdog_quiet_when_progressing () =
  let w =
    Harness.Watchdog.create ~interval:0.01 ~stall_after:0.2
      ~on_stall:(fun _ -> Alcotest.fail "fired despite progress")
      ~threads:1 ()
  in
  Harness.Watchdog.start w;
  for _ = 1 to 20 do
    Harness.Watchdog.tick w ~tid:0;
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) "no stalls" 0 (Harness.Watchdog.stop w);
  Alcotest.(check int) "ticks accounted" 20 (Harness.Watchdog.total w)

let test_watchdog_fires_and_rearms () =
  let snaps = ref [] in
  let w =
    Harness.Watchdog.create ~interval:0.01 ~stall_after:0.05
      ~on_stall:(fun s -> snaps := s :: !snaps)
      ~threads:2 ()
  in
  Harness.Watchdog.note w ~tid:0 "first-stall";
  Harness.Watchdog.start w;
  let wait_for_stalls n =
    let deadline = Unix.gettimeofday () +. 5. in
    while Harness.Watchdog.stalls w < n && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done
  in
  wait_for_stalls 1;
  Alcotest.(check bool) "fired" true (Harness.Watchdog.fired w);
  (* progress re-arms the detector; a second stall is a new episode *)
  Harness.Watchdog.tick w ~tid:1;
  wait_for_stalls 2;
  Alcotest.(check int) "two episodes" 2 (Harness.Watchdog.stop w);
  match List.rev !snaps with
  | first :: _ ->
      Alcotest.(check bool) "waited at least the threshold" true
        (first.Harness.Watchdog.waited >= 0.05);
      Alcotest.(check int) "two counters" 2
        (Array.length first.Harness.Watchdog.per_thread);
      Alcotest.(check string) "noted op surfaces" "first-stall"
        first.Harness.Watchdog.last_op.(0)
  | [] -> Alcotest.fail "no snapshot captured"

let test_watchdog_double_start_rejected () =
  let w = Harness.Watchdog.create ~threads:1 () in
  Harness.Watchdog.start w;
  Alcotest.(check bool) "second start rejected" true
    (match Harness.Watchdog.start w with
    | () -> false
    | exception Invalid_argument _ -> true);
  ignore (Harness.Watchdog.stop w);
  ignore (Harness.Watchdog.stop w) (* stop is a no-op when not running *)

(* --- Storm schedules --- *)

let chaos_window ~at ~hold = { Harness.Storm.at; hold; fault = Chaos }

let test_storm_validation () =
  List.iter
    (fun (at, hold) ->
      match Harness.Storm.run [ chaos_window ~at ~hold ] with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ (-0.1, 0.); (Float.nan, 0.); (0., -0.1); (0., Float.nan) ]

let test_storm_jittered () =
  let ws =
    List.init 50 (fun i ->
        chaos_window ~at:(float_of_int (i mod 2)) ~hold:0.5)
  in
  let a = Harness.Storm.jittered ~seed:7 ~jitter:1. ws in
  Alcotest.(check bool) "same seed, same offsets" true
    (a = Harness.Storm.jittered ~seed:7 ~jitter:1. ws);
  Alcotest.(check bool) "another seed, other offsets" true
    (a <> Harness.Storm.jittered ~seed:8 ~jitter:1. ws);
  List.iter2
    (fun (w : Harness.Storm.window) (j : Harness.Storm.window) ->
      Alcotest.(check bool) "clamped at 0" true (j.at >= 0.);
      Alcotest.(check bool) "within the jitter" true
        (Float.abs (j.at -. w.at) <= 1.);
      Alcotest.(check (float 0.)) "hold untouched" w.hold j.hold)
    ws a;
  Alcotest.(check bool) "some offset clamped to 0" true
    (List.exists (fun (j : Harness.Storm.window) -> j.at = 0.) a);
  match Harness.Storm.jittered ~seed:7 ~jitter:(-1.) ws with
  | _ -> Alcotest.fail "negative jitter accepted"
  | exception Invalid_argument _ -> ()

(* At one offset every start fires before any stop, each in declared
   order: a trace of (open windows, zombie flags of tids 1 and 2) taken
   after every edge pins the sequence. *)
let test_storm_event_order () =
  Harness.Stall.Zombie.reset ();
  let trace = ref [] in
  let on_active n =
    trace :=
      ( n,
        Harness.Stall.Zombie.active ~tid:1,
        Harness.Stall.Zombie.active ~tid:2 )
      :: !trace
  in
  let zombie ~tid ~at ~hold =
    { Harness.Storm.at; hold; fault = Zombie { tid } }
  in
  ignore
    (Harness.Storm.run ~on_active
       [ zombie ~tid:1 ~at:0. ~hold:0.; zombie ~tid:2 ~at:0. ~hold:0. ]);
  ignore
    (Harness.Storm.run ~on_active
       [ zombie ~tid:1 ~at:0. ~hold:0.01; zombie ~tid:2 ~at:0.01 ~hold:0. ]);
  Harness.Stall.Zombie.reset ();
  let edges =
    [ (1, true, false); (2, true, true); (1, false, true); (0, false, false) ]
  in
  Alcotest.(check (list (triple int bool bool)))
    "starts, then stops, in declared order" (edges @ edges) (List.rev !trace)

let test_storm_on_active () =
  let trace = ref [] in
  ignore
    (Harness.Storm.run
       ~on_active:(fun n -> trace := n :: !trace)
       [
         chaos_window ~at:0. ~hold:0.04;
         chaos_window ~at:0.01 ~hold:0.01;
         chaos_window ~at:0.015 ~hold:0.015;
       ]);
  Alcotest.(check (list int)) "open windows after each edge"
    [ 1; 2; 3; 2; 1; 0 ] (List.rev !trace)

(* A freeze and a zombie window land only on a victim that is there:
   one domain enrolled as freezer tid 5 that polls the zombie flag of
   tid 6.  The same windows aimed at tids nobody runs as report
   [landed = false]. *)
let test_storm_landing () =
  Harness.Stall.Freezer.reset ();
  Harness.Stall.Zombie.reset ();
  let stop = Atomic.make false and ready = Atomic.make false in
  let victim =
    Domain.spawn (fun () ->
        Harness.Stall.Freezer.enroll ~tid:5;
        Atomic.set ready true;
        while not (Atomic.get stop) do
          if Harness.Stall.Zombie.active ~tid:6 then
            Harness.Stall.Zombie.bite ~tid:6;
          Harness.Stall.point ();
          Domain.cpu_relax ()
        done;
        Harness.Stall.Freezer.leave ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let storm ~freeze ~zombie =
    List.map
      (fun l -> l.Harness.Storm.landed)
      (Harness.Storm.run
         [
           {
             Harness.Storm.at = 0.;
             hold = 0.15;
             fault = Freeze { tid = freeze };
           };
           { at = 0.2; hold = 0.15; fault = Zombie { tid = zombie } };
         ])
  in
  let enrolled = storm ~freeze:5 ~zombie:6 in
  let absent = storm ~freeze:7 ~zombie:8 in
  Atomic.set stop true;
  Domain.join victim;
  Harness.Stall.Freezer.reset ();
  Harness.Stall.Zombie.reset ();
  Alcotest.(check (list bool)) "enrolled victims" [ true; true ] enrolled;
  Alcotest.(check (list bool)) "no victim" [ false; false ] absent

(* --- Starvation metrics --- *)

let test_starvation () =
  let s = Harness.Metrics.Starvation.of_counts [| 100; 100; 100 |] in
  Alcotest.(check int) "min" 100 s.Harness.Metrics.Starvation.min_ops;
  Alcotest.(check int) "max" 100 s.Harness.Metrics.Starvation.max_ops;
  Alcotest.(check (float 1e-9)) "fair" 0. s.Harness.Metrics.Starvation.imbalance;
  let s = Harness.Metrics.Starvation.of_counts [| 0; 200; 100 |] in
  Alcotest.(check int) "min" 0 s.Harness.Metrics.Starvation.min_ops;
  Alcotest.(check int) "max" 200 s.Harness.Metrics.Starvation.max_ops;
  Alcotest.(check (float 1e-9)) "imbalance (max-min)/mean" 2.
    s.Harness.Metrics.Starvation.imbalance;
  let z = Harness.Metrics.Starvation.of_counts [| 0; 0 |] in
  Alcotest.(check (float 1e-9)) "all-zero counts are fair" 0.
    z.Harness.Metrics.Starvation.imbalance;
  Alcotest.(check bool) "empty rejected" true
    (match Harness.Metrics.Starvation.of_counts [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Json: rows from a partially-failed soak cell must always parse --- *)

let test_json_control_chars () =
  (* every control character, DEL included, must escape to something
     the parser reads back byte-for-byte *)
  let raw = Buffer.create 130 in
  for code = 0 to 0x1f do
    Buffer.add_char raw (Char.chr code)
  done;
  Buffer.add_string raw "plain \"quoted\" back\\slash";
  Buffer.add_char raw '\x7f';
  let s = Buffer.contents raw in
  let doc = Harness.Json.Obj [ ("label", Harness.Json.String s) ] in
  let text = Harness.Json.to_string doc in
  String.iter
    (fun c ->
      if Char.code c < 0x20 || Char.code c = 0x7f then
        Alcotest.failf "raw control byte 0x%02x leaked into output"
          (Char.code c))
    text;
  match Harness.Json.(member "label" (of_string text)) with
  | Harness.Json.String s' -> Alcotest.(check string) "round trip" s s'
  | _ -> Alcotest.fail "label did not parse back as a string"

let test_json_nonfinite_floats () =
  let doc =
    Harness.Json.List
      [
        Harness.Json.Float Float.nan;
        Harness.Json.Float Float.infinity;
        Harness.Json.Float Float.neg_infinity;
        Harness.Json.Float 1.5;
      ]
  in
  let text = Harness.Json.to_string doc in
  Alcotest.(check string) "nan/inf emitted as null" "[null,null,null,1.5]"
    text;
  (* and the result still parses *)
  match Harness.Json.of_string text with
  | Harness.Json.List [ Null; Null; Null; Float f ] ->
      Alcotest.(check (float 0.)) "finite float survives" 1.5 f
  | _ -> Alcotest.fail "unexpected parse shape"

(* Property: any byte string survives a full encode/parse round trip
   as an object member, and the encoding never leaks a raw control
   byte (the partially-written labels of a crashed soak cell are
   exactly "any byte string").  QCheck2's string generator covers the
   full char range, including quotes, backslashes, DEL and NUL. *)
let json_string_roundtrip =
  QCheck2.Test.make ~name:"json string round trip" ~count:1000
    ~print:QCheck2.Print.string
    QCheck2.Gen.(string_size ~gen:(char_range '\x00' '\xff') (0 -- 64))
    (fun s ->
      let text =
        Harness.Json.to_string
          (Harness.Json.Obj [ ("s", Harness.Json.String s) ])
      in
      String.iter
        (fun c ->
          if Char.code c < 0x20 || Char.code c = 0x7f then
            QCheck2.Test.fail_reportf "raw control byte 0x%02x in %S"
              (Char.code c) text)
        text;
      match Harness.Json.(member "s" (of_string text)) with
      | Harness.Json.String s' -> String.equal s s'
      | _ -> false)

(* --- Compare: the bench --compare verdict logic --- *)

let compare_schema = "compare-test/1"

let write_doc text =
  let file = Filename.temp_file "bench" ".json" in
  let oc = open_out file in
  output_string oc text;
  close_out oc;
  file

(* One experiment, rows given as (section, domains, ops_per_sec as raw
   JSON text) — raw text so tests can plant null / strings where a
   number belongs. *)
let doc_with rows =
  Printf.sprintf
    {|{"schema":"%s","experiments":[{"id":"e1","rows":[%s]}]}|}
    compare_schema
    (String.concat ","
       (List.map
          (fun (section, domains, ops) ->
            Printf.sprintf
              {|{"section":"%s","domains":%d,"ops_per_sec":%s}|} section
              domains ops)
          rows))

let run_compare ~old_rows ~new_rows =
  let old_file = write_doc (doc_with old_rows) in
  let new_file = write_doc (doc_with new_rows) in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file ~new_file ()
  in
  Sys.remove old_file;
  Sys.remove new_file;
  v

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_invalid name substring = function
  | Harness.Compare.Invalid m ->
      if not (contains ~sub:substring m) then
        Alcotest.failf "%s: diagnostic %S lacks %S" name m substring
  | Harness.Compare.Compared _ ->
      Alcotest.failf "%s: expected Invalid, got Compared" name

let test_compare_clean () =
  match
    run_compare
      ~old_rows:
        [ ("soak", 1, "1000.0"); ("shootout", 1, "500.0");
          ("shootout", 2, "400.0") ]
      ~new_rows:
        [ ("soak", 1, "950.0"); ("shootout", 1, "480.0");
          (* non-hot multi-domain rows may swing arbitrarily *)
          ("shootout", 2, "100.0") ]
  with
  | Harness.Compare.Compared { matched; regressions } ->
      Alcotest.(check int) "matched" 3 matched;
      Alcotest.(check int) "no regressions" 0 (List.length regressions)
  | Harness.Compare.Invalid m -> Alcotest.failf "unexpected Invalid: %s" m

let test_compare_regression () =
  match
    run_compare
      ~old_rows:[ ("soak", 1, "1000.0"); ("shootout", 1, "500.0") ]
      ~new_rows:[ ("soak", 1, "700.0"); ("shootout", 1, "490.0") ]
  with
  | Harness.Compare.Compared { matched; regressions } ->
      Alcotest.(check int) "matched" 2 matched;
      Alcotest.(check int) "one regression" 1 (List.length regressions)
  | Harness.Compare.Invalid m -> Alcotest.failf "unexpected Invalid: %s" m

let test_compare_missing_file () =
  let old_file = write_doc (doc_with [ ("soak", 1, "1.0") ]) in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file
      ~new_file:"/nonexistent/bench.json" ()
  in
  Sys.remove old_file;
  check_invalid "missing file" "cannot read" v

let test_compare_malformed_json () =
  let old_file = write_doc (doc_with [ ("soak", 1, "1.0") ]) in
  let new_file = write_doc "{\"schema\": oops" in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file ~new_file ()
  in
  Sys.remove old_file;
  Sys.remove new_file;
  check_invalid "malformed json" "invalid JSON" v

let test_compare_wrong_schema () =
  let old_file = write_doc (doc_with [ ("soak", 1, "1.0") ]) in
  let new_file = write_doc {|{"schema":"other/9","experiments":[]}|} in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file ~new_file ()
  in
  Sys.remove old_file;
  Sys.remove new_file;
  check_invalid "wrong schema" "unexpected schema" v

let test_compare_nan_cell () =
  (* Json.to_string writes NaN as null, so a NaN measurement reaches
     the comparison as a null ops_per_sec in a matched cell *)
  check_invalid "null ops" "ops_per_sec"
    (run_compare
       ~old_rows:[ ("soak", 1, "1000.0") ]
       ~new_rows:[ ("soak", 1, "null") ]);
  check_invalid "string ops" "ops_per_sec"
    (run_compare
       ~old_rows:[ ("soak", 1, "\"fast\"") ]
       ~new_rows:[ ("soak", 1, "1000.0") ]);
  check_invalid "zero baseline" "ops_per_sec"
    (run_compare
       ~old_rows:[ ("soak", 1, "0.0") ]
       ~new_rows:[ ("soak", 1, "1000.0") ])

let test_compare_nothing_matched () =
  check_invalid "disjoint rows" "no comparable rows"
    (run_compare
       ~old_rows:[ ("soak", 1, "1000.0") ]
       ~new_rows:[ ("shootout", 1, "1000.0") ])

let () =
  Alcotest.run "harness"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "split independence" `Quick
            test_splitmix_split_independent;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
          Alcotest.test_case "uniformity" `Quick test_splitmix_uniformish;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mix skew" `Quick test_workload_mix;
          Alcotest.test_case "right-only" `Quick test_workload_right_only;
        ] );
      ( "runner",
        [
          Alcotest.test_case "timed run" `Quick test_runner_counts;
          Alcotest.test_case "fixed run" `Quick test_runner_fixed;
        ] );
      ( "stall",
        [
          Alcotest.test_case "request validation" `Quick test_stall_validation;
          Alcotest.test_case "cancel idempotent" `Quick
            test_stall_cancel_idempotent;
          Alcotest.test_case "request overwrites" `Quick
            test_stall_request_overwrites;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "create validation" `Quick
            test_watchdog_validation;
          Alcotest.test_case "quiet while progressing" `Quick
            test_watchdog_quiet_when_progressing;
          Alcotest.test_case "fires and re-arms" `Quick
            test_watchdog_fires_and_rearms;
          Alcotest.test_case "double start rejected" `Quick
            test_watchdog_double_start_rejected;
        ] );
      ( "storm",
        [
          Alcotest.test_case "window validation" `Quick test_storm_validation;
          Alcotest.test_case "jittered offsets" `Quick test_storm_jittered;
          Alcotest.test_case "equal-offset order" `Quick
            test_storm_event_order;
          Alcotest.test_case "overlap count" `Quick test_storm_on_active;
          Alcotest.test_case "landing verdicts" `Quick test_storm_landing;
        ] );
      ( "starvation",
        [ Alcotest.test_case "imbalance" `Quick test_starvation ] );
      ( "json",
        [
          Alcotest.test_case "control characters escaped" `Quick
            test_json_control_chars;
          Alcotest.test_case "nan/inf encode as null" `Quick
            test_json_nonfinite_floats;
          QCheck_alcotest.to_alcotest json_string_roundtrip;
        ] );
      ( "compare",
        [
          Alcotest.test_case "clean compare" `Quick test_compare_clean;
          Alcotest.test_case "hot-path regression flagged" `Quick
            test_compare_regression;
          Alcotest.test_case "missing file is invalid" `Quick
            test_compare_missing_file;
          Alcotest.test_case "malformed json is invalid" `Quick
            test_compare_malformed_json;
          Alcotest.test_case "wrong schema is invalid" `Quick
            test_compare_wrong_schema;
          Alcotest.test_case "corrupt ops_per_sec is invalid" `Quick
            test_compare_nan_cell;
          Alcotest.test_case "nothing matched is invalid" `Quick
            test_compare_nothing_matched;
        ] );
    ]
