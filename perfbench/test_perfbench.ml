(* Tests for the benchmark's own helpers: percentiles with failures as
   +infinity and the ten-samples-beyond rule, self time with nested
   child spans, and open-loop arrival reconstruction. *)

let check name ok = if not ok then failwith ("FAILED: " ^ name)

let hist_of xs =
  let h = Stats.hist () in
  List.iter (Stats.add h) xs;
  h

let test_percentiles () =
  (* values below 64 have exact buckets *)
  let h = hist_of (List.init 50 (fun i -> i + 1)) in
  check "p50 of 1..50" (Stats.quantile h 0.5 = 25.);
  check "p100 of 1..50" (Stats.quantile h 1.0 = 50.);
  (* 50 failures double the population: the median is the last real
     sample and everything above it is +inf *)
  check "p50 with 50 failures" (Stats.quantile ~failures:50 h 0.5 = 50.);
  check "p51 with 50 failures" (Stats.quantile ~failures:50 h 0.51 = infinity);
  check "one failure is the max" (Stats.quantile ~failures:1 h 1.0 = infinity);
  check "empty is nan" (Float.is_nan (Stats.quantile (Stats.hist ()) 0.5));
  check "only failures" (Stats.quantile ~failures:3 (Stats.hist ()) 0.5 = infinity);
  (* large values are read back within their bucket, 1/32 of the value *)
  List.iter
    (fun v ->
      let q = Stats.quantile (hist_of [ v ]) 0.5 in
      check (Printf.sprintf "bucket of %d" v)
        (Float.abs (q -. float v) <= float v /. 32.))
    [ 64; 65; 100; 127; 128; 1000; 123_456; 987_654_321 ];
  (* samples sharing a bucket are spread over its width *)
  let h = hist_of (List.init 32 (fun _ -> 1000)) in
  check "spread within a bucket"
    (Stats.quantile h 0.25 < Stats.quantile h 0.75
    && Stats.quantile h 0.75 -. Stats.quantile h 0.25 <= 1000. /. 32.);
  check "negative clamps to 0" (Stats.quantile (hist_of [ -5 ]) 0.5 = 0.);
  (* the highest percentile with at least ten samples beyond it *)
  check "19 samples: none" (Stats.tail_q 19 = None);
  check "20 samples: p50" (Stats.tail_q 20 = Some 0.5);
  check "100 samples: p90" (Stats.tail_q 100 = Some 0.9);
  check "999 samples: p90" (Stats.tail_q 999 = Some 0.9);
  check "1000 samples: p99" (Stats.tail_q 1000 = Some 0.99);
  check "10000 samples: p99.9" (Stats.tail_q 10_000 = Some 0.999);
  check "median of 4" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "median of 3" (Stats.median [ 5.; 1.; 3. ] = 3.)

(* A clock that returns the next scripted instant on each read. *)
let scripted ts =
  let q = ref ts in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> failwith "clock script exhausted"

let test_self_time () =
  (* task [0,100) > deque [10,60) > dcas [20,30) and dcas [40,45);
     then deque [70,90) with no children *)
  let t = Spans.create ~clock:(scripted [ 0; 10; 20; 30; 40; 45; 60; 70; 90; 100 ]) () in
  Spans.enter t Spans.task;
  Spans.enter t Spans.deque_push;
  Spans.enter t Spans.dcas;
  Spans.leave t;
  Spans.enter t Spans.dcas;
  Spans.leave t;
  Spans.leave t;
  Spans.enter t Spans.deque_pop;
  Spans.leave t;
  Spans.leave t;
  check "dcas self" (t.self_ns.(Spans.dcas) = 15);
  check "dcas calls" (t.calls.(Spans.dcas) = 2);
  check "push self = 50 - 15" (t.self_ns.(Spans.deque_push) = 35);
  check "pop self" (t.self_ns.(Spans.deque_pop) = 20);
  check "task self = 100 - 50 - 20" (t.self_ns.(Spans.task) = 30);
  check "task total" (t.total_ns.(Spans.task) = 100);
  check "root time" (t.root_ns = 100);
  check "self times sum to root time"
    (Array.fold_left ( + ) 0 t.self_ns = t.root_ns);
  check "recorded" (t.len = 5);
  check "parents"
    (Array.sub t.b_parent 0 5 = [| -1; 0; 1; 1; 0 |]);
  check "intervals" (t.b_start.(2) = 20 && t.b_stop.(2) = 30)

let test_claim () =
  (* two deque calls run at root level; the service then reports that
     its call covered [0,100): they become its children *)
  let t = Spans.create ~clock:(scripted [ 10; 30; 50; 60 ]) () in
  Spans.enter t Spans.deque_pop;
  Spans.leave t;
  Spans.enter t Spans.deque_pop;
  Spans.leave t;
  Spans.claim t Spans.service_pop ~start:0 ~stop:100;
  check "service self = 100 - 20 - 10" (t.self_ns.(Spans.service_pop) = 70);
  check "children reparented" (t.b_parent.(0) = 2 && t.b_parent.(1) = 2);
  check "root counted once" (t.root_ns = 100);
  (* a later claim does not take the earlier children again *)
  Spans.claim t Spans.service_push ~start:200 ~stop:250;
  check "second claim has no children" (t.self_ns.(Spans.service_push) = 50)

let test_arrival () =
  let rate = 50_000. in
  check "request 0 at t0" (Stats.intended_arrival_ns ~t0:1_000 ~rate 0 = 1_000);
  check "request 1 at t0 + 20us"
    (Stats.intended_arrival_ns ~t0:1_000 ~rate 1 = 21_000);
  check "request 50000 one second later"
    (Stats.intended_arrival_ns ~t0:0 ~rate 50_000 = 1_000_000_000);
  (* on-time producer: the origin is the first send *)
  let on_time v = 5_000 + (v * 20_000) + if v = 3 then 7_000 else 0 in
  check "origin of an on-time producer"
    (Stats.schedule_origin_ns ~rate ~n:10 on_time = 5_000);
  (* a producer that started 100 us late and caught up: sends 0..4 all
     go out at 105_000, later ones on schedule from t0 = 5_000 *)
  let late v = if v < 5 then 105_000 + v else 5_000 + (v * 20_000) in
  check "origin of a late starter"
    (Stats.schedule_origin_ns ~rate ~n:10 late = 5_000);
  check "empty schedule" (Stats.schedule_origin_ns ~rate ~n:0 late = max_int)

let () =
  test_percentiles ();
  test_self_time ();
  test_claim ();
  test_arrival ();
  print_endline "perfbench helpers: ok"
