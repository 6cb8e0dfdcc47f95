(* Span tracing for the traced run.  Every layer boundary the benchmark
   can reach from outside (substrate call, deque call, service call,
   task body) opens a span on the calling domain's tracer.  A span has
   a kind, a start, an end, a parent and a request id.  Closing a span
   charges its duration to its parent's child time, so each kind's self
   time (duration minus the time its children cover) is aggregated
   online; the first [capacity] spans of each tracer are also kept in
   preallocated buffers and written out when the benchmark ends. *)

let kinds =
  [|
    "dcas";
    "deque.push";
    "deque.pop";
    "service.push";
    "service.pop";
    "task";
    "ws.push";
    "ws.pop";
    "ws.steal";
  |]

let dcas = 0
let deque_push = 1
let deque_pop = 2
let service_push = 3
let service_pop = 4
let task = 5
let ws_push = 6
let ws_pop = 7
let ws_steal = 8
let n_kinds = Array.length kinds
let max_depth = 16
let capacity = 1 lsl 14

type t = {
  clock : unit -> int;
  (* open spans *)
  s_kind : int array;
  s_start : int array;
  s_child : int array;
  s_slot : int array;
  s_words : float array;
  mutable depth : int;
  (* per-kind aggregates *)
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  misses : int array;  (** calls that found nothing to do: an empty pop *)
  words_incl : float array;
  lat : Stats.hist array;
  mutable root_ns : int;  (** closed spans that had no parent *)
  (* root spans not yet claimed by an after-the-fact parent *)
  mutable unclaimed_ns : int;
  mutable unclaimed_from : int;
  mutable req : int;
  (* recorded spans *)
  b_kind : int array;
  b_start : int array;
  b_stop : int array;
  b_parent : int array;
  b_req : int array;
  mutable len : int;
}

let create ?(clock = Clock.now_ns) () =
  {
    clock;
    s_kind = Array.make max_depth 0;
    s_start = Array.make max_depth 0;
    s_child = Array.make max_depth 0;
    s_slot = Array.make max_depth (-1);
    s_words = Array.make max_depth 0.;
    depth = 0;
    calls = Array.make n_kinds 0;
    total_ns = Array.make n_kinds 0;
    self_ns = Array.make n_kinds 0;
    misses = Array.make n_kinds 0;
    words_incl = Array.make n_kinds 0.;
    lat = Array.init n_kinds (fun _ -> Stats.hist ());
    root_ns = 0;
    unclaimed_ns = 0;
    unclaimed_from = 0;
    req = 0;
    b_kind = Array.make capacity 0;
    b_start = Array.make capacity 0;
    b_stop = Array.make capacity 0;
    b_parent = Array.make capacity (-1);
    b_req = Array.make capacity 0;
    len = 0;
  }

let set_req t r = t.req <- r
let miss t kind = t.misses.(kind) <- t.misses.(kind) + 1

let slot t =
  if t.len >= capacity then -1
  else begin
    let i = t.len in
    t.len <- i + 1;
    i
  end

let enter t kind =
  let d = t.depth in
  let i = slot t in
  if i >= 0 then begin
    t.b_kind.(i) <- kind;
    t.b_req.(i) <- t.req;
    t.b_parent.(i) <- (if d > 0 then t.s_slot.(d - 1) else -1)
  end;
  t.s_kind.(d) <- kind;
  t.s_slot.(d) <- i;
  t.s_child.(d) <- 0;
  (* minor words of this domain, so a kind's words include its
     children's; [Gc.minor_words] is unboxed and does not allocate *)
  t.s_words.(d) <- Gc.minor_words ();
  t.depth <- d + 1;
  t.s_start.(d) <- t.clock ()

let account t kind ~dur ~child =
  t.calls.(kind) <- t.calls.(kind) + 1;
  t.total_ns.(kind) <- t.total_ns.(kind) + dur;
  t.self_ns.(kind) <- t.self_ns.(kind) + (dur - child);
  Stats.add t.lat.(kind) dur

let leave t =
  let stop = t.clock () in
  let d = t.depth - 1 in
  t.depth <- d;
  let kind = t.s_kind.(d) in
  let dur = stop - t.s_start.(d) in
  account t kind ~dur ~child:t.s_child.(d);
  t.words_incl.(kind) <- t.words_incl.(kind) +. (Gc.minor_words () -. t.s_words.(d));
  let i = t.s_slot.(d) in
  if i >= 0 then begin
    t.b_start.(i) <- t.s_start.(d);
    t.b_stop.(i) <- stop
  end;
  if d > 0 then t.s_child.(d - 1) <- t.s_child.(d - 1) + dur
  else begin
    t.root_ns <- t.root_ns + dur;
    t.unclaimed_ns <- t.unclaimed_ns + dur
  end

(* Close a span whose interval is only known after the fact — a service
   call, reported by the service's [on_push]/[on_pop] hooks once it has
   returned.  Every root span this tracer closed since the previous
   claim ran inside that call, so it becomes a child. *)
let claim t kind ~start ~stop =
  let dur = stop - start in
  let i = slot t in
  if i >= 0 then begin
    t.b_kind.(i) <- kind;
    t.b_req.(i) <- t.req;
    t.b_parent.(i) <- -1;
    t.b_start.(i) <- start;
    t.b_stop.(i) <- stop;
    for j = t.unclaimed_from to i - 1 do
      if t.b_parent.(j) < 0 then t.b_parent.(j) <- i
    done
  end;
  account t kind ~dur ~child:t.unclaimed_ns;
  t.root_ns <- t.root_ns + dur - t.unclaimed_ns;
  t.unclaimed_ns <- 0;
  t.unclaimed_from <- t.len

(* One tracer per live domain.  A domain takes a tracer from the free
   pool on first use and returns it at exit, so a workload that spawns
   fresh domains every round reuses a handful of tracers. *)
let lock = Mutex.create ()
let all_tracers = ref []
let free = ref []

let acquire () =
  Mutex.protect lock (fun () ->
      match !free with
      | t :: rest ->
          free := rest;
          t
      | [] ->
          let t = create () in
          all_tracers := t :: !all_tracers;
          t)

let key =
  Domain.DLS.new_key (fun () ->
      let t = acquire () in
      Domain.at_exit (fun () ->
          t.depth <- 0;
          t.unclaimed_ns <- 0;
          t.unclaimed_from <- t.len;
          Mutex.protect lock (fun () -> free := t :: !free));
      t)

let get () = Domain.DLS.get key
let tracers () = Mutex.protect lock (fun () -> !all_tracers)

let sum f = List.fold_left (fun acc t -> acc + f t) 0 (tracers ())
let calls kind = sum (fun t -> t.calls.(kind))
let total_ns kind = sum (fun t -> t.total_ns.(kind))
let self_ns kind = sum (fun t -> t.self_ns.(kind))
let misses kind = sum (fun t -> t.misses.(kind))
let root_ns () = sum (fun t -> t.root_ns)

let words kind =
  List.fold_left (fun acc t -> acc +. t.words_incl.(kind)) 0. (tracers ())

let lat kind = Stats.merged (List.map (fun t -> t.lat.(kind)) (tracers ()))

let write_csv path =
  let oc = open_out path in
  output_string oc "tracer,index,kind,start_ns,stop_ns,parent,req\n";
  List.iteri
    (fun k t ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d,%d,%s,%d,%d,%d,%d\n" k i kinds.(t.b_kind.(i))
          t.b_start.(i) t.b_stop.(i) t.b_parent.(i) t.b_req.(i)
      done)
    (tracers ());
  close_out oc
