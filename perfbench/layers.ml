(* Benchmark-owned wrappers that time each layer from outside, through
   its public interface only.  The traced run instantiates the same
   workloads over these; the untraced run uses the stock modules.  The
   wrappers open spans by hand rather than through a closure, so they
   allocate nothing of their own and [deque.words_per_call] is the
   deque's own allocation. *)

(* The substrate: every DCAS/CASN call is a "dcas" span.  Reads and
   writes pass through untimed — two clock reads would cost more than
   the 5 ns they take. *)
module Timed_mem (M : Dcas.Memory_intf.MEMORY_CASN) :
  Dcas.Memory_intf.MEMORY_CASN = struct
  include M

  let dcas l1 l2 o1 o2 n1 n2 =
    let t = Spans.get () in
    Spans.enter t Spans.dcas;
    let r = M.dcas l1 l2 o1 o2 n1 n2 in
    Spans.leave t;
    r

  let dcas_strong l1 l2 o1 o2 n1 n2 =
    let t = Spans.get () in
    Spans.enter t Spans.dcas;
    let r = M.dcas_strong l1 l2 o1 o2 n1 n2 in
    Spans.leave t;
    r

  let casn entries =
    let t = Spans.get () in
    Spans.enter t Spans.dcas;
    let r = M.casn entries in
    Spans.leave t;
    r
end

module Mem = Timed_mem (Dcas.Mem_lockfree)

(* A general deque: pushes and pops of either end are "deque.push" and
   "deque.pop" spans; a pop that finds the deque empty is a miss. *)
module Timed_deque (D : Deque.Deque_intf.S) :
  Deque.Deque_intf.S with type 'a t = 'a D.t = struct
  type 'a t = 'a D.t

  let name = D.name
  let create = D.create

  let push kind d v f =
    let t = Spans.get () in
    Spans.enter t kind;
    let r = f d v in
    Spans.leave t;
    r
  [@@inline]

  let pop d f =
    let t = Spans.get () in
    Spans.enter t Spans.deque_pop;
    let r = f d in
    (match r with `Empty -> Spans.miss t Spans.deque_pop | `Value _ -> ());
    Spans.leave t;
    r
  [@@inline]

  let push_right d v = push Spans.deque_push d v D.push_right
  let push_left d v = push Spans.deque_push d v D.push_left
  let pop_right d = pop d D.pop_right
  let pop_left d = pop d D.pop_left
end

module List_deque = Timed_deque (Deque.List_deque.Make (Mem))
module Array_deque = Timed_deque (Deque.Array_deque.Make_batched (Mem))

(* The scheduler's deque: the stock [Scheduler.Array_deque_adapter]
   rebuilt over the timed substrate (owner pushes and pops the right
   end, thieves take batches from the left with one CASN), with its
   three operations as "ws.push", "ws.pop" and "ws.steal" spans.  A
   full push, an empty owner pop and an empty steal are misses. *)
module Worksteal_deque : Worksteal.Worksteal_intf.WORKSTEAL_DEQUE = struct
  module A = Deque.Array_deque.Make_batched (Mem)

  type 'a t = 'a A.t

  let name = A.name
  let create = A.create

  let push d v =
    let t = Spans.get () in
    Spans.enter t Spans.ws_push;
    let ok = match A.push_right d v with `Okay -> true | `Full -> false in
    if not ok then Spans.miss t Spans.ws_push;
    Spans.leave t;
    ok

  let pop d =
    let t = Spans.get () in
    Spans.enter t Spans.ws_pop;
    let r =
      match A.pop_right d with
      | `Value v -> Some v
      | `Empty ->
          Spans.miss t Spans.ws_pop;
          None
    in
    Spans.leave t;
    r

  let steal_batch d ~max =
    let t = Spans.get () in
    Spans.enter t Spans.ws_steal;
    let r = A.pop_many_left d max in
    (match r with [] -> Spans.miss t Spans.ws_steal | _ :: _ -> ());
    Spans.leave t;
    r

  let steal d = match steal_batch d ~max:1 with v :: _ -> Some v | [] -> None
end

module Service = Worksteal.Shard_service.Make (Array_deque)
module Scheduler = Worksteal.Scheduler.Make (Worksteal_deque)
