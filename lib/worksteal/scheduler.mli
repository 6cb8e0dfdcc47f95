(** Work-stealing task scheduler in the style of Arora, Blumofe and
    Plaxton [4] — the load-balancing application the paper cites for
    deques.  Workers pop their own deque's bottom (LIFO) and steal from
    random victims' tops (FIFO); global termination is detected with a
    pending-task count derived from per-worker spawned/executed
    counters ({!Supervisor.derived}), so no task touches a counter
    shared with another worker.

    {!Make_direct} is generic in the deque, so the restricted CAS-only
    ABP deque and the paper's general DCAS deques (by restriction) run
    identical workloads — the comparison of experiment E8.  Every
    stock scheduler below runs on the direct form, which passes the
    deque's own pop result through.

    Robustness: task bodies run behind a per-task exception barrier (a
    raising task no longer kills its worker and strands a pending
    unit), and the supervised mode tolerates fail-stop worker deaths
    with deque adoption and reconciliation of the pending count —
    experiment E22; see {!Worksteal_intf.SCHEDULER.run_supervised} and
    {!Supervisor}. *)

module Make_direct (D : Worksteal_intf.DIRECT_DEQUE) :
  Worksteal_intf.SCHEDULER
(** The scheduler over a deque whose pops return
    {!Deque.Deque_intf.pop_result}: an owner pop allocates only what
    the deque's own pop does. *)

module Make (D : Worksteal_intf.WORKSTEAL_DEQUE) : Worksteal_intf.SCHEDULER
(** {!Make_direct} over an option-returning deque, whose pop results
    it rewraps (one extra block per pop). *)

module Abp_adapter : Worksteal_intf.WORKSTEAL_DEQUE
(** The ABP deque, which implements the restricted interface natively. *)

module Restrict (D : Deque.Deque_intf.S) : Worksteal_intf.WORKSTEAL_DEQUE
(** Any general deque, restricted: owner on the right end, thieves pop
    the left end. *)

module Array_deque_adapter : Worksteal_intf.WORKSTEAL_DEQUE
(** The lock-free array deque, restricted — except that [steal_batch]
    uses the native atomic [pop_many_left]: the thief takes the whole
    batch at one linearization point (one CASN) instead of one CAS per
    stolen task. *)

module St_deque_adapter : Worksteal_intf.WORKSTEAL_DEQUE
(** The Sundell–Tsigas single-word-CAS deque ({!Baselines.St_deque}),
    restricted via {!Restrict}; [steal_batch] is the generic
    one-steal-at-a-time fallback. *)

module Abp_scheduler : Worksteal_intf.SCHEDULER
module Array_scheduler : Worksteal_intf.SCHEDULER
module List_scheduler : Worksteal_intf.SCHEDULER
module Lock_scheduler : Worksteal_intf.SCHEDULER

module St_scheduler : Worksteal_intf.SCHEDULER
(** The scheduler over {!St_deque_adapter}. *)
