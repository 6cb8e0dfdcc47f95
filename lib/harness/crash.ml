(* Fail-stop crash injection for the fault-tolerance experiments (E22).

   Where {!Stall.Freezer} parks a victim domain at an instrumented
   shared-memory access point and later releases it, [Crash] makes the
   stop {e permanent}: the victim raises {!Died} and never touches the
   structure again — the paper's Section 1 "process stops forever",
   fail-stop instead of fail-slow.  Deaths come in two flavours:

   - {e at-point}: the domain dies at the instrumented point before an
     operation, leaving no shared state of its own behind (its deque
     contents are still orphaned and must be adopted by survivors);

   - {e mid-CASN}: the domain dies via {!Mem_lockfree}'s publish hook,
     immediately after installing its own CASN descriptor and before
     the status is decided — the worst reachable crash point, with a
     live undecided descriptor in shared memory that survivors must
     help to completion ({!Memory_intf.stats.helped_orphans}).  Only
     an operation that can publish a descriptor hosts this death: a
     no-op DCAS (new values physically equal to the expected ones,
     the deques' empty/full confirmation) usually confirms from plain
     reads with no descriptor, so a pending mid-CASN kill waits past
     it for a DCAS that writes.

   Eligibility mirrors the freezer: only enrolled domains (a dense
   worker [tid], set per-domain) can die, so supervisors, monitors and
   the main domain are never victims.  Deaths are either targeted
   ([kill ~tid], deterministic tests) or drawn from per-domain seeded
   SplitMix streams ([configure ~prob], like {!Dcas.Mem_chaos}); a
   [tid] dies at most once, so a supervisor's replacement
   enrolled under the same slot is not re-killed, and [max_kills]
   bounds the total body count of a probabilistic run.

   Composition: {!Mem_crashing_casn} checks for a pending death before
   every shared operation of any [MEMORY_CASN], so it stacks under or
   over {!Mem_chaos} and {!Stall.Mem_stalling_casn} exactly like they
   stack on each other.  The mid-CASN flavour needs the substrate at
   the bottom of the stack to be {!Dcas.Mem_lockfree} (the only one
   with descriptors to orphan); over any other substrate the pending
   death falls back to the operation boundary. *)

exception Died

type mode = [ `At_point | `Mid_casn ]

let max_slots = 64

(* Per-tid control state, all padded: requested targeted kills, their
   mode, and which tids have died. *)
let requested = Array.init max_slots (fun _ -> Dcas.Padding.make_atomic false)

let req_mid_casn =
  Array.init max_slots (fun _ -> Dcas.Padding.make_atomic true)

let dead = Array.init max_slots (fun _ -> Dcas.Padding.make_atomic false)
let kills_total = Atomic.make 0
let kills_mid_casn = Atomic.make 0

(* Probabilistic configuration, Mem_chaos-style: ppm so the hot path
   compares ints, an epoch so reconfiguring restarts the per-domain
   streams deterministically. *)
type config = {
  prob_ppm : int;
  mid_casn_ppm : int;
  max_kills : int;
  seed : int;
  epoch : int;
}

let disarmed =
  { prob_ppm = 0; mid_casn_ppm = 0; max_kills = 0; seed = 0; epoch = 0 }

let config = Atomic.make disarmed
let slots = Atomic.make 0

(* Per-domain state: the enrolled tid, the armed "die at next publish"
   flag consumed by the publish hook, and the kill-verdict RNG. *)
type dstate = {
  mutable tid : int;
  mutable die_at_publish : bool;
  mutable epoch : int;
  mutable rng : Splitmix.t;
}

let key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tid = -1; die_at_publish = false; epoch = -1; rng = Splitmix.create ~seed:0 })

let check_tid ~who tid =
  if tid < 0 || tid >= max_slots then
    invalid_arg
      (Printf.sprintf "Crash.%s: tid must be in [0, %d)" who max_slots)

let enroll ~tid =
  check_tid ~who:"enroll" tid;
  (Domain.DLS.get key).tid <- tid

let leave () = (Domain.DLS.get key).tid <- -1

(* The one global publish hook: raise iff THIS domain armed itself.
   Installed lazily the first time any kill is requested; harmless for
   every other domain (the flag is domain-local). *)
let hook () =
  let d = Domain.DLS.get key in
  if d.die_at_publish then begin
    d.die_at_publish <- false;
    Atomic.incr kills_mid_casn;
    raise Died
  end

let hook_installed = Atomic.make false

let ensure_hook () =
  if not (Atomic.get hook_installed) then
    if Atomic.compare_and_set hook_installed false true then
      Dcas.Mem_lockfree.set_publish_hook hook

let kill ?(mode = (`Mid_casn : mode)) ~tid () =
  check_tid ~who:"kill" tid;
  ensure_hook ();
  Atomic.set req_mid_casn.(tid) (mode = `Mid_casn);
  Atomic.set requested.(tid) true

let ppm_of_prob ~what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Crash.configure: %s must be in [0, 1]" what);
  int_of_float (p *. 1_000_000.)

let configure ?(prob = 0.) ?(mid_casn_prob = 1.) ?(max_kills = max_int) ~seed
    () =
  if max_kills < 0 then
    invalid_arg "Crash.configure: max_kills must be >= 0";
  ensure_hook ();
  let prev = Atomic.get config in
  Atomic.set slots 0;
  Atomic.set config
    {
      prob_ppm = ppm_of_prob ~what:"prob" prob;
      mid_casn_ppm = ppm_of_prob ~what:"mid_casn_prob" mid_casn_prob;
      max_kills;
      seed;
      epoch = prev.epoch + 1;
    }

let disarm () =
  let prev = Atomic.get config in
  Atomic.set slots 0;
  Atomic.set config { disarmed with epoch = prev.epoch + 1 }

let armed () = (Atomic.get config).prob_ppm > 0
let kills () = Atomic.get kills_total
let mid_casn_kills () = Atomic.get kills_mid_casn
let killed ~tid =
  check_tid ~who:"killed" tid;
  Atomic.get dead.(tid)

let killed_tids () =
  let acc = ref [] in
  for tid = max_slots - 1 downto 0 do
    if Atomic.get dead.(tid) then acc := tid :: !acc
  done;
  !acc

let reset () =
  disarm ();
  Array.iter (fun a -> Atomic.set a false) requested;
  Array.iter (fun a -> Atomic.set a true) req_mid_casn;
  Array.iter (fun a -> Atomic.set a false) dead;
  Atomic.set kills_total 0;
  Atomic.set kills_mid_casn 0;
  (Domain.DLS.get key).die_at_publish <- false;
  Dcas.Mem_lockfree.clear_dead ()

let rng_for (c : config) (d : dstate) =
  if d.epoch <> c.epoch then begin
    let slot = Atomic.fetch_and_add slots 1 in
    d.epoch <- c.epoch;
    let s = Splitmix.create ~seed:c.seed in
    for _ = 0 to slot do
      ignore (Splitmix.next_int64 s)
    done;
    d.rng <- Splitmix.split s
  end;
  d.rng

let draw rng ppm = ppm > 0 && Splitmix.int rng ~bound:1_000_000 < ppm

(* Claim one unit of the probabilistic kill budget. *)
let rec claim_budget max_kills =
  let n = Atomic.get kills_total in
  if n >= max_kills then false
  else if Atomic.compare_and_set kills_total n (n + 1) then true
  else claim_budget max_kills

(* The victim side of a death.  [mid] = die at the next publish of our
   own descriptor (only meaningful when the imminent operation is
   DCAS-shaped); otherwise die right here.  Marking the domain dead in
   the substrate FIRST closes the accounting race: any descriptor this
   domain publishes from now on is an orphan. *)
let die ~tid ~mid =
  Atomic.set dead.(tid) true;
  Dcas.Mem_lockfree.mark_dead (Domain.self () :> int);
  if mid then (Domain.DLS.get key).die_at_publish <- true
  else raise Died

(* Instrumentation point, called by the wrapper before every shared
   operation.  [casn] says whether the imminent operation is
   DCAS-shaped and can host a mid-CASN death. *)
let point ~casn =
  let d = Domain.DLS.get key in
  let tid = d.tid in
  if tid >= 0 && not (Atomic.get dead.(tid)) then
    if Atomic.get requested.(tid) then begin
      let want_mid = Atomic.get req_mid_casn.(tid) in
      (* a mid-CASN request waits for a DCAS-shaped operation *)
      if casn || not want_mid then begin
        Atomic.set requested.(tid) false;
        Atomic.incr kills_total;
        die ~tid ~mid:(want_mid && casn)
      end
    end
    else
      let c = Atomic.get config in
      if c.prob_ppm > 0 then begin
        let rng = rng_for c d in
        if draw rng c.prob_ppm && claim_budget c.max_kills then
          die ~tid ~mid:(casn && draw rng c.mid_casn_ppm)
      end

(* After a DCAS-shaped operation returns: if the armed mid-CASN death
   never fired — pre-validation fast-failed, a chaos layer failed the
   op spuriously, or the substrate has no publish hook — fall back to
   dying at the operation boundary, orphaning nothing. *)
let boundary () =
  let d = Domain.DLS.get key in
  if d.die_at_publish then begin
    d.die_at_publish <- false;
    raise Died
  end

(* A memory model whose enrolled users may be killed for good before
   (or during) any shared operation. *)
module Mem_crashing_casn (M : Dcas.Memory_intf.MEMORY_CASN) :
  Dcas.Memory_intf.MEMORY_CASN with type 'a loc = 'a M.loc = struct
  type 'a loc = 'a M.loc

  let name = M.name ^ "+crash"
  let make = M.make
  let make_padded = M.make_padded

  let get l =
    point ~casn:false;
    M.get l

  let set l v =
    point ~casn:false;
    M.set l v

  let set_private = M.set_private

  let dcas l1 l2 o1 o2 n1 n2 =
    (* a no-op DCAS confirms from plain reads and may publish nothing *)
    point ~casn:(not (n1 == o1 && n2 == o2));
    let r = M.dcas l1 l2 o1 o2 n1 n2 in
    boundary ();
    r

  let dcas_strong l1 l2 o1 o2 n1 n2 =
    point ~casn:true;
    let r = M.dcas_strong l1 l2 o1 o2 n1 n2 in
    boundary ();
    r

  type cass = M.cass = Cass : 'a M.loc * 'a * 'a -> cass

  let casn cs =
    point ~casn:true;
    let r = M.casn cs in
    boundary ();
    r

  let stats = M.stats
  let reset_stats = M.reset_stats
end
