(* Fault-injecting wrapper around any MEMORY_CASN substrate.

   The paper's progress and safety arguments are adversarial: they must
   hold however slowly a processor runs, however often its DCAS loses,
   and wherever it stalls.  [Mem_chaos.Make (M)] turns that adversary
   into an executable substrate by injecting three seeded, deterministic
   fault kinds in front of M's operations:

   - {e spurious DCAS/CASN failures}: the attempt returns [false]
     without consulting memory, as a weak compare-and-swap (LL/SC, or a
     DCAS emulated with helping) legitimately may.  Retry loops must
     absorb them; any algorithm that treats a failed DCAS as proof of a
     conflicting write is flushed out immediately.
   - {e bounded delays}: a short spin before an operation, modelling a
     processor losing its timeslice mid-operation.
   - {e freezes}: a much longer stall, modelling the paper's Section 1
     "stopped process" scenario.  Non-blocking structures must let the
     other domains sail past a frozen one.

   All draws come from per-domain SplitMix64 streams derived from the
   configured master seed, so a failing run is replayed exactly by
   reconfiguring with the same seed (single-domain use, e.g. under the
   model checker, is fully deterministic; multi-domain use is
   deterministic per domain given the registration order).  Fault
   counters flow through {!Opstats} into {!Memory_intf.stats} alongside
   the ordinary operation counters.

   [dcas_strong] is deliberately exempt from spurious failures: its
   contract promises that a failing call returns an atomic view that
   differs from the expected values, which a made-up failure cannot
   honour.  Delays and freezes still apply to it. *)

(* Probabilities are stored as parts-per-million so the hot path
   compares ints, never floats. *)
type config = {
  fail_ppm : int;
  delay_ppm : int;
  max_delay : int;
  freeze_ppm : int;
  freeze_spins : int;
  seed : int;
  epoch : int;  (* bumped by every configure/disarm: invalidates the
                   per-domain RNG streams so they restart from the new
                   seed *)
}

let disarmed =
  {
    fail_ppm = 0;
    delay_ppm = 0;
    max_delay = 0;
    freeze_ppm = 0;
    freeze_spins = 0;
    seed = 0;
    epoch = 0;
  }

let ppm_of_prob ~what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Mem_chaos.configure: %s must be in [0, 1]" what);
  int_of_float (p *. 1_000_000.)

module Make (M : Memory_intf.MEMORY_CASN) = struct
  type 'a loc = 'a M.loc

  let name = "chaos[" ^ M.name ^ "]"
  let counters = Opstats.create ()
  let stats () = Memory_intf.add_stats (M.stats ()) (Opstats.snapshot counters)

  let reset_stats () =
    M.reset_stats ();
    Opstats.reset counters

  let config = Atomic.make disarmed

  (* Slots are handed out in domain registration order within the
     current epoch; configure/disarm restart the handout, so the same
     seed replays the same streams (exactly so for single-domain use,
     per registration order for multi-domain use). *)
  let slots = Atomic.make 0

  let configure ?(fail_prob = 0.) ?(delay_prob = 0.) ?(max_delay = 64)
      ?(freeze_prob = 0.) ?(freeze_spins = 10_000) ~seed () =
    if max_delay < 1 then
      invalid_arg "Mem_chaos.configure: max_delay must be >= 1";
    if freeze_spins < 1 then
      invalid_arg "Mem_chaos.configure: freeze_spins must be >= 1";
    let prev = Atomic.get config in
    Atomic.set slots 0;
    Atomic.set config
      {
        fail_ppm = ppm_of_prob ~what:"fail_prob" fail_prob;
        delay_ppm = ppm_of_prob ~what:"delay_prob" delay_prob;
        max_delay;
        freeze_ppm = ppm_of_prob ~what:"freeze_prob" freeze_prob;
        freeze_spins;
        seed;
        epoch = prev.epoch + 1;
      }

  let disarm () =
    let prev = Atomic.get config in
    Atomic.set slots 0;
    Atomic.set config { disarmed with epoch = prev.epoch + 1 }

  let armed () =
    let c = Atomic.get config in
    c.fail_ppm > 0 || c.delay_ppm > 0 || c.freeze_ppm > 0

  (* Per-domain RNG streams.  Each domain's stream is a deterministic
     function of (seed, slot); a configure restarts every stream from
     the new seed. *)
  type dstate = { mutable epoch : int; mutable rng : Splitmix.t }

  let key =
    Domain.DLS.new_key (fun () ->
        { epoch = -1; rng = Splitmix.create ~seed:0 })

  let rng_for (c : config) =
    let d = Domain.DLS.get key in
    if d.epoch <> c.epoch then begin
      let slot = Atomic.fetch_and_add slots 1 in
      d.epoch <- c.epoch;
      (* decorrelate nearby (seed, slot) pairs with one golden-ratio
         step per slot before the stream starts *)
      let s = Splitmix.create ~seed:c.seed in
      for _ = 0 to slot do
        ignore (Splitmix.next_int64 s)
      done;
      d.rng <- Splitmix.split s
    end;
    d.rng

  let draw rng ppm = ppm > 0 && Splitmix.int rng ~bound:1_000_000 < ppm

  (* One fault point, shared by every operation: maybe stall.  Returns
     the rng so DCAS-shaped operations can additionally draw their
     spurious-failure verdict from the same stream. *)
  let turbulence () =
    let c = Atomic.get config in
    if c.epoch = 0 then None
    else begin
      let rng = rng_for c in
      if draw rng c.delay_ppm then begin
        Opstats.incr_delay (Opstats.bucket counters);
        let spins = 1 + Splitmix.int rng ~bound:c.max_delay in
        for _ = 1 to spins do
          Domain.cpu_relax ()
        done
      end;
      if draw rng c.freeze_ppm then begin
        Opstats.incr_freeze (Opstats.bucket counters);
        for _ = 1 to c.freeze_spins do
          Domain.cpu_relax ()
        done
      end;
      Some (rng, c)
    end

  let spurious_failure = function
    | None -> false
    | Some (rng, c) ->
        c.fail_ppm > 0 && draw rng c.fail_ppm

  let make = M.make
  let make_padded = M.make_padded

  let get l =
    ignore (turbulence ());
    M.get l

  let set l v =
    ignore (turbulence ());
    M.set l v

  (* Private initialization of unpublished locations: no other thread
     can observe it, so a fault here would test nothing. *)
  let set_private = M.set_private

  let dcas l1 l2 o1 o2 n1 n2 =
    let t = turbulence () in
    if spurious_failure t then begin
      let b = Opstats.bucket counters in
      Opstats.incr_attempt b;
      Opstats.incr_spurious b;
      false
    end
    else M.dcas l1 l2 o1 o2 n1 n2

  (* No spurious failures: the failing view must truly differ from the
     expected values (see the header comment). *)
  let dcas_strong l1 l2 o1 o2 n1 n2 =
    ignore (turbulence ());
    M.dcas_strong l1 l2 o1 o2 n1 n2

  type cass = Cass : 'a loc * 'a * 'a -> cass

  let casn cs =
    let t = turbulence () in
    if spurious_failure t then begin
      let b = Opstats.bucket counters in
      Opstats.incr_attempt b;
      Opstats.incr_spurious b;
      false
    end
    else M.casn (List.map (fun (Cass (l, o, n)) -> M.Cass (l, o, n)) cs)
end
