(* A declarative multi-storm schedule (experiments E24 and E25).

   An imperative storm driver (sleep, kill one domain, sleep, freeze
   another) cannot express what the Chase-Lev verification literature
   says actually breaks services — OVERLAPPING faults (a kill landing
   while another worker is frozen and a third is a zombie, all under
   spurious-failure chaos) — and it cannot tell the experiment whether
   each injection actually landed.

   A [window] declares one fault, an offset and a hold time; [run]
   executes a whole schedule on the calling domain (both soaks pass it
   as the service's [driver]), overlapping windows freely, and returns a
   per-window [landing] verdict read back from the injectors' own
   per-victim counters ({!Crash.killed}, {!Stall.Freezer.freeze_hits_of},
   {!Stall.Zombie.bites_of}, and a caller-supplied chaos counter) — so
   a soak can GATE on "every scheduled fault landed" instead of hoping.

   [jittered] perturbs the offsets with a seeded uniform shift so
   repeated soaks sample different alignments of the same storm
   without losing reproducibility. *)

type fault =
  | Kill of { tid : int; mid_casn : bool }
      (* fail-stop the victim at its next crash point; [mid_casn]
         aims inside a CASN with a published descriptor *)
  | Freeze of { tid : int }  (* park at next shared-memory access *)
  | Zombie of { tid : int }  (* alive and ticking, no progress *)
  | Chaos  (* armed/disarmed through [run]'s callbacks *)

type window = { at : float; hold : float; fault : fault }

type landing = {
  window : window;
  started : float;  (* measured offset of the start event, seconds *)
  ended : float;  (* measured offset of the stop event *)
  landed : bool;  (* the injector's own counter confirmed a hit *)
}

let pp_fault ppf = function
  | Kill { tid; mid_casn } ->
      Format.fprintf ppf "kill(tid=%d%s)" tid
        (if mid_casn then ",mid-casn" else "")
  | Freeze { tid } -> Format.fprintf ppf "freeze(tid=%d)" tid
  | Zombie { tid } -> Format.fprintf ppf "zombie(tid=%d)" tid
  | Chaos -> Format.fprintf ppf "chaos"

let validate ws =
  List.iter
    (fun w ->
      if not (w.at >= 0.) then
        invalid_arg "Storm: window offsets must be >= 0";
      if not (w.hold >= 0.) then
        invalid_arg "Storm: window holds must be >= 0")
    ws

(* Seeded uniform shift of each window's offset in [-jitter, +jitter],
   clamped at 0.  Holds are left alone: the hold is the experiment's
   contract (e.g. "the zombie lasts the whole middle phase"), the
   alignment is what deserves fuzzing. *)
let jittered ~seed ~jitter ws =
  if not (jitter >= 0.) then invalid_arg "Storm.jittered: jitter must be >= 0";
  let rng = Splitmix.create ~seed in
  List.map
    (fun w ->
      let u = float_of_int (Splitmix.int rng ~bound:2001 - 1000) /. 1000. in
      { w with at = Float.max 0. (w.at +. (u *. jitter)) })
    ws

type event = { time : float; idx : int; phase : [ `Start | `Stop ] }

let run ?(arm_chaos = fun () -> ()) ?(disarm_chaos = fun () -> ())
    ?(chaos_hits = fun () -> 0) ?(on_active = fun (_ : int) -> ())
    ?(settle = 0.) windows =
  validate windows;
  let ws = Array.of_list windows in
  let n = Array.length ws in
  let baseline = Array.make n 0 in
  let started = Array.make n 0. in
  let ended = Array.make n 0. in
  let events =
    List.sort
      (fun a b ->
        let rank p = match p.phase with `Start -> 0 | `Stop -> 1 in
        compare (a.time, rank a, a.idx) (b.time, rank b, b.idx))
      (List.concat
         (List.init n (fun i ->
              let w = ws.(i) in
              [
                { time = w.at; idx = i; phase = `Start };
                { time = w.at +. w.hold; idx = i; phase = `Stop };
              ])))
  in
  (* offsets and stamps on the monotonic clock: a wall-clock step
     mid-storm must not bunch or stretch the windows *)
  let t0 = Dcas.Clock.now_ns () in
  let since_t0 () = float (Dcas.Clock.now_ns () - t0) *. 1e-9 in
  let active = ref 0 in
  List.iter
    (fun ev ->
      let slack = ev.time -. since_t0 () in
      if slack > 0. then Unix.sleepf slack;
      let i = ev.idx in
      (match (ev.phase, ws.(i).fault) with
      | `Start, Kill { tid; mid_casn } ->
          Crash.kill
            ~mode:(if mid_casn then `Mid_casn else `At_point)
            ~tid ()
      | `Start, Freeze { tid } ->
          baseline.(i) <- Stall.Freezer.freeze_hits_of ~tid;
          Stall.Freezer.freeze ~tid
      | `Start, Zombie { tid } ->
          baseline.(i) <- Stall.Zombie.bites_of ~tid;
          Stall.Zombie.zombify ~tid
      | `Start, Chaos ->
          baseline.(i) <- chaos_hits ();
          arm_chaos ()
      | `Stop, Kill _ -> ()
      | `Stop, Freeze { tid } -> Stall.Freezer.thaw ~tid
      | `Stop, Zombie { tid } -> Stall.Zombie.cure ~tid
      | `Stop, Chaos -> disarm_chaos ());
      (match ev.phase with
      | `Start ->
          started.(i) <- since_t0 ();
          incr active
      | `Stop ->
          ended.(i) <- since_t0 ();
          decr active);
      on_active !active)
    events;
  (* Let in-flight effects register (a kill lands at the victim's NEXT
     crash point, not synchronously) before reading the verdicts. *)
  if settle > 0. then Unix.sleepf settle;
  List.init n (fun i ->
      let landed =
        match ws.(i).fault with
        | Kill { tid; _ } -> Crash.killed ~tid
        | Freeze { tid } -> Stall.Freezer.freeze_hits_of ~tid > baseline.(i)
        | Zombie { tid } -> Stall.Zombie.bites_of ~tid > baseline.(i)
        | Chaos -> chaos_hits () > baseline.(i)
      in
      { window = ws.(i); started = started.(i); ended = ended.(i); landed })
