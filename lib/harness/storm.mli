(** Declarative multi-storm schedules (experiments E24 and E25): a list of
    fault {!window}s — kill, freeze, zombie, chaos — executed on the
    calling domain with overlapping windows allowed, seeded offset
    jitter, and a per-window {e landing} verdict read back from the
    injectors' own per-victim counters, so a soak can gate on "every
    scheduled fault actually landed". *)

type fault =
  | Kill of { tid : int; mid_casn : bool }
      (** {!Crash.kill} the victim at its next crash point when the
          window opens; [mid_casn] aims inside a CASN.  The hold only
          shapes the window's [active] span — a kill is permanent. *)
  | Freeze of { tid : int }
      (** {!Stall.Freezer.freeze} on open, [thaw] on close. *)
  | Zombie of { tid : int }
      (** {!Stall.Zombie.zombify} on open, [cure] on close. *)
  | Chaos
      (** Delegated: [run]'s [arm_chaos] / [disarm_chaos] callbacks
          fire on open / close and [chaos_hits] supplies the landing
          counter (chaos configuration lives with the memory functor
          instance, which this module cannot see). *)

type window = {
  at : float;  (** start offset from schedule start, seconds *)
  hold : float;  (** window length, seconds *)
  fault : fault;
}

type landing = {
  window : window;
  started : float;
      (** measured start-event offset, seconds on {!Dcas.Clock} *)
  ended : float;  (** measured stop-event offset *)
  landed : bool;
      (** the injector's own counter moved (freeze parked its victim
          at least once, the zombie bit at least once, the kill's
          victim died, the chaos counter advanced) *)
}

val pp_fault : Format.formatter -> fault -> unit

val jittered : seed:int -> jitter:float -> window list -> window list
(** Shift each window's [at] by a seeded uniform draw from
    [-jitter, +jitter] (clamped at 0), leaving holds alone — repeated
    soaks sample different alignments of the same storm,
    reproducibly.

    @raise Invalid_argument if [jitter < 0] (or NaN). *)

val run :
  ?arm_chaos:(unit -> unit) ->
  ?disarm_chaos:(unit -> unit) ->
  ?chaos_hits:(unit -> int) ->
  ?on_active:(int -> unit) ->
  ?settle:float ->
  window list ->
  landing list
(** Execute the schedule on the calling domain (the E24 and E25 soaks
    pass this as the service's [driver]), sleeping between events;
    overlapping windows are fine.  [on_active] is called after every
    window edge with the number of currently-open windows — flip a
    fault-phase flag on [> 0].  After the last event, sleep [settle]
    (default 0) so in-flight effects (a kill lands at the victim's
    {e next} crash point) register, then return one {!landing} per
    window, in input order.

    @raise Invalid_argument on a negative offset or hold. *)
