(** Randomized truncated exponential backoff for retry loops.

    A failed DCAS means another operation succeeded (lock-freedom), but
    spinning straight back into the retry loop makes competing
    operations fail each other repeatedly.  Retry loops create one
    backoff per operation invocation and call {!once} after each
    failure, or thread an option through {!once_lazy} so that an
    operation that succeeds at its first attempt creates none. *)

type t

val default_min_wait : int
(** Default lower spin bound (4). *)

val default_max_wait : int
(** Default saturation bound for the doubling window (1024). *)

val create : ?min_wait:int -> ?max_wait:int -> unit -> t
(** Fresh backoff state.  [min_wait] and [max_wait] bound the spin count
    per wait (defaults {!default_min_wait} and {!default_max_wait}).

    @raise Invalid_argument unless [1 <= min_wait <= max_wait]. *)

val once : t -> unit
(** Spin for an unbiased random interval in
    [\[min_wait, min_wait + wait)] and double the window (saturating at
    [max_wait]). *)

val once_lazy : t option -> t option
(** [once_lazy b] is {!once} on [b]'s state, created with the default
    bounds when [b] is [None]; it returns the state for the next
    failure.  A retry loop starts from [None] and passes each failure's
    result on, so it allocates a backoff only once an attempt has
    failed. *)

val reset : t -> unit
(** Return the wait bound to [min_wait] (e.g. after a success). *)
