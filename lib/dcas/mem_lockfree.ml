(* Non-blocking software DCAS in the style the paper cites as "a
   non-blocking software emulation [8, 30]": a restricted multi-word
   compare-and-swap (CASN) built from single-word CAS with descriptors
   and helping, after Harris, Fraser and Pratt.

   Each location holds a [state]: a plain [Value]; a 2-word tag naming
   the flat [Dcas2] descriptor that holds it ([Held_a] on the
   descriptor's lower-id location, [Held_b] on the other); or an
   [Owned] block of a generic [Casn] descriptor, which carries the
   location's value before and after that CASN.  The logical value of
   a held location is decided by the descriptor's status: its before
   value until the status word is CASed to [Succeeded] (which is the
   linearization point of the whole CASN), its after value from then
   on.  A tag reads both values out of the descriptor itself, and its
   identity is the descriptor's [status] atomic.  Any thread that
   encounters an undecided descriptor while installing its own helps
   it to completion first, so a stalled thread can never block others.

   Descriptors come in two shapes.  The generic [Casn] carries an
   entry array and serves any width; the flat [Dcas2] inlines both
   locations and values into one record — no entry blocks, no array,
   no [Owned] blocks — and serves the two-location case, which is
   every deque operation in the paper.  Both run the identical
   acquire (in ascending location-id order) / decide / release
   protocol; only the descriptor layout differs, so the linearization
   argument is unchanged.

   Three properties make the simple two-phase CASN (without the RDCSS
   sub-protocol of Harris et al.) correct here:

   - a displaced state block becomes current again only with its
     meaning intact.  Every logical change installs a fresh [Value]
     block.  A [Dcas2] release always installs a fresh block too, so a
     block a tag displaced is never current again.  A generic release
     reinstalls the block its [Owned] displaced only when the logical
     value comes out physically unchanged (value elision, exact for
     unboxed values like the deque indices).

   - installation is a physical compare-and-set against the exact
     state block read in the same attempt, and the helper reads that
     block {e before} it checks that the descriptor is still
     undecided.  A helper whose install then succeeds saw its block
     current at the read and at the CAS, with the descriptor undecided
     in between.  Had the descriptor been decided [Succeeded] after
     that check, it held the location at the decision, displacing the
     block: for a tag, for good, so the CAS fails; for an [Owned]
     block, reinstated only with the value its [after] equals.
     Decided [Failed], it resolves to its before value, which the
     helper just validated.  Either way the late install leaves the
     logical value as it was, and the helper's own release phase
     removes it.  (Checking the status before the read would not do:
     the descriptor could be decided and released, and the location
     rewritten to its old value in a fresh block, before the read.)

   - the garbage collector reclaims descriptors, exactly as the paper's
     deques rely on GC to reclaim list nodes (Section 1.1).

   Entries are acquired in ascending location-id order, which bounds
   helping chains and yields lock-freedom by the standard argument.

   A no-op DCAS — one that writes back the two values it expects, the
   paper's empty/full confirmation (Figures 2/3 lines 6-11, Figure 11
   lines 8-12) — needs no descriptor when both locations hold plain
   [Value] blocks: read [l1]'s block, read [l2]'s block, and re-read
   [l1]'s block.  By the first property above, a block that is current
   at both reads of [l1] was either never displaced in between or came
   back with its value intact, so [l1]'s logical value never changed
   and both values were present together at the [l2] read, which is
   where the confirmation linearizes.  A tag, an [Owned] state, a
   mismatch or a moved block falls through to the descriptor path.

   Counting goes through one {!Opstats} bucket per call: [dcas],
   [casn], [set] and [help_orphans] fetch it once and pass it down
   through helping, and it supplies the domain id a descriptor records
   as its owner. *)

type status = Undecided | Failed | Succeeded

type 'a loc = {
  id : int;
  state : 'a state Atomic.t;
  equal : 'a -> 'a -> bool;
}

and 'a state =
  | Value of 'a
  | Held_a : ('a, 'b) dcas2 -> 'a state
  | Held_b : ('b, 'a) dcas2 -> 'a state
  | Owned of { desc : casn; before : 'a; after : 'a; orig : 'a state }
      (* [orig] is the [Value] block this acquisition displaced; release
         reinstalls it when the logical value comes out unchanged *)

and ('a, 'b) dcas2 = {
  status : status Atomic.t;
  owner : int;  (* domain id of the operation's initiator *)
  loc_a : 'a loc;  (* invariant: loc_a.id < loc_b.id *)
  before_a : 'a;
  after_a : 'a;
  loc_b : 'b loc;
  before_b : 'b;
  after_b : 'b;
}

and casn =
  | Casn of { status : status Atomic.t; owner : int; entries : entry array }

and entry = Entry : { loc : 'a loc; before : 'a; after : 'a } -> entry

type cass = Cass : 'a loc * 'a * 'a -> cass

let name = "lockfree"
let counters = Opstats.create ()
let stats () = Opstats.snapshot counters
let reset_stats () = Opstats.reset counters

(* Ablation switch (experiment E21, tests): with dcas2 disabled, every
   slow path builds the generic entry-array descriptor, no release is
   elided and no no-op DCAS skips its descriptor — the substrate as it
   was before specialization.  Not meant to be toggled while operations
   are in flight. *)
let dcas2_enabled = Atomic.make true
let set_dcas2_enabled b = Atomic.set dcas2_enabled b

let undecided status =
  match Atomic.get status with Undecided -> true | Failed | Succeeded -> false

let succeeded status =
  match Atomic.get status with Succeeded -> true | Undecided | Failed -> false

(* --- Fail-stop crash bookkeeping (driven by {!Harness.Crash}) ---

   A domain about to be killed is first marked dead; every descriptor
   it publishes from then on is an {e orphan}, and the helper that
   decides such a descriptor's status — the successful Undecided ->
   Succeeded/Failed CAS, which happens exactly once — records it in
   [helped_orphans].  The publish hook lets the crash layer interpose
   {e between} a domain's first successful install of its own
   descriptor and the decide, i.e. die mid-CASN with a live undecided
   descriptor in shared memory: the scenario Theorems 3.1/4.1 promise
   survivors recover from.  Both checks are gated on cheap armed flags
   so the fault-free hot paths are unchanged. *)

let dead_count = Atomic.make 0
let dead_list = Atomic.make ([] : int list)

(* Orphan registry: every descriptor published by an already-dead
   domain, as its status atomic (the descriptor's identity) and a
   function that helps it to completion.  A dying domain publishes at
   most one (it is killed at its first publish), so the registry is
   exactly the set of descriptors the paper's helping protocol must
   complete on the crashed domain's behalf; [help_orphans] lets a
   supervisor force that completion deterministically instead of
   waiting for a survivor to collide with the held locations.  Reads
   alone never decide a descriptor ([resolve] consults the status
   without helping), so without this a quiescent orphan could stay
   undecided forever. *)
let orphan_registry =
  Atomic.make ([] : (status Atomic.t * (Opstats.bucket -> unit)) list)

let rec register_orphan status help =
  let cur = Atomic.get orphan_registry in
  if List.exists (fun (s, _) -> s == status) cur then ()
  else if
    not (Atomic.compare_and_set orphan_registry cur ((status, help) :: cur))
  then register_orphan status help

let orphans () = List.length (Atomic.get orphan_registry)

let rec mark_dead id =
  let cur = Atomic.get dead_list in
  if List.memq id cur then ()
  else if Atomic.compare_and_set dead_list cur (id :: cur) then
    Atomic.incr dead_count
  else mark_dead id

let clear_dead () =
  Atomic.set dead_list [];
  Atomic.set dead_count 0;
  Atomic.set orphan_registry []

let dead_domains () = Atomic.get dead_list
let no_hook = fun () -> ()
let publish_hook = Atomic.make no_hook
let hook_armed = Atomic.make false

let set_publish_hook f =
  Atomic.set publish_hook f;
  Atomic.set hook_armed true

let clear_publish_hook () =
  Atomic.set hook_armed false;
  Atomic.set publish_hook no_hook

(* A domain just installed a descriptor and the hook is armed: if the
   descriptor is its own, give the crash layer its chance to kill the
   domain right here, mid-CASN.  Helpers installing someone else's
   descriptor never trigger the hook.  Callers test [hook_armed]
   first, so the fault-free path builds no [help] closure. *)
let published b owner status help =
  if owner = Opstats.domain_id b then begin
    if Atomic.get dead_count > 0 && List.memq owner (Atomic.get dead_list)
    then register_orphan status help;
    (Atomic.get publish_hook) ()
  end

(* A status CAS just decided [owner]'s descriptor; if the owner is a
   dead domain and we are not it, a survivor has completed a crashed
   thread's operation.  Status is monotonic, so this runs exactly once
   per descriptor. *)
let decided b owner =
  if
    Atomic.get dead_count > 0
    && owner <> Opstats.domain_id b
    && List.memq owner (Atomic.get dead_list)
  then Opstats.incr_orphan b

let next_id =
  let c = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add c 1

let make ?(equal = ( = )) v =
  { id = next_id (); state = Atomic.make (Value v); equal }

let make_padded ?(equal = ( = )) v =
  Padding.copy_as_padded
    { id = next_id (); state = Padding.make_atomic (Value v); equal }

(* The logical value of a state block, given the holding descriptor's
   current status.  Status is monotonic (Undecided -> Failed/Succeeded,
   then frozen), so reading the state block and then its status yields a
   linearizable read: see DESIGN.md, lib/dcas notes.  It allocates
   nothing. *)
let resolve : type a. a state -> a = function
  | Value v -> v
  | Held_a d -> if succeeded d.status then d.after_a else d.before_a
  | Held_b d -> if succeeded d.status then d.after_b else d.before_b
  | Owned { desc = Casn { status; _ }; before; after; _ } ->
      if succeeded status then after else before

let get loc =
  Opstats.incr_read (Opstats.bucket counters);
  resolve (Atomic.get loc.state)

(* Replace a decided descriptor's hold on [loc] with a plain [Value];
   failure means somebody else already moved the location on.  A tag
   always gives way to a fresh block.  An [Owned] block whose logical
   value comes out unchanged — the CASN failed, or this was a no-op
   entry such as the batched array deque's empty/full confirmation —
   reinstalls the displaced original block instead (value elision;
   exact for unboxed values like the deque indices, conservative
   otherwise via physical equality). *)
let release_one (type a) b (loc : a loc) (cur : a state) =
  match cur with
  | Value _ -> ()
  | Held_a _ | Held_b _ ->
      Opstats.incr_value_alloc b;
      ignore (Atomic.compare_and_set loc.state cur (Value (resolve cur)))
  | Owned { orig; _ } ->
      let v = resolve cur in
      let replacement =
        match orig with
        | Value v0 when v0 == v && Atomic.get dcas2_enabled -> orig
        | Value _ | Held_a _ | Held_b _ | Owned _ ->
            Opstats.incr_value_alloc b;
            Value v
      in
      ignore (Atomic.compare_and_set loc.state cur replacement)

(* The helping functions are top-level and take their state as
   arguments, so no closure is built per call: helping allocates only
   the tags or [Owned] blocks it installs and the [Value] blocks its
   release may need. *)

(* Help the descriptor holding [cur] to completion if it is undecided;
   [false] when there is nothing to help. *)
let rec help_state : type a. Opstats.bucket -> a state -> bool =
 fun b cur ->
  match cur with
  | Value _ -> false
  | Held_a d -> undecided d.status && (help_dcas2 b d; true)
  | Held_b d -> undecided d.status && (help_dcas2 b d; true)
  | Owned { desc = Casn { status; _ } as desc; _ } ->
      undecided status && (help_casn b desc; true)

(* [cur], read from [loc], is held by a descriptor other than the
   caller's: complete it or, once decided, release its hold, so the
   caller's re-read makes progress. *)
and unblock : type a. Opstats.bucket -> a loc -> a state -> unit =
 fun b loc cur -> if not (help_state b cur) then release_one b loc cur

and help_casn b desc =
  let (Casn { status; owner; entries }) = desc in
  if acquire b desc status entries 0 then decided b owner;
  (* Eagerly release whatever we still own so later operations on these
     locations take the fast [Value] path. *)
  for i = 0 to Array.length entries - 1 do
    let (Entry { loc; _ }) = entries.(i) in
    match Atomic.get loc.state with
    | Owned { desc = d; _ } as cur when d == desc -> release_one b loc cur
    | Value _ | Held_a _ | Held_b _ | Owned _ -> ()
  done

(* Acquire [entries] from index [i] on.  Returns true iff this call's
   CAS decided the status, so the orphan accounting runs once, in the
   caller.  Each step reads the location before it checks the status
   (see the header). *)
and acquire b desc status entries i =
  if i >= Array.length entries then
    Atomic.compare_and_set status Undecided Succeeded
  else
    let (Entry { loc; before; after }) = entries.(i) in
    let cur = Atomic.get loc.state in
    if not (undecided status) then false
    else
      match cur with
      | Owned { desc = d; _ } when d == desc ->
          acquire b desc status entries (i + 1)
      | Value v ->
          if loc.equal v before then
            if
              Atomic.compare_and_set loc.state cur
                (Owned { desc; before; after; orig = cur })
            then begin
              (if Atomic.get hook_armed then
                 let (Casn { owner; _ }) = desc in
                 published b owner status (fun b -> help_casn b desc));
              acquire b desc status entries (i + 1)
            end
            else acquire b desc status entries i
          else Atomic.compare_and_set status Undecided Failed
      | Held_a _ | Held_b _ | Owned _ ->
          unblock b loc cur;
          acquire b desc status entries i

(* The flat two-location protocol: textually the [acquire] loop
   unrolled for entries 0 and 1 (locations pre-sorted by id), with the
   entry array, the [Entry] blocks and the [Owned] blocks gone.  The
   decide and release steps are identical, so every interleaving maps
   one-to-one onto a generic-CASN interleaving. *)
and help_dcas2 : type a c. Opstats.bucket -> (a, c) dcas2 -> unit =
 fun b d ->
  (* As in [help_casn], the acquire steps return true iff this call's
     CAS decided the status, and [decided] runs after them. *)
  if acquire_a b d then decided b d.owner;
  (match Atomic.get d.loc_a.state with
  | Held_a d' as cur when d'.status == d.status -> release_one b d.loc_a cur
  | Value _ | Held_a _ | Held_b _ | Owned _ -> ());
  match Atomic.get d.loc_b.state with
  | Held_b d' as cur when d'.status == d.status -> release_one b d.loc_b cur
  | Value _ | Held_a _ | Held_b _ | Owned _ -> ()

and acquire_a : type a c. Opstats.bucket -> (a, c) dcas2 -> bool =
 fun b d ->
  let cur = Atomic.get d.loc_a.state in
  if not (undecided d.status) then false
  else
    match cur with
    | Held_a d' when d'.status == d.status -> acquire_b b d
    | Value v ->
        if d.loc_a.equal v d.before_a then
          if Atomic.compare_and_set d.loc_a.state cur (Held_a d) then begin
            if Atomic.get hook_armed then
              published b d.owner d.status (fun b -> help_dcas2 b d);
            acquire_b b d
          end
          else acquire_a b d
        else Atomic.compare_and_set d.status Undecided Failed
    | Held_a _ | Held_b _ | Owned _ ->
        unblock b d.loc_a cur;
        acquire_a b d

and acquire_b : type a c. Opstats.bucket -> (a, c) dcas2 -> bool =
 fun b d ->
  let cur = Atomic.get d.loc_b.state in
  if not (undecided d.status) then false
  else
    match cur with
    | Held_b d' when d'.status == d.status ->
        Atomic.compare_and_set d.status Undecided Succeeded
    | Value v ->
        if d.loc_b.equal v d.before_b then
          if Atomic.compare_and_set d.loc_b.state cur (Held_b d) then begin
            if Atomic.get hook_armed then
              published b d.owner d.status (fun b -> help_dcas2 b d);
            Atomic.compare_and_set d.status Undecided Succeeded
          end
          else acquire_b b d
        else Atomic.compare_and_set d.status Undecided Failed
    | Held_a _ | Held_b _ | Owned _ ->
        unblock b d.loc_b cur;
        acquire_b b d

(* Complete every orphaned descriptor on the crashed owners' behalf:
   the survivors' side of Theorems 3.1/4.1 made into an API.  Helping
   an already-decided descriptor is a no-op (the acquire loop exits on
   a decided status), so calling this after organic helping has
   already completed some orphans is safe and counts nothing twice —
   [helped_orphans] ticks only at the single successful status CAS. *)
let help_orphans () =
  let b = Opstats.bucket counters in
  let os = Atomic.get orphan_registry in
  List.iter (fun (_, help) -> help b) os;
  List.length os

let rec set_from b loc v =
  let cur = Atomic.get loc.state in
  ignore (help_state b cur);
  Opstats.incr_value_alloc b;
  if not (Atomic.compare_and_set loc.state cur (Value v)) then set_from b loc v

let set loc v =
  let b = Opstats.bucket counters in
  Opstats.incr_write b;
  set_from b loc v

(* The location is unpublished: no other thread can hold a descriptor
   on it, so a plain store of a fresh Value block suffices. *)
let set_private loc v = Atomic.set loc.state (Value v)

(* Pre-validation fast path: a DCAS whose expected values are already
   stale is doomed, and a single logical read of either location proves
   it.  [resolve] of the current state block is exactly such a read
   (linearizing at the [Atomic.get]), so failing here is
   indistinguishable from installing a descriptor and losing — except
   that it allocates nothing and performs no CAS, which under
   contention is the difference between a cache-line read and a
   read-for-ownership storm.  Mismatch against a held state needs no
   helping either: the holder's status word alone decides the logical
   value. *)
let doomed (type a) (loc : a loc) (expected : a) =
  not (loc.equal (resolve (Atomic.get loc.state)) expected)

(* Run the flat two-location descriptor, normalizing to ascending
   location-id order (the acquire order that bounds helping chains);
   [true] iff it succeeded. *)
let run_dcas2 b l1 l2 o1 o2 n1 n2 =
  let owner = Opstats.domain_id b in
  let status = Atomic.make Undecided in
  if l1.id < l2.id then
    help_dcas2 b
      {
        status;
        owner;
        loc_a = l1;
        before_a = o1;
        after_a = n1;
        loc_b = l2;
        before_b = o2;
        after_b = n2;
      }
  else
    help_dcas2 b
      {
        status;
        owner;
        loc_a = l2;
        before_a = o2;
        after_a = n2;
        loc_b = l1;
        before_b = o1;
        after_b = n1;
      };
  succeeded status

(* Run a generic descriptor over [entries], sorted by location id. *)
let run_casn b entries =
  let status = Atomic.make Undecided in
  help_casn b (Casn { status; owner = Opstats.domain_id b; entries });
  succeeded status

(* The descriptor-free no-op DCAS (see the header): [true] certifies
   that [l1] held [o1] and [l2] held [o2] at once, at the read of [l2].
   [false] proves nothing; the caller falls back to the descriptor
   path. *)
let confirmed (type a c) (l1 : a loc) (l2 : c loc) (o1 : a) (o2 : c) =
  match Atomic.get l1.state with
  | Value v1 as s1 when l1.equal v1 o1 -> (
      match Atomic.get l2.state with
      | Value v2 when l2.equal v2 o2 -> Atomic.get l1.state == s1
      | Value _ | Held_a _ | Held_b _ | Owned _ -> false)
  | Value _ | Held_a _ | Held_b _ | Owned _ -> false

let dcas l1 l2 o1 o2 n1 n2 =
  if l1.id = l2.id then invalid_arg "Mem_lockfree.dcas: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  if
    n1 == o1 && n2 == o2
    && Atomic.get dcas2_enabled
    && confirmed l1 l2 o1 o2
  then begin
    Opstats.incr_dcas2 b;
    Opstats.incr_success b;
    true
  end
  else if doomed l1 o1 || doomed l2 o2 then begin
    Opstats.incr_fastfail b;
    false
  end
  else begin
    Opstats.incr_desc_alloc b;
    let ok =
      if Atomic.get dcas2_enabled then begin
        Opstats.incr_dcas2 b;
        run_dcas2 b l1 l2 o1 o2 n1 n2
      end
      else begin
        let e1 = Entry { loc = l1; before = o1; after = n1 }
        and e2 = Entry { loc = l2; before = o2; after = n2 } in
        run_casn b (if l1.id < l2.id then [| e1; e2 |] else [| e2; e1 |])
      end
    in
    if ok then Opstats.incr_success b;
    ok
  end

(* The strong form obtains its failing atomic view with the same trick
   the paper's own algorithms use (Figure 2, lines 8-10): a successful
   no-op DCAS certifies that the two values were simultaneously
   present.  The loop is lock-free: every retry is caused by some other
   operation's successful DCAS.  Retries back off — the failure that
   sent us around the loop means the locations are contended right now,
   and re-colliding immediately mostly fails the other operations'
   DCASes too.  The backoff state is allocated only once the first
   attempt has failed, so a first-attempt success allocates what
   [dcas] does plus the result triple. *)
let dcas_strong l1 l2 o1 o2 n1 n2 =
  if dcas l1 l2 o1 o2 n1 n2 then (true, o1, o2)
  else begin
    let b = Backoff.create () in
    let rec retry () =
      let v1 = get l1 in
      let v2 = get l2 in
      if l1.equal v1 o1 && l2.equal v2 o2 then begin
        if dcas l1 l2 o1 o2 n1 n2 then (true, o1, o2)
        else begin
          Backoff.once b;
          retry ()
        end
      end
      else if dcas l1 l2 v1 v2 v1 v2 then (false, v1, v2)
      else begin
        Backoff.once b;
        retry ()
      end
    in
    retry ()
  end

(* Generic N-word CASN over the same locations: the natural
   generalization the paper's Section 6 alludes to when discussing
   "synchronization primitives that can access more than one shared
   memory location".  The two-entry case — every deque DCAS routed
   through [casn], e.g. by the batched array-deque operations — takes
   the same flat [Dcas2] descriptor as [dcas]. *)
let casn cs =
  let entries =
    List.map (fun (Cass (loc, before, after)) -> Entry { loc; before; after }) cs
    |> Array.of_list
  in
  Array.sort (fun (Entry a) (Entry b) -> compare a.loc.id b.loc.id) entries;
  let distinct =
    let ok = ref true in
    Array.iteri
      (fun i (Entry a) ->
        if i > 0 then
          let (Entry b) = entries.(i - 1) in
          if a.loc.id = b.loc.id then ok := false)
      entries;
    !ok
  in
  if not distinct then invalid_arg "Mem_lockfree.casn: locations must differ";
  if Array.length entries = 0 then true
  else begin
    let b = Opstats.bucket counters in
    Opstats.incr_attempt b;
    (* Same pre-validation as [dcas]: any entry already stale dooms the
       whole CASN, and spotting it from a logical read skips the
       descriptor and the acquire cascade entirely. *)
    let stale = ref false in
    Array.iter
      (fun (Entry { loc; before; _ }) -> if doomed loc before then stale := true)
      entries;
    if !stale then begin
      Opstats.incr_fastfail b;
      false
    end
    else begin
      Opstats.incr_desc_alloc b;
      let ok =
        if Array.length entries = 2 && Atomic.get dcas2_enabled then begin
          Opstats.incr_dcas2 b;
          let (Entry { loc = la; before = oa; after = na }) = entries.(0) in
          let (Entry { loc = lb; before = ob; after = nb }) = entries.(1) in
          run_dcas2 b la lb oa ob na nb
        end
        else run_casn b entries
      in
      if ok then Opstats.incr_success b;
      ok
    end
  end
