(* A reconstruction of the failure mode of Greenwald's second
   array-based DCAS deque (pages 219-220 of [16]), which Section 1.1
   reports "can fail to push a new value onto one of the ends, even
   when the deque contains only a single element, regardless of the
   array size".

   Greenwald's exact listing is only available in his thesis; what this
   module reproduces — and documents as a reconstruction in DESIGN.md —
   is the *class* of bug the paper attributes to it: concluding a
   boundary condition from a non-instantaneous view.  The code below is
   the paper's own array algorithm with the boundary-confirmation
   DCASes removed: when a push (pop) observes an occupied (empty) cell
   at its target index it reports full (empty) immediately, on the
   strength of two separate reads.  Under a schedule in which the deque
   drains from one side and refills from the other between those two
   reads, a push observes a stale index whose cell now holds a value
   and returns "full" while the deque holds a single element — the
   scenario experiment E6 constructs deterministically.

   The push side also matches the paper's other complaint: without a
   confirmed full check the algorithm is only correct for an unbounded
   array; bounded use can misreport, which is the point. *)

module type ALGORITHM = sig
  type 'a t

  val name : string
  val make : length:int -> unit -> 'a t
  val create : capacity:int -> unit -> 'a t
  val push_right : 'a t -> 'a -> Deque.Deque_intf.push_result
  val push_left : 'a t -> 'a -> Deque.Deque_intf.push_result
  val pop_right : 'a t -> 'a Deque.Deque_intf.pop_result
  val pop_left : 'a t -> 'a Deque.Deque_intf.pop_result
  val unsafe_to_list : 'a t -> 'a list
end

module Make (M : Dcas.Memory_intf.MEMORY) : ALGORITHM = struct
  type 'a cell = Null | Item of 'a

  type 'a t = { l : int M.loc; r : int M.loc; s : 'a cell M.loc array; length : int }

  let name = "greenwald-v2/" ^ M.name

  let cell_equal a b =
    match (a, b) with
    | Null, Null -> true
    | Item x, Item y -> x == y
    | (Null | Item _), _ -> false

  let ( %% ) a b = ((a mod b) + b) mod b

  let make ~length () =
    if length < 1 then invalid_arg "Greenwald_v2.make: length must be >= 1";
    {
      l = M.make ~equal:Int.equal 0;
      r = M.make ~equal:Int.equal (1 %% length);
      s = Array.init length (fun _ -> M.make ~equal:cell_equal Null);
      length;
    }

  let create ~capacity () = make ~length:capacity ()

  let push_right t v =
    let rec loop () =
      let old_r = M.get t.r in
      let old_s = M.get t.s.(old_r) in
      match old_s with
      | Item _ -> `Full (* unconfirmed conclusion: the flaw *)
      | Null ->
          let new_r = (old_r + 1) %% t.length in
          if M.dcas t.r t.s.(old_r) old_r old_s new_r (Item v) then `Okay
          else loop ()
    in
    loop ()

  let push_left t v =
    let rec loop () =
      let old_l = M.get t.l in
      let old_s = M.get t.s.(old_l) in
      match old_s with
      | Item _ -> `Full
      | Null ->
          let new_l = (old_l - 1) %% t.length in
          if M.dcas t.l t.s.(old_l) old_l old_s new_l (Item v) then `Okay
          else loop ()
    in
    loop ()

  let pop_right t =
    let rec loop () =
      let old_r = M.get t.r in
      let i = (old_r - 1) %% t.length in
      let old_s = M.get t.s.(i) in
      match old_s with
      | Null -> `Empty (* unconfirmed conclusion: the flaw *)
      | Item v ->
          if M.dcas t.r t.s.(i) old_r old_s i Null then `Value v else loop ()
    in
    loop ()

  let pop_left t =
    let rec loop () =
      let old_l = M.get t.l in
      let i = (old_l + 1) %% t.length in
      let old_s = M.get t.s.(i) in
      match old_s with
      | Null -> `Empty
      | Item v ->
          if M.dcas t.l t.s.(i) old_l old_s i Null then `Value v else loop ()
    in
    loop ()

  let unsafe_to_list t =
    let l = M.get t.l in
    let rec walk i k acc =
      if k = 0 then List.rev acc
      else
        match M.get t.s.(i) with
        | Item v -> walk ((i + 1) %% t.length) (k - 1) (v :: acc)
        | Null -> List.rev acc
    in
    walk ((l + 1) %% t.length) t.length []
end

module Lockfree = Make (Dcas.Mem_lockfree)
module Locked = Make (Dcas.Mem_lock)
module Sequential = Make (Dcas.Mem_seq)
