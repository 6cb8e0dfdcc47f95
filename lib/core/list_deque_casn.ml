(* EXTENSION: the linked-list deque rebuilt on a THREE-word CAS.

   Section 6 of the paper asks whether even stronger multi-word
   primitives are worth providing; Section 1.1 notes that Greenwald's
   first algorithm already used "the two-word DCAS as if it were a
   three-word operation".  This module answers the question
   constructively: given a 3-entry CASN, the whole splitting machinery
   of Section 4 disappears.

   - No deleted bits (and no dummy nodes): a pop splices its node out
     in ONE atomic step, so there is never a logically-deleted node for
     other operations to complete or work around.
   - No null values: a node's value is written once, before
     publication, and never mutated.
   - deleteRight/deleteLeft do not exist.

   popRight's single CASN touches three words: the right sentinel's
   inward pointer (redirected to the node's left neighbor), the left
   neighbor's right pointer (redirected to the sentinel), and — as a
   pure validation entry — the node's own left pointer.  The validation
   entry is what makes three words necessary: with only the first two,
   a concurrent popLeft could splice out the left neighbor between our
   reads and our CASN, and both stale expectations would still hold
   (a spliced-out node's outgoing pointers are never modified), leaving
   the sentinel pointing into garbage.  The node's left pointer changes
   exactly when its left neighbor is spliced out, so including it
   pins the neighborhood.

   Pushes still need only two words (plain DCAS shape, expressed as a
   2-entry CASN).  Experiment E17 measures what the stronger primitive
   buys: one CASN per pop instead of the split's two DCASes, at the
   cost of a wider atomic operation. *)

module type ALGORITHM = List_deque_intf.ALGORITHM

module Make (M : Dcas.Memory_intf.MEMORY_CASN) = struct
  type 'a cell = SentL | SentR | Item of 'a

  type 'a node = {
    left : 'a node_ref M.loc;
    right : 'a node_ref M.loc;
    value : 'a cell;  (* immutable: fixed at allocation *)
  }

  and 'a node_ref = Nil | Node of 'a node

  type 'a t = { sl : 'a node; sr : 'a node; alloc : Alloc.t }

  let name = "list-deque-3cas/" ^ M.name

  let node_ref_equal a b =
    match (a, b) with
    | Nil, Nil -> true
    | Node x, Node y -> x == y
    | (Nil | Node _), _ -> false

  let new_node value =
    {
      left = M.make ~equal:node_ref_equal Nil;
      right = M.make ~equal:node_ref_equal Nil;
      value;
    }

  (* Sentinels: every operation hits their inward pointer, so keep the
     two off each other's cache lines. *)
  let new_sentinel value =
    {
      left = M.make_padded ~equal:node_ref_equal Nil;
      right = M.make_padded ~equal:node_ref_equal Nil;
      value;
    }

  let node_of = function
    | Node n -> n
    | Nil -> assert false

  let make ?(alloc = Alloc.unbounded) ?(recycle = false) () =
    if recycle then
      invalid_arg "List_deque_casn.make: node recycling is only implemented for List_deque";
    let sl = new_sentinel SentL and sr = new_sentinel SentR in
    M.set_private sl.right (Node sr);
    M.set_private sr.left (Node sl);
    { sl; sr; alloc }

  let create ~capacity:_ () = make ()

  (* No pending deletions exist in this design; the procedures are
     retained as no-ops so the module satisfies the shared list-deque
     interface (and so ablation code can swap implementations). *)
  let delete_right (_ : 'a t) = ()
  let delete_left (_ : 'a t) = ()

  let pop_right t =
    let rec loop b =
      let old_l = M.get t.sr.left in
      let target = node_of old_l in
      match target.value with
      | SentL -> `Empty
      | SentR -> assert false
      | Item v ->
          let ll = M.get target.left in
          if
            M.casn
              [
                M.Cass (t.sr.left, old_l, ll);
                M.Cass ((node_of ll).right, old_l, Node t.sr);
                (* validation: target's left neighborhood unchanged *)
                M.Cass (target.left, ll, ll);
              ]
          then begin
            Alloc.free t.alloc;
            `Value v
          end
          else loop (Dcas.Backoff.once_lazy b)
    in
    loop None

  let pop_left t =
    let rec loop b =
      let old_r = M.get t.sl.right in
      let target = node_of old_r in
      match target.value with
      | SentR -> `Empty
      | SentL -> assert false
      | Item v ->
          let rr = M.get target.right in
          if
            M.casn
              [
                M.Cass (t.sl.right, old_r, rr);
                M.Cass ((node_of rr).left, old_r, Node t.sl);
                M.Cass (target.right, rr, rr);
              ]
          then begin
            Alloc.free t.alloc;
            `Value v
          end
          else loop (Dcas.Backoff.once_lazy b)
    in
    loop None

  let push_right t v =
    if not (Alloc.try_alloc t.alloc) then `Full
    else begin
      let nn = new_node (Item v) in
      let rec loop b =
        let old_l = M.get t.sr.left in
        let target = node_of old_l in
        M.set_private nn.right (Node t.sr);
        M.set_private nn.left old_l;
        if
          M.casn
            [
              M.Cass (t.sr.left, old_l, Node nn);
              M.Cass (target.right, Node t.sr, Node nn);
            ]
        then `Okay
        else loop (Dcas.Backoff.once_lazy b)
      in
      loop None
    end

  let push_left t v =
    if not (Alloc.try_alloc t.alloc) then `Full
    else begin
      let nn = new_node (Item v) in
      let rec loop b =
        let old_r = M.get t.sl.right in
        let target = node_of old_r in
        M.set_private nn.left (Node t.sl);
        M.set_private nn.right old_r;
        if
          M.casn
            [
              M.Cass (t.sl.right, old_r, Node nn);
              M.Cass (target.left, Node t.sl, Node nn);
            ]
        then `Okay
        else loop (Dcas.Backoff.once_lazy b)
      in
      loop None
    end

  (* --- Quiescent inspection --- *)

  let unsafe_to_list t =
    let rec walk node acc =
      match node.value with
      | SentR -> List.rev acc
      | SentL -> walk (node_of (M.get node.right)) acc
      | Item v -> walk (node_of (M.get node.right)) (v :: acc)
    in
    walk (node_of (M.get t.sl.right)) []

  (* The invariant is simpler than Figures 24-25: a consistent
     doubly-linked chain of distinct Item nodes between the sentinels —
     no marks, no nulls, ever. *)
  let check_invariant t =
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let max_nodes = 1_000_000 in
    let rec collect node acc n =
      if n > max_nodes then Error "chain too long (cycle?)"
      else if node == t.sr then Ok (List.rev acc)
      else collect (node_of (M.get node.right)) (node :: acc) (n + 1)
    in
    match collect (node_of (M.get t.sl.right)) [] 0 with
    | Error e -> Error e
    | Ok chain ->
        let rec distinct = function
          | [] -> true
          | x :: rest -> (not (List.memq x rest)) && distinct rest
        in
        if not (distinct chain) then fail "chain contains a repeated node"
        else begin
          let full_chain = (t.sl :: chain) @ [ t.sr ] in
          let rec check_links = function
            | a :: (b :: _ as rest) ->
                if not (node_ref_equal (M.get b.left) (Node a)) then
                  fail "left pointer does not mirror right"
                else check_links rest
            | [ _ ] | [] -> Ok ()
          in
          match check_links full_chain with
          | Error e -> Error e
          | Ok () ->
              if
                List.for_all
                  (fun n ->
                    match n.value with
                    | Item _ -> true
                    | SentL | SentR -> false)
                  chain
              then Ok ()
              else fail "sentinel value inside the chain"
        end
end

module Lockfree = Make (Dcas.Mem_lockfree)
module Locked = Make (Dcas.Mem_lock)
module Striped = Make (Dcas.Mem_striped)
module Sequential = Make (Dcas.Mem_seq)
