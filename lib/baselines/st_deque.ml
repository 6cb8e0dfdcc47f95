(* The lock-free deque of Sundell & Tsigas, "Lock-Free and Practical
   Deques and Doubly Linked Lists using Single-Word Compare-and-Swap"
   (OPODIS 2004 / JPDC 2008) — the historical answer to this paper's
   premise.  Where the source paper waits for DCAS hardware, Sundell &
   Tsigas build a general doubly-linked deque from the single-word CAS
   every machine already has, at the cost of a markedly subtler
   protocol:

   - The [next] chain is authoritative (Harris-style): a node is
     logically deleted the instant its [next] link is marked, and
     physically unlinked by a later CAS on its predecessor's [next].
   - The [prev] chain is only a correctable hint.  It may lag behind
     insertions and deletions; every consumer validates it against the
     [next] chain and repairs it with [correct_prev].
   - Deletion is two-phase — mark ([pop_left]/[pop_right]'s
     linearization CAS), then unlink ([help_delete]) — and every
     operation that trips over a marked link helps finish the unlink
     instead of waiting, which is what makes the deque lock-free.

   The deletion mark lives in the link word itself: a link is an
   immutable [(pointer, mark)] record in a single location, mirroring
   the paper's mark bit packed into a pointer via alignment.

   The algorithm is a functor over a minimal single-word-CAS signature
   {!CAS} so the one algorithm text runs everywhere the repo needs it:
   {!Atomic_cas} instantiates it directly on [Atomic] (the production
   build — no MEMORY_CASN emulation in the hot path), and {!Of_casn}
   shims any {!Dcas.Memory_intf.MEMORY_CASN} (the model checker's
   yielding memory, the chaos injector, the stall/crash harnesses) in
   via one-entry [casn], so the explorer, fuzzer, freezer and crash
   layers all drive the identical code.

   Adaptations from the paper: OCaml's GC replaces the reference
   counting (no [ReleaseRef]/[CopyRef]); the sentinels carry self links
   on their outward sides (head.prev, tail.next) instead of NULL, which
   double as walk terminators; and because [Atomic.compare_and_set]
   compares physically, every CAS expects the exact link record
   previously read from that location — never a freshly built
   structurally-equal one. *)

module type CAS = sig
  type 'a loc

  val make : ?equal:('a -> 'a -> bool) -> 'a -> 'a loc
  val make_padded : ?equal:('a -> 'a -> bool) -> 'a -> 'a loc
  val get : 'a loc -> 'a
  val set_private : 'a loc -> 'a -> unit

  val cas : 'a loc -> 'a -> 'a -> bool
  (** Single-word compare-and-swap.  Callers only ever pass an
      expected value physically read from the location, so substrates
      whose comparison is physical equality (plain [Atomic]) and
      substrates honoring [make]'s [equal] agree. *)

  val name : string
end

module Atomic_cas : CAS = struct
  type 'a loc = 'a Atomic.t

  let make ?equal:_ v = Atomic.make v
  let make_padded ?equal:_ v = Dcas.Padding.make_atomic v
  let get = Atomic.get
  let set_private = Atomic.set
  let cas = Atomic.compare_and_set
  let name = "atomic"
end

module Of_casn (M : Dcas.Memory_intf.MEMORY_CASN) : CAS = struct
  type 'a loc = 'a M.loc

  let make = M.make
  let make_padded = M.make_padded
  let get = M.get
  let set_private = M.set_private
  let cas l o n = M.casn [ M.Cass (l, o, n) ]
  let name = M.name
end

module type S = sig
  include Deque.Deque_intf.S

  val make : unit -> 'a t
  val unsafe_to_list : 'a t -> 'a list
  val check_invariant : 'a t -> (unit, string) result
end

(* [B.helping] gates the physical-unlink phase of [help_delete]; the
   planted-bug variant ({!Buggy_st_deque}) sets it to [false], leaving
   marked nodes chained forever so any later pop on that side spins —
   the livelock the fuzzer must catch as a step-limit violation. *)
module Impl
    (C : CAS) (B : sig
      val helping : bool
      val variant : string
    end) =
struct
  type 'a node = {
    value : 'a option;  (* [None] only on the two sentinels *)
    prev : 'a link C.loc;
    next : 'a link C.loc;
  }

  and 'a link = { ptr : 'a node_ref; mark : bool }
  and 'a node_ref = Nil | Node of 'a node

  type 'a t = { head : 'a node; tail : 'a node }

  let name = B.variant ^ "/" ^ C.name

  let node_ref_equal a b =
    match (a, b) with
    | Nil, Nil -> true
    | Node x, Node y -> x == y
    | (Nil | Node _), _ -> false

  let link_equal a b = a.mark = b.mark && node_ref_equal a.ptr b.ptr
  let nil_link = { ptr = Nil; mark = false }

  (* Dereference a link the representation invariant guarantees is
     non-nil (every published link points at a node). *)
  let node_of = function Node n -> n | Nil -> assert false

  (* The sentinels' outward links are self loops: head.prev and
     tail.next are never marked and never traversed except as the
     walk-termination guards below. *)
  let make () =
    let sentinel () =
      {
        value = None;
        prev = C.make_padded ~equal:link_equal nil_link;
        next = C.make_padded ~equal:link_equal nil_link;
      }
    in
    let head = sentinel () and tail = sentinel () in
    C.set_private head.prev { ptr = Node head; mark = false };
    C.set_private head.next { ptr = Node tail; mark = false };
    C.set_private tail.prev { ptr = Node head; mark = false };
    C.set_private tail.next { ptr = Node tail; mark = false };
    { head; tail }

  let create ~capacity:_ () = make ()

  (* SetMark: mark a link in place, preserving its pointer.  Used on
     [prev] links only — marking a [next] link is a linearization point
     and must be a one-shot CAS by the deleting operation itself. *)
  let rec set_mark loc =
    let l = C.get loc in
    if not l.mark then
      if not (C.cas loc l { ptr = l.ptr; mark = true }) then set_mark loc

  (* HelpDelete: finish the deletion of a node whose [next] link is
     already marked — mark its [prev] link, then splice it out of the
     [next] chain.  [last] remembers the predecessor we last stepped
     through together with the exact link record read from it, so the
     splice-out of a deleted [prev] can CAS with a physically-read
     expected value. *)
  let help_delete node =
    set_mark node.prev;
    let rec unlink ~last ~prev ~next =
      if prev == next then ()
      else
        let next_link = C.get next.next in
        if next_link.mark then
          (* the successor is deleted too: never re-link a dead node *)
          unlink ~last ~prev ~next:(node_of next_link.ptr)
        else
          let prev_link = C.get prev.next in
          if prev_link.mark then
            match last with
            | Some (ln, ll) ->
                (* [prev] is deleted: help unlink it from [ln] first *)
                set_mark prev.prev;
                ignore (C.cas ln.next ll { ptr = prev_link.ptr; mark = false });
                unlink ~last:None ~prev:ln ~next
            | None ->
                unlink ~last:None ~prev:(node_of (C.get prev.prev).ptr) ~next
          else
            let succ = node_of prev_link.ptr in
            if succ == node then begin
              if
                not
                  (C.cas prev.next prev_link { ptr = Node next; mark = false })
              then unlink ~last ~prev ~next
            end
            else if succ == prev then ()
              (* tail's self link: [node] already left the chain *)
            else unlink ~last:(Some (prev, prev_link)) ~prev:succ ~next
    in
    if B.helping then
      unlink ~last:None
        ~prev:(node_of (C.get node.prev).ptr)
        ~next:(node_of (C.get node.next).ptr)

  (* CorrectPrev: starting from the hint [prev], walk the authoritative
     [next] chain to the live predecessor of [node], repair [node.prev]
     to point at it, and return it.  Gives up (returning the current
     position, which the caller revalidates) once [node] itself is
     deleted.  Helps unlink any deleted node it steps over. *)
  let rec correct_prev ~last prev node =
    let link1 = C.get node.prev in
    if link1.mark then prev
    else
      let prev_link = C.get prev.next in
      if prev_link.mark then
        match last with
        | Some (ln, ll) ->
            set_mark prev.prev;
            ignore (C.cas ln.next ll { ptr = prev_link.ptr; mark = false });
            correct_prev ~last:None ln node
        | None -> correct_prev ~last:None (node_of (C.get prev.prev).ptr) node
      else
        let succ = node_of prev_link.ptr in
        if succ == node then
          if C.cas node.prev link1 { ptr = Node prev; mark = false } then
            if (C.get prev.prev).mark then
              (* [prev] was deleted while we installed it: re-correct *)
              correct_prev ~last prev node
            else prev
          else correct_prev ~last prev node
        else if succ == prev then prev
          (* tail's self link: [node] left the chain while we walked *)
        else correct_prev ~last:(Some (prev, prev_link)) succ node

  (* PushCommon: after the insertion CAS has published [node] before
     [next], pull [next.prev] forward to point at it.  Purely a hint
     repair — abandoning it on any interference is safe. *)
  let push_common node next =
    let rec fixup () =
      let link1 = C.get next.prev in
      let node_link = C.get node.next in
      if link1.mark || node_link.mark || node_of node_link.ptr != next then ()
      else if C.cas next.prev link1 { ptr = Node node; mark = false } then begin
        if (C.get node.prev).mark then
          (* [node] was deleted while we fixed the hint: re-correct *)
          ignore (correct_prev ~last:None node next)
      end
      else fixup ()
    in
    fixup ()

  let fresh_node v =
    {
      value = Some v;
      prev = C.make ~equal:link_equal nil_link;
      next = C.make ~equal:link_equal nil_link;
    }

  (* PushLeft: insert directly after the head sentinel.  head is never
     deleted, so its [next] link is never marked and the CAS needs no
     revalidation walk. *)
  let push_left t v =
    let node = fresh_node v in
    let rec loop b =
      let link = C.get t.head.next in
      C.set_private node.prev { ptr = Node t.head; mark = false };
      C.set_private node.next link;
      if C.cas t.head.next link { ptr = Node node; mark = false } then
        push_common node (node_of link.ptr)
      else loop (Dcas.Backoff.once_lazy b)
    in
    loop None;
    `Okay

  (* PushRight: insert before the tail sentinel.  The predecessor comes
     from the [tail.prev] hint and must be revalidated: its [next] link
     must still be the unmarked link to tail at the insertion CAS. *)
  let push_right t v =
    let node = fresh_node v in
    let rec loop b prev =
      let link = C.get prev.next in
      if link.mark || node_of link.ptr != t.tail then
        loop b (correct_prev ~last:None prev t.tail)
      else begin
        C.set_private node.prev { ptr = Node prev; mark = false };
        C.set_private node.next { ptr = Node t.tail; mark = false };
        if C.cas prev.next link { ptr = Node node; mark = false } then
          push_common node t.tail
        else loop (Dcas.Backoff.once_lazy b) prev
      end
    in
    loop None (node_of (C.get t.tail.prev).ptr);
    `Okay

  (* PopLeft linearizes at the read of [head.next] (empty) or at the
     marking CAS on the first node's [next] link: the CAS succeeds only
     if that link is unchanged since the read, so the node was still
     untouched — any interposed [push_left] commutes to after this pop
     within the operations' overlap. *)
  let pop_left t =
    let rec loop b =
      let link = C.get t.head.next in
      let node = node_of link.ptr in
      if node == t.tail then `Empty
      else
        let node_link = C.get node.next in
        if node_link.mark then begin
          (* already logically deleted: help finish, then retry *)
          help_delete node;
          loop b
        end
        else if C.cas node.next node_link { ptr = node_link.ptr; mark = true }
        then begin
          help_delete node;
          (* repair the new first node's backward hint *)
          ignore (correct_prev ~last:None t.head (node_of node_link.ptr));
          match node.value with Some v -> `Value v | None -> assert false
        end
        else loop (Dcas.Backoff.once_lazy b)
    in
    loop None

  (* PopRight linearizes at the marking CAS: it succeeds only while the
     node's [next] is the unmarked link to tail, i.e. while the node is
     live and rightmost (a push_right behind it would have rewritten
     that link).  Empty linearizes at reading [head.next = tail]. *)
  let pop_right t =
    let rec loop b node =
      let node_link = C.get node.next in
      if node_link.mark || node_of node_link.ptr != t.tail then
        loop b (correct_prev ~last:None node t.tail)
      else if node == t.head then `Empty
      else if C.cas node.next node_link { ptr = node_link.ptr; mark = true }
      then begin
        help_delete node;
        let prev = node_of (C.get node.prev).ptr in
        ignore (correct_prev ~last:None prev t.tail);
        match node.value with Some v -> `Value v | None -> assert false
      end
      else loop (Dcas.Backoff.once_lazy b) node
    in
    loop None (node_of (C.get t.tail.prev).ptr)

  (* --- Quiescent inspection (tests and invariant checks only) --- *)

  let unsafe_to_list t =
    let rec walk node acc =
      if node == t.tail then List.rev acc
      else
        let l = C.get node.next in
        let acc =
          if l.mark then acc
          else match node.value with Some v -> v :: acc | None -> acc
        in
        walk (node_of l.ptr) acc
    in
    walk (node_of (C.get t.head.next).ptr) []

  (* Executable representation invariant, weak enough to hold after
     every shared-memory step of an in-flight operation: the
     authoritative [next] chain runs from head to tail without cycling,
     head's [next] link is never marked (head is never deleted), and
     every chained non-sentinel node carries a value.  [prev] links are
     hints and carry no per-step obligation; the strong doubly-linked
     checks are quiescent-only and live in the test suite. *)
  let check_invariant t =
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let max_nodes = 1_000_000 in
    let hl = C.get t.head.next in
    if hl.mark then fail "head's next link is marked"
    else
      let rec walk node n =
        if n > max_nodes then fail "next chain does not reach tail (cycle?)"
        else if node == t.tail then Ok ()
        else if node == t.head then fail "head reappears inside the chain"
        else
          match node.value with
          | None -> fail "valueless interior node in the chain"
          | Some _ -> walk (node_of (C.get node.next).ptr) (n + 1)
      in
      walk (node_of hl.ptr) 0
end

module Make (C : CAS) =
  Impl
    (C)
    (struct
      let helping = true
      let variant = "st-deque"
    end)

module Make_buggy (C : CAS) =
  Impl
    (C)
    (struct
      let helping = false
      let variant = "st-deque-broken"
    end)

(* The production instantiation: directly on [Atomic]. *)
include Make (Atomic_cas)
