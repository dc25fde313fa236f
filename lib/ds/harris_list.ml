(** Harris's lock-free linked list (DISC 2001): the paper's HList, plus the
    HHSList variant whose [get] is the Herlihy-Shavit wait-free search.

    Like HMList the list is sorted with mark-before-unlink deletion, but
    traversal is {e optimistic}: it walks {e past} marked nodes (following
    links out of logically-deleted — possibly already retired — nodes) and
    snips the whole marked chain between the last unmarked node ([left])
    and the first unmarked node with key ≥ target ([right]) in one CAS.
    This is exactly the Figure 2 pattern that plain HP cannot protect, so
    HList runs only under schemes with coarse protection or protect-on-
    retire (Table 1): RCU, NBR, VBR, HP++, PEBR, HP-RCU, HP-BRCU.

    [Make] is HList: [get] uses the helping search (participates in
    snipping).  [Make_hhs] is HHSList: [get] is a read-only traversal that
    skips marked nodes without writing — wait-free in the original, demoted
    to lock-free by schemes that can abort readers (paper footnote 9). *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

module type FLAVOUR = sig
  val helping_get : bool
end

module Make_gen (F : FLAVOUR) (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain = struct
  type domain = X.domain

  type node = {
    blk : Block.t;
    mutable key : int;
    mutable value : int;
    next : node Link.cell;
  }

  let blk n = n.blk

  type t = { dom : X.domain; head : node; pool : node Pool.t }

  (* Traversal cursor: [left] = last unmarked node whose loaded link is
     [left_next] (the snip CAS's expected value); [node] = node under
     examination (None = end of list).  [node == target left_next] iff no
     marked chain is pending between them. *)
  type cursor = { left : node; left_next : node Link.t; node : node option }

  type session = {
    h : X.handle;
    prot : X.shield array;  (* left, left_next-target, node *)
    backup : X.shield array;
    scratch : X.shield array;
    mutable rot : int;
    mask0 : X.shield;
    mask1 : X.shield;
  }

  let create dom =
    {
      dom;
      head =
        { blk = Alloc.block (); key = min_int; value = 0; next = Link.cell None };
      pool = Pool.create ();
    }

  let session t =
    let h = X.register t.dom in
    {
      h;
      prot = Array.init 3 (fun _ -> X.new_shield h);
      backup = Array.init 3 (fun _ -> X.new_shield h);
      scratch = Array.init 4 (fun _ -> X.new_shield h);
      rot = 0;
      mask0 = X.new_shield h;
      mask1 = X.new_shield h;
    }

  let close_session s =
    X.flush s.h;
    X.unregister s.h

  let alloc_node t key value =
    let reuse =
      if not X.recycles then None
      else
        match Pool.acquire t.pool with
        | Some n when Block.retire_era n.blk <> X.current_era t.dom ->
            Block.reanimate n.blk ~era:(X.current_era t.dom);
            n.key <- key;
            n.value <- value;
            Link.set n.next Link.null;
            Some n
        | Some n ->
            Pool.release t.pool n;
            None
        | None -> None
    in
    match reuse with
    | Some n -> n
    | None ->
        let b = Alloc.block ~recyclable:X.recycles () in
        Block.set_birth_era b ~era:(X.current_era t.dom);
        { blk = b; key; value; next = Link.cell None }

  (* A node that was allocated but never published: recyclers take it back
     into the pool; everyone else must tell the allocator it was abandoned,
     or the leak-at-quiescence oracle (DESIGN.md §11) would book it as
     stranded by a lost retirement. *)
  let discard t n =
    if X.recycles then Pool.release t.pool n else Alloc.abandon n.blk

  let scratch_read s ?src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    X.read s.h sh ?src ~hdr:blk cell

  let key_of s n =
    let k = n.key in
    X.deref s.h n.blk;
    k

  let protect_cursor (sh : X.shield array) c =
    X.protect sh.(0) (Some c.left.blk);
    X.protect sh.(1) (Option.map blk (Link.target c.left_next));
    X.protect sh.(2) (Option.map blk c.node)

  (* Revalidation (§3.3): resuming from [node] (or from [left] when at the
     end) requires it not logically deleted.  Checkpointed nodes are
     shield-protected, so the bare load is safe. *)
  let validate_cursor c =
    match c.node with
    | Some n ->
        Alloc.check_access n.blk;
        not (Link.is_marked (Link.get n.next))
    | None ->
        Alloc.check_access c.left.blk;
        not (Link.is_marked (Link.get c.left.next))

  (* Retire the frozen marked chain [from .. stop), patching successors for
     HP++.  Links of marked nodes are immutable, so the walk is stable. *)
  let retire_chain t s ~from ~stop =
    let rec go n =
      match n with
      | None -> ()
      | Some x when (match stop with Some y -> x == y | None -> false) -> ()
      | Some x ->
          let nx = Link.target (Link.get x.next) in
          X.retire s.h x.blk
            ~patch:(match nx with None -> [] | Some y -> [ y.blk ])
            ~free:(fun () -> if X.recycles then Pool.release t.pool x);
          go nx
    in
    go from

  (* Snip the marked chain between left and [c.node]: one CAS on
     [left.next], then retire the chain.  Abort-rollback-unsafe, so masked
     on outliving protections. *)
  let snip t s c =
    X.protect s.mask0 (Some c.left.blk);
    X.protect s.mask1 (Option.map blk c.node);
    let desired = Link.make c.node in
    X.mask s.h (fun () ->
        if Link.cas c.left.next ~expected:c.left_next ~desired then begin
          retire_chain t s ~from:(Link.target c.left_next) ~stop:c.node;
          Some desired
        end
        else None)

  let init_cursor t s () =
    let ln = scratch_read s t.head.next in
    { left = t.head; left_next = ln; node = Link.target ln }

  (* One step of Harris's search.  [help] enables chain snipping. *)
  let step_search t s key ~help c =
    match c.node with
    | None ->
        (* End of list.  If a marked chain dangles, snip it first. *)
        if help && not (Link.same c.left_next (Link.make c.node)) then
          match snip t s c with
          | Some ln -> Finish ({ c with left_next = ln }, false)
          | None -> Fail
        else Finish (c, false)
    | Some tnode -> (
        let t_next = scratch_read s ~src:tnode.blk tnode.next in
        if Link.is_marked t_next then
          (* t is logically deleted: walk past it. *)
          Continue { c with node = Link.target t_next }
        else
          let k = key_of s tnode in
          if k < key then
            (* t is a live node below the key: becomes the new left. *)
            Continue { left = tnode; left_next = t_next; node = Link.target t_next }
          else if
            (* t = right.  Adjacent to left? *)
            match Link.target c.left_next with
            | Some l when l == tnode -> true
            | _ -> false
          then Finish (c, k = key)
          else if help then
            match snip t s c with
            | Some ln -> Finish ({ c with left_next = ln }, k = key)
            | None -> Fail
          else Finish (c, k = key))

  let rec search t s key ~help =
    match
      X.traverse s.h ~prot:s.prot ~backup:s.backup ~protect:protect_cursor
        ~validate:validate_cursor ~init:(init_cursor t s)
        ~step:(step_search t s key ~help)
    with
    | Some (c, _win, found) -> (c, found)
    | None -> search t s key ~help

  (* ---------------- operations ---------------- *)

  let get t s key =
    X.op s.h (fun () -> snd (search t s key ~help:F.helping_get))

  let insert t s key value =
    X.op s.h (fun () ->
        let n = alloc_node t key value in
        let rec go () =
          let c, found = search t s key ~help:true in
          if found then begin
            discard t n;
            false
          end
          else begin
            (* After a helping search, left and right are adjacent:
               left_next's target is right (or None). *)
            Link.set n.next (Link.make (Link.target c.left_next));
            let desired = Link.make (Some n) in
            if Link.cas c.left.next ~expected:c.left_next ~desired then true
            else go ()
          end
        in
        go ())

  let remove t s key =
    X.op s.h (fun () ->
        let rec go () =
          let c, found = search t s key ~help:true in
          if not found then false
          else
            let right = Option.get (Link.target c.left_next) in
            let r_next = scratch_read s ~src:right.blk right.next in
            if Link.is_marked r_next then go ()
            else if
              Link.cas right.next ~expected:r_next
                ~desired:(Link.with_tag r_next 1)
            then begin
              (* Try to unlink immediately; otherwise later searches snip. *)
              X.protect s.mask0 (Some c.left.blk);
              X.protect s.mask1 (Some right.blk);
              let desired = Link.make (Link.target r_next) in
              X.mask s.h (fun () ->
                  if Link.cas c.left.next ~expected:c.left_next ~desired then
                    X.retire s.h right.blk
                      ~patch:(match Link.target r_next with
                             | None -> []
                             | Some nx -> [ nx.blk ])
                      ~free:(fun () -> if X.recycles then Pool.release t.pool right));
              true
            end
            else go ()
        in
        go ())

  (* A single max_int search is not enough: [step_search] advances [left]
     past a marked chain whenever the next live node's key is below the
     search key, so chains that precede a live node survive it — physically
     linked, invisible to the read-only [get], and never retired, which the
     leak-at-quiescence census (DESIGN.md §11) would book as stranded.
     Sweeping the live keys in order puts every marked chain between some
     search's left and right, where the snip CAS removes it. *)
  let cleanup t s =
    ignore
      (X.op s.h (fun () ->
           let rec sweep key =
             let c, _ = search t s key ~help:true in
             match c.node with
             | Some n ->
                 let k = key_of s n in
                 if k < max_int then sweep (k + 1)
             | None -> ()
           in
           sweep min_int;
           true)
        : bool)
end

module Make (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain =
  Make_gen
    (struct
      let helping_get = true
    end)
    (X)

(** HHSList: Harris list with the Herlihy-Shavit read-only [get]. *)
module Make_hhs (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain =
  Make_gen
    (struct
      let helping_get = false
    end)
    (X)
