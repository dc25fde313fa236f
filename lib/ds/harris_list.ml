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

(** A list node.  [next] is field 0 and is accessed only through
    {!next_cell}, which views the node as its own [Link.cell]: one load
    reaches the successor link instead of two (node → cell box → link).
    See DESIGN.md §9, "Two loads per hop". *)
type node = {
  mutable next : node Link.t;
  blk : Block.t;
  mutable key : int;  (* mutable only for pool reuse (VBR) *)
  mutable value : int;
}

external next_cell : node -> node Link.cell = "%identity"

(* An unpublished node: its link is set before the node becomes
   reachable, so it may start on the shared null. *)
let make_node blk key value = { next = Link.null; blk; key; value }

let blk n = n.blk

(* Schemes that do not recycle never touch a list's pool, so their lists
   share this one instead of each building an empty pool (a hash map makes
   one list per bucket). *)
let inert_pool : node Pool.t = Pool.create ()

(* Per-read shields rotate through a power-of-two ring, so the rotation is
   a mask, not a division. *)
let scratch_count = 4
let () = assert (scratch_count land (scratch_count - 1) = 0)

module type FLAVOUR = sig
  val helping_get : bool
end

module Make_gen (F : FLAVOUR) (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain = struct
  type domain = X.domain

  type t = { dom : X.domain; head : node; pool : node Pool.t }

  (* Traversal cursor: [left] = last unmarked node whose loaded link is
     [left_next] (the snip CAS's expected value); [here] = the last link
     followed, whose target is the node under examination (null = end of
     list).  The two targets coincide iff no marked chain is pending
     between them. *)
  type cursor = { left : node; left_next : node Link.t; here : node Link.t }

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
      head = make_node (Alloc.block ()) min_int 0;
      pool = (if X.recycles then Pool.create () else inert_pool);
    }

  let session t =
    let h = X.register t.dom in
    {
      h;
      prot = Array.init 3 (fun _ -> X.new_shield h);
      backup = Array.init 3 (fun _ -> X.new_shield h);
      scratch = Array.init scratch_count (fun _ -> X.new_shield h);
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
            Link.set (next_cell n) Link.null;
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
        make_node b key value

  (* A node that was allocated but never published: recyclers take it back
     into the pool; everyone else must tell the allocator it was abandoned,
     or the leak-at-quiescence oracle (DESIGN.md §11) would book it as
     stranded by a lost retirement. *)
  let discard t n =
    if X.recycles then Pool.release t.pool n else Alloc.abandon n.blk

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) land (scratch_count - 1);
    X.read s.h sh ~src ~hdr:blk cell

  let key_of s n =
    let k = n.key in
    X.deref s.h n.blk;
    k

  let protect_cursor (sh : X.shield array) c =
    X.protect sh.(0) (Some c.left.blk);
    X.protect sh.(1) (Link.map_target blk c.left_next);
    X.protect sh.(2) (Link.map_target blk c.here)

  (* Revalidation (§3.3): resuming from [here]'s target (or from [left] at the
     end) requires it not logically deleted.  Checkpointed nodes are
     shield-protected, so the bare load is safe. *)
  let validate_cursor c =
    match c.here with
    | Link.Ptr { node = n; _ } ->
        Alloc.check_access n.blk;
        not (Link.is_marked (Link.get (next_cell n)))
    | Link.Null _ ->
        Alloc.check_access c.left.blk;
        not (Link.is_marked (Link.get (next_cell c.left)))

  (* Retire the frozen marked chain [from .. stop), patching successors for
     HP++.  Links of marked nodes are immutable, so the walk is stable. *)
  let retire_chain t s ~from ~stop =
    let rec go = function
      | Link.Null _ -> ()
      | Link.Ptr { node = x; _ } when Link.points_to stop x -> ()
      | Link.Ptr { node = x; _ } ->
          let nx = Link.get (next_cell x) in
          X.retire s.h x.blk
            ~patch:(match nx with Link.Null _ -> [] | Link.Ptr { node = y; _ } -> [ y.blk ])
            ~free:(fun () -> if X.recycles then Pool.release t.pool x);
          go nx
    in
    go from

  (* Snip the marked chain between left and [c.here]'s target: one CAS on
     [left.next], then retire the chain.  Abort-rollback-unsafe, so masked
     on outliving protections. *)
  let snip t s c =
    X.protect s.mask0 (Some c.left.blk);
    X.protect s.mask1 (Link.map_target blk c.here);
    let desired = Link.untagged c.here in
    X.mask s.h (fun () ->
        if Link.cas (next_cell c.left) ~expected:c.left_next ~desired then begin
          retire_chain t s ~from:c.left_next ~stop:c.here;
          Some desired
        end
        else None)

  let init_cursor t s () =
    let ln = scratch_read s ~src:Block.none (next_cell t.head) in
    { left = t.head; left_next = ln; here = ln }

  (* One step of Harris's search.  [help] enables chain snipping. *)
  let step_search t s key ~help c =
    match c.here with
    | Link.Null _ ->
        (* End of list.  If a marked chain dangles, snip it first. *)
        if help && not (Link.tag c.left_next = 0 && Link.same_target c.left_next c.here)
        then
          match snip t s c with
          | Some ln -> Finish ({ c with left_next = ln }, false)
          | None -> Fail
        else Finish (c, false)
    | Link.Ptr { node = tnode; _ } -> (
        let t_next = scratch_read s ~src:tnode.blk (next_cell tnode) in
        if Link.is_marked t_next then
          (* t is logically deleted: walk past it. *)
          Continue { c with here = t_next }
        else
          let k = key_of s tnode in
          if k < key then
            (* t is a live node below the key: becomes the new left. *)
            Continue { left = tnode; left_next = t_next; here = t_next }
          else if (* t = right.  Adjacent to left? *)
                  Link.points_to c.left_next tnode
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
            Link.set (next_cell n) (Link.untagged c.left_next);
            let desired = Link.ptr n in
            if Link.cas (next_cell c.left) ~expected:c.left_next ~desired then true
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
            let right = Link.node_exn c.left_next in
            let r_next = scratch_read s ~src:right.blk (next_cell right) in
            if Link.is_marked r_next then go ()
            else if
              Link.cas (next_cell right) ~expected:r_next
                ~desired:(Link.with_tag r_next 1)
            then begin
              (* Try to unlink immediately; otherwise later searches snip. *)
              X.protect s.mask0 (Some c.left.blk);
              X.protect s.mask1 (Some right.blk);
              let desired = Link.untagged r_next in
              X.mask s.h (fun () ->
                  if Link.cas (next_cell c.left) ~expected:c.left_next ~desired then
                    X.retire s.h right.blk
                      ~patch:(match r_next with
                             | Link.Null _ -> []
                             | Link.Ptr { node = nx; _ } -> [ nx.blk ])
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
             match c.here with
             | Link.Ptr { node = n; _ } ->
                 let k = key_of s n in
                 if k < max_int then sweep (k + 1)
             | Link.Null _ -> ()
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
