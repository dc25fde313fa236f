(** Harris-Michael lock-free linked list (Michael, SPAA 2002) — the paper's
    running example (Algorithms 3 and 8).

    Sorted singly-linked list with logical deletion: a node is deleted by
    first marking its [next] link (tag bit) and then physically unlinking it
    with a CAS on the predecessor.  Traversals {e help}: on meeting a marked
    node they attempt the unlink themselves and retire the node — the write
    during traversal that makes HMList inapplicable to NBR (Table 1) and
    the reason HP-BRCU wraps it in an abort-masked region (Algorithm 8's
    Mask).

    Unlike Harris's original list, nodes are unlinked one at a time from an
    unmarked predecessor, which is what makes plain HP's
    protect-and-validate applicable (Table 1, "linked list (Michael)"). *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

(** A list node.  [next] is field 0 and is accessed only through
    {!next_cell}, which views the node as its own [Link.cell] (DESIGN.md
    §9, "Two loads per hop"). *)
type node = {
  mutable next : node Link.t;
  blk : Block.t;
  mutable key : int;  (* mutable only for pool reuse (VBR) *)
  mutable value : int;
}

external next_cell : node -> node Link.cell = "%identity"

let blk n = n.blk

(* Schemes that do not recycle never touch a list's pool, so their lists
   share this one instead of each building an empty pool (a hash map makes
   one list per bucket). *)
let inert_pool : node Pool.t = Pool.create ()

module Make (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain = struct
  type domain = X.domain

  type t = {
    dom : X.domain;
    head : node;  (* sentinel, key = min_int *)
    pool : node Pool.t;
  }

  (* The traversal cursor: [prev] and the link loaded from [prev.next]
     (whose target is [cur]).  Keeping the loaded link (not just the
     target) gives CASes their physical-equality expected value. *)
  type cursor = { prev : node; pnext : node Link.t }

  type session = {
    h : X.handle;
    prot : X.shield array;  (* protector: prev, cur *)
    backup : X.shield array;  (* double-buffer twin *)
    scratch : X.shield array;  (* rotating per-read shields (HP family) *)
    mutable rot : int;
    mask0 : X.shield;  (* outliving shields for masked regions (Alg. 8) *)
    mask1 : X.shield;
  }

  let create dom =
    {
      dom;
      head = { next = Link.null; blk = Alloc.block (); key = min_int; value = 0 };
      pool = (if X.recycles then Pool.create () else inert_pool);
    }

  let session t =
    let h = X.register t.dom in
    {
      h;
      prot = [| X.new_shield h; X.new_shield h |];
      backup = [| X.new_shield h; X.new_shield h |];
      scratch = [| X.new_shield h; X.new_shield h; X.new_shield h |];
      rot = 0;
      mask0 = X.new_shield h;
      mask1 = X.new_shield h;
    }

  let close_session s =
    X.flush s.h;
    X.unregister s.h

  (* ---------------- allocation (pool-aware for VBR) ---------------- *)

  let alloc_node t key value =
    let reuse =
      if not X.recycles then None
      else
        match Pool.acquire t.pool with
        | Some n when Block.retire_era n.blk <> X.current_era t.dom ->
            (* Cross-era reuse only: see Vbr's module comment. *)
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
        { next = Link.null; blk = b; key; value }

  (* A node that was allocated but never published: recyclers take it back
     into the pool; everyone else must tell the allocator it was abandoned,
     or the leak-at-quiescence oracle (DESIGN.md §11) would book it as
     stranded by a lost retirement. *)
  let discard t n =
    if X.recycles then Pool.release t.pool n else Alloc.abandon n.blk

  (* ---------------- mediated accesses ---------------- *)

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    X.read s.h sh ~src ~hdr:blk cell

  (* Read a node's key, then validate the access (order matters for VBR:
     the value is junk if the node was recycled meanwhile, and the
     validation detects exactly that). *)
  let key_of s n =
    let k = n.key in
    X.deref s.h n.blk;
    k

  (* ---------------- Traverse plumbing (Algorithm 8) ---------------- *)

  (* ListCursorProtector.protect: publish both cursor nodes. *)
  let protect_cursor (sh : X.shield array) c =
    X.protect sh.(0) (Some c.prev.blk);
    X.protect sh.(1) (Link.map_target blk c.pnext)

  (* ListCursor.validate: the node the resumed traversal will dereference
     must not be logically deleted (checking the mark suffices for
     revalidation, §3.3).  Cursor nodes are checkpoint-protected, hence
     unreclaimed, so bare loads are safe here. *)
  let validate_cursor c =
    match c.pnext with
    | Link.Null _ ->
        Alloc.check_access c.prev.blk;
        not (Link.is_marked (Link.get (next_cell c.prev)))
    | Link.Ptr { node = cur; _ } ->
        Alloc.check_access cur.blk;
        not (Link.is_marked (Link.get (next_cell cur)))

  let init_cursor t s () =
    { prev = t.head; pnext = scratch_read s ~src:Block.none (next_cell t.head) }

  (* One traversal step (Algorithm 8's step closure). *)
  let step t s key c =
    match c.pnext with
    | Link.Null _ -> Finish (c, false)  (* reached the end: key absent *)
    | Link.Ptr { node = cur; _ } -> (
        let next = scratch_read s ~src:cur.blk (next_cell cur) in
        if Link.is_marked next then begin
          (* cur is logically deleted: help unlink it.  The unlink + retire
             pair is abort-rollback-unsafe, so it runs masked on outliving
             protections (Algorithm 8 lines 23-27). *)
          X.protect s.mask0 (Some c.prev.blk);
          X.protect s.mask1 (Some cur.blk);
          let desired = Link.untagged next in
          let ok =
            X.mask s.h (fun () ->
                if Link.cas (next_cell c.prev) ~expected:c.pnext ~desired then begin
                  X.retire s.h cur.blk
                    ~patch:(match next with
                           | Link.Null _ -> []
                           | Link.Ptr { node = nx; _ } -> [ nx.blk ])
                    ~free:(fun () -> if X.recycles then Pool.release t.pool cur);
                  true
                end
                else false)
          in
          if ok then Continue { prev = c.prev; pnext = desired } else Fail
        end
        else
          let k = key_of s cur in
          if k >= key then Finish (c, k = key)
          else Continue { prev = cur; pnext = next })

  (* TrySearch: traverse until the position of [key]; retry the whole
     operation if revalidation failed (rare).  On success the returned
     cursor is protected by the winning shield array. *)
  let rec search t s key =
    match
      X.traverse s.h ~prot:s.prot ~backup:s.backup ~protect:protect_cursor
        ~validate:validate_cursor ~init:(init_cursor t s) ~step:(step t s key)
    with
    | Some (c, _win, found) -> (c, found)
    | None -> search t s key

  (* ---------------- operations ---------------- *)

  let get t s key = X.op s.h (fun () -> snd (search t s key))

  let insert t s key value =
    X.op s.h (fun () ->
        let n = alloc_node t key value in
        let rec go () =
          let c, found = search t s key in
          if found then begin
            discard t n;
            false
          end
          else begin
            Link.set (next_cell n) (Link.untagged c.pnext);
            let desired = Link.ptr n in
            if Link.cas (next_cell c.prev) ~expected:c.pnext ~desired then true
            else go ()
          end
        in
        go ())

  let remove t s key =
    X.op s.h (fun () ->
        let rec go () =
          let c, found = search t s key in
          if not found then false
          else
            let cur = Link.node_exn c.pnext in
            let next = scratch_read s ~src:cur.blk (next_cell cur) in
            if Link.is_marked next then go ()  (* lost the race *)
            else if
              (* Logical deletion: mark cur's next link. *)
              Link.cas (next_cell cur) ~expected:next
                ~desired:(Link.with_tag next 1)
            then begin
              (* Physical deletion; on failure a helping traversal will
                 finish the job (and retire the node). *)
              let desired = Link.untagged next in
              if Link.cas (next_cell c.prev) ~expected:c.pnext ~desired then
                X.retire s.h cur.blk
                  ~patch:(match next with
                         | Link.Null _ -> []
                         | Link.Ptr { node = nx; _ } -> [ nx.blk ])
                  ~free:(fun () -> if X.recycles then Pool.release t.pool cur)
              else ignore (search t s key : cursor * bool);
              true
            end
            else go ()
        in
        go ())

  (* Walk the whole list once, helping every pending unlink. *)
  let cleanup t s = ignore (get t s max_int : bool)
end
