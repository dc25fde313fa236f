(** Natarajan-Mittal lock-free external BST (PPoPP 2014) — the paper's
    NMTree.

    An external tree: internal nodes route, leaves store keys.  Deletion is
    edge-based: the deleter {e flags} the edge parent→leaf (tag bit 0) and
    then, in cleanup, {e tags} the sibling edge (tag bit 1) and prunes by
    swinging the deepest untagged ancestor edge to the sibling subtree in
    one CAS.  Helping operates on edges, not nodes, so traversals do not
    write — but deletions of nearby keys contend, and several threads can
    race to prune overlapping regions; retirement of a pruned region
    therefore goes through {!Hpbrcu_alloc.Alloc.try_retire} claims.

    HP cannot run NMTree (Table 1): a traversal may pass through internal
    nodes whose incoming edge was already pruned (optimistic traversal). *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

(* Edge bits carried in Link tags. *)
let flag_bit = 1 (* the leaf below is being deleted *)
let tag_bit = 2 (* the edge must not accept insertions (sibling move) *)

module Make (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain = struct
  type domain = X.domain

  type node = {
    blk : Block.t;
    mutable key : int;
    mutable value : int;
    leaf : bool;
    left : node Link.cell;
    right : node Link.cell;
  }

  let blk n = n.blk

  (* Sentinel keys: every real key must be < inf0. *)
  let inf0 = max_int - 2
  let inf1 = max_int - 1
  let inf2 = max_int

  type t = {
    dom : X.domain;
    root : node;
    pool : node Pool.t;  (* leaves and internals *)
  }

  (* Seek record (the NM paper's seekRecord): ancestor = deepest node whose
     edge toward the key is untagged; successor = that edge's target;
     parent = leaf's parent; cur = current node (leaf at Finish). *)
  type cursor = {
    anc : node;
    alink : node Link.t;  (* loaded ancestor child link (untagged) *)
    par : node;
    plink : node Link.t;  (* loaded parent child link toward cur *)
    cur : node;
  }

  type session = {
    h : X.handle;
    prot : X.shield array;  (* anc, successor, par, cur *)
    backup : X.shield array;
    scratch : X.shield array;
    mutable rot : int;
    anc_sh : X.shield;  (* lasting protection of ancestor and parent *)
    par_sh : X.shield;
  }

  let mk_leaf ?(recyclable = false) key value =
    let b = Alloc.block ~recyclable () in
    { blk = b; key; value; leaf = true; left = Link.cell None; right = Link.cell None }

  let create dom =
    (* R(inf2) -- left --> S(inf1) -- left --> leaf(inf0);
       right children are sentinel leaves. *)
    let l_inf0 = mk_leaf inf0 0 in
    let l_inf1 = mk_leaf inf1 0 in
    let l_inf2 = mk_leaf inf2 0 in
    let s =
      {
        blk = Alloc.block ();
        key = inf1;
        value = 0;
        leaf = false;
        left = Link.cell (Some l_inf0);
        right = Link.cell (Some l_inf1);
      }
    in
    let r =
      {
        blk = Alloc.block ();
        key = inf2;
        value = 0;
        leaf = false;
        left = Link.cell (Some s);
        right = Link.cell (Some l_inf2);
      }
    in
    { dom; root = r; pool = Pool.create () }

  let session t =
    let h = X.register t.dom in
    {
      h;
      prot = Array.init 5 (fun _ -> X.new_shield h);
      backup = Array.init 5 (fun _ -> X.new_shield h);
      scratch = Array.init 5 (fun _ -> X.new_shield h);
      rot = 0;
      anc_sh = X.new_shield h;
      par_sh = X.new_shield h;
    }

  let close_session s =
    X.flush s.h;
    X.unregister s.h

  let alloc_leaf t key value =
    let reuse =
      if not X.recycles then None
      else
        match Pool.acquire t.pool with
        | Some n
          when n.leaf && Block.retire_era n.blk <> X.current_era t.dom ->
            Block.reanimate n.blk ~era:(X.current_era t.dom);
            n.key <- key;
            n.value <- value;
            Some n
        | Some n ->
            Pool.release t.pool n;
            None
        | None -> None
    in
    match reuse with
    | Some n -> n
    | None ->
        let n = mk_leaf ~recyclable:X.recycles key value in
        Block.set_birth_era n.blk ~era:(X.current_era t.dom);
        n

  let alloc_internal t key ~left ~right =
    let b = Alloc.block ~recyclable:X.recycles () in
    Block.set_birth_era b ~era:(X.current_era t.dom);
    {
      blk = b;
      key;
      value = 0;
      leaf = false;
      left = Link.cell (Some left);
      right = Link.cell (Some right);
    }

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    X.read s.h sh ~src ~hdr:blk cell

  let key_of s n =
    let k = n.key in
    X.deref s.h n.blk;
    k

  let child_cell n key = if key < n.key then n.left else n.right

  (* ---------------- seek (step-decomposed) ---------------- *)

  let protect_cursor (sh : X.shield array) c =
    X.protect sh.(0) (Some c.anc.blk);
    X.protect sh.(1) (Link.map_target blk c.alink);
    X.protect sh.(2) (Some c.par.blk);
    X.protect sh.(3) (Some c.cur.blk);
    X.protect sh.(4) (Link.map_target blk c.plink)

  (* Revalidation (§3.3): resuming descends from [cur]; conservative and
     cheap: the parent must still hold a clean edge to cur.  (A leaf cursor
     revalidates trivially: the result was derived while the leaf was
     reachable, which is a valid linearization point within the op.) *)
  let validate_cursor c =
    if c.cur.leaf then true
    else begin
      Alloc.check_access c.par.blk;
      let ok cell =
        let lk = Link.get cell in
        Link.points_to lk c.cur && Link.tag lk = 0
      in
      ok c.par.left || ok c.par.right
    end

  let init_cursor t s () =
    let alink = scratch_read s ~src:Block.none t.root.left in
    let su = Link.node_exn alink in
    let plink = scratch_read s ~src:su.blk su.left in
    {
      anc = t.root;
      alink;
      par = su;
      plink;
      cur = Link.node_exn plink;
    }

  let step _t s key c =
    if c.cur.leaf then Finish (c, key_of s c.cur = key)
    else begin
      let next = scratch_read s ~src:c.cur.blk (child_cell c.cur key) in
      match next with
      | Link.Null _ -> Fail (* torn read of a recycled node (VBR): retry *)
      | Link.Ptr { node = nx; _ } ->
          (* Advance ancestor when the edge we just crossed was untagged. *)
          let anc, alink =
            if Link.tag c.plink land tag_bit = 0 then (c.par, c.plink)
            else (c.anc, c.alink)
          in
          X.protect s.anc_sh (Some anc.blk);
          X.protect s.par_sh (Some c.cur.blk);
          Continue { anc; alink; par = c.cur; plink = next; cur = nx }
    end

  let rec seek t s key =
    match
      X.traverse s.h ~prot:s.prot ~backup:s.backup ~protect:protect_cursor
        ~validate:validate_cursor ~init:(init_cursor t s) ~step:(step t s key)
    with
    | Some (c, _win, found) -> (c, found)
    | None -> seek t s key

  (* ---------------- retirement of a pruned region ---------------- *)

  (* After a successful prune CAS the whole old-successor subtree except
     the preserved sibling subtree is unreachable.  Several pruners may
     race on nested regions, so each node is claimed: only the claimer
     descends (and it reads the children *before* handing the block to the
     scheme, which may reclaim instantly under VBR).  Every edge in the
     region is flagged or tagged, so the links are immutable. *)
  let retire_region s ~from ~keep =
    let rec go n =
      if n != keep && Alloc.try_retire n.blk then begin
        let l = if n.leaf then None else Link.target (Link.get n.left) in
        let r = if n.leaf then None else Link.target (Link.get n.right) in
        X.retire s.h n.blk ~claimed:true;
        Option.iter go l;
        Option.iter go r
      end
    in
    go from

  (* ---------------- operations ---------------- *)

  let get t s key = X.op s.h (fun () -> snd (seek t s key))

  (* Cleanup (NM): tag the sibling edge, then swing the ancestor edge to
     the sibling subtree (preserving its flag, clearing its tag).  Returns
     true iff the prune CAS succeeded. *)
  let cleanup_edge t s key (c : cursor) =
    ignore t;
    let parent = c.par in
    let child_c, sibling_c =
      if key < parent.key then (parent.left, parent.right)
      else (parent.right, parent.left)
    in
    (* If the child edge is not flagged, the deletion being helped flagged
       the other side: preserve the child side instead. *)
    let child_lk = Link.get child_c in
    let sibling_c =
      if Link.tag child_lk land flag_bit <> 0 then sibling_c else child_c
    in
    (* Tag the sibling edge so no insertion lands under it. *)
    let rec tag_edge () =
      let lk = Link.get sibling_c in
      if Link.tag lk land tag_bit = 0 then
        if
          not
            (Link.cas sibling_c ~expected:lk
               ~desired:(Link.with_tag lk (Link.tag lk lor tag_bit)))
        then tag_edge ()
    in
    tag_edge ();
    let slink = Link.get sibling_c in
    match Link.target slink with
    | None -> false
    | Some keep ->
        X.mask s.h (fun () ->
            let desired =
              Link.ptr ~tag:(Link.tag slink land flag_bit) keep
            in
            if Link.cas (child_cell c.anc key) ~expected:c.alink ~desired then begin
              (match Link.target c.alink with
              | Some old_successor -> retire_region s ~from:old_successor ~keep
              | None -> ());
              true
            end
            else false)

  let insert t s key value =
    X.op s.h (fun () ->
        let leaf = alloc_leaf t key value in
        let rec attempt () =
          let c, found = seek t s key in
          if found then begin
            (* Unpublished leaf: pool it, or book it as abandoned so the
               leak-at-quiescence accounting stays exact (DESIGN.md §11). *)
            if X.recycles then Pool.release t.pool leaf
            else Alloc.abandon leaf.blk;
            false
          end
          else if Link.tag c.plink <> 0 then begin
            (* The edge is flagged/tagged: help the pending delete. *)
            ignore (cleanup_edge t s key c : bool);
            attempt ()
          end
          else begin
            let sib = c.cur in
            let skey = sib.key in
            let internal =
              if key < skey then alloc_internal t skey ~left:leaf ~right:sib
              else alloc_internal t key ~left:sib ~right:leaf
            in
            let cell = child_cell c.par key in
            if Link.cas cell ~expected:c.plink ~desired:(Link.ptr internal)
            then true
            else begin
              (* Lost the race; the internal wrapper is unpublished (the
                 GC collects it — it was never shared), but its lifecycle
                 header must still be written off as abandoned. *)
              Alloc.abandon internal.blk;
              attempt ()
            end
          end
        in
        attempt ())

  let remove t s key =
    X.op s.h (fun () ->
        let rec injection () =
          let c, found = seek t s key in
          if not found then false
          else begin
            let cell = child_cell c.par key in
            if Link.tag c.plink <> 0 then begin
              (* Edge already flagged/tagged: help, then retry. *)
              ignore (cleanup_edge t s key c : bool);
              injection ()
            end
            else if
              Link.cas cell ~expected:c.plink
                ~desired:(Link.with_tag c.plink flag_bit)
            then begin
              (* Injection succeeded: we own the deletion of this leaf.
                 Prune until it is gone (by us or a helper). *)
              let victim = c.cur in
              let rec until_gone c =
                if not (cleanup_edge t s key c) then begin
                  let c', found = seek t s key in
                  if found && c'.cur == victim then until_gone c'
                end
              in
              until_gone { c with plink = Link.with_tag c.plink flag_bit };
              true
            end
            else injection ()
          end
        in
        injection ())

  let cleanup t s = ignore (get t s (inf0 - 1) : bool)
end
