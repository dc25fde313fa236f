(** Non-blocking external BST (Ellen, Fatourou, Ruppert, van Breugel,
    PODC 2010) — Table 1's "ext. BST (EFRB)" row, notable as the only tree
    in the matrix that plain HP supports (✓ in the HP/HE/IBR column):
    every routing node is unlinked from a {e Clean} grandparent whose
    update word pins the whole two-node removal, so traversals never read
    out of retired nodes.

    Coordination is through per-internal-node [update] words holding a
    state and an operation descriptor (Info record): Insert flags the
    parent (IFlag), swings the child, unflags; Delete flags the
    grandparent (DFlag), marks the parent (Mark, permanent), swings the
    grandparent's child past the parent, unflags.  Any operation meeting a
    non-Clean update word {e helps} it first.  Descriptors are ordinary
    GC'd records; only tree nodes carry reclamation blocks.

    Retirement: the unique winner of the grandparent child-swing retires
    the marked parent and the deleted leaf. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

module Make (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain = struct
  type domain = X.domain

  type node = {
    blk : Block.t;
    key : int;  (* routing key; leaves store the element *)
    leaf : bool;
    left : node Link.cell;
    right : node Link.cell;
    update : update Atomic.t;
  }

  and update = Clean | IFlag of iinfo | DFlag of dinfo | Mark of dinfo

  and iinfo = { ip : node; il : node; inew : node (* new internal *) }

  and dinfo = {
    dgp : node;
    dp : node;
    dl : node;
    dpupdate : update;  (* p's update word observed at flag time *)
  }

  let blk n = n.blk

  (* Sentinels: inf1 < inf2, both above every real key. *)
  let inf1 = max_int - 1
  let inf2 = max_int

  type t = { dom : X.domain; root : node }

  (* [recyclable] so that VBR's instant reuse keeps its access-check
     exemption; EFRB does not pool, but under VBR an optimistic reader may
     legally observe a reclaimed node. *)
  let mk_leaf key =
    {
      blk = Alloc.block ~recyclable:X.recycles ();
      key;
      leaf = true;
      left = Link.cell None;
      right = Link.cell None;
      update = Atomic.make Clean;
    }

  let mk_internal key ~left ~right =
    {
      blk = Alloc.block ~recyclable:X.recycles ();
      key;
      leaf = false;
      left = Link.cell (Some left);
      right = Link.cell (Some right);
      update = Atomic.make Clean;
    }

  let create dom =
    { dom; root = mk_internal inf2 ~left:(mk_leaf inf1) ~right:(mk_leaf inf2) }

  type session = {
    h : X.handle;
    prot : X.shield array;  (* gp, p, l *)
    backup : X.shield array;
    scratch : X.shield array;
    mutable rot : int;
  }

  let session t =
    let h = X.register t.dom in
    {
      h;
      prot = Array.init 3 (fun _ -> X.new_shield h);
      backup = Array.init 3 (fun _ -> X.new_shield h);
      scratch = Array.init 5 (fun _ -> X.new_shield h);
      rot = 0;
    }

  let close_session s =
    X.flush s.h;
    X.unregister s.h

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    X.read s.h sh ~src ~hdr:blk cell

  let child_cell n key = if key < n.key then n.left else n.right

  (* ---------------- helping ---------------- *)

  (* Swing [parent]'s child from [old_child] to [desired]: succeeds at most
     once across all helpers because the expected link record is the one
     currently stored. *)
  let cas_child parent old_child desired =
    let cell =
      (* The old child's position: compare against both sides (keys of
         descriptors may equal the routing key). *)
      let l = Link.get parent.left in
      if Link.points_to l old_child then Some (parent.left, l)
      else
        let r = Link.get parent.right in
        if Link.points_to r old_child then Some (parent.right, r) else None
    in
    match cell with
    | None -> false
    | Some (cell, expected) ->
        Link.cas cell ~expected ~desired:(Link.ptr desired)

  (* Unflagging must CAS against the *installed* update record: variant
     values compare physically under [Atomic.compare_and_set], so a
     reconstructed [IFlag op] would never match.  Read, identify, CAS. *)
  let unflag_insert (op : iinfo) =
    match Atomic.get op.ip.update with
    | IFlag op' as cur when op' == op ->
        ignore (Atomic.compare_and_set op.ip.update cur Clean : bool)
    | _ -> ()

  let unflag_delete (op : dinfo) =
    match Atomic.get op.dgp.update with
    | DFlag op' as cur when op' == op ->
        ignore (Atomic.compare_and_set op.dgp.update cur Clean : bool)
    | _ -> ()

  let help_insert _s (op : iinfo) =
    (* Swing p's child from l to the new internal, then unflag. *)
    ignore (cas_child op.ip op.il op.inew : bool);
    unflag_insert op

  (* The Mark on p is permanent; the winner of the gp child swing retires
     p and l (unique: the expected link record wins once).  The whole
     unlink+retire pair is abort-masked so a rollback cannot separate
     them. *)
  let help_marked s (op : dinfo) =
    X.mask s.h (fun () ->
        (* Identify p's other child (frozen: p is marked). *)
        let other =
          match Link.target (Link.get op.dp.left) with
          | Some c when c == op.dl -> Link.target (Link.get op.dp.right)
          | _ -> Link.target (Link.get op.dp.left)
        in
        (match other with
        | Some other ->
            if cas_child op.dgp op.dp other then begin
              (* We unlinked p (and l with it): retire both. *)
              if Alloc.try_retire op.dp.blk then
                X.retire s.h op.dp.blk ~claimed:true ~patch:[ other.blk ];
              if Alloc.try_retire op.dl.blk then
                X.retire s.h op.dl.blk ~claimed:true
            end
        | None -> ());
        unflag_delete op)

  let rec help s (u : update) =
    match u with
    | IFlag op -> help_insert s op
    | Mark op -> help_marked s op
    | DFlag op -> help_delete s op
    | Clean -> ()

  and help_delete s (op : dinfo) =
    (* Try to mark p; success (or an existing identical mark) lets the
       delete proceed; a foreign update on p aborts ours. *)
    let marked =
      Atomic.compare_and_set op.dp.update op.dpupdate (Mark op)
      ||
      match Atomic.get op.dp.update with Mark op' -> op' == op | _ -> false
    in
    if marked then help_marked s op
    else begin
      help s (Atomic.get op.dp.update);
      (* Back out: unflag gp so others can proceed. *)
      unflag_delete op
    end

  (* ---------------- search ---------------- *)

  (* Cursor: grandparent, parent, leaf plus the update words observed when
     crossing them (the EFRB search postcondition). *)
  type cursor = {
    gp : node option;
    gpupdate : update;
    p : node;
    pupdate : update;
    l : node;
  }

  let protect_cursor (sh : X.shield array) c =
    X.protect sh.(0) (Option.map blk c.gp);
    X.protect sh.(1) (Some c.p.blk);
    X.protect sh.(2) (Some c.l.blk)

  (* Resuming a checkpointed EFRB cursor cannot be revalidated locally
     (deletion state lives in ancestors' update words), so rollbacks
     restart the operation from the root; EFRB searches are short (log n),
     making restarts cheap. *)
  let validate_cursor _ = false

  let init_cursor t s () =
    let l0 =
      Link.node_exn (scratch_read s ~src:t.root.blk t.root.left)
    in
    {
      gp = None;
      gpupdate = Clean;
      p = t.root;
      pupdate = Atomic.get t.root.update;
      l = l0;
    }

  let step _t s key c =
    if c.l.leaf then Finish (c, c.l.key = key)
    else begin
      let pupdate = Atomic.get c.l.update in
      let next =
        scratch_read s ~src:c.l.blk (child_cell c.l key)
      in
      match next with
      | Link.Null _ -> Fail (* torn read; retry *)
      | Link.Ptr { node = nl; _ } ->
          Continue
            { gp = Some c.p; gpupdate = c.pupdate; p = c.l; pupdate; l = nl }
    end

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
    ignore value;
    X.op s.h (fun () ->
        let rec attempt () =
          let c, found = search t s key in
          if found then false
          else if c.pupdate <> Clean then begin
            help s c.pupdate;
            attempt ()
          end
          else begin
            let new_leaf = mk_leaf key in
            let new_internal =
              if key < c.l.key then
                mk_internal c.l.key ~left:new_leaf ~right:c.l
              else mk_internal key ~left:c.l ~right:new_leaf
            in
            let op = { ip = c.p; il = c.l; inew = new_internal } in
            if Atomic.compare_and_set c.p.update c.pupdate (IFlag op) then begin
              X.mask s.h (fun () -> help_insert s op);
              true
            end
            else begin
              (* IFlag lost: [op] was never published, so the fresh leaf
                 and wrapper are unreachable — write them off as abandoned
                 (leak-at-quiescence accounting, DESIGN.md §11). *)
              Alloc.abandon new_leaf.blk;
              Alloc.abandon new_internal.blk;
              help s (Atomic.get c.p.update);
              attempt ()
            end
          end
        in
        attempt ())

  let remove t s key =
    X.op s.h (fun () ->
        let rec attempt () =
          let c, found = search t s key in
          if not found then false
          else
            match c.gp with
            | None -> false (* the leaf is a sentinel child of the root *)
            | Some gp ->
                if c.gpupdate <> Clean then begin
                  help s c.gpupdate;
                  attempt ()
                end
                else if c.pupdate <> Clean then begin
                  help s c.pupdate;
                  attempt ()
                end
                else begin
                  let op =
                    { dgp = gp; dp = c.p; dl = c.l; dpupdate = c.pupdate }
                  in
                  if Atomic.compare_and_set gp.update c.gpupdate (DFlag op)
                  then begin
                    (* Marking may fail (competitor on p): then the flag is
                       backed out inside help_delete and we retry. *)
                    let won = ref false in
                    X.mask s.h (fun () ->
                        let marked =
                          Atomic.compare_and_set op.dp.update op.dpupdate
                            (Mark op)
                          ||
                          match Atomic.get op.dp.update with
                          | Mark op' -> op' == op
                          | _ -> false
                        in
                        if marked then begin
                          help_marked s op;
                          won := true
                        end
                        else begin
                          help s (Atomic.get op.dp.update);
                          unflag_delete op
                        end);
                    if !won then true else attempt ()
                  end
                  else begin
                    help s (Atomic.get gp.update);
                    attempt ()
                  end
                end
        in
        attempt ())

  let cleanup _t _s = ()
end
