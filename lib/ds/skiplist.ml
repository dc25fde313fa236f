(** Lock-free skip list (Herlihy & Shavit, ch. 14; the paper's SkipList).

    Towers of forward links with per-level logical deletion: a node is
    removed by marking its links top-down, finishing with level 0 (the
    linearization point); traversals unlink marked nodes at every level
    they visit.  [get] comes in two flavours, as in the paper: the
    wait-free no-helping search (all schemes but HP — demoted to lock-free
    by schemes that can abort readers) and the helping search (HP).

    Protection is the expensive part for HP-family schemes — a cursor
    carries up to [2 × max_level + 2] pointers — which is exactly why the
    paper's Figure 7d shows HP/HP++/PEBR degraded on SkipList while
    HP-BRCU protects only at checkpoints.

    Retirement ownership: the remover that wins the level-0 mark calls the
    helping search until the victim is fully unlinked, then retires it —
    helpers never retire, so no double-retire races exist. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

let max_level = 12

module Make (X : Hpbrcu_core.Smr_intf.SCHEME) :
  Ds_intf.MAP with type domain = X.domain = struct
  type domain = X.domain

  type node = {
    blk : Block.t;
    mutable key : int;
    mutable value : int;
    next : node Link.cell array;  (* length = tower height *)
  }

  let blk n = n.blk
  let height n = Array.length n.next

  type t = {
    dom : X.domain;
    head : node;  (* sentinel tower of max_level, key = min_int *)
    pools : node Pool.t array;  (* per-height pools (VBR) *)
    level_seed : int Atomic.t;
    helping_get : bool;
        (* HP must help (it cannot traverse past marked nodes safely);
           everyone else gets the read-only search. *)
  }

  (* A completed level of the search: predecessor and the loaded link used
     as CAS expected value, whose target is the successor observed. *)
  type level_rec = { lpred : node; llink : node Link.t }

  (* Search cursor: current level walk state plus the completed levels
     below... above (head of [levels] = most recently completed = lowest
     finished level). *)
  type cursor = {
    lvl : int;
    pred : node;
    plink : node Link.t;  (* loaded pred.next.(lvl) *)
    levels : level_rec list;  (* levels (lvl+1 .. max-1), lowest first *)
  }

  type session = {
    h : X.handle;
    prot : X.shield array;  (* 2*max_level + 2 *)
    backup : X.shield array;
    scratch : X.shield array;
    mutable rot : int;
    pred_sh : X.shield;  (* keeps the current pred protected across steps *)
    level_sh : X.shield array;  (* lasting protection of completed levels *)
    rng : Hpbrcu_runtime.Rng.t;
  }

  let create dom =
    {
      dom;
      head =
        {
          blk = Alloc.block ();
          key = min_int;
          value = 0;
          next = Array.init max_level (fun _ -> Link.cell None);
        };
      pools = Array.init (max_level + 1) (fun _ -> Pool.create ());
      level_seed = Atomic.make 1;
      helping_get =
        (X.caps (Hpbrcu_core.Smr_intf.Dom.config (X.dom dom))).per_node
        = ProtectAndValidate;
    }

  let session t =
    let h = X.register t.dom in
    {
      h;
      prot = Array.init ((2 * max_level) + 2) (fun _ -> X.new_shield h);
      backup = Array.init ((2 * max_level) + 2) (fun _ -> X.new_shield h);
      scratch = Array.init 4 (fun _ -> X.new_shield h);
      rot = 0;
      pred_sh = X.new_shield h;
      level_sh = Array.init (2 * max_level) (fun _ -> X.new_shield h);
      rng =
        Hpbrcu_runtime.Rng.create
          ~seed:(Atomic.fetch_and_add t.level_seed 0x9E3779B9);
    }

  let close_session s =
    X.flush s.h;
    X.unregister s.h

  let random_height s =
    let lvl = ref 1 in
    while !lvl < max_level && Hpbrcu_runtime.Rng.bool s.rng do
      incr lvl
    done;
    !lvl

  let alloc_node t s key value =
    let h = random_height s in
    let reuse =
      if not X.recycles then None
      else
        match Pool.acquire t.pools.(h) with
        | Some n when Block.retire_era n.blk <> X.current_era t.dom ->
            Block.reanimate n.blk ~era:(X.current_era t.dom);
            n.key <- key;
            n.value <- value;
            Array.iter (fun c -> Link.set c Link.null) n.next;
            Some n
        | Some n ->
            Pool.release t.pools.(h) n;
            None
        | None -> None
    in
    match reuse with
    | Some n -> n
    | None ->
        let b = Alloc.block ~recyclable:X.recycles () in
        Block.set_birth_era b ~era:(X.current_era t.dom);
        { blk = b; key; value; next = Array.init h (fun _ -> Link.cell None) }

  (* Unpublished node: back to the pool, or booked as abandoned so the
     leak-at-quiescence accounting stays exact (DESIGN.md §11). *)
  let discard t n =
    if X.recycles then Pool.release t.pools.(height n) n
    else Alloc.abandon n.blk

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    X.read s.h sh ~src ~hdr:blk cell

  let key_of s n =
    let k = n.key in
    X.deref s.h n.blk;
    k

  (* Checkpoint protection: every node the cursor can still reach. *)
  let protect_cursor (sh : X.shield array) c =
    X.protect sh.(0) (Some c.pred.blk);
    X.protect sh.(1) (Link.map_target blk c.plink);
    List.iteri
      (fun i lr ->
        if (2 * i) + 3 < Array.length sh then begin
          X.protect sh.((2 * i) + 2) (Some lr.lpred.blk);
          X.protect sh.((2 * i) + 3) (Link.map_target blk lr.llink)
        end)
      c.levels

  (* Revalidation: resuming follows pred.next.(lvl); pred must not be
     deleted at that level (mark check suffices, §3.3). *)
  let validate_cursor c =
    Alloc.check_access c.pred.blk;
    not (Link.is_marked (Link.get c.pred.next.(c.lvl)))

  let init_cursor t s () =
    let lvl = max_level - 1 in
    X.protect s.pred_sh (Some t.head.blk);
    { lvl; pred = t.head; plink = scratch_read s ~src:Block.none t.head.next.(lvl); levels = [] }

  (* One step of the search.  [help] unlinks marked nodes (never retires —
     the remover does).  Completing a level records (pred, link, succ),
     protects them durably, and descends (or finishes at level 0). *)
  let step t s key ~help c =
    let complete_level c =
      (* The recorded link becomes a CAS expected value in the write phase;
         a marked link there would let the CAS *unmark* the predecessor
         (HS's CASes expect the unmarked flag).  Restart instead.  The
         read-only search has no write phase and may pass. *)
      if help && Link.is_marked c.plink then Fail
      else begin
      let i = max_level - 1 - c.lvl in
      if 2 * i < Array.length s.level_sh then begin
        X.protect s.level_sh.(2 * i) (Some c.pred.blk);
        X.protect s.level_sh.((2 * i) + 1) (Link.map_target blk c.plink)
      end;
      let levels = { lpred = c.pred; llink = c.plink } :: c.levels in
      if c.lvl = 0 then begin
        let found =
          match c.plink with
          | Link.Ptr { node = n; _ } ->
              let k = key_of s n in
              k = key
          | Link.Null _ -> false
        in
        Finish ({ c with levels }, found)
      end
      else begin
        let lvl = c.lvl - 1 in
        Continue
          { lvl; pred = c.pred; plink = scratch_read s ~src:Block.none c.pred.next.(lvl); levels }
      end
      end
    in
    ignore t;
    match c.plink with
    | Link.Ptr { node = curr; _ } -> (
        let succ = scratch_read s ~src:curr.blk curr.next.(c.lvl) in
        if Link.is_marked succ then
          if help then begin
            (* Unlink curr.  The expected value must be unmarked: CASing
               over a marked link would resurrect a deleted level. *)
            if Link.is_marked c.plink then Fail
            else
              let desired = Link.untagged succ in
              if Link.cas c.pred.next.(c.lvl) ~expected:c.plink ~desired then
                Continue { c with plink = desired }
              else Fail
          end
          else Continue { c with plink = Link.untagged succ }
        else
          let k = key_of s curr in
          if k < key then begin
            X.protect s.pred_sh (Some curr.blk);
            Continue { c with pred = curr; plink = succ }
          end
          else complete_level c)
    | Link.Null _ -> complete_level c

  (* Full search: returns the completed level records (index 0 = level 0)
     and whether the key was found at level 0. *)
  let rec search t s key ~help =
    match
      X.traverse s.h ~prot:s.prot ~backup:s.backup ~protect:protect_cursor
        ~validate:validate_cursor ~init:(init_cursor t s)
        ~step:(step t s key ~help)
    with
    | Some (c, _win, found) -> (Array.of_list c.levels, found)
    | None -> search t s key ~help

  (* ---------------- operations ---------------- *)

  let get t s key = X.op s.h (fun () -> snd (search t s key ~help:t.helping_get))

  let insert t s key value =
    X.op s.h (fun () ->
        let n = alloc_node t s key value in
        let h = height n in
        let rec attempt () =
          let levels, found = search t s key ~help:true in
          if found then begin
            discard t n;
            false
          end
          else begin
            (* Prepare the tower: level l points at the observed succ. *)
            for l = 0 to h - 1 do
              Link.set n.next.(l) (Link.untagged levels.(l).llink)
            done;
            (* Link level 0 (the linearization point). *)
            let l0 = levels.(0) in
            if not (Link.cas l0.lpred.next.(0) ~expected:l0.llink ~desired:(Link.ptr n))
            then attempt ()
            else begin
              (* Link the upper levels, refreshing the search on failure. *)
              let l = ref 1 in
              let give_up = ref false in
              let lv = ref levels in
              while !l < h && not !give_up do
                let cur_levels = !lv in
                let lr = cur_levels.(!l) in
                (* Point n's level-l link at the current successor unless n
                   got deleted meanwhile. *)
                let mine = Link.get n.next.(!l) in
                if Link.is_marked mine then give_up := true
                else begin
                  if
                    not
                      (Link.tag mine = 0 && Link.same_target mine lr.llink)
                  then
                    ignore
                      (Link.cas n.next.(!l) ~expected:mine
                         ~desired:(Link.untagged lr.llink)
                        : bool);
                  if Link.is_marked (Link.get n.next.(!l)) then give_up := true
                  else if
                    Link.cas lr.lpred.next.(!l) ~expected:lr.llink
                      ~desired:(Link.ptr n)
                  then incr l
                  else begin
                    (* Stale pred at this level: re-search. *)
                    let fresh, _ = search t s key ~help:true in
                    lv := fresh
                  end
                end
              done;
              true
            end
          end
        in
        attempt ())

  let remove t s key =
    X.op s.h (fun () ->
        let attempt () =
          let levels, found = search t s key ~help:true in
          if not found then false
          else
            let victim = Link.node_exn levels.(0).llink in
            let vh = height victim in
            (* Mark the upper levels top-down. *)
            for l = vh - 1 downto 1 do
              let rec mark () =
                let lk = Link.get victim.next.(l) in
                if not (Link.is_marked lk) then
                  if not (Link.cas victim.next.(l) ~expected:lk ~desired:(Link.with_tag lk 1))
                  then mark ()
              in
              mark ()
            done;
            (* Level 0: the winner owns the removal. *)
            let rec mark0 () =
              let lk = Link.get victim.next.(0) in
              if Link.is_marked lk then `Lost
              else if Link.cas victim.next.(0) ~expected:lk ~desired:(Link.with_tag lk 1)
              then `Won
              else mark0 ()
            in
            match mark0 () with
            | `Lost -> false  (* a concurrent remover won the level-0 mark *)
            | `Won ->
                (* Unlink everywhere via the helping search, then retire. *)
                ignore (search t s key ~help:true : level_rec array * bool);
                X.retire s.h victim.blk
                  ~free:(fun () -> if X.recycles then Pool.release t.pools.(vh) victim);
                true
        in
        attempt ())

  let cleanup t s = ignore (X.op s.h (fun () -> search t s max_int ~help:true))
end
