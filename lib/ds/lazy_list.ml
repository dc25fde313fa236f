(** Lazy concurrent list (Heller et al., OPODIS 2005) — Table 1's first
    row: a {e lock-based} sorted list with wait-free lookup.

    Updates lock the two affected nodes, validate (neither marked, still
    adjacent), mutate, unlock.  Lookups are plain optimistic traversals
    that may walk across marked (logically deleted) nodes — which is why
    HP cannot protect them (✗ in Table 1) while coarse-grained schemes and
    the HP-(B)RCU family can (▲: the wait-free lookup becomes lock-free
    under schemes that may abort readers).

    SMR interaction: lock acquisition is abort-rollback-unsafe, so locking
    happens strictly in write phases (outside critical sections), on nodes
    protected by the traversal's returned shields.  DEBRA+ could not run
    this structure for precisely that reason (§2.3: "does not apply to
    data structures that internally use locks"); with HP-BRCU the
    traversal-only critical section never sees a lock. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
module Sched = Hpbrcu_runtime.Sched
open Hpbrcu_core.Smr_intf

(** A list node.  [next] is field 0 and is accessed only through
    {!next_cell}, which views the node as its own [Link.cell] (DESIGN.md
    §9, "Two loads per hop"). *)
type node = {
  mutable next : node Link.t;
  blk : Block.t;
  mutable key : int;
  mutable value : int;
  lock : bool Atomic.t;
  marked : bool Atomic.t;  (* logical deletion flag (not a link tag) *)
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

  type t = { dom : X.domain; head : node; pool : node Pool.t }

  type cursor = { prev : node; pnext : node Link.t }

  type session = {
    h : X.handle;
    prot : X.shield array;
    backup : X.shield array;
    scratch : X.shield array;
    mutable rot : int;
  }

  let mk_node ?(recyclable = false) key value =
    {
      next = Link.null;
      blk = Alloc.block ~recyclable ();
      key;
      value;
      lock = Atomic.make false;
      marked = Atomic.make false;
    }

  let create dom =
    {
      dom;
      head = mk_node min_int 0;
      pool = (if X.recycles then Pool.create () else inert_pool);
    }

  let session t =
    let h = X.register t.dom in
    {
      h;
      prot = Array.init 2 (fun _ -> X.new_shield h);
      backup = Array.init 2 (fun _ -> X.new_shield h);
      scratch = Array.init 3 (fun _ -> X.new_shield h);
      rot = 0;
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
            Atomic.set n.lock false;
            Atomic.set n.marked false;
            Some n
        | Some n ->
            Pool.release t.pool n;
            None
        | None -> None
    in
    match reuse with
    | Some n -> n
    | None ->
        let n = mk_node ~recyclable:X.recycles key value in
        Block.set_birth_era n.blk ~era:(X.current_era t.dom);
        n

  (* Unpublished node: back to the pool, or booked as abandoned so the
     leak-at-quiescence accounting stays exact (DESIGN.md §11). *)
  let discard t n =
    if X.recycles then Pool.release t.pool n else Alloc.abandon n.blk

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    X.read s.h sh ~src ~hdr:blk cell

  let key_of s n =
    let k = n.key in
    X.deref s.h n.blk;
    k

  (* Spin lock; only ever taken in write phases on shield-protected
     nodes.  Never called while the deadline-protected section holds
     another resource without a Fun.protect (see callers). *)
  let acquire n = Sched.wait_until (fun () -> Atomic.compare_and_set n.lock false true)
  let release n = Atomic.set n.lock false

  let with_locked2 a b f =
    acquire a;
    Fun.protect
      ~finally:(fun () -> release a)
      (fun () ->
        acquire b;
        Fun.protect ~finally:(fun () -> release b) f)

  let with_locked a f =
    acquire a;
    Fun.protect ~finally:(fun () -> release a) f

  (* ---------------- traversal ---------------- *)

  let protect_cursor (sh : X.shield array) c =
    X.protect sh.(0) (Some c.prev.blk);
    X.protect sh.(1) (Link.map_target blk c.pnext)

  (* Resuming follows prev.next: prev must not be logically deleted. *)
  let validate_cursor c =
    Alloc.check_access c.prev.blk;
    not (Atomic.get c.prev.marked)

  let init_cursor t s () =
    { prev = t.head; pnext = scratch_read s ~src:Block.none (next_cell t.head) }

  (* Pure read steps: walk (possibly across marked nodes) until key ≥ k.
     No helping — physical removal is the remover's job, under locks. *)
  let step s key c =
    match c.pnext with
    | Link.Null _ -> Finish (c, false)
    | Link.Ptr { node = cur; _ } ->
        let k = key_of s cur in
        if k < key then
          Continue
            { prev = cur; pnext = scratch_read s ~src:cur.blk (next_cell cur) }
        else Finish (c, k = key && not (Atomic.get cur.marked))

  let rec search t s key =
    match
      X.traverse s.h ~prot:s.prot ~backup:s.backup ~protect:protect_cursor
        ~validate:validate_cursor ~init:(init_cursor t s) ~step:(step s key)
    with
    | Some (c, _win, found) -> (c, found)
    | None -> search t s key

  (* Heller et al.'s two-node validation, under locks. *)
  let validate_locked prev cur_opt pnext =
    (not (Atomic.get prev.marked))
    && Link.get (next_cell prev) == pnext
    && match cur_opt with Some c -> not (Atomic.get c.marked) | None -> true

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
          else
            let outcome =
              with_locked c.prev (fun () ->
                  if not (validate_locked c.prev None c.pnext) then `Retry
                  else
                    match c.pnext with
                    | Link.Ptr { node = cur; _ }
                      when cur.key = key && not (Atomic.get cur.marked) ->
                        `Present
                    | _ ->
                        Link.set (next_cell n) (Link.untagged c.pnext);
                        Link.set (next_cell c.prev) (Link.ptr n);
                        `Inserted)
            in
            match outcome with
            | `Inserted -> true
            | `Present ->
                discard t n;
                false
            | `Retry -> go ()
        in
        go ())

  let remove t s key =
    X.op s.h (fun () ->
        let rec go () =
          let c, found = search t s key in
          if not found then false
          else
            let cur = Link.node_exn c.pnext in
            let outcome =
              with_locked2 c.prev cur (fun () ->
                  if not (validate_locked c.prev (Some cur) c.pnext) then `Retry
                  else begin
                    (* Logical then physical deletion, both under locks. *)
                    Atomic.set cur.marked true;
                    Link.set (next_cell c.prev) (Link.get (next_cell cur));
                    `Removed
                  end)
            in
            match outcome with
            | `Removed ->
                X.retire s.h cur.blk
                  ~patch:(match Link.get (next_cell cur) with
                         | Link.Null _ -> []
                         | Link.Ptr { node = nx; _ } -> [ nx.blk ])
                  ~free:(fun () -> if X.recycles then Pool.release t.pool cur);
                true
            | `Retry -> go ()
        in
        go ())

  let cleanup t s = ignore (get t s max_int : bool)
end
