(** Lifecycle headers for manually-reclaimed heap blocks.

    OCaml's GC never exposes frees, so the paper's central objects —
    "retired blocks", "reclaimed blocks", "use-after-free" — are modelled
    explicitly: every node managed by a reclamation scheme embeds a
    [Block.t] whose [state] word walks the lifecycle

    {v  Live --retire--> Retired --reclaim--> Reclaimed --(pool)--> Live  v}

    A scheme is correct iff no thread ever {e accesses} a [Reclaimed] block
    (checked by {!Alloc.check_access} on every mediated read) and no block
    is retired or reclaimed twice (checked by the transitions here).

    {b Layout.}  [state] is the record's mutable field 0, loaded and CASed
    through {!state_cell}, an [%identity] view of the header as an
    [int Atomic.t]: in OCaml 5.1 an [Atomic.t] is a one-field mutable
    block, and the [%atomic_*] primitives act on field 0 of whatever block
    they are given, write barrier included.  {!Alloc.check_access} — run on
    every mediated read — is then one load from the header instead of a
    load of a separate [Atomic.t] box and another of its contents.  (OCaml
    5.4's atomic record fields are the way to drop the view.)
    Nothing may read or write [state] except through the view.

    The other fields, and what orders them across domains:

    - [version], [birth_era], [retire_era] stay [Atomic.t]: VBR and the
      era schemes (HE, IBR) read them from other domains with no
      synchronising atomic in between — a VBR reader compares a block's
      version/birth era against its own start era while a recycler may be
      reanimating the block, and an era scan reads a retired block's eras.
    - [owner] is a plain field.  It is written by the retiring thread after
      its Live→Retired CAS and before the block is handed to the scheme;
      any other domain that later reclaims the block received it through
      the scheme's hand-off (an orphan or batch list pushed and popped
      with atomics), and that hand-off orders the write before the
      reclaim's read.  {!reanimate} resets it after a pool pop, the same
      kind of edge.
    - [poison] is a plain field.  {!Alloc.reclaim} writes it {e before}
      the Retired→Reclaimed CAS on [state], and it is only read by an
      access that has already loaded [Reclaimed] from [state]; the CAS
      and that load order the stamp before the read.
    - [id] and [recyclable] are immutable.

    The [version]/[birth_era] fields exist for VBR, whose whole design is to
    reclaim instantly into a type-stable pool and detect stale readers by
    version arithmetic rather than by blocking reuse. *)

type state = Live | Retired | Reclaimed

let state_to_int = function Live -> 0 | Retired -> 1 | Reclaimed -> 2
let state_of_int = function 0 -> Live | 1 -> Retired | 2 -> Reclaimed | _ -> assert false

(** The [Reclaimed] code as stored in [state] ({!Alloc.check_access}'s
    fast-path compare). *)
let reclaimed_code = 2

let pp_state ppf s =
  Fmt.string ppf (match s with Live -> "Live" | Retired -> "Retired" | Reclaimed -> "Reclaimed")

type t = {
  mutable state : int;
      (** field 0, accessed only through {!state_cell}; see the header *)
  id : int;  (** unique allocation id (stable across pool reuse) *)
  version : int Atomic.t;
      (** bumped each time the block is recycled through a pool; VBR's
          stale-read detector *)
  birth_era : int Atomic.t;  (** VBR: global era at (re)allocation *)
  retire_era : int Atomic.t;  (** VBR: global era at retirement; -1 = live *)
  recyclable : bool;
      (** pool-managed blocks may legally be observed post-reclaim (VBR);
          access checks skip them *)
  mutable poison : int;
      (** poison stamp written at reclaim time when the allocator's
          poisoning mode is on: [1 + version-at-free], the simulation's
          0xdeadbeef.  0 = not poisoned.  Cleared by {!reanimate}, so a
          read of a poisoned block is provably a read of freed memory of a
          specific incarnation, not of a recycled successor. *)
  mutable owner : int;
      (** reclamation-domain owner slot ({!Alloc.Owner}), stamped at retire
          time by the retiring domain; 0 = untagged.  This is the P0484
          [rcu_obj_base] idea flipped inside out: instead of embedding a
          deleter closure in the object header, the header carries the
          domain id and the allocator debits that domain's unreclaimed
          watermark at reclaim time — intrusive accounting with no
          per-retire closure. *)
}

(** [state_cell b] — the header viewed as its own [state] cell. *)
external state_cell : t -> int Atomic.t = "%identity"

let next_id = Atomic.make 0

(** Restart the id sequence (between experiment cells, when no blocks from
    the previous cell are reachable).  With ids restarting at 0, a fiber
    run's block ids — and therefore the [Retire]/[Reclaim] correlation
    arguments in traces — are a pure function of the seed.  Stale blocks
    sharing an id with a new one can only make a hazard scan {e withhold}
    a reclaim, never permit one, so a missed reset degrades nothing. *)
let reset_ids () = Atomic.set next_id 0

let make ?(recyclable = false) () =
  {
    state = state_to_int Live;
    id = Atomic.fetch_and_add next_id 1;
    version = Atomic.make 0;
    birth_era = Atomic.make 0;
    retire_era = Atomic.make (-1);
    recyclable;
    poison = 0;
    owner = 0;
  }

(** [none] — the header of no node.  A mediated read with no source to
    check (a root pointer) passes [none] as its source instead of an
    [option], which would box a [Some] on every traversal step.  It takes
    no id from the sequence and is never retired. *)
let none =
  {
    state = state_to_int Live;
    id = -1;
    version = Atomic.make 0;
    birth_era = Atomic.make 0;
    retire_era = Atomic.make (-1);
    recyclable = false;
    poison = 0;
    owner = 0;
  }

let id t = t.id
let owner t = t.owner
let set_owner t o = t.owner <- o
let state t = state_of_int (Atomic.get (state_cell t))
let version t = Atomic.get t.version
let birth_era t = Atomic.get t.birth_era
let retire_era t = Atomic.get t.retire_era
let recyclable t = t.recyclable

let is_live t = state t = Live
let is_retired t = state t = Retired
let is_reclaimed t = state t = Reclaimed

(** Atomically transition [from -> to_]; returns [false] if the block was
    not in [from] (e.g. a double retire). *)
let transition t ~from ~to_ =
  Atomic.compare_and_set (state_cell t) (state_to_int from) (state_to_int to_)

(** [poison t] — stamp the block as freed (the stamp encodes the dying
    incarnation's version); {!is_poisoned} then identifies any later read
    as a use-after-free of that incarnation.  Idempotent.  Call before the
    transition to [Reclaimed] (see the header). *)
let poison t = t.poison <- 1 + Atomic.get t.version

let is_poisoned t = t.poison <> 0

(** Reset a recycled block to [Live], bumping its version.  Only the pool
    calls this. *)
let reanimate t ~era =
  assert t.recyclable;
  Atomic.incr t.version;
  Atomic.set t.birth_era era;
  Atomic.set t.retire_era (-1);
  t.poison <- 0;
  t.owner <- 0;
  Atomic.set (state_cell t) (state_to_int Live)

let mark_retire_era t ~era = Atomic.set t.retire_era era
let set_birth_era t ~era = Atomic.set t.birth_era era

let pp ppf t =
  Fmt.pf ppf "block#%d[%a v%d]" t.id pp_state (state t) (version t)
