(** Tagged atomic links between nodes.

    Lock-free lists and trees mark nodes for logical deletion by setting tag
    bits inside the {e successor pointer} ("pointer tagging").  C/Rust steal
    low pointer bits; in OCaml a link is one immutable heap object, either
    [Null {tag}] or [Ptr {node; tag}], stored in an atomic cell:

    - a link {e load} returns the object;
    - a link {e CAS} compares the object by {b physical equality}, so the
      expected value must be a link previously loaded from the same cell —
      exactly the discipline tagged-pointer CAS imposes in C.

    Every store writes a freshly allocated link (every constructor below
    allocates; none returns a shared constant except {!null}, which is only
    stored when a node is (re)initialised before publication), so physical
    equality also rules out ABA at the link level "for free" (the GC cannot
    reuse a reachable link).  This is {e more} forgiving than real memory —
    which is why VBR, the scheme whose purpose is surviving ABA under
    immediate reuse, carries explicit version numbers in
    {!Hpbrcu_alloc.Block}: the hazard it defends against is reintroduced
    deliberately by the allocator pool, not by link cells.

    A link is one object so that following it costs one load (cell →
    link) plus one (link → node); a [(target option, tag)] record would
    add a load for the record and one for the [Some] box.  Hot traversal
    steps therefore match on the constructors; {!target}'s [option]
    result allocates a [Some] per call and is for cold paths.

    A cell is an [Atomic.t].  The list structures embed their successor
    link as field 0 of the node itself and view the node as its own cell
    (see DESIGN.md §9, "Two loads per hop"); trees and the skiplist keep
    standalone cells made by {!cell}. *)

type 'a t = Null of { tag : int } | Ptr of { node : 'a; tag : int }

type 'a cell = 'a t Atomic.t

(* A tag-0 null link; polymorphic because the constructor application is a
   syntactic value.  Shared, so never a CAS desired value on a reachable
   cell: use {!make} for that. *)
let null = Null { tag = 0 }

(* [Null { tag }] with a variable [tag] allocates at every call; a literal
   tag would be a shared static constant, which would reintroduce ABA. *)
let[@inline never] fresh_null tag = Null { tag }

(** [ptr ?tag n] — a fresh link to [n]. *)
let ptr ?(tag = 0) node = Ptr { node; tag }

(** [make ?tag target] — a fresh link (option form, for cold paths). *)
let make ?(tag = 0) = function
  | None -> fresh_null tag
  | Some node -> Ptr { node; tag }

let cell ?(tag = 0) target : 'a cell = Atomic.make (make ~tag target)

(** [target l] — the target as an option.  Allocates a [Some]: hot paths
    match on the constructors instead. *)
let target = function Null _ -> None | Ptr { node; _ } -> Some node

(** [map_target f l] — [Option.map f (target l)] with one allocation,
    for projecting a target's header into a shield store. *)
let map_target f = function Null _ -> None | Ptr { node; _ } -> Some (f node)

(** [node_exn l] — the target of a link known to be non-null. *)
let node_exn = function
  | Ptr { node; _ } -> node
  | Null _ -> invalid_arg "Link.node_exn: null link"

let tag = function Null { tag } | Ptr { tag; _ } -> tag
let is_null = function Null _ -> true | Ptr _ -> false
let is_marked l = tag l land 1 <> 0

(** [points_to l n] — does [l] target exactly [n]? *)
let points_to l n = match l with Ptr { node; _ } -> node == n | Null _ -> false

(** Same target, different tag (a fresh link: safe to use as a CAS
    desired value). *)
let with_tag l tag =
  match l with Null _ -> fresh_null tag | Ptr { node; _ } -> Ptr { node; tag }

(** [untagged l] — a fresh tag-0 link to [l]'s target (unlinking past a
    marked node). *)
let untagged l = with_tag l 0

(** [get c] — an unmediated load.  Scheme code only; data structures must go
    through their scheme's [read]. *)
let get (c : 'a cell) = Atomic.get c

let set (c : 'a cell) l = Atomic.set c l

(** [cas c ~expected ~desired] — single-word CAS on the tagged link.
    [expected] must be a link read from [c] (physical equality). *)
let cas (c : 'a cell) ~expected ~desired =
  Atomic.compare_and_set c expected desired

(** [same a b] — do two loaded links denote the same tagged pointer?  Used
    by validation: compares target identity and tag, not link identity,
    because two loads of an unchanged cell do return the same link but a
    re-written equal link must also validate (helping can rewrite). *)
let same a b =
  match (a, b) with
  | Null { tag = t }, Null { tag = u } -> t = u
  | Ptr { node = x; tag = t }, Ptr { node = y; tag = u } -> x == y && t = u
  | _ -> false

(** [same_target a b] — same target, tags ignored. *)
let same_target a b =
  match (a, b) with
  | Null _, Null _ -> true
  | Ptr { node = x; _ }, Ptr { node = y; _ } -> x == y
  | _ -> false

let pp pp_target ppf = function
  | Null { tag } -> Fmt.pf ppf "null/%d" tag
  | Ptr { node; tag } -> Fmt.pf ppf "%a/%d" pp_target node tag
