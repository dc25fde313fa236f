(** The data-structure × scheme instantiation matrix.

    Benchmarks address cells by names ("HHSList", "HP-BRCU"); this module
    resolves a name to a scheme implementation and the config its domains
    run under, applies the data-structure functors, honours the
    applicability matrix (Table 1: unsupported pairs return [None]), and
    picks the paper's bucket-list flavour for HashMap ({!bucket_list}). *)

module Caps = Hpbrcu_core.Caps
module Config = Hpbrcu_core.Config
module SI = Hpbrcu_core.Smr_intf
module Schemes = Hpbrcu_schemes.Schemes
module Ds = Hpbrcu_ds

(** A scheme as a cell runs it: the implementation and the config every
    domain of the cell is created under. *)
type scheme = (module SI.SCHEME) * Config.t

let impl name =
  match Schemes.find_impl name with
  | Some i -> i
  | None -> invalid_arg ("unknown scheme: " ^ name)

(* The paper's §6 suite with its parameters; NBR-Large is NBR under the
   8192-retirement batch. *)
let schemes : (string * scheme) list =
  let paper name = (name, (impl name, Config.default)) in
  [
    paper "NR";
    paper "RCU";
    paper "HP";
    paper "HP++";
    paper "PEBR";
    paper "NBR";
    ("NBR-Large", (impl "NBR", Config.large_batch));
    paper "VBR";
    paper "HP-RCU";
    paper "HP-BRCU";
    (* Beyond the paper's §6 suite (Table 2 completeness): *)
    paper "HE";
    paper "IBR";
  ]

(* Hunt entries for lib/check's schedule/fault exploration: first-class
   implementations paired with hair-trigger reclamation configs — each
   hunt case [create]s a fresh domain from its entry and [destroy]s it at
   census time, so no state bleeds between cases.  The table also carries
   the planted mutants ("<scheme>!<bug>") the hunt's mutation-testing gate
   must catch, and the "+shards" topology variant the runner drives
   through {!Hpbrcu_ds.Sharded_hashmap} (one domain per shard).  Variants
   share their base scheme's applicability — [supports] callers strip the
   suffix. *)
let hunt_impls : (string * scheme) list =
  let hunt = Schemes.hunt_cfg in
  [
    ("RCU", (impl "RCU", hunt));
    ("HP", (impl "HP", hunt));
    ("NBR", (impl "NBR", hunt));
    ("VBR", (impl "VBR", hunt));
    ("HP-RCU", (impl "HP-RCU", hunt));
    ("HP-BRCU", (impl "HP-BRCU", hunt));
    ("RCU+shards", (impl "RCU", hunt));
    ("RCU+watchdog", (impl "RCU", hunt));
    ("HP-BRCU!nomask", (impl "HP-BRCU", Schemes.hunt_nomask_cfg));
    ("HP-BRCU!nodb", (impl "HP-BRCU", Schemes.hunt_nodb_cfg));
  ]

let hunt_scheme_names =
  List.filter (fun n -> not (String.contains n '!')) (List.map fst hunt_impls)

let mutant_names =
  List.filter (fun n -> String.contains n '!') (List.map fst hunt_impls)

let find_hunt_impl name =
  match List.assoc_opt name hunt_impls with
  | Some x -> x
  | None -> invalid_arg ("unknown hunt scheme: " ^ name)

let has_suffix suffix n =
  let ls = String.length suffix and ln = String.length n in
  ln >= ls && String.sub n (ln - ls) ls = suffix

(** [is_sharded n] — the "+shards" multi-domain topology variant. *)
let is_sharded n = has_suffix "+shards" n

(** [is_watchdog n] — the "+watchdog" supervision variant: the runner arms
    an extra watchdog fiber over the case's domain, with ladder deadlines
    fuzzed from the case seed.  Real schemes must stay silent under it —
    supervision may only {e accelerate} reclamation, never break safety. *)
let is_watchdog n = has_suffix "+watchdog" n

(** [base_scheme_name n] strips a mutant's "!bug" or a topology variant's
    "+shards" suffix. *)
let base_scheme_name n =
  let strip c n =
    match String.index_opt n c with
    | Some i -> String.sub n 0 i
    | None -> n
  in
  strip '!' (strip '+' n)

(* The paper's §6 legend (figures use exactly these; HE/IBR remain
   addressable by name for custom sweeps and tests). *)
let scheme_names =
  List.filter (fun n -> n <> "HE" && n <> "IBR") (List.map fst schemes)

(** [find_scheme ?tuning name].  [`Small] runs the §6 schemes under
    {!Schemes.small_cfg} for the scaled long-running experiments; NBR-Large
    keeps its 8192 batch (the batch defines it), and HE/IBR exist only
    default-tuned. *)
let find_scheme ?(tuning = `Default) name : scheme =
  match (List.assoc_opt name schemes, tuning) with
  | None, _ -> invalid_arg ("unknown scheme: " ^ name)
  | Some (i, _), `Small when name <> "NBR-Large" && List.mem name scheme_names
    ->
      (i, Schemes.small_cfg)
  | Some s, _ -> s

let caps ((module X : SI.SCHEME), config) = X.caps config

let ds_of_string = function
  | "HList" -> Caps.HList
  | "HMList" -> Caps.HMList
  | "HHSList" -> Caps.HHSList
  | "HashMap" -> Caps.HashMap
  | "SkipList" -> Caps.SkipList
  | "NMTree" -> Caps.NMTree
  | s -> invalid_arg ("unknown data structure: " ^ s)

let supports s ds = (caps s).Caps.supports ds <> Caps.No

(** The list a scheme's hash-map buckets (and the list-based harnesses)
    use: HMList under HP, as in the paper, and under every scheme whose
    caps rule out HHSList (HE, IBR); HHSList everywhere else. *)
let bucket_list (((module X : SI.SCHEME), _) as s) =
  if X.scheme = "HP" || not (supports s Caps.HHSList) then Caps.HMList
  else Caps.HHSList

(** {!bucket_list} as the list functor to apply. *)
let buckets s : (module Ds.Ds_intf.MAKE) =
  match bucket_list s with
  | Caps.HMList -> (module Ds.Hm_list.Make)
  | _ -> (module Ds.Harris_list.Make_hhs)

(* Hash tables sized so the expected chain length matches the paper's
   (≈1.7 nodes at 50% occupancy). *)
let bucket_hint key_range = max 16 (key_range / 4)

(** [map_module (module X) config ds ~key_range] — structure [ds] over
    [X]'s domains; a HashMap gets {!buckets} lists and a table sized by
    {!bucket_hint}. *)
let map_module (type d) (module X : SI.SCHEME with type domain = d) config ds
    ~key_range : (module Ds.Ds_intf.MAP with type domain = d) =
  match (ds : Caps.ds_id) with
  | Caps.HList -> (module Ds.Harris_list.Make (X))
  | Caps.HMList -> (module Ds.Hm_list.Make (X))
  | Caps.HHSList -> (module Ds.Harris_list.Make_hhs (X))
  | Caps.HashMap ->
      let module B = (val buckets ((module X : SI.SCHEME), config)) in
      (module struct
        include Ds.Hashmap.Make_gen (B) (X)

        let create d = create_sized d (bucket_hint key_range)
      end)
  | Caps.SkipList -> (module Ds.Skiplist.Make (X))
  | Caps.NMTree -> (module Ds.Nmtree.Make (X))

(** [run_cell ~ds ~scheme cell] executes one experiment cell on a domain
    of its own, or returns [None] when the pair is excluded by Table 1. *)
let run_cell ~(ds : Caps.ds_id) ~(scheme : string) (cell : Spec.cell) :
    Spec.result option =
  let ((module X : SI.SCHEME), config) as s = find_scheme scheme in
  if not (supports s ds) then None
  else
    let module L =
      (val map_module (module X) config ds ~key_range:cell.Spec.key_range)
    in
    let module R = Cell_runner.Make (X) (L) in
    Some (R.run ~config cell)
