(* Core: tagged links, retired batches, capability tables, config. *)

module Link = Hpbrcu_core.Link
module Retired = Hpbrcu_core.Retired
module Caps = Hpbrcu_core.Caps
module Config = Hpbrcu_core.Config
module Alloc = Hpbrcu_alloc.Alloc

let test_link_basics () =
  let l = Link.make ~tag:0 (Some 42) in
  Alcotest.(check (option int)) "target" (Some 42) (Link.target l);
  Alcotest.(check int) "tag" 0 (Link.tag l);
  Alcotest.(check bool) "unmarked" false (Link.is_marked l);
  let m = Link.with_tag l 1 in
  Alcotest.(check bool) "marked" true (Link.is_marked m);
  Alcotest.(check (option int)) "same target" (Some 42) (Link.target m);
  Alcotest.(check bool) "null is null" true (Link.is_null Link.null)

let test_link_cas_physical () =
  let c = Link.cell (Some 1) in
  let l = Link.get c in
  let l' = Link.make (Some 2) in
  Alcotest.(check bool) "cas with loaded expected" true
    (Link.cas c ~expected:l ~desired:l');
  (* A structurally-equal but distinct record must NOT pass as expected. *)
  let fake = Link.make (Some 2) in
  Alcotest.(check bool) "cas with equal-but-fresh expected fails" false
    (Link.cas c ~expected:fake ~desired:(Link.make (Some 3)));
  Alcotest.(check bool) "cas with the stored record" true
    (Link.cas c ~expected:l' ~desired:(Link.make (Some 3)))

let test_link_same () =
  let a = ref 1 in
  let l1 = Link.make ~tag:2 (Some a) and l2 = Link.make ~tag:2 (Some a) in
  Alcotest.(check bool) "same" true (Link.same l1 l2);
  Alcotest.(check bool) "tag differs" false (Link.same l1 (Link.with_tag l2 3));
  Alcotest.(check bool) "target differs" false
    (Link.same l1 (Link.make ~tag:2 (Some (ref 1))));
  Alcotest.(check bool) "null same" true (Link.same Link.null (Link.make None))

let test_link_fresh () =
  (* Every constructor allocates, so a stored link is never physically
     equal to one stored earlier (the ABA argument in link.ml). *)
  let l = Link.ptr (ref 0) in
  Alcotest.(check bool) "make None fresh" true (Link.make None != Link.make None);
  Alcotest.(check bool) "with_tag of null fresh" true
    (Link.with_tag Link.null 0 != Link.null);
  Alcotest.(check bool) "untagged fresh" true (Link.untagged l != l);
  Alcotest.(check bool) "untagged keeps target" true
    (Link.same_target (Link.untagged (Link.with_tag l 1)) l)

(* ---------------- %identity views (DESIGN.md §9) ----------------

   Each view treats a record as an [Atomic.t], which is sound only while
   the viewed field is field 0.  A write through the view must land in the
   field, a field write must be visible through the view, CAS must succeed
   and fail by identity, and no other field may be touched.  Moving the
   field away from position 0 fails these checks. *)

let check_link_view (type n) ~(make : int -> n) ~(cell : n -> n Link.cell)
    ~(get : n -> n Link.t) ~(set : n -> n Link.t -> unit) ~(key : n -> int) () =
  let n = make 7 and m = make 8 in
  let l1 = Link.ptr m in
  Link.set (cell n) l1;
  Alcotest.(check bool) "view write seen in field" true (get n == l1);
  let l2 = Link.ptr ~tag:1 m in
  set n l2;
  Alcotest.(check bool) "field write seen through view" true
    (Link.get (cell n) == l2);
  Alcotest.(check bool) "cas fails on an equal but distinct link" false
    (Link.cas (cell n) ~expected:(Link.ptr ~tag:1 m) ~desired:l1);
  Alcotest.(check bool) "failed cas leaves the field" true (get n == l2);
  Alcotest.(check bool) "cas succeeds on the stored link" true
    (Link.cas (cell n) ~expected:l2 ~desired:l1);
  Alcotest.(check bool) "cas result in field" true (get n == l1);
  Alcotest.(check int) "key untouched" 7 (key n);
  Alcotest.(check int) "target key untouched" 8 (key m)

let test_view_harris =
  let module H = Hpbrcu_ds.Harris_list in
  check_link_view
    ~make:(fun k -> H.make_node (Alloc.block ()) k 0)
    ~cell:H.next_cell
    ~get:(fun n -> n.H.next)
    ~set:(fun n l -> n.H.next <- l)
    ~key:(fun n -> n.H.key)

let test_view_hm =
  let module H = Hpbrcu_ds.Hm_list in
  check_link_view
    ~make:(fun key -> { H.next = Link.null; blk = Alloc.block (); key; value = 0 })
    ~cell:H.next_cell
    ~get:(fun n -> n.H.next)
    ~set:(fun n l -> n.H.next <- l)
    ~key:(fun n -> n.H.key)

let test_view_lazy =
  let module L = Hpbrcu_ds.Lazy_list in
  check_link_view
    ~make:(fun key ->
      {
        L.next = Link.null;
        blk = Alloc.block ();
        key;
        value = 0;
        lock = Atomic.make false;
        marked = Atomic.make false;
      })
    ~cell:L.next_cell
    ~get:(fun n -> n.L.next)
    ~set:(fun n l -> n.L.next <- l)
    ~key:(fun n -> n.L.key)

let test_view_block_state () =
  let module Block = Hpbrcu_alloc.Block in
  Alloc.reset ();
  let b = Alloc.block () in
  let id = Block.id b in
  let c = Block.state_cell b in
  Atomic.set c (Block.state_to_int Block.Retired);
  Alcotest.(check int) "view write seen in field" 1 b.Block.state;
  b.Block.state <- Block.state_to_int Block.Live;
  Alcotest.(check bool) "field write seen through view" true (Block.is_live b);
  Alcotest.(check bool) "cas fails on another state" false
    (Atomic.compare_and_set c 1 2);
  Alcotest.(check bool) "cas succeeds on the stored state" true
    (Atomic.compare_and_set c 0 2);
  Alcotest.(check bool) "cas result in field" true
    (b.Block.state = Block.reclaimed_code);
  Alcotest.(check int) "id untouched" id (Block.id b);
  Alcotest.(check int) "version untouched" 0 (Block.version b);
  Alcotest.(check int) "retire era untouched" (-1) (Block.retire_era b)

(* A fresh null-next HHSList node with its block header: 4-field node,
   8-field header, the header's three [Atomic.t] boxes (version, birth
   and retire eras), and the shared null link.  A standalone link cell or
   a boxed header word shows here as 2 more words. *)
let hhs_node_words = 22

let test_hhs_node_footprint () =
  let module H = Hpbrcu_ds.Harris_list in
  Alloc.reset ();
  let n = H.make_node (Alloc.block ()) 1 1 in
  Alcotest.(check int) "reachable words" hhs_node_words
    (Obj.reachable_words (Obj.repr n))

let test_retired_batch () =
  Alloc.reset ();
  let t = Retired.create () in
  Alcotest.(check bool) "empty" true (Retired.is_empty t);
  let bs = List.init 6 (fun _ -> Alloc.block ()) in
  List.iteri (fun i b -> Retired.push t ~stamp:i b) bs;
  List.iter Alloc.retire bs;
  Alcotest.(check int) "length" 6 (Retired.length t);
  (* Reclaim entries with even stamp. *)
  let n = Retired.reclaim_where t (fun e -> e.Retired.stamp mod 2 = 0) in
  Alcotest.(check int) "reclaimed" 3 n;
  Alcotest.(check int) "kept" 3 (Retired.length t);
  let drained = Retired.drain t in
  Alcotest.(check int) "drained" 3 (List.length drained);
  Alcotest.(check bool) "empty again" true (Retired.is_empty t)

let test_retired_free_callback () =
  Alloc.reset ();
  let t = Retired.create () in
  let hit = ref 0 in
  let b = Alloc.block () in
  Alloc.retire b;
  Retired.push t ~free:(fun () -> incr hit) b;
  ignore (Retired.reclaim_where t (fun _ -> true) : int);
  Alcotest.(check int) "finalizer ran" 1 !hit;
  Alcotest.(check bool) "block reclaimed" true Hpbrcu_alloc.Block.(is_reclaimed b)

(* Capability metadata must match the paper's applicability matrix for the
   schemes and structures we implement (Table 1's relevant rows). *)
let caps name = Hpbrcu_workload.Matrix.(caps (find_scheme name))

let test_caps_match_table1 () =
  let check name ds expected =
    let got = (caps name).Caps.supports ds <> Caps.No in
    Alcotest.(check bool)
      (Printf.sprintf "%s on %s" name (Caps.ds_name ds))
      expected got
  in
  (* HP: HMList and HashMap only (plus SkipList at reduced progress). *)
  check "HP" Caps.HMList true;
  check "HP" Caps.HList false;
  check "HP" Caps.HHSList false;
  check "HP" Caps.NMTree false;
  check "HP" Caps.SkipList true;
  (* NBR: no helping-during-traversal structures. *)
  check "NBR" Caps.HMList false;
  check "NBR" Caps.SkipList false;
  check "NBR" Caps.HList true;
  check "NBR" Caps.NMTree true;
  (* The optimistic family runs everything. *)
  List.iter
    (fun ds ->
      check "HP-BRCU" ds true;
      check "RCU" ds true;
      check "VBR" ds true)
    Caps.all_ds

let test_caps_match_table2 () =
  let robust name = (caps name).Caps.robust_stalled in
  let longrun name = (caps name).Caps.robust_longrun in
  Alcotest.(check bool) "RCU not robust" false (robust "RCU");
  Alcotest.(check bool) "HP-RCU not stall-robust" false (robust "HP-RCU");
  Alcotest.(check bool) "HP-RCU longrun-robust" true (longrun "HP-RCU");
  Alcotest.(check bool) "HP-BRCU stall-robust" true (robust "HP-BRCU");
  Alcotest.(check bool) "HP-BRCU longrun-robust" true (longrun "HP-BRCU");
  Alcotest.(check bool) "NBR stall-robust" true (robust "NBR");
  Alcotest.(check bool) "HP robust both" true
    (robust "HP" && longrun "HP")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_tables_render () =
  (* The printed tables must include every row/column (smoke). *)
  let t1 = Fmt.str "%a" Caps.pp_table1 () in
  let t2 = Fmt.str "%a" Caps.pp_table2 () in
  Alcotest.(check int) "19 DS rows" 19 (List.length Caps.table1);
  Alcotest.(check bool) "table1 mentions skip list" true
    (contains ~needle:"skip list" t1);
  Alcotest.(check bool) "table1 mentions Natarajan" true
    (contains ~needle:"Natarajan" t1);
  Alcotest.(check bool) "table2 mentions HP-BRCU" true
    (contains ~needle:"HP-BRCU" t2);
  Alcotest.(check bool) "table2 has 4 criteria" true
    (List.length Caps.table2 = 4)

let test_config_defaults () =
  Alcotest.(check int) "batch" 128 Config.default.Config.batch;
  Alcotest.(check int) "force threshold" 2 Config.default.Config.force_threshold;
  Alcotest.(check bool) "double buffering on" true
    Config.default.Config.double_buffering;
  Alcotest.(check int) "NBR-Large batch" 8192 Config.large_batch.Config.batch

let () =
  Alcotest.run "core"
    [
      ( "link",
        [
          Alcotest.test_case "basics" `Quick test_link_basics;
          Alcotest.test_case "cas-physical" `Quick test_link_cas_physical;
          Alcotest.test_case "same" `Quick test_link_same;
          Alcotest.test_case "fresh" `Quick test_link_fresh;
        ] );
      ( "layout",
        [
          Alcotest.test_case "harris next view" `Quick test_view_harris;
          Alcotest.test_case "hm next view" `Quick test_view_hm;
          Alcotest.test_case "lazy next view" `Quick test_view_lazy;
          Alcotest.test_case "block state view" `Quick test_view_block_state;
          Alcotest.test_case "hhs node footprint" `Quick test_hhs_node_footprint;
        ] );
      ( "retired",
        [
          Alcotest.test_case "batch" `Quick test_retired_batch;
          Alcotest.test_case "free-callback" `Quick test_retired_free_callback;
        ] );
      ( "caps",
        [
          Alcotest.test_case "table1" `Quick test_caps_match_table1;
          Alcotest.test_case "table2" `Quick test_caps_match_table2;
          Alcotest.test_case "render" `Quick test_tables_render;
          Alcotest.test_case "config" `Quick test_config_defaults;
        ] );
    ]
