(* Harris list (HList) and HHSList: sequential model check and fiber-mode
   stress under every applicable scheme (HP excluded: optimistic traversal,
   Table 1). *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module SI = Hpbrcu_core.Smr_intf
module ISet = Set.Make (Int)

let reset = Test_util.reset
let schemes = Test_util.optimistic_schemes

module Check (X : SI.SCHEME) (L : Hpbrcu_ds.Ds_intf.MAP with type domain = X.domain) =
struct
  module G = SI.Scoped (X)

  let seq ~config () =
    reset ();
    G.with_domain config @@ fun d ->
    let t = L.create d in
    let s = L.session t in
    let model = ref ISet.empty in
    let rng = Hpbrcu_runtime.Rng.create ~seed:7 in
    for _ = 1 to 2000 do
      let k = Hpbrcu_runtime.Rng.int rng 64 in
      match Hpbrcu_runtime.Rng.int rng 3 with
      | 0 ->
          Alcotest.(check bool)
            "insert" (not (ISet.mem k !model))
            (L.insert t s k k);
          model := ISet.add k !model
      | 1 ->
          Alcotest.(check bool) "remove" (ISet.mem k !model) (L.remove t s k);
          model := ISet.remove k !model
      | _ -> Alcotest.(check bool) "get" (ISet.mem k !model) (L.get t s k)
    done;
    L.cleanup t s;
    L.close_session s;
    Alcotest.(check int) "no UAF" 0 (Alloc.uaf_count ())

  let stress ~config ~seed () =
    reset ();
    G.with_domain config @@ fun d ->
    let t = L.create d in
    Sched.run
      (Sched.Fibers { seed; switch_every = 2 })
      ~nthreads:4
      (fun tid ->
        let s = L.session t in
        let rng = Hpbrcu_runtime.Rng.create ~seed:(seed + (tid * 104729)) in
        for _ = 1 to 300 do
          let k = Hpbrcu_runtime.Rng.int rng 32 in
          match Hpbrcu_runtime.Rng.int rng 3 with
          | 0 -> ignore (L.insert t s k tid : bool)
          | 1 -> ignore (L.remove t s k : bool)
          | _ -> ignore (L.get t s k : bool)
        done;
        L.close_session s);
    let s = L.session t in
    L.cleanup t s;
    L.close_session s;
    Alcotest.(check int) "no UAF" 0 (Alloc.uaf_count ())
end

let cases (flavour : string) (module M : Hpbrcu_ds.Ds_intf.MAKE) =
  List.concat_map
    (fun (n, ((module X : SI.SCHEME), config)) ->
      let module C = Check (X) (M (X)) in
      [
        Alcotest.test_case (flavour ^ "/seq/" ^ n) `Quick (C.seq ~config);
        Alcotest.test_case (flavour ^ "/stress1/" ^ n) `Quick
          (C.stress ~config ~seed:11);
        Alcotest.test_case (flavour ^ "/stress2/" ^ n) `Quick
          (C.stress ~config ~seed:12);
      ])
    schemes

let () =
  Alcotest.run "harris_list"
    [
      ("hlist", cases "HList" (module Hpbrcu_ds.Harris_list.Make));
      ("hhslist", cases "HHSList" (module Hpbrcu_ds.Harris_list.Make_hhs));
    ]
