(* Shared machinery for the data-structure test suites: model checking
   against Stdlib.Set and deterministic fiber-mode stress, generic in the
   data structure and scheme. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module SI = Hpbrcu_core.Smr_intf
module Matrix = Hpbrcu_workload.Matrix
module ISet = Set.Make (Int)

let reset () =
  Alloc.reset ();
  Alloc.set_strict true

(* The scheme roster, keyed by name: the matrix's table.
   [optimistic_schemes] excludes HP (for data structures HP cannot run,
   per Table 1). *)
let all_schemes = Matrix.schemes

let optimistic_schemes =
  List.filter (fun (n, _) -> not (List.mem n [ "HP"; "HE"; "IBR" ])) all_schemes

(* Per the paper's applicability matrix, some (ds, scheme) pairs are
   excluded from concurrent runs. *)
let supports ds_id s = Matrix.supports s ds_id

(* Each check runs on a domain of its own, created under the scheme's
   config and force-destroyed afterwards. *)
module Check (X : SI.SCHEME) (L : Hpbrcu_ds.Ds_intf.MAP with type domain = X.domain) =
struct
  module G = SI.Scoped (X)

  (* Random ops checked against a sequential model. *)
  let seq ?(ops = 2000) ?(range = 64) ~config ~seed () =
    reset ();
    G.with_domain config @@ fun d ->
    let t = L.create d in
    let s = L.session t in
    let model = ref ISet.empty in
    let rng = Rng.create ~seed in
    for i = 1 to ops do
      let k = Rng.int rng range in
      match Rng.int rng 3 with
      | 0 ->
          let expect = not (ISet.mem k !model) in
          if L.insert t s k i <> expect then
            Alcotest.failf "insert %d: expected %b (op %d)" k expect i;
          model := ISet.add k !model
      | 1 ->
          let expect = ISet.mem k !model in
          if L.remove t s k <> expect then
            Alcotest.failf "remove %d: expected %b (op %d)" k expect i;
          model := ISet.remove k !model
      | _ ->
          let expect = ISet.mem k !model in
          if L.get t s k <> expect then
            Alcotest.failf "get %d: expected %b (op %d)" k expect i
    done;
    (* Final sweep: membership must match the model exactly. *)
    for k = 0 to range - 1 do
      if L.get t s k <> ISet.mem k !model then
        Alcotest.failf "final sweep: key %d mismatch" k
    done;
    L.cleanup t s;
    L.close_session s;
    Alcotest.(check int) "no UAF" 0 (Alloc.uaf_count ())

  (* Deterministic concurrent stress (fiber mode).  Threads 0..w-1 write,
     the rest read; afterwards keys written by exactly one writer must
     have consistent membership and no UAF may have occurred. *)
  let stress ?(nthreads = 4) ?(ops = 250) ?(range = 32) ?(stalls = false)
      ~config ~seed () =
    reset ();
    G.with_domain config @@ fun d ->
    let t = L.create d in
    Sched.run
      (Sched.Fibers { seed; switch_every = 2 })
      ~nthreads
      (fun tid ->
        let s = L.session t in
        let rng = Rng.create ~seed:(seed + (tid * 65599)) in
        for i = 1 to ops do
          if stalls && i mod 50 = 0 then Sched.stall (Rng.int rng 200);
          let k = Rng.int rng range in
          match Rng.int rng 3 with
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

(* Build the standard case list for one data structure over a scheme
   roster. *)
let standard_cases (module Make : Hpbrcu_ds.Ds_intf.MAKE) schemes =
  List.concat_map
    (fun (n, ((module X : SI.SCHEME), config)) ->
      let module C = Check (X) (Make (X)) in
      [
        Alcotest.test_case ("seq/" ^ n) `Quick (fun () -> C.seq ~config ~seed:3 ());
        Alcotest.test_case ("stress1/" ^ n) `Quick (fun () ->
            C.stress ~config ~seed:21 ());
        Alcotest.test_case ("stress2/" ^ n) `Quick (fun () ->
            C.stress ~config ~seed:22 ());
        Alcotest.test_case ("stress-stall/" ^ n) `Quick (fun () ->
            C.stress ~config ~seed:23 ~stalls:true ());
      ])
    schemes
