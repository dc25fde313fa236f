(* Quickstart: a concurrent ordered set protected by HP-BRCU.

   Run with:  dune exec examples/quickstart.exe

   The pattern is always the same:
     1. pick a scheme module (here the paper's full solution, HP-BRCU);
     2. instantiate a data structure functor with it;
     3. create a reclamation domain and a structure over it;
     4. per thread: open a session, run operations, close the session;
     5. the allocator's counters show retirement/reclamation behaviour;
     6. destroy the domain once the last session has closed. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Scheme = Hpbrcu_schemes.Hp_brcu.Impl
module List_set = Hpbrcu_ds.Harris_list.Make_hhs (Scheme)

let () =
  let dom = Scheme.create Hpbrcu_core.Config.default in
  let set = List_set.create dom in

  (* Single-threaded taste. *)
  let s = List_set.session set in
  assert (List_set.insert set s 1 100);
  assert (List_set.insert set s 2 200);
  assert (not (List_set.insert set s 1 111));
  assert (List_set.get set s 2);
  assert (List_set.remove set s 1);
  assert (not (List_set.get set s 1));
  List_set.close_session s;

  (* Four concurrent workers hammer a small key space.  HP-BRCU keeps the
     number of unreclaimed blocks bounded no matter how the threads
     interleave or stall. *)
  Sched.run Sched.Domains ~nthreads:4 (fun tid ->
      let s = List_set.session set in
      let rng = Hpbrcu_runtime.Rng.create ~seed:(tid + 1) in
      for _ = 1 to 20_000 do
        let k = Hpbrcu_runtime.Rng.int rng 128 in
        match Hpbrcu_runtime.Rng.int rng 3 with
        | 0 -> ignore (List_set.insert set s k tid : bool)
        | 1 -> ignore (List_set.remove set s k : bool)
        | _ -> ignore (List_set.get set s k : bool)
      done;
      List_set.close_session s);

  let st = Alloc.stats () in
  Fmt.pr "allocator: %a@." Alloc.pp_stats st;
  Fmt.pr "scheme:    %a@." Hpbrcu_runtime.Stats.pp (Scheme.stats dom);
  assert (st.Alloc.uaf = 0);
  Scheme.destroy dom;
  Fmt.pr "quickstart OK: no use-after-free, %d blocks reclaimed@."
    st.Alloc.reclaimed
