(* BRCU semantics (Algorithms 5 and 6): critical sections, rollback,
   selective signaling, abort-masking, self-neutralization, and the
   garbage bound of §5. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Config = Hpbrcu_core.Config
module Stats = Hpbrcu_runtime.Stats
module B = Hpbrcu_schemes.Brcu_core
module Dom = Hpbrcu_core.Smr_intf.Dom

module Cfg = struct
  let config =
    { Config.default with batch = 8; max_local_tasks = 8; force_threshold = 2 }
end

let reset () =
  Hpbrcu_schemes.Schemes.reset_all ();
  Alloc.reset ();
  Alloc.set_strict true

(* Fresh BRCU domain per test so counters are isolated; torn down at the
   end so the watermark slot is returned. *)
let with_brcu ?(cfg = Cfg.config) f =
  let bd = B.create (Dom.make ~scheme:"BRCU" ~label:"test" cfg) in
  Fun.protect
    ~finally:(fun () ->
      if not (Dom.destroyed bd.B.meta) then begin
        Dom.begin_destroy ~force:true bd.B.meta;
        B.drain bd;
        Dom.finish_destroy bd.B.meta
      end)
    (fun () -> f bd)

let test_crit_returns () =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      Alcotest.(check int) "result" 42 (B.crit h (fun () -> 42));
      Alcotest.(check bool) "out after" false (B.in_cs h);
      B.unregister h)

let test_crit_reraises () =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      (try B.crit h (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check bool) "status restored after exception" false
        (B.in_cs h);
      B.unregister h)

let test_rollback_reruns_body () =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      let attempts = ref 0 in
      let r =
        B.crit h (fun () ->
            incr attempts;
            if !attempts < 3 then raise B.Rollback;
            "done")
      in
      Alcotest.(check string) "eventually returns" "done" r;
      Alcotest.(check int) "re-ran to the checkpoint" 3 !attempts;
      B.unregister h)

(* A lagging reader is neutralized after force_threshold flushes; a
   current-epoch reader is not (selective signaling). *)
let test_selective_signal () =
  reset ();
  with_brcu (fun bd ->
      let rolled_back = ref 0 and completed = ref false in
      Sched.run
        (Sched.Fibers { seed = 3; switch_every = 1 })
        ~nthreads:2
        (fun tid ->
          if tid = 0 then begin
            let h = B.register bd in
            (* Reader: long critical section; counts rollbacks. *)
            (try
               B.crit h (fun () ->
                   for _ = 1 to 5000 do
                     B.poll h;
                     Sched.yield ()
                   done;
                   completed := true)
             with Not_found -> ());
            B.unregister h
          end
          else begin
            let h = B.register bd in
            (* Writer: defer a lot, forcing epoch advances past the
               reader. *)
            for _ = 1 to 200 do
              let b = Alloc.block () in
              Alloc.retire b;
              B.defer h b;
              Sched.yield ()
            done;
            B.flush h;
            B.unregister h
          end);
      ignore !rolled_back;
      let stats = B.stats bd in
      Alcotest.(check bool) "signals were sent" true (stats.Stats.signals > 0);
      Alcotest.(check bool)
        "rollbacks happened" true
        (stats.Stats.rollbacks > 0))

(* Abort-masking: a signal delivered inside a mask defers the rollback to
   the region's exit, and the masked body is never torn. *)
let test_mask_defers_rollback () =
  reset ();
  with_brcu (fun bd ->
      let mask_completed = ref 0 and rollbacks_seen = ref 0 in
      Sched.run
        (Sched.Fibers { seed = 5; switch_every = 1 })
        ~nthreads:2
        (fun tid ->
          if tid = 0 then begin
            let h = B.register bd in
            let attempts = ref 0 in
            ignore
              (B.crit h (fun () ->
                   incr attempts;
                   if !attempts > 1 then incr rollbacks_seen;
                   if !attempts <= 2 then begin
                     (* Spin inside a mask until the signal has arrived;
                        the handler must NOT abort us mid-mask. *)
                     B.mask h (fun () ->
                         for _ = 1 to 300 do
                           B.poll h;
                           Sched.yield ()
                         done;
                         incr mask_completed)
                     (* On exit the deferred rollback fires (if
                        signaled). *)
                   end)
                : unit);
            B.unregister h
          end
          else begin
            let h = B.register bd in
            for _ = 1 to 120 do
              let b = Alloc.block () in
              Alloc.retire b;
              B.defer h b;
              Sched.yield ()
            done;
            B.flush h;
            B.unregister h
          end);
      (* Every mask body that started ran to completion (never torn). *)
      Alcotest.(check bool) "mask bodies completed" true (!mask_completed >= 1);
      let stats = B.stats bd in
      if stats.Stats.signals > 0 then
        Alcotest.(check bool) "rollback deferred to mask exit" true
          (!rollbacks_seen >= 1 || !mask_completed >= 1))

(* Defer runs tasks only after concurrent critical sections end
   (Theorem 5.1's guarantee, observed through the allocator).  Signals are
   disabled here: with them, a doomed-but-not-yet-rolled-back reader may
   legally overlap task execution (it polls before every access — the
   cooperative-delivery substitution of DESIGN.md §2.2), so the clean
   blocking property is only observable in the unsignaled regime. *)
let test_defer_waits_for_cs () =
  reset ();
  with_brcu
    ~cfg:{ Cfg.config with Config.force_threshold = max_int }
    (fun bd ->
      let violation = ref false in
      Sched.run
        (Sched.Fibers { seed = 7; switch_every = 1 })
        ~nthreads:2
        (fun tid ->
          if tid = 0 then begin
            let h = B.register bd in
            (try
               B.crit h (fun () ->
                   (* If any task deferred *during* this CS runs before it
                      ends, the reclaimed count would jump while we
                      watch. *)
                   let seen = (Alloc.stats ()).Alloc.reclaimed in
                   for _ = 1 to 500 do
                     B.poll h;
                     Sched.yield ();
                     if
                       (Alloc.stats ()).Alloc.reclaimed
                       > seen + Cfg.config.batch
                     then violation := true
                   done)
             with B.Rollback -> ());
            B.unregister h
          end
          else begin
            let h = B.register bd in
            for _ = 1 to 60 do
              let b = Alloc.block () in
              Alloc.retire b;
              B.defer h b;
              Sched.yield ()
            done;
            B.flush h;
            B.unregister h
          end);
      (* Tasks deferred while the reader was pinned at the then-current
         epoch may only run after it is signaled out; a small leak-through
         equal to one epoch's backlog is legal, more is not.  (The reader's
         rollback means the CS ended — then execution is legal, so we only
         check the strictly-inside-CS window via the flag above.) *)
      Alcotest.(check bool)
        "no defer executed inside a live CS beyond bound" false !violation)

(* The §5 bound: with G = max_local_tasks × force_threshold, N threads and
   H shields, peak unreclaimed ≤ 2GN + GN² + H (we run HP-BRCU under churn
   and check the measured peak against the formula). *)
let test_hpbrcu_bound () =
  reset ();
  Alloc.set_strict false;
  let module S =
    Hpbrcu_schemes.Hp_brcu.Make (struct
      let config =
        { Config.default with batch = 16; max_local_tasks = 8; force_threshold = 2 }
    end)
    ()
  in
  let module L = Hpbrcu_ds.Harris_list.Make_hhs (S) in
  let nthreads = 6 in
  let t = L.create () in
  Sched.run (Sched.Fibers { seed = 11; switch_every = 2 }) ~nthreads (fun tid ->
      let s = L.session t in
      let rng = Hpbrcu_runtime.Rng.create ~seed:(tid * 31 + 1) in
      for _ = 1 to 2000 do
        let k = Hpbrcu_runtime.Rng.int rng 64 in
        match Hpbrcu_runtime.Rng.int rng 3 with
        | 0 -> ignore (L.insert t s k 0 : bool)
        | 1 -> ignore (L.remove t s k : bool)
        | _ -> ignore (L.get t s k : bool)
      done;
      L.close_session s);
  let g = 8 * 2 in
  let n = nthreads in
  let shields = 16 * n (* generous per-session shield count *) in
  let bound = (2 * g * n) + (g * n * n) + shields in
  let peak = Alloc.peak_unreclaimed () in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d within 2GN+GN^2+H = %d" peak bound)
    true (peak <= bound)

(* ---------------- HP-BRCU traverse (Algorithm 7) ---------------- *)

module X = Hpbrcu_schemes.Hp_brcu.Impl
module Signal = Hpbrcu_runtime.Signal
module Smr = Hpbrcu_core.Smr_intf

(* The walk: cursors are node indices 0 .. walk_n over a chain of blocks;
   each step moves one node right and node [walk_n] is the destination.
   With backup_period = 4 the checkpoints land on nodes 4 and 8, and the
   Finish checkpoint on node 10.  Buffers alternate from the entry
   point's [backup]: node 4 → prot, 8 → backup, 10 → prot. *)
let walk_n = 10

(* Where the test aims a rollback; each fires once. *)
type aim =
  | Never
  | In_init  (** at init's read, before the entry point is protected *)
  | Mid_step of int  (** inside the step leaving this node *)
  | Torn_checkpoint of int
      (** between the two protect stores of this node's checkpoint *)

type walk = {
  mutable validated : int list;  (** cursors revalidated, latest first *)
  mutable stepped : int list;  (** cursors stepped from, latest first *)
  mutable result : (int * bool * int) option;
      (** destination, [true] if the winning buffer is [prot], answer *)
  mutable raised : bool;  (** the traverse raised *)
}

(* Run one traverse in a single fiber (so shield stores are preemption
   and delivery points, as in every simulated run) and report it together
   with the domain's stats and the handle's section state afterwards.  A
   rollback is a real delivery: the test posts a signal to the reader's
   own box, and the next poll — a [deref] or the shield store — runs the
   BRCU handler. *)
let run_walk ?(aim = Never) ?(validate = fun _ -> true) ?(fail_at = -1)
    ?(raise_at = -1) () =
  reset ();
  let d = X.create ~label:"walk" { Config.default with backup_period = 4 } in
  let w = { validated = []; stepped = []; result = None; raised = false } in
  let state = ref (false, -2) in
  Fun.protect
    ~finally:(fun () -> X.destroy ~force:true d)
    (fun () ->
      Sched.run (Sched.Fibers { seed = 1; switch_every = 1 }) ~nthreads:1
        (fun _ ->
          let h = X.register d in
          let bh = X.brcu h in
          let fired = ref false in
          let hit () =
            if not !fired then begin
              fired := true;
              ignore
                (Signal.send bh.B.l.B.box ~is_out:(fun () -> false)
                  : Signal.outcome)
            end
          in
          let blks = Array.init (walk_n + 1) (fun _ -> Alloc.block ()) in
          let prot = Array.init 2 (fun _ -> X.new_shield h) in
          let backup = Array.init 2 (fun _ -> X.new_shield h) in
          let protect sh c =
            if aim = Torn_checkpoint c then hit ();
            X.protect sh.(0) (Some blks.(c));
            X.protect sh.(1) (Some blks.(c))
          in
          let init () =
            if aim = In_init then hit ();
            X.deref h blks.(0);
            0
          in
          let step c =
            w.stepped <- c :: w.stepped;
            if aim = Mid_step c then hit ();
            X.deref h blks.(c);
            if c = raise_at then raise Exit;
            if c = fail_at then Smr.Fail
            else if c = walk_n then Smr.Finish (c, c * 7)
            else Smr.Continue (c + 1)
          in
          let validate c =
            w.validated <- c :: w.validated;
            validate c
          in
          Fun.protect
            ~finally:(fun () ->
              state := (B.in_cs bh, Atomic.get bh.B.l.B.epoch);
              Array.iter X.clear prot;
              Array.iter X.clear backup;
              X.unregister h)
            (fun () ->
              match
                X.traverse h ~prot ~backup ~protect ~validate ~init ~step
              with
              | r ->
                  w.result <-
                    Option.map (fun (c, win, r) -> (c, win == prot, r)) r
              | exception Exit -> w.raised <- true));
      (w, X.stats d, !state))

let check_out name (in_cs, epoch) =
  Alcotest.(check bool) (name ^ ": status Out") false in_cs;
  Alcotest.(check int) (name ^ ": epoch ⊥") (-1) epoch

let result_t = Alcotest.(option (triple int bool int))

(* On an n-node walk every node is stepped from once and the destination
   once more; one body execution, no rollback. *)
let test_traverse_counts () =
  let w, st, state = run_walk () in
  Alcotest.check result_t "reaches the destination in prot" (Some (10, true, 70))
    w.result;
  Alcotest.(check int) "traverses" 1 st.Stats.traverses;
  Alcotest.(check int) "steps = n+1" (walk_n + 1) st.Stats.traverse_steps;
  Alcotest.(check int) "resumes" 1 st.Stats.traverse_resumes;
  Alcotest.(check int) "rollbacks" 0 st.Stats.rollbacks;
  Alcotest.(check (list int)) "no revalidation" [] w.validated;
  check_out "done" state

(* A rollback at each point resumes from the last complete checkpoint:
   re-init when the entry point was never fully protected, otherwise
   revalidate the cursor that [comp] names and walk on from it. *)
let test_traverse_rollback_resumes () =
  let cases =
    [
      ("init", In_init, [], 0);
      ("mid-step", Mid_step 6, [ 4 ], 4);
      ("torn checkpoint", Torn_checkpoint 8, [ 4 ], 4);
      ("finish checkpoint", Torn_checkpoint 10, [ 8 ], 8);
    ]
  in
  List.iter
    (fun (name, aim, revalidated, from) ->
      let w, st, state = run_walk ~aim () in
      Alcotest.check result_t (name ^ ": result") (Some (10, true, 70)) w.result;
      Alcotest.(check int) (name ^ ": one rollback") 1 st.Stats.rollbacks;
      Alcotest.(check int)
        (name ^ ": resumes = 1 + rollbacks")
        (1 + st.Stats.rollbacks) st.Stats.traverse_resumes;
      Alcotest.(check (list int)) (name ^ ": revalidated") revalidated
        w.validated;
      (* The walk after the rollback starts from [from] and runs straight
         to the destination. *)
      let after = List.rev (List.filteri (fun i _ -> i <= walk_n - from) w.stepped) in
      Alcotest.(check (list int))
        (name ^ ": walks on from the checkpoint")
        (List.init (walk_n - from + 1) (fun i -> from + i))
        after;
      check_out name state)
    cases

(* Every way out other than Finish leaves the section cleanly: status
   Out and epoch ⊥, so the reader no longer holds back reclamation. *)
let test_traverse_exits_clean () =
  let w, _, state = run_walk ~fail_at:5 () in
  Alcotest.check result_t "Fail: None" None w.result;
  check_out "Fail" state;
  let w, st, state = run_walk ~aim:(Mid_step 6) ~validate:(fun _ -> false) () in
  Alcotest.check result_t "failed validation: None" None w.result;
  Alcotest.(check (list int)) "revalidated the checkpoint" [ 4 ] w.validated;
  Alcotest.(check int) "validate_failures" 1 st.Stats.validate_failures;
  check_out "failed validation" state;
  let w, st, state = run_walk ~raise_at:5 () in
  Alcotest.(check bool) "raising step: propagates" true w.raised;
  Alcotest.(check int) "raising step: steps still counted" 6
    st.Stats.traverse_steps;
  check_out "raising step" state

let test_poll_no_alloc () =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      B.poll h;
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        B.poll h
      done;
      let w1 = Gc.minor_words () in
      B.unregister h;
      Alcotest.(check bool)
        (Printf.sprintf "10k polls allocate %.0f minor words" (w1 -. w0))
        true
        (w1 -. w0 < 16.))

let () =
  Alcotest.run "brcu"
    [
      ( "crit",
        [
          Alcotest.test_case "returns" `Quick test_crit_returns;
          Alcotest.test_case "reraises" `Quick test_crit_reraises;
          Alcotest.test_case "rollback-reruns" `Quick test_rollback_reruns_body;
        ] );
      ( "signals",
        [
          Alcotest.test_case "selective" `Quick test_selective_signal;
          Alcotest.test_case "mask-defers" `Quick test_mask_defers_rollback;
          Alcotest.test_case "defer-waits" `Quick test_defer_waits_for_cs;
        ] );
      ("bound", [ Alcotest.test_case "2GN+GN2+H" `Quick test_hpbrcu_bound ]);
      ( "traverse",
        [
          Alcotest.test_case "counts" `Quick test_traverse_counts;
          Alcotest.test_case "rollback-resumes" `Quick
            test_traverse_rollback_resumes;
          Alcotest.test_case "exits-clean" `Quick test_traverse_exits_clean;
          Alcotest.test_case "poll-no-alloc" `Quick test_poll_no_alloc;
        ] );
    ]
