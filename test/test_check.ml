(* The hunt harness (lib/check, DESIGN.md §11): schedule recording and
   replay, the safety oracles, the shrinker's contract, repro artifacts,
   and the mutation-testing gate that keeps the whole thing honest. *)

module Fault = Hpbrcu_runtime.Fault
module Alloc = Hpbrcu_alloc.Alloc
module Registry = Hpbrcu_schemes.Registry
module Chaos = Hpbrcu_workload.Chaos
module Schedule = Hpbrcu_check.Schedule
module Oracle = Hpbrcu_check.Oracle
module Runner = Hpbrcu_check.Runner
module Shrink = Hpbrcu_check.Shrink
module Repro = Hpbrcu_check.Repro
module Hunt = Hpbrcu_check.Hunt

(* Dune runs tests from _build/default/test; the checked-in corpus is a
   declared dep one level up. *)
let repro_path name =
  List.find Sys.file_exists
    [
      Filename.concat "repros" name;
      Filename.concat (Filename.concat ".." "repros") name;
      Filename.concat (Filename.concat (Filename.concat ".." "..") "repros") name;
    ]

let corpus = [ "nomask-leak-small.repro"; "nomask-leak-fuzzed.repro"; "nodb-uaf.repro" ]

(* ------------------------------------------------------------------ *)
(* Satellite: Fault plan serialization                                 *)
(* ------------------------------------------------------------------ *)

let all_actions_plan =
  {
    Fault.label = "roundtrip";
    rules =
      [
        { Fault.site = Yield; tid = -1; start = 40; period = 7; action = Stall 300 };
        { Fault.site = Yield; tid = 2; start = 800; period = 0; action = Crash };
        { Fault.site = Signal_send; tid = 0; start = 2; period = 5; action = Drop_signal };
        { Fault.site = Signal_send; tid = -1; start = 0; period = 3; action = Delay_signal 90 };
        { Fault.site = Pool_acquire; tid = 1; start = 10; period = 2; action = Exhaust_pool };
      ];
  }

let test_fault_roundtrip () =
  let p = all_actions_plan in
  Alcotest.(check bool) "string roundtrip" true (Fault.of_string (Fault.to_string p) = p);
  let tmp = Filename.temp_file "plan" ".fault" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Fault.to_file tmp p;
      Alcotest.(check bool) "file roundtrip" true (Fault.of_file tmp = p));
  Alcotest.(check bool) "empty plan roundtrips" true
    (Fault.of_string (Fault.to_string Fault.no_faults) = Fault.no_faults)

let test_oracle_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Oracle.tag f ^ " roundtrips")
        true
        (Oracle.of_string (Oracle.to_string f) = f))
    [
      Oracle.Uaf { count = 3; poisoned = 2 };
      Oracle.Double_retire 1;
      Oracle.Double_reclaim 4;
      Oracle.Bound_exceeded { peak = 99; bound = 64 };
      Oracle.Leak { lost = 2 };
      Oracle.Lost_signal { pending = 1 };
    ]

(* ------------------------------------------------------------------ *)
(* Satellite: typed registry exhaustion                                *)
(* ------------------------------------------------------------------ *)

let test_registry_exhausted () =
  let t = Registry.Shields.create () in
  let shields =
    Array.init Registry.Shields.max_shields (fun _ -> Registry.Shields.alloc t)
  in
  (match Registry.Shields.alloc t with
  | exception Registry.Exhausted _ -> ()
  | _ -> Alcotest.fail "expected typed Exhausted");
  Alcotest.(check bool) "try_alloc drained" true (Registry.Shields.try_alloc t = None);
  Registry.Shields.release shields.(0);
  Alcotest.(check bool) "release frees a slot" true
    (Registry.Shields.try_alloc t <> None);
  let pt = Registry.Participants.create () in
  for i = 1 to Registry.Participants.capacity do
    ignore (Registry.Participants.add pt i : int)
  done;
  (match Registry.Participants.add pt 0 with
  | exception Registry.Exhausted _ -> ()
  | _ -> Alcotest.fail "expected typed Exhausted");
  Alcotest.(check bool) "try_add drained" true
    (Registry.Participants.try_add pt 0 = None)

(* ------------------------------------------------------------------ *)
(* Satellite: allocator poisoning                                      *)
(* ------------------------------------------------------------------ *)

let test_poisoning () =
  Alloc.reset ();
  Alloc.set_strict false;
  Alloc.set_poisoning true;
  Fun.protect
    ~finally:(fun () ->
      Alloc.set_poisoning false;
      Alloc.set_strict true;
      Alloc.reset ())
    (fun () ->
      let b = Alloc.block () in
      Alloc.retire b;
      Alloc.reclaim b;
      Alloc.check_access b;
      let st = Alloc.stats () in
      Alcotest.(check int) "uaf counted" 1 st.Alloc.uaf;
      Alcotest.(check int) "poison stamp proves the incarnation" 1
        st.Alloc.poisoned_reads;
      (* An abandoned block is poisoned too. *)
      let b2 = Alloc.block () in
      Alloc.abandon b2;
      Alloc.check_access b2;
      Alcotest.(check int) "abandon poisons" 2 (Alloc.stats ()).Alloc.poisoned_reads)

(* ------------------------------------------------------------------ *)
(* Schedule recording / replay / odometer                              *)
(* ------------------------------------------------------------------ *)

let small_case scheme seed =
  {
    Runner.scheme;
    seed;
    p =
      {
        Chaos.key_range = 32;
        hot_width = 4;
        readers = 1;
        writers = 2;
        reader_ops = 10;
        writer_ops = 40;
        tick_budget = 500_000;
      };
    plan = Fault.no_faults;
    spec = Schedule.Rand;
  }

let test_run_determinism () =
  let case = small_case "HP-BRCU" 11 in
  let o1, l1 = Runner.run ~traced:true case in
  let o2, l2 = Runner.run ~traced:true case in
  Alcotest.(check bool) "same outcome" true (o1 = o2);
  Alcotest.(check bool) "byte-identical logs" true (l1 = l2);
  Alcotest.(check bool) "branching decisions recorded" true
    (Array.length o1.Runner.recording.Schedule.decisions > 0);
  (* Pinning the schedule replays the exact run: same decisions, same log. *)
  let pinned = Runner.pin case o1 in
  let o3, l3 = Runner.run ~traced:true pinned in
  Alcotest.(check bool) "pinned replay reproduces the log" true (l1 = l3);
  Alcotest.(check bool) "pinned replay reproduces the decisions" true
    (Schedule.prefix_of o1.Runner.recording = Schedule.prefix_of o3.Runner.recording)

let test_dfs_odometer () =
  let r d =
    {
      Schedule.decisions =
        Array.of_list (List.map (fun (c, a) -> { Schedule.choice = c; arity = a }) d);
      overflowed = false;
    }
  in
  (* Deepest decision with an unexplored sibling advances; suffix drops. *)
  Alcotest.(check bool) "advance deepest" true
    (Schedule.next_dfs_prefix ~depth:3 (r [ (0, 2); (1, 3); (0, 2) ]) [||]
    = Some [| 0; 1; 1 |]);
  (* Saturated decisions backtrack. *)
  Alcotest.(check bool) "backtrack" true
    (Schedule.next_dfs_prefix ~depth:3 (r [ (0, 2); (2, 3); (1, 2) ]) [| 0; 2; 1 |]
    = Some [| 1 |]);
  (* Fully saturated subtree is exhausted. *)
  Alcotest.(check bool) "exhausted" true
    (Schedule.next_dfs_prefix ~depth:2 (r [ (1, 2); (2, 3); (0, 9) ]) [| 1; 2 |]
    = None);
  (* The depth bound ignores deeper decisions. *)
  Alcotest.(check bool) "depth bound" true
    (Schedule.next_dfs_prefix ~depth:1 (r [ (1, 2); (0, 3) ]) [| 1 |] = None)

(* ------------------------------------------------------------------ *)
(* Repro corpus: every checked-in counterexample must still convict    *)
(* ------------------------------------------------------------------ *)

let test_corpus () =
  List.iter
    (fun name ->
      let r = Repro.of_file (repro_path name) in
      (* The artifact text itself roundtrips. *)
      Alcotest.(check bool) (name ^ " parses back") true
        (Repro.of_string (Repro.to_string r) = r);
      let v = Repro.replay r in
      Alcotest.(check bool) (name ^ " reproduced") true v.Repro.reproduced;
      Alcotest.(check bool) (name ^ " deterministic") true v.Repro.deterministic;
      Alcotest.(check bool) (name ^ " no trace divergence") true
        (v.Repro.divergence = None))
    corpus

(* ------------------------------------------------------------------ *)
(* Shrinker contract                                                   *)
(* ------------------------------------------------------------------ *)

let test_shrinker () =
  let r = Repro.of_file (repro_path "nomask-leak-small.repro") in
  let case = r.Repro.case in
  let outcome, _ = Runner.run case in
  Alcotest.(check bool) "corpus case fails" true (Runner.failed outcome);
  let s1 = Shrink.shrink ~budget:80 case outcome in
  let s2 = Shrink.shrink ~budget:80 case outcome in
  (* Deterministic: same case, same budget, same minimum. *)
  Alcotest.(check bool) "shrinking is deterministic" true
    (s1.Shrink.case = s2.Shrink.case);
  (* The minimum still fails with the original finding kind. *)
  let kinds o = List.map Oracle.tag o.Runner.findings in
  Alcotest.(check bool) "shrunk case still fails" true
    (List.exists (fun t -> List.mem t (kinds outcome)) (kinds s1.Shrink.outcome));
  let o', _ = Runner.run s1.Shrink.case in
  Alcotest.(check bool) "shrunk case fails on re-run" true
    (List.exists (fun t -> List.mem t (kinds outcome)) (kinds o'));
  (* And replays byte-identically, like any repro. *)
  let v =
    Repro.replay
      { Repro.case = s1.Shrink.case; finding = List.hd s1.Shrink.outcome.Runner.findings }
  in
  Alcotest.(check bool) "shrunk repro deterministic" true
    (v.Repro.reproduced && v.Repro.deterministic)

(* ------------------------------------------------------------------ *)
(* The mutation gate, in miniature                                     *)
(* ------------------------------------------------------------------ *)

let quiet = ignore

let test_mutants_convicted () =
  (* Budgets sized ~2.5x the observed conviction depth of each pairing
     (rand finds the nomask leak, pct the nodb use-after-free). *)
  let nomask =
    Hunt.run
      { (Hunt.default_config ~scheme:"HP-BRCU!nomask" ~strategy:`Rand ~seed:2 ~runs:60)
        with Hunt.shrink_budget = 60; log = quiet }
  in
  (match nomask.Hunt.finding with
  | None -> Alcotest.fail "nomask mutant not convicted"
  | Some f ->
      Alcotest.(check string) "nomask convicted of the leak" "leak"
        (Oracle.tag f.Hunt.repro.Repro.finding);
      let v = Repro.replay f.Hunt.repro in
      Alcotest.(check bool) "nomask repro replays" true
        (v.Repro.reproduced && v.Repro.deterministic));
  let nodb =
    Hunt.run
      { (Hunt.default_config ~scheme:"HP-BRCU!nodb"
           ~strategy:(Hunt.strategy_of_string "pct") ~seed:1 ~runs:50)
        with Hunt.shrink_budget = 60; log = quiet }
  in
  match nodb.Hunt.finding with
  | None -> Alcotest.fail "nodb mutant not convicted"
  | Some f ->
      Alcotest.(check string) "nodb convicted of the use-after-free" "uaf"
        (Oracle.tag f.Hunt.repro.Repro.finding)

let test_real_schemes_silent () =
  List.iter
    (fun scheme ->
      let r =
        Hunt.run
          { (Hunt.default_config ~scheme ~strategy:`Rand ~seed:1 ~runs:30) with
            Hunt.log = quiet }
      in
      Alcotest.(check bool) (scheme ^ " clean") true (Hunt.clean r))
    [ "RCU"; "HP-BRCU" ]

let test_dfs_strategy () =
  let r =
    Hunt.run
      { (Hunt.default_config ~scheme:"RCU" ~strategy:`Dfs ~seed:3 ~runs:120) with
        Hunt.log = quiet }
  in
  Alcotest.(check bool) "dfs finds nothing in RCU" true (Hunt.clean r);
  Alcotest.(check bool) "dfs ran" true (r.Hunt.cases_run > 1)

(* ------------------------------------------------------------------ *)
(* Domain lifetime: every harness destroys the domains of its cell     *)
(* ------------------------------------------------------------------ *)

module W = Hpbrcu_workload

(* After each harness returns, no reclamation domain may still hold an
   allocator watermark slot: the cell's domains die with the cell. *)
let no_live_domains what =
  Alcotest.(check (list string))
    (what ^ " leaves no live domain") []
    (List.map (fun (_, label, _, _) -> label) (Alloc.Owner.snapshot ()))

let test_domains_die_with_cells () =
  no_live_domains "startup";
  let cell =
    W.Spec.cell ~threads:3 ~key_range:64 ~workload:W.Spec.Read_write
      ~limit:(W.Spec.Ops 100) ~mode:(W.Spec.Fibers 3) ~seed:3 ()
  in
  ignore (W.Matrix.run_cell ~ds:Hpbrcu_core.Caps.HashMap ~scheme:"HP-BRCU" cell);
  no_live_domains "Matrix.run_cell (fibers)";
  ignore
    (W.Chaos.run_one ~scheme:"RCU" ~plan_id:W.Chaos.Crash_reader ~seed:1
       W.Chaos.quick);
  no_live_domains "Chaos.run_one";
  ignore
    (W.Longrun.run ~scheme:"HP-BRCU"
       (W.Longrun.config ~key_range:256 ~duration:0.05 ~mode:(W.Spec.Fibers 2)
          ()));
  no_live_domains "a Longrun cell";
  ignore
    (W.Sampler.run
       {
         W.Sampler.default_params with
         duration = 0.1;
         stall_after = 0.02;
         heal_after = 0.05;
         key_range = 128;
       });
  no_live_domains "a Sampler run";
  ignore (Runner.run (small_case "HP-BRCU" 5));
  no_live_domains "a hunt case"

let () =
  Alcotest.run "check"
    [
      ( "serialization",
        [
          Alcotest.test_case "fault plans roundtrip" `Quick test_fault_roundtrip;
          Alcotest.test_case "oracle findings roundtrip" `Quick test_oracle_roundtrip;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "registry exhaustion is typed" `Quick
            test_registry_exhausted;
          Alcotest.test_case "poisoning classifies freed reads" `Quick
            test_poisoning;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "runs are pure functions of the case" `Quick
            test_run_determinism;
          Alcotest.test_case "dfs odometer" `Quick test_dfs_odometer;
        ] );
      ( "repros",
        [
          Alcotest.test_case "checked-in corpus reproduces" `Quick test_corpus;
          Alcotest.test_case "shrinker is deterministic and sound" `Quick
            test_shrinker;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "domains die with their cells" `Quick
            test_domains_die_with_cells;
        ] );
      ( "mutation-gate",
        [
          Alcotest.test_case "planted mutants convicted" `Quick
            test_mutants_convicted;
          Alcotest.test_case "real schemes stay silent" `Quick
            test_real_schemes_silent;
          Alcotest.test_case "bounded dfs explores and terminates" `Quick
            test_dfs_strategy;
        ] );
    ]
