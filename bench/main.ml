(* The benchmark suite: regenerates every table and figure of the paper.

   Part 1 — the figure harness (quick profile): Tables 1-2 and Figures 1,
   5, 6, 7 end to end, with CSVs under results/.

   Part 2 — ablations of the design parameters called out in DESIGN.md §5:
   max_steps (HP-RCU), backup_period and force_threshold (HP-BRCU), the
   retirement batch (NBR vs NBR-Large axis), double buffering on/off, and
   robustness against injected stalls (Table 2's first row).

   The per-operation kernels (Table 2's crit/protect/retire costs and the
   structure kernels of Figures 1, 5 and 7) are rows of the kernel table:
   [smrbench bench-reclaim].

   Run:  dune exec bench/main.exe            (everything)
         dune exec bench/main.exe -- figures   (just part 1), ablations *)

module W = Hpbrcu_workload
module Sched = Hpbrcu_runtime.Sched
module Config = Hpbrcu_core.Config
module Stats = Hpbrcu_runtime.Stats
module Schemes = Hpbrcu_schemes.Schemes

(* ------------------------------------------------------------------ *)
(* Part 2: ablations                                                   *)
(* ------------------------------------------------------------------ *)

(* [name]'s long-running-read cell under [config], on the list
   {!W.Matrix.bucket_list} picks for the scheme. *)
let longrun_with name config range =
  let cfg =
    W.Longrun.config ~key_range:range ~readers:4 ~writers:4 ~duration:0.25
      ~mode:(W.Spec.Fibers 7) ~seed:42 ()
  in
  let ((module X : Hpbrcu_core.Smr_intf.SCHEME), _) as s =
    W.Matrix.find_scheme name
  in
  let module B = (val W.Matrix.buckets s) in
  let module R = W.Longrun.Run (X) (B (X)) in
  R.go cfg ~config

let ablation_max_steps () =
  Fmt.pr "@.== ablation: HP-RCU max_steps (range 4096) ==@.";
  Fmt.pr "  %-10s %12s %8s@." "max_steps" "reads Mop/s" "peak";
  List.iter
    (fun ms ->
      let o =
        longrun_with "HP-RCU"
          { Schemes.small_cfg with Config.max_steps = ms }
          4096
      in
      Fmt.pr "  %-10d %12.4f %8d@." ms o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed)
    [ 4; 16; 64; 256; 4096 ]

let ablation_backup_period () =
  Fmt.pr "@.== ablation: HP-BRCU backup_period (range 4096) ==@.";
  Fmt.pr "  %-10s %12s %8s %10s@." "period" "reads Mop/s" "peak" "rollbacks";
  List.iter
    (fun bp ->
      let o =
        longrun_with "HP-BRCU"
          { Schemes.small_cfg with Config.backup_period = bp }
          4096
      in
      Fmt.pr "  %-10d %12.4f %8d %10d@." bp o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed o.W.Longrun.scheme.Stats.rollbacks)
    [ 4; 16; 64; 256; 4096 ]

let ablation_force_threshold () =
  Fmt.pr "@.== ablation: HP-BRCU force_threshold (range 4096) ==@.";
  Fmt.pr "  %-10s %12s %8s %10s@." "threshold" "reads Mop/s" "peak" "signals";
  List.iter
    (fun ft ->
      let o =
        longrun_with "HP-BRCU"
          { Schemes.small_cfg with Config.force_threshold = ft }
          4096
      in
      Fmt.pr "  %-10d %12.4f %8d %10d@." ft o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed o.W.Longrun.scheme.Stats.signals)
    [ 1; 2; 8; 32; 1024 ]

let ablation_nbr_batch () =
  Fmt.pr "@.== ablation: NBR batch (the NBR vs NBR-Large axis, range 2048) ==@.";
  Fmt.pr "  %-10s %12s %8s %10s@." "batch" "reads Mop/s" "peak" "signals";
  List.iter
    (fun b ->
      let o =
        longrun_with "NBR"
          { Schemes.small_cfg with Config.batch = b }
          2048
      in
      Fmt.pr "  %-10d %12.4f %8d %10d@." b o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed o.W.Longrun.scheme.Stats.signals)
    [ 32; 128; 1024; 8192 ]

let ablation_double_buffering () =
  Fmt.pr "@.== ablation: HP-BRCU double buffering (range 2048, aggressive signals) ==@.";
  Fmt.pr "  %-10s %12s %8s %12s@." "buffers" "reads Mop/s" "peak" "uaf-detected";
  (* Maximum signal pressure (signal on every flush, tiny batches, frequent
     checkpoints) plus injected stalls, so that a neutralization lands
     inside a checkpoint — after a stall — often enough to tear a
     single-buffered protector within the measurement window. *)
  List.iter
    (fun db ->
      let config =
        {
          Schemes.small_cfg with
          Config.double_buffering = db;
          force_threshold = 1;
          max_local_tasks = 4;
          backup_period = 4;
        }
      in
      Sched.set_stall_inject ~period:500 ~ticks:50000;
      let o = longrun_with "HP-BRCU" config 2048 in
      Sched.set_stall_inject ~period:0 ~ticks:0;
      Fmt.pr "  %-10s %12.4f %8d %12d@."
        (if db then "double" else "single")
        o.W.Longrun.reader_tput o.W.Longrun.peak_unreclaimed o.W.Longrun.uaf)
    [ true; false ]

(* Robustness against stalled readers (Table 2 row 1): inject virtual-time
   stalls inside reader critical sections and watch who keeps the peak
   bounded.  HP-RCU (no signals) lets a stalled reader block reclamation;
   HP-BRCU neutralizes it. *)
let ablation_stalls () =
  Fmt.pr "@.== extension: stalled readers (stall injected mid-operation) ==@.";
  Fmt.pr "  %-10s %12s %8s@." "scheme" "reads Mop/s" "peak";
  let run name =
    Sched.set_stall_inject ~period:2000 ~ticks:20000;
    let cfg =
      W.Longrun.config ~key_range:2048 ~readers:4 ~writers:4 ~duration:0.25
        ~mode:(W.Spec.Fibers 13) ~seed:21 ()
    in
    let o = W.Longrun.run ~scheme:name cfg in
    Sched.set_stall_inject ~period:0 ~ticks:0;
    Fmt.pr "  %-10s %12.4f %8d@." name o.W.Longrun.reader_tput
      o.W.Longrun.peak_unreclaimed
  in
  List.iter run [ "RCU"; "HP-RCU"; "HP-BRCU"; "HP" ]

let run_ablations () =
  ablation_max_steps ();
  ablation_backup_period ();
  ablation_force_threshold ();
  ablation_nbr_batch ();
  ablation_double_buffering ();
  ablation_stalls ()

(* ------------------------------------------------------------------ *)
(* Part 1 driver + main                                                *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  let p = W.Figures.quick in
  W.Figures.table1 ();
  W.Figures.table2 ();
  W.Figures.fig1 p;
  W.Figures.fig5 p;
  W.Figures.fig6 p;
  W.Figures.fig7 p

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match what with
  | "figures" -> run_figures ()
  | "ablations" -> run_ablations ()
  | _ ->
      run_figures ();
      run_ablations ());
  Fmt.pr "@.bench done.@."
