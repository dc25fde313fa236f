(* smrbench — command-line driver for every experiment in the paper.

   Examples:
     smrbench fig1                      # Figure 1, quick profile
     smrbench fig7 --profile full       # Figure 7, longer cells
     smrbench appendix --workload wo    # Appendix write-only grid
     smrbench sweep --ds SkipList --workload rw --range 16384
     smrbench longrun --scheme HP-BRCU --range 8192
     smrbench table1 table2             # applicability/criteria tables *)

open Cmdliner
module W = Hpbrcu_workload

let profile_of_string = function
  | "quick" -> W.Figures.quick
  | "full" -> W.Figures.full
  | "sim" | "intel" -> W.Figures.sim
  | s -> invalid_arg ("unknown profile: " ^ s)

let profile_arg =
  let doc = "Measurement profile: quick (default), full, or sim (fiber simulator; plays the second machine)." in
  Arg.(value & opt string "quick" & info [ "profile"; "p" ] ~doc)

(* The substrate switch (ISSUE 8).  Historically a [Spec.Domains] profile
   was silently rewritten to fibers in the longrun command; now the
   substrate is an explicit flag and the rewrite is gone. *)
let mode_of_string = function
  | "fibers" -> `Fibers
  | "domains" -> `Domains
  | s -> invalid_arg ("unknown mode: " ^ s ^ " (expected fibers|domains)")

let mode_arg =
  let doc =
    "Execution substrate: $(b,fibers) (default; the deterministic \
     simulator) or $(b,domains) (real Domain.spawn workers; thread sweeps \
     are clamped to the hardware's parallelism)."
  in
  Arg.(value & opt string "fibers" & info [ "mode" ] ~docv:"SUBSTRATE" ~doc)

let outdir_arg =
  let doc = "Directory for CSV outputs." in
  Arg.(value & opt string "results" & info [ "outdir" ] ~doc)

let stats_json_arg =
  let doc =
    "Write one machine-readable JSON record per experiment cell (throughput, \
     peak unreclaimed, op-latency p50/p90/p99/max, typed scheme counters) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let setup outdir stats_json =
  W.Report.outdir := outdir;
  match stats_json with
  | None -> ()
  | Some path -> (
      try W.Report.set_stats_json path
      with Sys_error msg ->
        Printf.eprintf "smrbench: cannot write --stats-json file: %s\n" msg;
        exit 1)

let with_profile f profile mode outdir stats_json =
  setup outdir stats_json;
  f (W.Figures.with_mode (profile_of_string profile) (mode_of_string mode));
  W.Report.write_stats_json ();
  0

let simple_cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (with_profile f) $ profile_arg $ mode_arg $ outdir_arg
      $ stats_json_arg)

let fig1_cmd = simple_cmd "fig1" "Figure 1: long-running reads, headline schemes" W.Figures.fig1
let fig5_cmd = simple_cmd "fig5" "Figure 5: read-only thread sweeps" W.Figures.fig5
let fig6_cmd = simple_cmd "fig6" "Figures 6/22: long-running reads, all schemes" W.Figures.fig6
let fig7_cmd = simple_cmd "fig7" "Figure 7: write-heavy thread sweeps" W.Figures.fig7

let appendix_cmd =
  let workload_arg =
    let doc = "Restrict to one workload (wo|rw|ri|ro)." in
    Arg.(value & opt (some string) None & info [ "workload"; "w" ] ~doc)
  in
  let ds_arg =
    let doc = "Restrict to one data structure." in
    Arg.(value & opt (some string) None & info [ "ds" ] ~doc)
  in
  let range_arg =
    let doc = "Restrict to small or large key ranges." in
    Arg.(value & opt (some string) None & info [ "range" ] ~doc)
  in
  let run profile mode outdir stats_json wl ds range =
    setup outdir stats_json;
    let p = W.Figures.with_mode (profile_of_string profile) (mode_of_string mode) in
    let workloads =
      match wl with
      | None -> [ W.Spec.Write_only; W.Spec.Read_write; W.Spec.Read_intensive; W.Spec.Read_only ]
      | Some s -> [ W.Spec.workload_of_string s ]
    in
    let dss =
      match ds with
      | None -> Hpbrcu_core.Caps.all_ds
      | Some s -> [ W.Matrix.ds_of_string s ]
    in
    let ranges =
      match range with
      | None -> [ `Small; `Large ]
      | Some "small" -> [ `Small ]
      | Some "large" -> [ `Large ]
      | Some s -> invalid_arg ("unknown range: " ^ s)
    in
    W.Figures.appendix ~workloads ~dss ~ranges p;
    W.Report.write_stats_json ();
    0
  in
  Cmd.v
    (Cmd.info "appendix" ~doc:"Appendix B/C grids (figures 8-36)")
    Term.(
      const run $ profile_arg $ mode_arg $ outdir_arg $ stats_json_arg
      $ workload_arg $ ds_arg $ range_arg)

let sweep_cmd =
  let ds_arg =
    Arg.(required & opt (some string) None & info [ "ds" ] ~doc:"Data structure.")
  in
  let wl_arg =
    Arg.(value & opt string "rw" & info [ "workload"; "w" ] ~doc:"Workload (wo|rw|ri|ro).")
  in
  let range_arg =
    Arg.(value & opt int 1024 & info [ "range" ] ~doc:"Key range.")
  in
  let run profile mode outdir stats_json ds wl range =
    setup outdir stats_json;
    let p = W.Figures.with_mode (profile_of_string profile) (mode_of_string mode) in
    W.Figures.sweep
      ~title:(Printf.sprintf "sweep: %s %s range=%d" ds wl range)
      ~file:(Printf.sprintf "sweep_%s_%s_%d" ds wl range)
      p ~ds:(W.Matrix.ds_of_string ds)
      ~workload:(W.Spec.workload_of_string wl)
      ~key_range:range ();
    W.Report.write_stats_json ();
    0
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"One custom thread sweep")
    Term.(
      const run $ profile_arg $ mode_arg $ outdir_arg $ stats_json_arg
      $ ds_arg $ wl_arg $ range_arg)

(* Shared by the trace/chaos/longrun commands: spool the run's event log
   to FILE in the line format `smrbench analyze` ingests. *)
let trace_out_arg =
  let doc =
    "Record the run's event log and write it to $(docv) — the input format \
     of $(b,smrbench analyze).  Fiber runs spool non-lossily (tick \
     timestamps, replayable from the seed); domain runs record through the \
     per-domain flight rings (lossy-but-counted, calibrated ns timestamps, \
     GC track included)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let longrun_cmd =
  let scheme_arg =
    Arg.(value & opt (some string) None & info [ "scheme" ] ~doc:"Single scheme (default: Figure 1 set).")
  in
  let range_arg =
    Arg.(value & opt (some int) None & info [ "range" ] ~doc:"Single key range.")
  in
  let run profile mode_s outdir stats_json scheme range trace_out =
    setup outdir stats_json;
    let p =
      W.Figures.with_mode (profile_of_string profile) (mode_of_string mode_s)
    in
    let p =
      match range with
      | None -> p
      | Some r -> { p with W.Figures.longrun_ranges = [ r ] }
    in
    match trace_out with
    | Some out ->
        (* One traced cell; the grid forms make no sense with a single
           trace.  Under fibers the non-lossy spool is timestamped by the
           deterministic tick clock (a pure function of the seed); under
           domains the flight recorder (DESIGN.md §15) captures
           per-domain rings merged into calibrated CLOCK_MONOTONIC ns
           with the GC track riding along — this used to be rejected. *)
        let scheme = Option.value scheme ~default:"HP-BRCU" in
        let range =
          match p.W.Figures.longrun_ranges with r :: _ -> r | [] -> 4096
        in
        let mode = p.W.Figures.longrun_mode in
        let c =
          W.Longrun.config ~key_range:range
            ~readers:p.W.Figures.longrun_threads
            ~writers:p.W.Figures.longrun_threads
            ~duration:p.W.Figures.duration ~mode ~seed:p.W.Figures.seed ()
        in
        let o = W.Longrun.run_traced ~scheme ~out c in
        Printf.printf
          "wrote %s (%s, range %d, reader %.3f / writer %.3f Mop/s, peak \
           unreclaimed %d)\n"
          out scheme range o.W.Longrun.reader_tput o.W.Longrun.writer_tput
          o.W.Longrun.peak_unreclaimed;
        0
    | None ->
        (match scheme with
        | None -> W.Figures.fig1 p
        | Some s ->
            W.Figures.longrun_tables
              ~title:("long-running reads: " ^ s)
              ~file:("longrun_" ^ s) p [ "NR"; s ]);
        W.Report.write_stats_json ();
        0
  in
  Cmd.v
    (Cmd.info "longrun" ~doc:"Long-running-operation benchmark")
    Term.(
      const run $ profile_arg $ mode_arg $ outdir_arg $ stats_json_arg
      $ scheme_arg $ range_arg $ trace_out_arg)

let trace_cmd =
  let module T = Hpbrcu_runtime.Trace in
  let scheme_arg =
    Arg.(value & opt string "HP-BRCU" & info [ "scheme" ] ~doc:"Scheme to trace.")
  in
  let ds_arg =
    Arg.(value & opt string "HHSList" & info [ "ds" ] ~doc:"Data structure.")
  in
  let ops_arg =
    Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Operations per fiber.")
  in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads"; "t" ] ~doc:"Fiber count.")
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~doc:"Simulator seed; the trace is a pure function of it.")
  in
  let range_arg =
    Arg.(value & opt int 256 & info [ "range" ] ~doc:"Key range.")
  in
  let last_arg =
    Arg.(
      value & opt int 0
      & info [ "last" ] ~docv:"N"
          ~doc:
            "Print only the last $(docv) events the spool kept (0 = all kept). \
             The spool keeps each thread's first events, so on a run that \
             overflows it these are the tail of the kept prefix, not the \
             run's final events; the trailer counts the dropped ones.")
  in
  let run scheme ds ops threads seed range last trace_out =
    (* Always the deterministic simulator: traces are timestamped by the
       virtual tick clock, so the same seed replays the same event log,
       spooled non-lossily (analyze input with --trace-out). *)
    T.enable ();
    let cell =
      W.Spec.cell ~threads ~key_range:range ~workload:W.Spec.Read_write
        ~limit:(W.Spec.Ops ops) ~mode:(W.Spec.Fibers seed) ~seed ()
    in
    let code =
      match W.Matrix.run_cell ~ds:(W.Matrix.ds_of_string ds) ~scheme cell with
      | None ->
          Printf.eprintf "%s does not support %s\n" scheme ds;
          1
      | Some r ->
          let recs = T.dump () in
          let total = List.length recs in
          (match trace_out with
          | Some out ->
              T.to_file out recs;
              Printf.printf "# wrote %s: %d events, %d ops, seed %d\n" out
                total r.W.Spec.total_ops seed
          | None ->
              let shown =
                if last > 0 && total > last then
                  List.filteri (fun i _ -> i >= total - last) recs
                else recs
              in
              List.iter
                (fun rc -> print_endline (T.record_to_string rc))
                shown;
              Printf.printf
                "# %d events kept (%d dropped past the spool bound), %d ops, \
                 seed %d\n"
                total (T.dropped ()) r.W.Spec.total_ops seed);
          0
    in
    T.disable ();
    code
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one deterministic fiber-mode cell with the event tracer on and \
          print the decoded event log (replayable from the seed)")
    Term.(
      const run $ scheme_arg $ ds_arg $ ops_arg $ threads_arg $ seed_arg
      $ range_arg $ last_arg $ trace_out_arg)

let chaos_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~doc:"Run the grid under seeds 1..$(docv).")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Full-size cells (larger range and op budgets); default quick.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Quick cells (the default; overrides --full).")
  in
  let scheme_arg =
    Arg.(
      value & opt (some string) None
      & info [ "scheme" ]
          ~doc:"Comma-separated scheme subset (default: all twelve).")
  in
  let plan_arg =
    Arg.(
      value & opt (some string) None
      & info [ "plan" ]
          ~doc:
            "Comma-separated fault-plan subset (baseline|stall-storm|\
             crash-reader|crash-many|signal-chaos|pool-squeeze).")
  in
  let no_replay_arg =
    Arg.(
      value & flag
      & info [ "no-replay" ] ~doc:"Skip the traced determinism probes.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Domains mode only: restrict the grid to the RCU / HP-BRCU \
             schemes under the baseline and crash-reader plans (the CI \
             hardware gate).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ]
          ~doc:
            "Domains mode only: minimum RCU / HP-BRCU crashed-reader peak \
             ratio for the hardware discriminator gate (default 4; armed \
             only on >= 2 hardware threads).")
  in
  let baseline_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline-out" ] ~docv:"FILE"
          ~doc:
            "Domains mode only: append the grid's cells and discriminator \
             ratios as a chaos-domains JSON document to $(docv) (advisory \
             baseline, e.g. BENCH_domains.json).")
  in
  let split s = String.split_on_char ',' s |> List.map String.trim in
  let run mode seeds full quick scheme plan no_replay smoke threshold
      baseline_out trace_out =
    let substrate = mode_of_string mode in
    let p = if full && not quick then W.Chaos.full else W.Chaos.quick in
    let schemes =
      match scheme with None -> W.Chaos.all_schemes | Some s -> split s
    in
    let plans =
      match plan with
      | None -> W.Chaos.all_plans
      | Some s -> List.map W.Chaos.plan_of_name (split s)
    in
    match substrate with
    | `Domains -> (
        (match trace_out with
        | Some _ ->
            Printf.eprintf "%s\n"
              (W.Spec.fiber_only_msg ~who:"smrbench chaos" ~what:"--trace-out"
                 ~alternative:
                   "use serve --mode domains --trace-out (flight-recorder \
                    trace) or drop --mode domains");
            exit 1
        | None -> ());
        let schemes, plans =
          if smoke then (W.Chaos.smoke_schemes, W.Chaos.smoke_plans)
          else (schemes, plans)
        in
        let threshold =
          match threshold with
          | Some t -> t
          | None -> W.Chaos.default_hw_threshold
        in
        let seeds = List.init (max 1 seeds) (fun i -> i + 1) in
        let r =
          W.Chaos.run_domains_grid ~schemes ~plans ~seeds ~threshold
            ~verbose:true p
        in
        Fmt.pr "%a" W.Chaos.pp_domains_report r;
        (match baseline_out with
        | None -> ()
        | Some path ->
            W.Chaos.write_domains_json path r;
            Fmt.pr "wrote %s@." path);
        if W.Chaos.domains_report_ok r then 0 else 1)
    | `Fibers -> (
    match trace_out with
    | Some out ->
        (* One traced cell instead of the grid: first scheme/plan/seed of
           the (possibly restricted) selection. *)
        let scheme = match schemes with s :: _ -> s | [] -> "HP-BRCU" in
        let plan_id = match plans with pl :: _ -> pl | [] -> W.Chaos.Baseline in
        let c =
          W.Chaos.run_traced_to_file ~scheme ~plan_id ~seed:1 ~out p
        in
        Fmt.pr "%a@." W.Chaos.pp_cell c;
        Fmt.pr "wrote %s@." out;
        if W.Chaos.check_cell c = [] then 0 else 1
    | None ->
        let seeds = List.init (max 1 seeds) (fun i -> i + 1) in
        let r =
          W.Chaos.run_grid ~schemes ~plans ~seeds ~replay:(not no_replay)
            ~verbose:true p
        in
        Fmt.pr "%a" W.Chaos.pp_report r;
        if W.Chaos.report_ok r then 0 else 1)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the scheme matrix under fault-injection plans \
          (crashed/stalled readers, lost signals, pool exhaustion) and check \
          the termination, safety and boundedness invariants.  Under \
          --mode fibers the plans are deterministic and byte-replayable; \
          under --mode domains they inject on real worker domains and the \
          invariants are statistical (UAF = 0, exact census, caps, and the \
          RCU vs HP-BRCU crashed-reader discriminator).")
    Term.(
      const run $ mode_arg $ seeds_arg $ full_arg $ quick_arg $ scheme_arg
      $ plan_arg $ no_replay_arg $ smoke_arg $ threshold_arg
      $ baseline_out_arg $ trace_out_arg)

let shards_cmd =
  let scheme_arg =
    Arg.(
      value & opt string "RCU"
      & info [ "scheme" ]
          ~doc:
            "Scheme whose domains shard the map (the epoch-based default \
             shows the sharpest contrast).")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~doc:"Shard (= domain) count, rounded up to a power of two.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic-schedule seed.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Accepted for compatibility: the isolation verdict always \
             drives the exit status now (any failed cell exits non-zero).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ]
          ~doc:
            "Minimum shared-domain / isolated-build peak ratio (default 8 \
             under fibers, 4 under domains — real scheduling spreads the \
             non-crashed shards' peaks).")
  in
  let quick_arg =
    Arg.(
      value & flag & info [ "quick" ] ~doc:"Reduced write budget (CI gate).")
  in
  let run profile mode outdir stats_json scheme shards seed gate threshold
      quick =
    ignore (profile : string);
    ignore (gate : bool);
    setup outdir stats_json;
    let substrate = mode_of_string mode in
    let threshold =
      match threshold with
      | Some t -> t
      | None -> (
          match substrate with
          | `Fibers -> W.Shards.default_threshold
          | `Domains -> W.Shards.default_threshold_domains)
    in
    let p = { W.Shards.default_params with shards; seed; substrate } in
    let p = if quick then W.Shards.quick p else p in
    let r = W.Shards.run_one ~threshold ~scheme p in
    Fmt.pr "%a@." W.Shards.pp r;
    W.Shards.record r;
    W.Report.write_stats_json ();
    if r.W.Shards.ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:
         "Shard-isolation experiment: a sharded hash map with one \
          reclamation domain per shard vs the same map over a single \
          shared domain, under a reader crashed inside shard 0.  Per-shard \
          unreclaimed watermarks must stay flat in the isolated build \
          while the shared build balloons.")
    Term.(
      const run $ profile_arg $ mode_arg $ outdir_arg $ stats_json_arg
      $ scheme_arg $ shards_arg $ seed_arg $ gate_arg $ threshold_arg
      $ quick_arg)

let serve_cmd =
  let module K = W.Kvservice in
  let scheme_arg =
    Arg.(
      value & opt string "RCU"
      & info [ "scheme" ] ~doc:"SMR scheme backing every shard's domain.")
  in
  let faults_arg =
    Arg.(
      value & opt string "none"
      & info [ "faults" ]
          ~doc:
            "Fault plan: none, crash-reader, crash-two, stall-storm or \
             signal-chaos.")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "watchdog" ] ~docv:"on|off"
          ~doc:"Arm the per-domain reclamation supervisor fiber.")
  in
  let no_backpressure_arg =
    Arg.(
      value & flag
      & info [ "no-backpressure" ]
          ~doc:"Disable per-domain allocation admission limits.")
  in
  let shards_arg =
    Arg.(value & opt int K.default_params.K.shards & info [ "shards" ] ~doc:"Shard (= domain) count, rounded up to a power of two.")
  in
  let keys_arg =
    Arg.(value & opt int K.default_params.K.keys & info [ "keys" ] ~doc:"Key-space size.")
  in
  let theta_arg =
    Arg.(value & opt float K.default_params.K.theta & info [ "theta" ] ~doc:"Zipf skew (0 = uniform).")
  in
  let clients_arg =
    Arg.(value & opt int K.default_params.K.clients & info [ "clients" ] ~doc:"Client fibers.")
  in
  let requests_arg =
    Arg.(value & opt int K.default_params.K.requests & info [ "requests" ] ~doc:"Requests per client.")
  in
  let mix_arg =
    Arg.(
      value
      & opt (pair ~sep:',' int int) (K.default_params.K.read_pct, K.default_params.K.write_pct)
      & info [ "mix" ] ~docv:"READ,WRITE"
          ~doc:"Read,write percentages; range scans take the remainder.")
  in
  let scan_len_arg =
    Arg.(value & opt int K.default_params.K.scan_len & info [ "scan-len" ] ~doc:"Keys per range scan.")
  in
  let churn_arg =
    Arg.(
      value & opt int K.default_params.K.churn_period
      & info [ "churn" ] ~doc:"Requests between key-space rotations (0 = off).")
  in
  let budget_arg =
    Arg.(value & opt int K.default_params.K.budget & info [ "budget" ] ~doc:"Peak-unreclaimed watermark SLO (whole service).")
  in
  let slo_p99_arg =
    Arg.(value & opt int K.default_params.K.slo_p99 & info [ "slo-p99" ] ~doc:"p99 request-latency SLO, virtual ticks.")
  in
  let slo_p999_arg =
    Arg.(value & opt int K.default_params.K.slo_p999 & info [ "slo-p999" ] ~doc:"p999 request-latency SLO, virtual ticks.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic-schedule seed.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced request budget (CI gate).")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Run the watchdog payoff cell: the same service with the \
             supervisor on then off; fails unless on stays within budget \
             (with at least one recycle), off exceeds the on-peak by the \
             ratio, both runs are UAF-free and the on-run replays \
             byte-identically.")
  in
  let ratio_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "ratio" ]
          ~doc:
            "Minimum watchdog-off / watchdog-on peak ratio (--compare; \
             default 5 under fibers, 3 under domains — real scheduling \
             reclaims opportunistically between crash and supervisor \
             round).")
  in
  let trace_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Spool the run's event log to $(docv) (v2 text format).")
  in
  let run mode outdir stats_json scheme faults watchdog no_backpressure
      shards keys theta clients requests (read_pct, write_pct) scan_len churn
      budget slo_p99 slo_p999 seed quick compare ratio trace_out =
    setup outdir stats_json;
    let substrate = mode_of_string mode in
    (* Both substrates take the full flag set now (ISSUE 10): under
       --mode domains the fault plans inject at real worker domains'
       yield points and --compare gates on the statistical off/on peak
       ratio instead of byte-replay. *)
    let p =
      {
        K.default_params with
        K.shards;
        keys;
        theta;
        clients;
        requests;
        read_pct;
        write_pct;
        scan_len;
        churn_period = churn;
        budget;
        slo_p99;
        slo_p999;
        watchdog;
        backpressure = not no_backpressure;
        seed;
      }
    in
    let p = if quick then K.quick p else p in
    let code =
      if compare then begin
        let c = K.run_compare ?ratio ~scheme ~plan:faults ~substrate p in
        Fmt.pr "%a@." K.pp_compare c;
        K.record c.K.on_run;
        K.record c.K.off_run;
        if c.K.cmp_ok then 0 else 1
      end
      else begin
        let r =
          match trace_out with
          | Some path ->
              K.run_traced_to_file ~scheme ~plan:faults ~substrate ~path p
          | None -> K.run_one ~scheme ~plan:faults ~substrate p
        in
        Fmt.pr "%a@." K.pp r;
        K.record r;
        if r.K.verdict.K.v_ok then 0 else 1
      end
    in
    W.Report.write_stats_json ();
    code
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Self-healing KV service: a sharded hash map (one reclamation \
          domain per shard) under a Zipfian read/write/range-scan mix with \
          key churn and fault plans, supervised by the per-domain watchdog \
          (nudge -> re-signal -> quarantine -> domain recycle) with \
          allocation backpressure.  Exits non-zero on any SLO miss \
          (p99/p999 latency, peak-unreclaimed watermark, UAFs).")
    Term.(
      const run $ mode_arg $ outdir_arg $ stats_json_arg $ scheme_arg
      $ faults_arg $ watchdog_arg $ no_backpressure_arg $ shards_arg
      $ keys_arg $ theta_arg $ clients_arg $ requests_arg $ mix_arg
      $ scan_len_arg $ churn_arg $ budget_arg $ slo_p99_arg $ slo_p999_arg
      $ seed_arg $ quick_arg $ compare_arg $ ratio_arg $ trace_out_arg)

let analyze_cmd =
  let module T = Hpbrcu_runtime.Trace in
  let module H = Hpbrcu_runtime.Stats.Histogram in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"TRACE"
          ~doc:
            "Spooled trace file(s), as written by --trace-out.  Pass one \
             file per scheme/run to get a side-by-side comparison.")
  in
  let perfetto_arg =
    Arg.(
      value & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Additionally export the first trace as Chrome trace-event JSON \
             (open in ui.perfetto.dev; thread tracks, critical-section / \
             checkpoint / scan / flush / op spans).")
  in
  let require_ttr_arg =
    Arg.(
      value & flag
      & info [ "require-ttr" ]
          ~doc:
            "Exit non-zero if any input trace yields zero retire->reclaim \
             pairs (smoke-test guard: an empty join means the trace or the \
             correlation ids are broken).")
  in
  let require_gc_track_arg =
    Arg.(
      value & flag
      & info [ "require-gc-track" ]
          ~doc:
            "With --perfetto: exit non-zero unless the exported JSON \
             carries the gc track plus at least one worker track (the \
             smoke-test shape of a merged domains-mode flight trace).")
  in
  let run outdir files perfetto require_ttr require_gc =
    W.Report.outdir := outdir;
    let summaries = List.map W.Analyze.of_file files in
    W.Analyze.report summaries;
    let perfetto_ok =
      match perfetto with
      | None ->
          if require_gc then
            Printf.eprintf "analyze: --require-gc-track needs --perfetto\n";
          not require_gc
      | Some f -> (
          T.perfetto_to_file f (T.read_file (List.hd files));
          (* Validate what we just wrote with the in-tree JSON parser:
             well-formed, nonzero events, and (for domains-mode smoke
             tests) the expected track population. *)
          match W.Analyze.Perfetto_check.validate f with
          | exception Failure msg ->
              Printf.eprintf "analyze: perfetto export invalid: %s\n" msg;
              false
          | v ->
              let open W.Analyze.Perfetto_check in
              Printf.printf
                "wrote %s (load in ui.perfetto.dev): %d events, tracks: %s\n"
                f v.pf_events
                (String.concat ", " v.pf_tracks);
              let workers =
                List.filter
                  (fun t -> String.length t >= 6 && String.sub t 0 6 = "worker")
                  v.pf_tracks
              in
              if v.pf_events = 0 then begin
                Printf.eprintf "analyze: perfetto export has zero events\n";
                false
              end
              else if
                require_gc && not (List.mem "gc" v.pf_tracks && workers <> [])
              then begin
                Printf.eprintf
                  "analyze: perfetto export missing the gc track or any \
                   worker track (got: %s)\n"
                  (String.concat ", " v.pf_tracks);
                false
              end
              else true)
    in
    let empties =
      List.filter (fun s -> s.W.Analyze.ttr.H.count = 0) summaries
    in
    if require_ttr && empties <> [] then begin
      List.iter
        (fun s ->
          Printf.eprintf "analyze: no retire->reclaim pairs in %s\n"
            s.W.Analyze.source)
        empties;
      1
    end
    else if not perfetto_ok then 1
    else 0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Ingest spooled traces (--trace-out) and compute time-to-reclaim \
          percentiles, grace-period latency, signal->rollback latency, \
          abort rate vs critical-section length, and the \
          unreclaimed-watermark curve (CSVs under --outdir)")
    Term.(
      const run $ outdir_arg $ files_arg $ perfetto_arg $ require_ttr_arg
      $ require_gc_track_arg)

let sample_cmd =
  let module S = W.Sampler in
  let d = S.default_params in
  let scheme_arg =
    Arg.(
      value & opt string d.S.scheme
      & info [ "scheme" ] ~doc:"SMR scheme under observation.")
  in
  let period_arg =
    Arg.(
      value & opt float d.S.period_ms
      & info [ "period-ms" ] ~docv:"N"
          ~doc:"Observer wake period in milliseconds.")
  in
  let duration_arg =
    Arg.(
      value & opt float d.S.duration
      & info [ "duration" ] ~doc:"Measured window, seconds.")
  in
  let stall_arg =
    Arg.(
      value & opt float d.S.stall_after
      & info [ "stall-at" ]
          ~doc:"Offset (seconds) at which the victim reader parks pinned.")
  in
  let heal_arg =
    Arg.(
      value & opt float d.S.heal_after
      & info [ "heal-at" ]
          ~doc:"Offset (seconds) at which the victim resumes.")
  in
  let readers_arg =
    Arg.(
      value & opt int d.S.readers
      & info [ "readers" ] ~doc:"Reader domains (tid 0 is the victim).")
  in
  let writers_arg =
    Arg.(
      value & opt int d.S.writers
      & info [ "writers" ] ~doc:"Writer domains (hot-region churn).")
  in
  let range_arg =
    Arg.(value & opt int d.S.key_range & info [ "range" ] ~doc:"Key range.")
  in
  let seed_arg =
    Arg.(value & opt int d.S.seed & info [ "seed" ] ~doc:"Workload seed.")
  in
  let out_arg =
    Arg.(
      value & opt string "sample.csv"
      & info [ "out" ] ~docv:"FILE" ~doc:"Time-series CSV output path.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the series plus curve summary as JSON.")
  in
  let run outdir stats_json scheme period_ms duration stall_at heal_at readers
      writers range seed out json =
    setup outdir stats_json;
    let p =
      {
        S.default_params with
        S.scheme;
        period_ms;
        duration;
        stall_after = stall_at;
        heal_after = heal_at;
        readers;
        writers;
        key_range = range;
        seed;
      }
    in
    let o = S.run p in
    Fmt.pr "%a@." S.pp o;
    S.to_csv out o;
    Printf.printf "wrote %s\n" out;
    (match json with
    | Some j ->
        S.to_json j o;
        Printf.printf "wrote %s\n" j
    | None -> ());
    S.record o;
    W.Report.write_stats_json ();
    if o.S.uaf = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Live stats sampling on the Domains backend: an observer domain \
          snapshots the unreclaimed watermark and scheme gauges (epoch lag, \
          signals in flight, admission waits) every --period-ms while a \
          churn workload runs with one reader parked pinned over \
          [--stall-at, --heal-at) — the peak-garbage-over-time curve that \
          separates hazard-bounded schemes from epoch-only ones under a \
          crashed reader.")
    Term.(
      const run $ outdir_arg $ stats_json_arg $ scheme_arg $ period_arg
      $ duration_arg $ stall_arg $ heal_arg $ readers_arg $ writers_arg
      $ range_arg $ seed_arg $ out_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* bench-reclaim: the kernel table.                                    *)
(* ------------------------------------------------------------------ *)

let bench_reclaim_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_reclaim.json"
      & info [ "out" ] ~doc:"Output JSON path.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit non-zero if any gated kernel allocates minor-heap words \
             per op in steady state or breaks its latency budget.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced iteration counts (CI gate).")
  in
  Cmd.v
    (Cmd.info "bench-reclaim"
       ~doc:
         "The kernel table: reclamation data-plane kernels (retire cycle, \
          shield scan at H hazards, epoch pin/unpin, failed advance, trace \
          emit), per-scheme crit/protect/retire and the structure kernels, \
          with per-op time and minor-heap allocation; writes \
          BENCH_reclaim.json")
    Term.(
      const (fun out gate quick -> W.Kernel_bench.run ~out ~gate ~quick)
      $ out_arg $ gate_arg $ quick_arg)

(* ------------------------------------------------------------------ *)
(* bench-domains: the real-parallelism thread-sweep matrix.            *)
(* ------------------------------------------------------------------ *)

let bench_domains_cmd =
  let module DB = W.Domains_bench in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_domains.json"
      & info [ "out" ] ~doc:"Output JSON path.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit non-zero on any census/uaf failure, single-domain \
             overhead beyond 1.5x the fiber baseline, kernel parity \
             beyond 1.5x or allocating in-domain, or (on multi-core \
             hardware) an absolute multi-domain slowdown, judged on the \
             median of 3 runs of each cell.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced cell and kernel sizes (CI gate).")
  in
  let threads_arg =
    Arg.(
      value & opt string "1,2,4,8"
      & info [ "threads"; "t" ]
          ~doc:
            "Comma-separated domain counts to sweep; clamped to the \
             hardware's parallelism.")
  in
  let scheme_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scheme" ]
          ~doc:"Comma-separated scheme subset (default: all twelve).")
  in
  let ds_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ds" ]
          ~doc:
            "Comma-separated structure subset (default: \
             HMList,HHSList,HashMap,NMTree).")
  in
  let ops_arg =
    Arg.(
      value & opt int 4000
      & info [ "ops" ] ~doc:"Operations per worker per cell.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let split s = String.split_on_char ',' s |> List.map String.trim in
  let run out gate quick threads scheme ds ops seed =
    DB.run ~out ~gate ~quick
      ~threads:(List.map int_of_string (split threads))
      ~schemes:(match scheme with None -> DB.all_scheme_names | Some s -> split s)
      ~dss:
        (match ds with
        | None -> DB.default_dss
        | Some s -> List.map W.Matrix.ds_of_string (split s))
      ~ops_per_thread:ops ~seed
  in
  Cmd.v
    (Cmd.info "bench-domains"
       ~doc:
         "Run the scheme x structure matrix on real Domain.spawn workers \
          across a thread sweep (clamped to the hardware) with correctness \
          census, single-domain overhead and scalability-ratio gates; \
          writes BENCH_domains.json")
    Term.(
      const run $ out_arg $ gate_arg $ quick_arg $ threads_arg $ scheme_arg
      $ ds_arg $ ops_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* hunt: schedule/fault exploration with shrinking counterexamples.    *)
(* ------------------------------------------------------------------ *)

let hunt_cmd =
  let module C = Hpbrcu_check in
  let scheme_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scheme" ]
          ~doc:
            "Comma-separated hunt targets (default: every real scheme in the \
             hunt matrix).  Mutant names like HP-BRCU!nomask are accepted.")
  in
  let mutants_arg =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:"Hunt the planted mutants instead (each MUST be convicted).")
  in
  let strategy_arg =
    Arg.(
      value & opt string "rand"
      & info [ "strategy" ] ~doc:"Search strategy: rand, pct or dfs.")
  in
  let runs_arg =
    Arg.(
      value & opt int 150
      & info [ "runs" ] ~doc:"Case budget per (scheme, strategy).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Base seed; case i runs under a seed derived from it.")
  in
  let shrink_arg =
    Arg.(
      value & opt int 150
      & info [ "shrink-budget" ] ~doc:"Run budget for minimizing a finding.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write each shrunk finding as a replayable artifact under $(docv).")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:
            "Replay the repro artifact $(docv) twice (traced) and verify the \
             finding recurs with byte-identical event logs; no hunting.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI gate: every mutant must be convicted (and its repro must \
             replay) and every real scheme must stay silent, all within \
             --runs cases per target.")
  in
  let write_repro out (scheme : string) (f : C.Hunt.finding_report) =
    match out with
    | None -> ()
    | Some dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let slug =
          String.map (function '!' -> '_' | c -> c) scheme
          ^ "-" ^ C.Oracle.tag f.C.Hunt.repro.C.Repro.finding ^ ".repro"
        in
        let path = Filename.concat dir slug in
        C.Repro.to_file path f.C.Hunt.repro;
        Printf.printf "wrote %s\n" path
  in
  let hunt_one ~strategy ~seed ~runs ~shrink_budget ~out scheme =
    let cfg =
      {
        (C.Hunt.default_config ~scheme
           ~strategy:(C.Hunt.strategy_of_string strategy)
           ~seed ~runs)
        with
        C.Hunt.shrink_budget;
        log = print_endline;
      }
    in
    let r = C.Hunt.run cfg in
    Fmt.pr "%a@." C.Hunt.pp_report r;
    Option.iter (write_repro out scheme) r.C.Hunt.finding;
    r
  in
  let run scheme mutants strategy runs seed shrink_budget out repro smoke =
    match repro with
    | Some file ->
        let r = C.Repro.of_file file in
        let v = C.Repro.replay r in
        Fmt.pr "%s: %a@." file C.Repro.pp_verdict v;
        if v.C.Repro.reproduced && v.C.Repro.deterministic then 0 else 1
    | None ->
        let targets =
          match scheme with
          | Some s -> String.split_on_char ',' s |> List.map String.trim
          | None when mutants -> W.Matrix.mutant_names
          | None -> W.Matrix.hunt_scheme_names
        in
        if smoke then begin
          (* Mutation-testing gate: the hunt must convict every planted bug
             and stay silent on every real scheme, same budget both ways.
             Both randomized strategies run per target — they are
             complementary (uniform random's fine-grained interleavings
             build the multi-node marked chains the nomask leak needs; PCT's
             long uninterrupted stretches strand the torn checkpoints the
             nodb use-after-free needs). *)
          let convicted s =
            List.exists
              (fun strategy ->
                not
                  (C.Hunt.clean
                     (hunt_one ~strategy ~seed ~runs ~shrink_budget ~out s)))
              [ "rand"; "pct" ]
          in
          let missed =
            List.filter (fun m -> not (convicted m)) W.Matrix.mutant_names
          in
          let noisy = List.filter convicted W.Matrix.hunt_scheme_names in
          List.iter
            (Printf.eprintf "hunt: MUTANT NOT CONVICTED within budget: %s\n")
            missed;
          List.iter
            (Printf.eprintf "hunt: FALSE POSITIVE on real scheme: %s\n")
            noisy;
          if missed = [] && noisy = [] then begin
            Printf.printf
              "hunt smoke: %d mutants convicted, %d real schemes clean\n"
              (List.length W.Matrix.mutant_names)
              (List.length W.Matrix.hunt_scheme_names);
            0
          end
          else 1
        end
        else begin
          let reports =
            List.map (hunt_one ~strategy ~seed ~runs ~shrink_budget ~out) targets
          in
          if List.for_all C.Hunt.clean reports then 0 else 1
        end
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:
         "Systematically explore schedules and fault plans (random, PCT \
          priorities, bounded DFS) against the safety oracles — \
          use-after-free, double retire/reclaim, bound violation, lost \
          signal, leak at quiescence — shrinking any finding to a minimal \
          replayable repro artifact")
    Term.(
      const run $ scheme_arg $ mutants_arg $ strategy_arg $ runs_arg $ seed_arg
      $ shrink_arg $ out_arg $ repro_arg $ smoke_arg)

let table_cmd name pp =
  Cmd.v
    (Cmd.info name ~doc:("Print the paper's " ^ name))
    Term.(
      const (fun () ->
          pp ();
          0)
      $ const ())

let main =
  Cmd.group
    (Cmd.info "smrbench" ~version:"1.0"
       ~doc:"Regenerate the experiments of 'Expediting Hazard Pointers with Bounded RCU Critical Sections' (SPAA 2024)")
    [
      fig1_cmd;
      fig5_cmd;
      fig6_cmd;
      fig7_cmd;
      appendix_cmd;
      sweep_cmd;
      longrun_cmd;
      trace_cmd;
      chaos_cmd;
      shards_cmd;
      serve_cmd;
      hunt_cmd;
      analyze_cmd;
      sample_cmd;
      bench_reclaim_cmd;
      bench_domains_cmd;
      table_cmd "table1" W.Figures.table1;
      table_cmd "table2" W.Figures.table2;
    ]

let () = exit (Cmd.eval' main)
