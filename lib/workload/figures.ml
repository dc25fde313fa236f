(** Drivers that regenerate every figure and table of the paper's
    evaluation (see DESIGN.md §4 for the experiment index).

    Each driver prints an aligned table and writes a CSV under [results/].
    Parameters are scaled for this container (see the [quick] profile);
    [full] approaches the paper's parameters. *)

module Caps = Hpbrcu_core.Caps

type profile = {
  label : string;
  duration : float;  (** seconds per cell *)
  threads : int list;
  mode : Spec.mode;
  longrun_mode : Spec.mode;
      (** The long-running/robustness experiments interleave reads and
          reclamation at instruction granularity, which one timeshared
          core cannot express with domains: a reader's whole operation
          runs in one timeslice, during which writers retire nothing.
          They therefore default to the fiber simulator (DESIGN.md §2.3). *)
  small_range : int;  (** paper: 1K lists / 100K others *)
  large_range : int;  (** paper: 10K lists / 100M others *)
  longrun_ranges : int list;  (** paper: 2^18 .. 2^29 *)
  longrun_threads : int;  (** paper: 32+32 *)
  seed : int;
}

let quick =
  {
    label = "quick";
    duration = 0.3;
    threads = [ 1; 2; 4; 8 ];
    (* Fibers by default: figures regenerated on an arbitrary box must not
       depend on its core count.  [with_mode] rebases a profile on real
       domains when the caller passes [--mode domains]. *)
    mode = Spec.Fibers 7;
    longrun_mode = Spec.Fibers 7;
    small_range = 1024;
    large_range = 8192;
    longrun_ranges = [ 256; 512; 1024; 2048; 4096; 8192 ];
    longrun_threads = 4;
    seed = 42;
  }

let full =
  {
    quick with
    label = "full";
    duration = 1.0;
    threads = [ 1; 2; 4; 8; 16 ];
    large_range = 65536;
    longrun_ranges = [ 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ];
    longrun_threads = 8;
  }

(* The simulator profile plays the role of the second machine (INTEL96T):
   same code, different interleaving universe and thread counts. *)
let sim =
  {
    quick with
    label = "sim";
    mode = Spec.Fibers 7;
    longrun_mode = Spec.Fibers 11;
    threads = [ 1; 8; 16; 32 ];
    duration = 0.2;
    seed = 1077;
  }

(** [with_mode p m] rebases profile [p] on substrate [m] — the [--mode]
    flag of the figure commands.  [`Fibers] is the recorded default of
    each profile; [`Domains] switches the thread sweeps to real
    [Domain.spawn] workers and clamps the thread list to what the
    hardware can actually run in parallel (oversubscribed domains
    measure the OS scheduler, not the reclamation scheme).  The
    long-running experiments follow the same switch — on one timeshared
    core their figures are qualitative at best (see the [longrun_mode]
    field), but on real multicore hardware the wall-clock numbers are
    the point.  Only the *traced* longrun path stays fiber-only: the
    spooled trace needs the deterministic tick clock
    ({!Longrun.run_traced} rejects domain mode). *)
let with_mode p = function
  | `Fibers -> p
  | `Domains ->
      let hw = max 1 (Hpbrcu_runtime.Backend.hardware_threads ()) in
      let threads =
        List.sort_uniq compare (List.map (fun t -> min t hw) p.threads)
      in
      {
        p with
        mode = Spec.Domains;
        threads;
        longrun_mode = Spec.Domains;
        longrun_threads = min p.longrun_threads hw;
      }

let fig1_schemes = [ "NR"; "RCU"; "HP"; "NBR"; "HP-RCU"; "HP-BRCU" ]

(* ------------------------------------------------------------------ *)
(* Long-running operations: Figures 1, 6, 22 (B.3), 37 (C.3)           *)
(* ------------------------------------------------------------------ *)

(* One machine-readable record per (figure, range, scheme) cell for
   [--stats-json]; a no-op unless the accumulator is armed. *)
let record_longrun_cell ~file ~range ~scheme (o : Longrun.outcome) =
  Report.record_cell
    [
      ("figure", Report.Json.Str file);
      ("kind", Report.Json.Str "longrun");
      ("scheme", Report.Json.Str scheme);
      ("key_range", Report.Json.Int range);
      ("reader_tput_mops", Report.Json.Float o.Longrun.reader_tput);
      ("writer_tput_mops", Report.Json.Float o.Longrun.writer_tput);
      ("peak_unreclaimed", Report.Json.Int o.Longrun.peak_unreclaimed);
      ("uaf", Report.Json.Int o.Longrun.uaf);
      ("latency_unit", Report.Json.Str o.Longrun.latency_unit);
      ("reader_latency", Report.json_of_summary o.Longrun.reader_latency);
      ("writer_latency", Report.json_of_summary o.Longrun.writer_latency);
      ("counters", Report.json_of_snapshot o.Longrun.scheme);
    ]

let longrun_tables ~title ~file p schemes =
  let header = "key_range" :: schemes in
  let rows_t = ref [] and rows_p = ref [] in
  List.iter
    (fun range ->
      let cfg =
        Longrun.config ~key_range:range ~readers:p.longrun_threads
          ~writers:p.longrun_threads ~duration:p.duration ~mode:p.longrun_mode
          ~seed:p.seed ()
      in
      let outcomes =
        List.map (fun s -> (s, Longrun.run ~scheme:s cfg)) schemes
      in
      List.iter
        (fun (s, o) -> record_longrun_cell ~file ~range ~scheme:s o)
        outcomes;
      let base =
        match List.assoc_opt "NR" outcomes with
        | Some o -> o.Longrun.reader_tput
        | None -> 1.0
      in
      let ratio o = if base <= 0. then 0. else o /. base in
      rows_t :=
        (Report.i range
        :: List.map
             (fun (_, o) -> Report.f3 (ratio o.Longrun.reader_tput))
             outcomes)
        :: !rows_t;
      rows_p :=
        (Report.i range
        :: List.map
             (fun (_, o) -> Report.i o.Longrun.peak_unreclaimed)
             outcomes)
        :: !rows_p)
    p.longrun_ranges;
  let rows_t = List.rev !rows_t and rows_p = List.rev !rows_p in
  Report.emit
    ~sinks:[ Report.Table; Report.Csv (file ^ "_throughput.csv") ]
    { Report.title = title ^ " — reader throughput ratio to NR"; header; rows = rows_t };
  Report.emit
    ~sinks:[ Report.Table; Report.Csv (file ^ "_peak.csv") ]
    { Report.title = title ^ " — peak unreclaimed blocks"; header; rows = rows_p }

(** Figure 1: long-running reads, the six headline schemes. *)
let fig1 p = longrun_tables ~title:"Figure 1: long-running read operations"
    ~file:"fig1" p fig1_schemes

(** Figure 6 / Figure 22 / Figure 37: all schemes. *)
let fig6 p =
  longrun_tables ~title:"Figure 6/22: long-running reads, all schemes"
    ~file:"fig6" p Matrix.scheme_names

(* ------------------------------------------------------------------ *)
(* Thread sweeps (Figures 5, 7 and the appendix grids)                 *)
(* ------------------------------------------------------------------ *)

let record_sweep_cell ~file ~ds ~workload ~threads ~key_range ~scheme
    (r : Spec.result) =
  Report.record_cell
    [
      ("figure", Report.Json.Str file);
      ("kind", Report.Json.Str "sweep");
      ("ds", Report.Json.Str (Caps.ds_name ds));
      ("workload", Report.Json.Str (Spec.workload_name workload));
      ("scheme", Report.Json.Str scheme);
      ("threads", Report.Json.Int threads);
      ("key_range", Report.Json.Int key_range);
      ("total_ops", Report.Json.Int r.Spec.total_ops);
      ("throughput_mops", Report.Json.Float r.Spec.throughput);
      ("peak_unreclaimed", Report.Json.Int r.Spec.peak_unreclaimed);
      ("final_unreclaimed", Report.Json.Int r.Spec.final_unreclaimed);
      ("uaf", Report.Json.Int r.Spec.uaf);
      ("latency_unit", Report.Json.Str r.Spec.latency.Spec.unit_);
      ("get_latency", Report.json_of_summary r.Spec.latency.Spec.get);
      ("insert_latency", Report.json_of_summary r.Spec.latency.Spec.insert);
      ("remove_latency", Report.json_of_summary r.Spec.latency.Spec.remove);
      ("counters", Report.json_of_snapshot r.Spec.scheme);
    ]

let sweep ~title ~file p ~ds ~workload ~key_range ?(schemes = Matrix.scheme_names) () =
  let header = "threads" :: schemes in
  let rows_t = ref [] and rows_p = ref [] in
  List.iter
    (fun threads ->
      let cell =
        Spec.cell ~threads ~key_range ~workload ~limit:(Spec.Duration p.duration)
          ~mode:p.mode ~seed:p.seed ()
      in
      let res = List.map (fun s -> (s, Matrix.run_cell ~ds ~scheme:s cell)) schemes in
      List.iter
        (function
          | s, Some r ->
              record_sweep_cell ~file ~ds ~workload ~threads ~key_range ~scheme:s r
          | _, None -> ())
        res;
      rows_t :=
        (Report.i threads
        :: List.map
             (function
               | _, Some r -> Report.f3 r.Spec.throughput
               | _, None -> "n/a")
             res)
        :: !rows_t;
      rows_p :=
        (Report.i threads
        :: List.map
             (function
               | _, Some r -> Report.i r.Spec.peak_unreclaimed
               | _, None -> "n/a")
             res)
        :: !rows_p)
    p.threads;
  let rows_t = List.rev !rows_t and rows_p = List.rev !rows_p in
  Report.emit
    ~sinks:[ Report.Table; Report.Csv (file ^ "_throughput.csv") ]
    { Report.title = title ^ " — throughput (Mop/s)"; header; rows = rows_t };
  Report.emit
    ~sinks:[ Report.Table; Report.Csv (file ^ "_peak.csv") ]
    { Report.title = title ^ " — peak unreclaimed blocks"; header; rows = rows_p }

(** Figure 5: read-only workloads (HHSList small range, HashMap). *)
let fig5 p =
  sweep ~title:"Figure 5a: read-only, HHSList" ~file:"fig5a" p ~ds:Caps.HHSList
    ~workload:Spec.Read_only ~key_range:p.small_range ();
  sweep ~title:"Figure 5b: read-only, HashMap" ~file:"fig5b" p ~ds:Caps.HashMap
    ~workload:Spec.Read_only ~key_range:(p.small_range * 16) ()

(** Figure 7: the four representative write-heavy panels. *)
let fig7 p =
  sweep ~title:"Figure 7a: write-only, HList" ~file:"fig7a" p ~ds:Caps.HList
    ~workload:Spec.Write_only ~key_range:p.small_range ();
  sweep ~title:"Figure 7b: write-only, HashMap" ~file:"fig7b" p ~ds:Caps.HashMap
    ~workload:Spec.Write_only ~key_range:(p.small_range * 16) ();
  sweep ~title:"Figure 7c: read-write, NMTree" ~file:"fig7c" p ~ds:Caps.NMTree
    ~workload:Spec.Read_write ~key_range:(p.small_range * 16) ();
  sweep ~title:"Figure 7d: read-write, SkipList" ~file:"fig7d" p ~ds:Caps.SkipList
    ~workload:Spec.Read_write ~key_range:(p.small_range * 16) ()

(** Appendix B/C grids (Figures 8-21, 23-36): every workload × data
    structure × range. *)
let appendix ?(workloads = [ Spec.Write_only; Spec.Read_write; Spec.Read_intensive; Spec.Read_only ])
    ?(dss = Caps.all_ds) ?(ranges = [ `Small; `Large ]) p =
  List.iter
    (fun wl ->
      List.iter
        (fun range_kind ->
          List.iter
            (fun ds ->
              (* Read-only panels in the paper cover only the structures
                 with a read-only fast path; we keep the full set. *)
              let is_list =
                match ds with
                | Caps.HList | Caps.HMList | Caps.HHSList -> true
                | _ -> false
              in
              let base = if is_list then p.small_range else p.small_range * 16 in
              let key_range =
                match range_kind with `Small -> base | `Large -> base * 8
              in
              let tag =
                Printf.sprintf "appendix_%s_%s_%s" (Spec.workload_name wl)
                  (Caps.ds_name ds)
                  (match range_kind with `Small -> "small" | `Large -> "large")
              in
              sweep
                ~title:
                  (Printf.sprintf "Appendix: %s, %s, %s range"
                     (Spec.workload_name wl) (Caps.ds_name ds)
                     (match range_kind with `Small -> "small" | `Large -> "large"))
                ~file:tag p ~ds ~workload:wl ~key_range ())
            dss)
        ranges)
    workloads

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                      *)
(* ------------------------------------------------------------------ *)

let table1 () = Fmt.pr "%a@." Caps.pp_table1 ()
let table2 () = Fmt.pr "%a@." Caps.pp_table2 ()
