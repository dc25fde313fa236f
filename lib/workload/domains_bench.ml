(** The Domains-backend thread-sweep matrix ([smrbench bench-domains]).

    Runs every scheme × structure cell of the applicability matrix on real
    [Domain.spawn] workers across a list of thread counts and writes one
    JSON document ([BENCH_domains.json]) with per-cell ns/op and the
    scalability ratio against the cell's own single-domain run.  This is
    the wall-clock counterpart of the fiber figures: the fiber substrate
    answers "is it correct under adversarial interleavings", this matrix
    answers "is it fast on hardware".

    Thread counts are clamped to {!Backend.hardware_threads}:
    oversubscribing domains measures the OS scheduler, not the scheme.
    On a 1-core container the sweep therefore degenerates to the
    single-domain column — the gates are designed for that:

    - {b correctness} (every cell): uaf = 0 and a clean allocator census —
      [unreclaimed = retired - reclaimed] exactly (this doubles as an
      end-to-end check of the sharded counter's lane fold) and
      [allocated >= retired + abandoned], with no double retires or
      reclaims.
    - {b overhead} (single-domain, stable cells only): domains-mode ns/op
      must stay within {!overhead_limit}× of the identical cell run on
      the fiber substrate.  A domain worker has no effect handler, no
      virtual clock and no seeded chooser in its loop, so the ratio is
      normally well below 1; breaching 1.5 means the backend itself grew
      a hot-path cost.
    - {b scalability} (ratio rows): only evaluated when the clamp leaves
      ≥ 2 usable cores; below that the ratio column is reported as null
      and no ratio gate applies.  Every cell runs {!reps} times and is
      reported — and gated — by its median-throughput run: a single
      short cell on a shared host swings by tens of percent, enough to
      flip a 1-domain baseline and fail a healthy ratio.

    Cells are ops-limited, not duration-limited, so a run does the same
    work on any machine and the census is exact. *)

module Caps = Hpbrcu_core.Caps
module Alloc = Hpbrcu_alloc.Alloc
module Backend = Hpbrcu_runtime.Backend
module Trace = Hpbrcu_runtime.Trace
module Json = Report.Json

let overhead_limit = 1.5

(** Repetitions of every cell; the row is the median-throughput run. *)
let reps = 3

type cell = {
  scheme : string;
  ds : Caps.ds_id;
  threads : int;
  ns_per_op : float;  (** wall-clock ns per completed operation *)
  throughput : float;  (** Mop/s over all workers *)
  total_ops : int;
  peak_unreclaimed : int;
  uaf : int;
  census_ok : bool;
  census_msg : string;  (** "" when clean *)
  ratio : float option;
      (** throughput at [threads] / throughput of this scheme×ds at 1
          domain; [None] for the 1-domain row and when < 2 cores *)
  fiber_ns_per_op : float option;
      (** the identical cell on the fiber substrate; measured only for
          single-domain rows of overhead-gated pairs *)
}

(* The pairs whose single-domain ns/op is compared against the fiber
   substrate.  A deliberately small, stable set: list traversals dominated
   by the schemes' own read protection, so the ratio isolates substrate
   overhead rather than structure-specific variance. *)
let overhead_pairs =
  [
    ("NR", Caps.HHSList);
    ("RCU", Caps.HHSList);
    ("HP", Caps.HMList);
    ("HP-BRCU", Caps.HHSList);
  ]

let all_scheme_names = List.map fst Matrix.schemes

let default_dss = [ Caps.HMList; Caps.HHSList; Caps.HashMap; Caps.NMTree ]

let key_range_of ds =
  match ds with
  | Caps.HList | Caps.HMList | Caps.HHSList -> 256
  | Caps.HashMap | Caps.SkipList | Caps.NMTree -> 1024

(* The census reads the allocator's global counters right after the cell
   (the runner resets them only at the *start* of a cell, so they are
   still the cell's own numbers here). *)
let census () =
  let st = Alloc.stats () in
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check (st.Alloc.uaf = 0) (Printf.sprintf "uaf=%d" st.Alloc.uaf);
  check (st.Alloc.double_retires = 0)
    (Printf.sprintf "double_retires=%d" st.Alloc.double_retires);
  check (st.Alloc.double_reclaims = 0)
    (Printf.sprintf "double_reclaims=%d" st.Alloc.double_reclaims);
  check
    (st.Alloc.unreclaimed = st.Alloc.retired - st.Alloc.reclaimed)
    (Printf.sprintf "unreclaimed=%d <> retired-reclaimed=%d"
       st.Alloc.unreclaimed
       (st.Alloc.retired - st.Alloc.reclaimed));
  check
    (st.Alloc.allocated >= st.Alloc.retired + st.Alloc.abandoned)
    (Printf.sprintf "allocated=%d < retired+abandoned=%d" st.Alloc.allocated
       (st.Alloc.retired + st.Alloc.abandoned));
  (!problems = [], String.concat "; " (List.rev !problems))

let ns_per_op (r : Spec.result) =
  if r.Spec.total_ops = 0 then Float.infinity
  else r.Spec.elapsed *. 1e9 /. float_of_int r.Spec.total_ops

let run_one ~scheme ~ds ~threads ~mode ~ops_per_thread ~seed =
  let cell =
    Spec.cell ~threads ~key_range:(key_range_of ds) ~workload:Spec.Read_write
      ~limit:(Spec.Ops ops_per_thread) ~mode ~seed ()
  in
  Matrix.run_cell ~ds ~scheme cell

(* [median_run run] runs a cell {!reps} times, passing each result to
   [check] while its allocator census is still current, and returns the
   median-throughput result ([None] if the pair is excluded). *)
let median_run ~check run =
  let rs =
    List.filter_map
      (fun _ ->
        let r = run () in
        Option.iter check r;
        r)
      (List.init reps Fun.id)
  in
  match
    List.sort (fun a b -> compare a.Spec.throughput b.Spec.throughput) rs
  with
  | [] -> None
  | sorted -> Some (List.nth sorted (List.length sorted / 2))

(** [clamp_threads ts] — the usable subset of the requested sweep:
    deduplicated, capped at the hardware's parallelism. *)
let clamp_threads ts =
  let hw = max 1 (Backend.hardware_threads ()) in
  match List.sort_uniq compare (List.filter (fun t -> t >= 1) ts) with
  | [] -> [ 1 ]
  | ts -> (
      match List.filter (fun t -> t <= hw) ts with
      | [] -> [ hw ] (* everything requested exceeds the box: run its max *)
      | ts -> ts)

let json_of_cell (c : cell) =
  Json.Obj
    [
      ("scheme", Json.Str c.scheme);
      ("ds", Json.Str (Caps.ds_name c.ds));
      ("threads", Json.Int c.threads);
      ("ns_per_op", Json.Float c.ns_per_op);
      ("throughput_mops", Json.Float c.throughput);
      ("total_ops", Json.Int c.total_ops);
      ("peak_unreclaimed", Json.Int c.peak_unreclaimed);
      ("uaf", Json.Int c.uaf);
      ("census_ok", Json.Bool c.census_ok);
      ("census", Json.Str c.census_msg);
      ( "scalability_ratio",
        match c.ratio with None -> Json.Null | Some r -> Json.Float r );
      ( "fiber_ns_per_op",
        match c.fiber_ns_per_op with
        | None -> Json.Null
        | Some v -> Json.Float v );
    ]

type verdict = { failures : string list; cells : cell list }

(** [sweep ()] runs the matrix and returns every cell row plus the list of
    gate failures (empty = pass).  [threads] is clamped; [schemes]/[dss]
    default to the full applicability matrix. *)
let sweep ?(schemes = all_scheme_names) ?(dss = default_dss)
    ?(threads = [ 1; 2; 4; 8 ]) ?(ops_per_thread = 4000) ?(seed = 42)
    ?(progress = fun (_ : string) -> ()) () : verdict =
  let threads = clamp_threads threads in
  let multi = List.exists (fun t -> t >= 2) threads in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let cells = ref [] in
  List.iter
    (fun scheme ->
      List.iter
        (fun ds ->
          let base_tput = ref None in
          List.iter
            (fun threads ->
              let name =
                Printf.sprintf "%s/%s@%d" scheme (Caps.ds_name ds) threads
              in
              (* Every repetition is censused and UAF-checked; the row
                 keeps the worst verdicts seen. *)
              let census_ok = ref true and census_msg = ref "" in
              let uaf = ref 0 in
              let check (r : Spec.result) =
                let ok, msg = census () in
                if not ok then begin
                  if !census_ok then census_msg := msg;
                  census_ok := false;
                  fail "%s census: %s" name msg
                end;
                if r.Spec.uaf <> 0 then fail "%s uaf=%d" name r.Spec.uaf;
                uaf := max !uaf r.Spec.uaf
              in
              match
                median_run ~check (fun () ->
                    run_one ~scheme ~ds ~threads ~mode:Spec.Domains
                      ~ops_per_thread ~seed)
              with
              | None -> () (* pair excluded by the applicability matrix *)
              | Some r ->
                  let census_ok = !census_ok and census_msg = !census_msg in
                  progress
                    (Printf.sprintf "%-24s %10.1f ns/op%s" name (ns_per_op r)
                       (if census_ok then "" else "  CENSUS: " ^ census_msg));
                  let ratio =
                    match !base_tput with
                    | None ->
                        if threads = 1 then base_tput := Some r.Spec.throughput;
                        None
                    | Some b when b > 0. -> Some (r.Spec.throughput /. b)
                    | Some _ -> None
                  in
                  let fiber_ns =
                    if threads = 1 && List.mem (scheme, ds) overhead_pairs
                    then begin
                      (* Parked companion: the baseline must pay the same
                         multi-domain Atomic code paths the domain run
                         pays, or the gate measures the OCaml runtime's
                         single-domain fast path instead of the backend
                         (see {!Backend.with_parked_domain}). *)
                      let fiber_once () =
                        Backend.with_parked_domain (fun () ->
                            run_one ~scheme ~ds ~threads:1
                              ~mode:(Spec.Fibers seed) ~ops_per_thread ~seed)
                      in
                      match fiber_once () with
                      | None -> None
                      | Some fr ->
                          (* Best-of-two on both sides: wall-clock cells on
                             a shared box jitter, and the gate should not
                             fail on a lost timeslice. *)
                          let fns =
                            match fiber_once () with
                            | Some fr2 ->
                                Float.min (ns_per_op fr) (ns_per_op fr2)
                            | None -> ns_per_op fr
                          in
                          let dns =
                            match
                              run_one ~scheme ~ds ~threads:1
                                ~mode:Spec.Domains ~ops_per_thread ~seed
                            with
                            | Some r2 ->
                                Float.min (ns_per_op r) (ns_per_op r2)
                            | None -> ns_per_op r
                          in
                          if fns > 0. && dns > fns *. overhead_limit then
                            fail
                              "%s single-domain overhead: %.1f ns/op > %.1fx \
                               fiber baseline %.1f ns/op"
                              name dns overhead_limit fns;
                          Some fns
                    end
                    else None
                  in
                  (* Scalability is advisory below perfect isolation, but a
                     multi-domain run that is *slower in absolute terms*
                     than one domain on a multi-core box means the padding
                     story regressed. *)
                  (match ratio with
                  | Some rr when multi && rr < 0.5 ->
                      fail "%s scalability ratio %.2f < 0.5" name rr
                  | _ -> ());
                  cells :=
                    {
                      scheme;
                      ds;
                      threads;
                      ns_per_op = ns_per_op r;
                      throughput = r.Spec.throughput;
                      total_ops = r.Spec.total_ops;
                      peak_unreclaimed = r.Spec.peak_unreclaimed;
                      uaf = !uaf;
                      census_ok;
                      census_msg;
                      ratio = (if multi then ratio else None);
                      fiber_ns_per_op = fiber_ns;
                    }
                    :: !cells)
            threads)
        dss)
    schemes;
  { failures = List.rev !failures; cells = List.rev !cells }

(* ------------------------------------------------------------------ *)
(* Flight-recorder whole-cell delta                                    *)
(* ------------------------------------------------------------------ *)

type flight_delta = {
  fd_scheme : string;
  fd_ds : Caps.ds_id;
  fd_threads : int;
  off_ns : float;  (** ns/op, recorder disarmed (the baseline cells) *)
  on_ns : float;  (** ns/op, flight recorder armed on the same cell *)
  overhead_pct : float;  (** (on - off) / off * 100 *)
  fd_kept : int;  (** merged records of the armed run *)
  fd_dropped : int;  (** ring-wraparound drops of the armed run *)
}

(** [flight_delta ()] — what arming the recorder costs a whole cell, as
    opposed to the per-event price the [flight-emit] kernel gates: one
    representative cell (every op emits begin/end plus the scheme's
    retire/reclaim/checkpoint events) run disarmed then armed,
    best-of-two each way.  The armed run also exercises the census
    identity end-to-end via {!Cell_runner}.  Recorded beside the
    baseline matrix in BENCH_domains.json; advisory, not gated — the
    honest number to quote when someone asks what tracing costs. *)
let flight_delta ?(scheme = "HP-BRCU") ?(ds = Caps.HHSList)
    ?(ops_per_thread = 4000) ?(seed = 42) () : flight_delta option =
  let threads = min 2 (max 1 (Backend.hardware_threads ())) in
  let cell () =
    run_one ~scheme ~ds ~threads ~mode:Spec.Domains ~ops_per_thread ~seed
  in
  let best f =
    match (f (), f ()) with
    | Some a, Some b -> Some (Float.min (ns_per_op a) (ns_per_op b))
    | Some a, None | None, Some a -> Some (ns_per_op a)
    | None, None -> None
  in
  let armed () =
    Trace.enable ~sink:Trace.Flight ~ndomains:threads ();
    let r = cell () in
    let kept = List.length (Trace.dump ()) and dropped = Trace.dropped () in
    Trace.disable ();
    Option.map (fun r -> (ns_per_op r, kept, dropped)) r
  in
  match best cell with
  | None -> None
  | Some off_ns -> (
      match (armed (), armed ()) with
      | Some (a, ka, da), Some (b, kb, db) ->
          let on_ns, fd_kept, fd_dropped =
            if a <= b then (a, ka, da) else (b, kb, db)
          in
          Some
            {
              fd_scheme = scheme;
              fd_ds = ds;
              fd_threads = threads;
              off_ns;
              on_ns;
              overhead_pct = (on_ns -. off_ns) /. Float.max 1e-9 off_ns *. 100.;
              fd_kept;
              fd_dropped;
            }
      | Some (on_ns, fd_kept, fd_dropped), None
      | None, Some (on_ns, fd_kept, fd_dropped) ->
          Some
            {
              fd_scheme = scheme;
              fd_ds = ds;
              fd_threads = threads;
              off_ns;
              on_ns;
              overhead_pct = (on_ns -. off_ns) /. Float.max 1e-9 off_ns *. 100.;
              fd_kept;
              fd_dropped;
            }
      | None, None -> None)

let json_of_flight_delta (f : flight_delta) =
  Json.Obj
    [
      ("scheme", Json.Str f.fd_scheme);
      ("ds", Json.Str (Caps.ds_name f.fd_ds));
      ("threads", Json.Int f.fd_threads);
      ("off_ns_per_op", Json.Float f.off_ns);
      ("on_ns_per_op", Json.Float f.on_ns);
      ("overhead_pct", Json.Float f.overhead_pct);
      ("kept_events", Json.Int f.fd_kept);
      ("dropped_events", Json.Int f.fd_dropped);
    ]

(** [write_json path v ~kernel_rows] — the BENCH_domains.json document:
    environment header, matrix cells, optional kernel-parity section
    (filled in by [smrbench], which owns the microkernels), the
    flight-recorder on/off delta, and the gate verdict. *)
let write_json ?flight path (v : verdict) ~(kernel_rows : Json.value list) =
  Json.to_file path
    (Json.Obj
       [
         ("benchmark", Json.Str "domains");
         ("hardware_threads", Json.Int (Backend.hardware_threads ()));
         ( "ratio_gates_active",
           Json.Bool (Backend.hardware_threads () >= 2) );
         ("cells", Json.List (List.map json_of_cell v.cells));
         ("kernels", Json.List kernel_rows);
         ( "flight_recorder_delta",
           match flight with
           | None -> Json.Null
           | Some f -> json_of_flight_delta f );
         ("gate_failures", Json.List (List.map (fun f -> Json.Str f) v.failures));
       ])
